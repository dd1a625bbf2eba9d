"""Row-level field kernels against the scalar calls they replace.

Each bulk primitive (`dot`, `matvec`, `sub_scaled`, `scale`) must return
what the per-scalar composition returns and add exactly as much to
`op_count`, so op totals read by criterion 8 and the benchmark keep
their meaning.  The eliminations built on the kernels (`rref`,
`pivot_columns`, `SpanTracker`) are compared with scalar reference
copies of themselves, op counts included.
"""

import random
from fractions import Fraction

import pytest

from ratform import Mat, PrimeField, Rationals, Vec, rref
from ratform.linalg import SpanTracker, pivot_columns

FIELDS = [PrimeField(7), PrimeField(1000000007), Rationals()]
IDS = ["GF7", "GF1e9+7", "Q"]


def scalar(K, rng):
    roll = rng.random()
    if roll < 0.2:
        return K.zero
    if roll < 0.3:
        return K.one
    if K.kind == "gf":
        return rng.randrange(K.p)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def row(K, rng, n):
    return [scalar(K, rng) for _ in range(n)]


def counted(K, fn, *args):
    """fn(*args) and the op_count it added."""
    before = K.op_count
    out = fn(*args)
    return out, K.op_count - before


def dot_ref(K, xs, ys):
    if not xs:
        return K.zero
    acc = K.mul(xs[0], ys[0])
    for x, y in zip(xs[1:], ys[1:]):
        acc = K.add(acc, K.mul(x, y))
    return acc


def matvec_ref(K, rows, v):
    return [dot_ref(K, r, v) for r in rows]


def sub_scaled_ref(K, xs, c, ys):
    return [K.sub(x, K.mul(c, y)) for x, y in zip(xs, ys)]


def scale_ref(K, c, xs):
    return [K.mul(c, x) for x in xs]


def matmul_ref(K, a, b):
    bcols = [[b.data[i][j] for i in range(b.nrows)] for j in range(b.ncols)]
    return [[dot_ref(K, r, bc) for bc in bcols] for r in a.data]


def lengths(rng):
    return [0, 1, 2] + [rng.randint(3, 12) for _ in range(20)]


@pytest.mark.parametrize("K", FIELDS, ids=IDS)
def test_dot_and_matvec_match_scalar_composition(K):
    rng = random.Random(401)
    for n in lengths(rng):
        xs, ys = row(K, rng, n), row(K, rng, n)
        assert counted(K, K.dot, xs, ys) == counted(K, dot_ref, K, xs, ys)
        for m in (0, 1, rng.randint(2, 6)):
            rows = [row(K, rng, n) for _ in range(m)]
            assert counted(K, K.matvec, rows, xs) == counted(K, matvec_ref, K, rows, xs)
    assert counted(K, K.dot, [], []) == (K.zero, 0)
    assert counted(K, K.matvec, [[], []], []) == ([K.zero, K.zero], 0)


@pytest.mark.parametrize("K", FIELDS, ids=IDS)
def test_row_updates_match_scalar_composition(K):
    rng = random.Random(402)
    for n in lengths(rng):
        xs, ys = row(K, rng, n), row(K, rng, n)
        for c in (K.zero, K.one, scalar(K, rng), scalar(K, rng)):
            got = counted(K, K.sub_scaled, xs, c, ys)
            assert got == counted(K, sub_scaled_ref, K, xs, c, ys)
            assert got[1] == 2 * n
            got = counted(K, K.scale, c, xs)
            assert got == counted(K, scale_ref, K, c, xs)
            assert got[1] == n


@pytest.mark.parametrize("K", FIELDS, ids=IDS)
def test_mat_products_match_scalar_composition(K):
    rng = random.Random(403)
    shapes = [(0, 0, 0), (3, 0, 0), (0, 0, 3), (2, 3, 0), (1, 1, 1), (2, 1, 3), (1, 4, 1)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)) for _ in range(15)]
    for m, k, n in shapes:
        # a 0-row Mat has 0 columns, so an m x 0 left factor meets a 0 x 0 right one
        a = Mat(K, [row(K, rng, k) for _ in range(m)])
        b = Mat(K, [row(K, rng, n) for _ in range(k)])
        product, ops = counted(K, a.__mul__, b)
        expected, expected_ops = counted(K, matmul_ref, K, a, b)
        assert (product.nrows, product.ncols) == (m, n if k else 0)
        assert product.data == expected and ops == expected_ops
        v = Vec(K, row(K, rng, k))
        image, ops = counted(K, a.__mul__, v)
        assert (image.entries, ops) == counted(K, matvec_ref, K, a.data, v.entries)
        assert len(image) == m


def rref_ref(K, a):
    """The scalar Gauss-Jordan elimination the kernels replaced."""
    m = [list(r) for r in a.data]
    pivots = []
    r = 0
    for c in range(a.ncols):
        pivot_row = next((i for i in range(r, a.nrows) if m[i][c] != K.zero), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        piv_inv = K.inv(m[r][c])
        m[r] = [K.mul(piv_inv, x) for x in m[r]]
        for i in range(a.nrows):
            if i == r or m[i][c] == K.zero:
                continue
            f = m[i][c]
            m[i] = [K.sub(x, K.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == a.nrows:
            break
    return m, pivots


class ScalarTracker(SpanTracker):
    """SpanTracker with its forward reduction written in scalar calls."""

    __slots__ = ()

    def _reduce(self, entries):
        K = self.field
        v = list(entries)
        multipliers = []
        for j, (piv, tail) in enumerate(self.rows):
            c = v[piv]
            if c == K.zero:
                continue
            v[piv] = K.zero
            v[piv + 1 :] = [K.sub(x, K.mul(c, y)) for x, y in zip(v[piv + 1 :], tail)]
            multipliers.append((j, c))
        return v, multipliers

    def try_add(self, entries):
        K = self.field
        v, multipliers = self._reduce(entries)
        pivot = next((i for i, x in enumerate(v) if x != K.zero), None)
        if pivot is None:
            self.relation = multipliers
            return False
        s = K.inv(v[pivot])
        self.rows.append((pivot, [K.mul(s, x) for x in v[pivot + 1 :]]))
        self.steps.append((s, multipliers))
        return True


def deficient_matrix(K, rng):
    """A rectangular matrix of rank below min(rows, cols), some columns zero."""
    nrows, ncols = rng.randint(2, 8), rng.randint(2, 8)
    r = rng.randint(0, min(nrows, ncols) - 1)
    left = [row(K, rng, r) for _ in range(nrows)]
    right = [row(K, rng, ncols) for _ in range(r)]
    data = [[dot_ref(K, lr, [rr[j] for rr in right]) for j in range(ncols)] for lr in left]
    for j in rng.sample(range(ncols), rng.randint(0, 1)):
        for lr in data:
            lr[j] = K.zero
    return Mat(K, data)


@pytest.mark.parametrize("K", FIELDS, ids=IDS)
def test_eliminations_unchanged_on_rank_deficient_rectangular_inputs(K):
    rng = random.Random(404)
    for _ in range(40):
        a = deficient_matrix(K, rng)
        reduced, ops = counted(K, rref, a)
        (m, pivots), expected_ops = counted(K, rref_ref, K, a)
        assert reduced.matrix.data == m and reduced.pivots == pivots
        assert ops == expected_ops
        assert reduced.rank < min(a.nrows, a.ncols)

        got, ops = counted(K, pivot_columns, a)
        reference = ScalarTracker(K, a.nrows)
        expected, expected_ops = counted(
            K, lambda: [j for j, col in enumerate(zip(*a.data)) if reference.try_add(col)]
        )
        assert got == expected == pivots
        assert ops == expected_ops

        fast, slow = SpanTracker(K, a.nrows), ScalarTracker(K, a.nrows)
        for col in zip(*a.data):
            assert counted(K, fast.try_add, col) == counted(K, slow.try_add, col)
            assert (fast.rows, fast.steps) == (slow.rows, slow.steps)
            assert counted(K, fast.contains, col) == counted(K, slow.contains, col)
            if fast.relation is not None:
                assert counted(K, fast.dependence) == counted(K, slow.dependence)
