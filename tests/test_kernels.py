"""Row-level field kernels against the scalar calls they replace.

Each bulk primitive (`matvec`, `sub_scaled`, `scale`) must return
what the per-scalar composition returns and add exactly as much to
`op_count`, so op totals read by criterion 8 and the benchmark keep
their meaning.  The eliminations built on the kernels (`rref`,
`pivot_columns`, `SpanTracker`) are compared with scalar reference
copies of themselves, op counts included.  Over GF(p) the field's packed
rows must agree with `Field`'s list rows, which otherwise run only over
Q; they are read back through `pivot_rows`, also at the edges of the
slot width, and a GF(p) entry outside [0, p) is reduced when its `Mat` is
built or its vector reaches `local_min_poly` or `complete_to_basis`.
`rref` and what reads it (`solve`, `kernel_basis`), and `over_rows`
and `inverse`, which read `SpanTracker` coordinates, must also equal
a scalar Gauss-Jordan elimination in value.  The basis
completion read off the reversed Krylov chain, and the quotient split
that reads it off the tracker of `local_min_poly`, must equal the scan
over e_0, e_1, ... and the Gauss-Jordan solve they replace.
"""

import random
from fractions import Fraction

import pytest

from conftest import rand_invertible, rand_monic, unit
from ratform import (
    Mat,
    PrimeField,
    Rationals,
    block_diag,
    canonical,
    companion,
    complete_to_basis,
    field,
    inverse,
    kernel_basis,
    local_min_poly,
    rank,
    rnf,
    rref,
    solve,
)
from ratform.errors import DimensionError, SingularMatrixError
from ratform.field import PRIME_BOUND, Field, _is_prime
from ratform.linalg import SpanTracker, over_rows, pivot_columns

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
        xs = row(K, rng, n)
        for m in (0, 1, rng.randint(2, 6)):
            rows = [row(K, rng, n) for _ in range(m)]
            assert counted(K, K.matvec, rows, xs) == counted(K, matvec_ref, K, rows, xs)
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
        v = row(K, rng, k)
        image, ops = counted(K, a.__mul__, v)
        assert (image, ops) == counted(K, matvec_ref, K, a.data, v)
        assert len(image) == m


def rref_ref(K, a):
    """Scalar Gauss-Jordan elimination: the value oracle for `rref`."""
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


class ScalarTracker:
    """A list-row reference for SpanTracker, its reductions written in scalar calls.

    It shares no code with SpanTracker or the field's row methods: rows
    are (pivot, tail) lists, and `coordinates` and `dependence` go back
    through the recorded multipliers as SpanTracker documents they do.
    """

    def __init__(self, field, dim):
        self.field, self.dim = field, dim
        self._rows, self.steps, self.relation = [], [], None

    @property
    def pivots(self):
        return [piv for piv, _ in self._rows]

    def pivot_rows(self):
        return [(piv, list(tail)) for piv, tail in self._rows]

    def _reduce(self, entries):
        K = self.field
        v = list(entries)
        multipliers = []
        for j, (piv, tail) in enumerate(self._rows):
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
        self._rows.append((pivot, [K.mul(s, x) for x in v[pivot + 1 :]]))
        self.steps.append((s, multipliers))
        return True

    def _back_substitute(self, multipliers):
        K = self.field
        y = [K.zero] * len(self._rows)
        for j, c in multipliers:
            y[j] = c
        for k in reversed(range(len(y))):
            if y[k] == K.zero:
                continue
            s, own = self.steps[k]
            y[k] = K.mul(y[k], s)
            for j, c in own:
                y[j] = K.sub(y[j], K.mul(y[k], c))
        return y

    def coordinates(self, entries):
        v, multipliers = self._reduce(entries)
        return self._back_substitute(multipliers), v

    def dependence(self):
        return self._back_substitute(self.relation)


def rref_scalar(K, a):
    """`rref`'s algorithm in scalar calls: ScalarTracker rows, then a scalar back pass."""
    tracker = ScalarTracker(K, a.ncols)
    for r in a.data:
        tracker.try_add(r)
    rows = sorted(tracker.pivot_rows(), key=lambda r: r[0])
    for k in range(len(rows) - 1, 0, -1):
        q, below = rows[k]
        for p, tail in rows[:k]:
            c = tail[q - p - 1]
            if c == K.zero:
                continue
            tail[q - p - 1] = K.zero
            tail[q - p :] = [K.sub(x, K.mul(c, y)) for x, y in zip(tail[q - p :], below)]
    m = [[K.zero] * p + [K.one] + tail for p, tail in rows]
    m += [[K.zero] * a.ncols for _ in range(a.nrows - len(rows))]
    return m, [p for p, _ in rows]


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
        m, pivots = rref_ref(K, a)
        assert reduced.matrix.data == m and reduced.pivots == pivots
        assert ((m, pivots), ops) == counted(K, rref_scalar, K, a)
        assert reduced.rank < min(a.nrows, a.ncols)

        got, ops = counted(K, pivot_columns, a)
        reference = ScalarTracker(K, a.nrows)
        expected, expected_ops = counted(
            K, lambda: [j for j, col in enumerate(zip(*a.data)) if reference.try_add(col)]
        )
        assert got == expected == pivots
        assert ops == expected_ops

        assert_trackers_agree(K, a.nrows, list(zip(*a.data)))


def assert_trackers_agree(K, n, vectors):
    """SpanTracker and its scalar twin, fed the same vectors, agree in value and op count."""
    fast, slow = SpanTracker(K, n), ScalarTracker(K, n)
    for v in vectors:
        assert counted(K, fast.try_add, v) == counted(K, slow.try_add, v)
        assert (fast.pivot_rows(), fast.steps) == (slow.pivot_rows(), slow.steps)
        assert fast.pivots == slow.pivots == [piv for piv, _ in slow.pivot_rows()]
        assert counted(K, fast.coordinates, v) == counted(K, slow.coordinates, v)
        if fast.relation is not None:
            assert counted(K, fast.dependence) == counted(K, slow.dependence)
    for _, tail in fast.pivot_rows():
        tail.clear()  # rref's back pass edits the tails it is given
    assert fast.pivot_rows() == slow.pivot_rows()
    rows, steps, relation = fast.pivot_rows(), list(fast.steps), fast.relation
    twin = fast.copy()
    assert (twin.pivot_rows(), twin.steps, twin.relation) == (rows, steps, relation)
    for i in range(n):
        twin.try_add(unit(K, n, i))
    assert twin.rank == n and twin.pivot_rows()[: len(rows)] == rows
    assert (fast.pivot_rows(), fast.steps, fast.relation) == (rows, steps, relation)


# The largest prime below PRIME_BOUND: its slots are wider than 8 bytes at every dim.
LARGEST_PRIME = 3317044064679887385961813


def test_slot_width_edges():
    assert PrimeField(LARGEST_PRIME).slot_bytes(1) == 21
    assert not any(_is_prime(q) for q in range(LARGEST_PRIME + 1, PRIME_BOUND))
    assert [PrimeField(1000000007).slot_bytes(n) for n in (18, 19)] == [8, 9]
    assert PrimeField(2).slot_bytes(130) == PrimeField(101).slot_bytes(130) == 8


@pytest.mark.parametrize(
    "p, n",
    [(2, 1), (2, 9), (101, 1), (101, 130), (1000000007, 18), (1000000007, 19),
     (LARGEST_PRIME, 1), (LARGEST_PRIME, 130)],
)
def test_packed_elimination_at_its_edges(p, n, monkeypatch):
    K = PrimeField(p)
    b = K.slot_bytes(n)
    top = [p - 1] * n
    # a slot holds a residue plus n products of two residues: all p - 1 is the worst case
    worst = (p - 1) * (1 + n * (p - 1))
    assert worst < 256**b
    assert K.unpack(K.pack(top, b) * (1 + n * (p - 1)), n, b) == [worst % p] * n

    # the byte-slice path, which big-endian machines take at every width, agrees
    rng = random.Random(409 + n)
    samples = [top, row(K, rng, n)]

    def round_trips():
        return [(K.pack(v, b), K.unpack(K.pack(v, b) * (1 + n * (p - 1)), n, b)) for v in samples]

    expected = round_trips()
    monkeypatch.setattr(field, "_LITTLE", False)
    assert round_trips() == expected
    monkeypatch.undo()

    units = [unit(K, n, i) for i in rng.sample(range(n), min(n, 3))]
    dense = [row(K, rng, n) for _ in range(min(n, 6))]
    in_span = [K.add(x, y) for x, y in zip(dense[0], dense[-1])]
    vectors = units + [tuple(top)] + [tuple(v) for v in dense[:3]] + dense[3:]
    vectors += [in_span, top, [K.zero] * n] + units
    assert_trackers_agree(K, n, vectors)
    m = Mat(K, [list(v) for v in vectors])
    reduced = rref(m)
    assert (reduced.matrix.data, reduced.pivots) == rref_ref(K, m)

    # unit vectors meet no row with a non-zero multiplier, so only the stored rows are packed
    packs = []
    pack = PrimeField.pack
    monkeypatch.setattr(PrimeField, "pack", lambda F, xs, w: packs.append(w) or pack(F, xs, w))
    tracker = SpanTracker(K, n)
    assert all(tracker.try_add(unit(K, n, i)) for i in reversed(range(n)))
    assert packs == [b] * n


class ListRowPrimeField(PrimeField):
    """GF(p) whose SpanTracker rows are `Field`'s lists, not packed ints."""

    __slots__ = ()
    store_row, load_row, reduce_by_rows = Field.store_row, Field.load_row, Field.reduce_by_rows


@pytest.mark.parametrize("p", [7, 1000000007])
def test_list_rows_and_packed_rows_agree_over_gf(p):
    """The two row formats, run by one SpanTracker, agree in value and op count."""
    packed, listed = PrimeField(p), ListRowPrimeField(p)
    rng = random.Random(411)
    rejected = 0
    for _ in range(30):
        n = rng.randint(1, 9)
        vectors = [row(packed, rng, n) for _ in range(rng.randint(1, n))]
        in_span = [packed.add(x, y) for x, y in zip(vectors[0], vectors[-1])]
        vectors += [in_span, [0] * n]
        vectors += [unit(packed, n, i) for i in rng.sample(range(n), min(n, 3))]
        vectors += [row(packed, rng, n) for _ in range(3)]
        fast, slow = SpanTracker(packed, n), SpanTracker(listed, n)
        for v in vectors:
            assert counted(packed, fast.try_add, v) == counted(listed, slow.try_add, v)
            assert (fast.pivot_rows(), fast.steps) == (slow.pivot_rows(), slow.steps)
            assert counted(packed, fast.coordinates, v) == counted(listed, slow.coordinates, v)
            if fast.relation is not None:
                assert counted(packed, fast.dependence) == counted(listed, slow.dependence)
        rejected += len(vectors) - fast.rank
        assert all(type(r) is int for _, r in fast._rows)
        assert all(type(r) is list for _, r in slow._rows)
        a = [row(packed, rng, n) for _ in range(n)]
        want, want_ops = counted(packed, rnf, Mat(packed, a))
        got, ops = counted(listed, rnf, Mat(listed, a))
        assert (got.factors, got.transform, ops) == (want.factors, want.transform, want_ops)
    assert rejected >= 60


def test_gf_entries_outside_0_to_p_are_reduced_where_packed():
    """Shifted entries reach the packed elimination as residues, through Mat and canonical_row."""
    K = PrimeField(7)
    assert [str(f) for f in rnf(Mat(K, [[-1, 0], [0, 1]])).factors] == ["X^2 + 6"]
    rng = random.Random(410)
    packed = negative = at_least_p = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        a = [row(K, rng, n) for _ in range(n)]
        shifted = [[x + 7 * rng.randint(-3, 3) for x in r] for r in a]
        negative += sum(x < 0 for r in shifted for x in r)
        at_least_p += sum(x >= 7 for r in shifted for x in r)
        got, want = rnf(Mat(K, shifted)), rnf(Mat(K, a))
        assert (got.factors, got.transform) == (want.factors, want.transform)
        tracker = SpanTracker(K, n)
        for v in a:
            tracker.try_add(v)
        for r, v in zip(shifted, a):
            r = K.canonical_row(r)
            if any(r[q] for q in tracker.pivots):  # r meets a row, so it is packed
                packed += 1
                assert tracker.coordinates(r) == tracker.coordinates(v)
                assert not any(tracker.coordinates(v)[1])
    assert packed >= 60 and negative and at_least_p


def test_gf_mat_and_vec_reduce_their_entries_when_built():
    K = PrimeField(7)
    # a multiple of p that meets no row was taken for a non-zero pivot, and K.inv failed
    assert rank(Mat(K, [[7], [1]])) == 1
    assert rank(Mat(K, [[14, -7], [0, 21]])) == 0
    assert Mat(K, [[-1, 8], [7, -13]]) == Mat(K, [[6, 1], [0, 1]])
    assert Mat(K, [[-1, 8], [7, -13]]).data == [[6, 1], [0, 1]]
    assert Mat(K, [[7, -14], [21, 0]]).is_zero
    # a caller's vector is reduced where it reaches the elimination
    a = Mat(K, [[1, 2, 0], [0, 3, 1], [5, 0, 4]])
    cases = (([7, 1, -7], [0, 1, 0]), ([-13, 14, 9], [1, 0, 2]), ([8, -6, 7], [1, 1, 0]))
    for shifted, residues in cases:
        got, want = local_min_poly(a, shifted), local_min_poly(a, residues)
        assert got.vector == residues
        assert (got.vector, got.mu, got.krylov) == (want.vector, want.mu, want.krylov)
        assert got.tracker.pivot_rows() == want.tracker.pivot_rows()
        assert complete_to_basis(K, [shifted], 3) == complete_to_basis(K, [residues], 3)
    completed = complete_to_basis(K, [[-6, 15, 7], [0, 7, 8]], 3)  # columns e_0+e_1, e_2, e_0
    assert completed.data == [[1, 0, 1], [1, 0, 0], [0, 1, 0]]
    with pytest.raises(ValueError, match="zero vector"):
        local_min_poly(a, [7, -14, 0])
    with pytest.raises(ValueError, match="dependent"):
        complete_to_basis(K, [[1, 1, 0], [8, -6, 7]], 3)
    # over Q the entries are a plain copy, not the caller's list
    Q = Rationals()
    entries = [Fraction(1, 3), Fraction(-2)]
    got = local_min_poly(Mat.identity(Q, 2), entries)
    assert got.vector == entries and got.vector is not entries


def gj_inverse(K, a):
    n = a.nrows
    eye = [[K.one if i == j else K.zero for j in range(n)] for i in range(n)]
    m, pivots = rref_ref(K, Mat(K, [r + e for r, e in zip(a.data, eye)]))
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in m]


def gj_over_rows(K, x, inv):
    """X * A^-1 in scalar calls, given A^-1 from `gj_inverse`."""
    out = []
    for r in x.data:
        y = []
        for col in zip(*inv):
            acc = K.zero
            for u, w in zip(r, col):
                acc = K.add(acc, K.mul(u, w))
            y.append(acc)
        out.append(y)
    return out


def gj_solve(K, a, b):
    m, pivots = rref_ref(K, Mat(K, [r + [x] for r, x in zip(a.data, b)]))
    if pivots and pivots[-1] == a.ncols:
        return None
    x = [K.zero] * a.ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][a.ncols]
    return x


def gj_kernel(K, a):
    m, pivots = rref_ref(K, a)
    basis = []
    for c in (c for c in range(a.ncols) if c not in pivots):
        v = [K.zero] * a.ncols
        v[c] = K.one
        for r, pc in enumerate(pivots):
            v[pc] = K.neg(m[r][c])
        basis.append(v)
    return basis


def differential_inputs(K, rng):
    """Square, wide, tall, zero and rank-deficient matrices, seeded."""
    out = [Mat(K, []), Mat(K, [[K.zero] * 3] * 2), Mat(K, [[K.zero] * 4] * 4)]
    for _ in range(12):
        n = rng.randint(1, 7)
        k = rng.randint(1, 4)
        out.append(Mat(K, [row(K, rng, n) for _ in range(n)]))
        out.append(Mat(K, [row(K, rng, n + k) for _ in range(n)]))
        out.append(Mat(K, [row(K, rng, n) for _ in range(n + k)]))
        out.append(deficient_matrix(K, rng))
    return out


def quotient_systems(K, rng):
    """d x (d + k) systems with an invertible leading d x d block.

    They have the shape of the systems the quotient split once solved by
    `rref`: the Krylov chain's rows outside the completion, then the
    completion's columns of the quotient matrix.
    """
    systems = []
    for _ in range(10):
        d, k = rng.randint(1, 5), rng.randint(1, 4)
        lead = rand_invertible(K, rng, d)
        systems.append(Mat(K, [r + row(K, rng, k) for r in lead.data]))
    return systems


@pytest.mark.parametrize("K", FIELDS, ids=IDS)
def test_rref_and_its_readers_equal_gauss_jordan(K):
    rng = random.Random(405)
    systems = quotient_systems(K, rng)
    assert len(systems) >= 8
    for a in systems:
        d = a.nrows
        assert a.ncols > d and gj_inverse(K, Mat(K, [r[:d] for r in a.data])) is not None
    for a in differential_inputs(K, rng) + systems:
        m, pivots = rref_ref(K, a)
        reduced = rref(a)
        assert (reduced.matrix.data, reduced.pivots, reduced.rank) == (m, pivots, len(pivots))
        assert kernel_basis(a) == gj_kernel(K, a)
        for b in (row(K, rng, a.nrows), a * row(K, rng, a.ncols)):
            assert solve(a, b) == gj_solve(K, a, b)
        x = Mat(K, [row(K, rng, a.ncols) for _ in range(rng.randint(1, 3))])
        if not a.is_square:
            with pytest.raises(DimensionError):
                over_rows(x, a)
            continue
        with pytest.raises(DimensionError):
            over_rows(Mat(K, [row(K, rng, a.ncols + 1)]), a)
        expected = gj_inverse(K, a)
        if expected is None:
            with pytest.raises(SingularMatrixError):
                inverse(a)
            with pytest.raises(SingularMatrixError):
                over_rows(x, a)
        else:
            assert inverse(a).data == expected
            assert over_rows(x, a).data == gj_over_rows(K, x, expected)


def completion_scan(K, vectors, n):
    """The completion by scanning e_0, e_1, ... after the inputs, in scalar calls."""
    tracker = ScalarTracker(K, n)
    for v in vectors:
        assert tracker.try_add(v)
    return [i for i in range(n) if tracker.try_add(unit(K, n, i))]


def independent(K, n, candidates):
    tracker = SpanTracker(K, n)
    return [v for v in candidates if tracker.try_add(v)]


def reversed_tracker(K, vectors, n):
    """The inputs reduced by their last entries, as `rnf` reduces a chain, and its completion."""
    tracker = SpanTracker(K, n)
    for v in vectors:
        assert tracker.try_add(v[::-1])
    return tracker, tracker.completion()


def completion_families(K, rng):
    """(vectors, n): empty, full-rank, unit vectors, Krylov chains, shared last entries."""
    out = [([], 0), ([], 1), ([], rng.randint(2, 7))]
    for _ in range(6):
        n = rng.randint(1, 8)
        out.append(([list(c) for c in zip(*rand_invertible(K, rng, n).data)], n))
        units = rng.sample(range(n), rng.randint(1, n))
        out.append(([unit(K, n, i) for i in units], n))
        q = rand_monic(K, rng, rng.randint(1, 3))
        form = block_diag([companion(q * rand_monic(K, rng, 1)), companion(q), companion(q)])
        s = rand_invertible(K, rng, form.nrows)
        a = inverse(s) * form * s
        start = row(K, rng, a.nrows)
        if any(start):
            out.append((local_min_poly(a, start).krylov, a.nrows))
        last = rng.randrange(n)
        ending = []
        for _ in range(rng.randint(1, last + 1)):
            v = row(K, rng, last) + [K.from_int(rng.randint(1, 5))] + [K.zero] * (n - 1 - last)
            ending.append(v)
        out.append((independent(K, n, ending), n))
        out.append((independent(K, n, [row(K, rng, n) for _ in range(n)]), n))
    return out


@pytest.mark.parametrize("K", FIELDS, ids=IDS)
def test_completion_by_last_entries_equals_the_index_scan(K):
    rng = random.Random(406)
    for vectors, n in completion_families(K, rng):
        tracker, keep = reversed_tracker(K, vectors, n)
        expected = completion_scan(K, vectors, n)
        assert keep == expected
        assert tracker.rank == len(vectors) == n - len(keep)
        columns = vectors + [unit(K, n, i) for i in expected]
        assert complete_to_basis(K, vectors, n) == Mat.from_cols(K, columns, n)


@pytest.mark.parametrize("K", FIELDS, ids=IDS)
def test_coordinates_rebuild_the_vector(K):
    rng = random.Random(407)
    for vectors, n in completion_families(K, rng):
        tracker, keep = reversed_tracker(K, vectors, n)
        inside = [K.from_int(rng.randint(-3, 3)) for _ in vectors]
        in_span = [dot_ref(K, [v[i] for v in vectors], inside) for i in range(n)]
        for y in (row(K, rng, n), in_span, *(unit(K, n, i) for i in range(n))):
            x, r = tracker.coordinates(y[::-1])
            r = r[::-1]
            span_part = [dot_ref(K, [v[i] for v in vectors], x) for i in range(n)]
            assert [K.add(z, w) for z, w in zip(span_part, r)] == y
            assert not any(r[i] for i in range(n) if i not in keep)
            if y is in_span:
                assert x == inside and not any(r)


def split_quotient_ref(sub, krylov):
    """The quotient split by the index scan and a Gauss-Jordan solve of the other rows."""
    K = sub.field
    m, d = sub.nrows, len(krylov)
    keep = completion_scan(K, krylov, m)
    rows = [[v[r] for v in krylov] for r in range(m)]
    system = [rows[r] + [sub.data[r][s] for s in keep] for r in range(m) if r not in keep]
    reduced, pivots = rref_ref(K, Mat(K, system))
    assert pivots == list(range(d))
    coupling = [r[d:] for r in reduced]
    coupling_cols = [list(c) for c in zip(*coupling)]
    rest = [
        [K.sub(sub.data[r][s], dot_ref(K, rows[r], c)) for s, c in zip(keep, coupling_cols)]
        for r in keep
    ]
    return keep, coupling, Mat(K, rest)


@pytest.mark.parametrize("K", FIELDS, ids=IDS)
def test_split_quotient_equals_the_scan_and_solve_it_replaces(K, monkeypatch):
    rng = random.Random(408)
    calls, blocks = [], []
    split, peel = canonical._split_quotient, canonical.min_poly_vector

    def recording(sub, tracker):
        calls.append((sub, tracker))
        return split(sub, tracker)

    def peeling(sub, trusted):
        blocks.append(peel(sub, trusted))
        return blocks[-1]

    monkeypatch.setattr(canonical, "_split_quotient", recording)
    monkeypatch.setattr(canonical, "min_poly_vector", peeling)
    two = Mat(K, [[K.from_int(2) if i == j else K.zero for j in range(6)] for i in range(6)])
    inputs = [two]
    for _ in range(6):
        q, r, t = (rand_monic(K, rng, rng.randint(1, 2)) for _ in range(3))
        chain = [q * r * t, q * r, q, q][rng.randint(0, 1) :]
        form = block_diag([companion(f) for f in chain])
        inputs.append(form)  # unscrambled: the first Krylov chain is e_1, ..., e_d
        s = rand_invertible(K, rng, form.nrows)
        inputs.append(inverse(s) * form * s)
    for a in inputs:
        rnf(a)
    monkeypatch.undo()
    assert len(calls) == len(blocks) >= 12
    for (sub, tracker), ann in zip(calls, blocks):
        assert tracker is ann.tracker  # the block's own elimination, not a new one
        keep, coupling, rest = split(sub, tracker)
        assert (keep, coupling, rest) == split_quotient_ref(sub, ann.krylov)
