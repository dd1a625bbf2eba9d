import random
from fractions import Fraction

import pytest

from conftest import rand_matrix, rand_monic, rand_scalar, unit
from ratform import (
    Mat,
    Poly,
    PrimeField,
    Rationals,
    block_diag,
    char_poly_oracle,
    companion,
    complete_to_basis,
    eval_poly,
    inverse,
    kernel_basis,
    rank,
    rref,
    solve,
)
from ratform.linalg import SpanTracker, pivot_columns
from ratform.errors import DimensionError, MixedFieldError, SingularMatrixError


def test_column_action_convention():
    K = Rationals()
    shift = Mat.from_ints(K, [[0, 1], [0, 0]])
    assert shift * unit(K, 2, 1) == unit(K, 2, 0)
    assert (shift * shift).is_zero
    a = Mat.from_ints(K, [[1, 2], [3, 4]])
    assert Mat.identity(K, 2) * a == a


def test_shape_and_field_mismatches():
    K, G = Rationals(), PrimeField(7)
    a = Mat.from_ints(K, [[1, 2], [3, 4]])
    with pytest.raises(DimensionError):
        a * Mat.from_ints(K, [[1, 2, 3]])
    with pytest.raises(DimensionError):
        a * [K.one, K.one, K.one]
    with pytest.raises(MixedFieldError):
        a * Mat.from_ints(G, [[1, 2], [3, 4]])


def test_rref_examples():
    K = Rationals()
    assert rref(Mat.zeros(K, 3, 3)).rank == 0
    assert rref(Mat.zeros(K, 3, 3)).pivots == []
    assert rref(Mat.identity(K, 3)).pivots == [0, 1, 2]
    got = rref(Mat.from_ints(K, [[1, 2], [2, 4]]))
    assert got.rank == 1 and got.pivots == [0]
    assert got.matrix == Mat.from_ints(K, [[1, 2], [0, 0]])


def test_rref_idempotent_and_rank_transpose():
    K = PrimeField(7)
    rng = random.Random(17)
    for _ in range(50):
        a = rand_matrix(K, rng, rng.randint(1, 6), rng.randint(1, 6))
        reduced = rref(a).matrix
        assert rref(reduced).matrix == reduced
        assert rank(a) == rank(Mat(K, [list(col) for col in zip(*a.data)]))


def test_inverse_examples():
    K = Rationals()
    assert inverse(Mat.identity(K, 3)) == Mat.identity(K, 3)
    d = Mat(K, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1, 2)]])
    assert inverse(d) == Mat(K, [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(2)]])
    u = Mat.from_ints(K, [[1, 1], [0, 1]])
    assert inverse(u) == Mat.from_ints(K, [[1, -1], [0, 1]])


def test_inverse_round_trip_and_singular():
    K = PrimeField(7)
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = rand_matrix(K, rng, n)
        if rank(a) < n:
            with pytest.raises(SingularMatrixError):
                inverse(a)
        else:
            b = inverse(a)
            assert a * b == Mat.identity(K, n)
            assert b * a == Mat.identity(K, n)


def _span_equal(vs, ws, K, n):
    if len(vs) != len(ws):
        return False
    m = Mat.from_cols(K, list(vs) + list(ws), n)
    return rank(m) == len(vs)


def test_kernel_examples():
    K = Rationals()
    assert kernel_basis(Mat.identity(K, 3)) == []
    zero_kernel = kernel_basis(Mat.zeros(K, 2, 2))
    assert _span_equal(zero_kernel, [unit(K, 2, 0), unit(K, 2, 1)], K, 2)
    shift_kernel = kernel_basis(Mat.from_ints(K, [[0, 1], [0, 0]]))
    assert _span_equal(shift_kernel, [unit(K, 2, 0)], K, 2)


def test_kernel_dimension_and_membership():
    K = PrimeField(7)
    rng = random.Random(31)
    for _ in range(50):
        a = rand_matrix(K, rng, rng.randint(1, 6), rng.randint(1, 6))
        basis = kernel_basis(a)
        assert len(basis) == a.ncols - rank(a)
        for v in basis:
            assert not any(a * v)


def test_solve_particular_solution():
    K = Rationals()
    a = Mat.from_ints(K, [[0, 1], [0, 0]])
    x = solve(a, unit(K, 2, 0))
    assert x == [0, 1]  # free variable pinned to zero
    assert solve(a, unit(K, 2, 1)) is None


def test_complete_to_basis_examples():
    K = Rationals()
    got = complete_to_basis(K, [unit(K, 2, 1)], 2)
    assert got == Mat.from_ints(K, [[0, 1], [1, 0]])  # columns e2, e1
    assert complete_to_basis(K, [], 2) == Mat.identity(K, 2)
    both = [unit(K, 2, 0), unit(K, 2, 1)]
    assert complete_to_basis(K, both, 2) == Mat.identity(K, 2)
    with pytest.raises(ValueError):
        complete_to_basis(K, [unit(K, 2, 0), unit(K, 2, 0)], 2)


def test_complete_to_basis_always_invertible():
    K = PrimeField(7)
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 6)
        cols = []
        probe = rand_matrix(K, rng, n, rng.randint(0, n))
        tracker = SpanTracker(K, n)
        for j in range(probe.ncols):
            v = probe.col(j)
            if tracker.try_add(v):
                cols.append(v)
        full = complete_to_basis(K, cols, n)
        inverse(full)  # must not raise


def test_companion_examples():
    K = Rationals()
    assert companion(Poly.from_ints(K, [-5, 1])) == Mat.from_ints(K, [[5]])
    assert companion(Poly.from_ints(K, [0, 0, 1])) == Mat.from_ints(K, [[0, 0], [1, 0]])
    assert companion(Poly.from_ints(K, [2, -3, 1])) == Mat.from_ints(K, [[0, -2], [1, 3]])
    with pytest.raises(ValueError):
        companion(Poly.from_ints(K, [1, 2]))  # not monic
    with pytest.raises(ValueError):
        companion(Poly.one(K))  # constant


def test_companion_char_poly_matches_polynomial():
    K = PrimeField(7)
    rng = random.Random(41)
    for _ in range(30):
        p = rand_monic(K, rng, rng.randint(1, 5))
        assert char_poly_oracle(companion(p)) == p


def test_block_diag_examples():
    K = Rationals()
    assert block_diag([Mat.from_ints(K, [[1]]), Mat.from_ints(K, [[2]])]) == Mat.from_ints(
        K, [[1, 0], [0, 2]]
    )
    single = Mat.from_ints(K, [[1, 2], [3, 4]])
    assert block_diag([single]) == single
    two = block_diag([companion(Poly.from_ints(K, [0, 0, 1])), Mat.from_ints(K, [[0]])])
    assert two == Mat.from_ints(K, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(DimensionError):
        block_diag([Mat.from_ints(K, [[1, 2]])])


def test_block_diag_rank_charpoly_and_poly_eval():
    K = PrimeField(7)
    rng = random.Random(43)
    for _ in range(20):
        blocks = [rand_matrix(K, rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        m = block_diag(blocks)
        assert rank(m) == sum(rank(b) for b in blocks)
        if m.nrows <= 8:
            product = Poly.one(K)
            for b in blocks:
                product = product * char_poly_oracle(b)
            assert char_poly_oracle(m) == product
        h = Poly(K, [rng.randrange(7) for _ in range(rng.randint(0, 4))])
        assert eval_poly(h, m) == block_diag([eval_poly(h, b) for b in blocks])


def test_char_poly_oracle_examples():
    K = Rationals()
    assert char_poly_oracle(Mat.identity(K, 2)) == Poly.from_ints(K, [1, -2, 1])
    p = Poly.from_ints(K, [2, -3, 1])
    assert char_poly_oracle(companion(p)) == p
    assert char_poly_oracle(Mat.zeros(K, 2, 2)) == Poly.from_ints(K, [0, 0, 1])
    with pytest.raises(ValueError):
        char_poly_oracle(Mat.identity(K, 9))


def _rank_deficient(K, rng, nrows, ncols):
    """A product of random nrows x k and k x ncols factors, k below both sizes."""
    k = rng.randint(0, max(0, min(nrows, ncols) - 1))
    if k == 0:
        return Mat.zeros(K, nrows, ncols)
    return rand_matrix(K, rng, nrows, k) * rand_matrix(K, rng, k, ncols)


@pytest.mark.parametrize("K", [PrimeField(7), Rationals()], ids=["GF7", "Q"])
def test_pivot_columns_match_rref_on_rectangular_and_rank_deficient(K):
    rng = random.Random(73)
    deficient = 0
    for trial in range(120):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        if trial % 2:
            a = _rank_deficient(K, rng, nrows, ncols)
        else:
            a = rand_matrix(K, rng, nrows, ncols)
        expected = rref(a).pivots
        deficient += len(expected) < min(nrows, ncols)
        assert pivot_columns(a) == expected
    assert deficient >= 60


@pytest.mark.parametrize("K", [PrimeField(7), Rationals()], ids=["GF7", "Q"])
def test_span_tracker_agrees_with_rank_on_planted_dependences(K):
    rng = random.Random(79)
    rejected = 0
    for _ in range(60):
        n = rng.randint(1, 8)
        family: list[list] = []
        for _ in range(rng.randint(1, n + 3)):
            roll = rng.random()
            if family and roll < 0.4:
                # a random combination of vectors already in the family
                v = [K.zero] * n
                for w in rng.sample(family, rng.randint(1, len(family))):
                    c = rand_scalar(K, rng)
                    v = [K.add(y, K.mul(c, x)) for y, x in zip(v, w)]
            elif roll < 0.5:
                v = [K.zero] * n
            else:
                v = [rand_scalar(K, rng) for _ in range(n)]
            family.append(v)
        tracker = SpanTracker(K, n)
        added: list[list] = []
        for v in family:
            before = rank(Mat.from_cols(K, added, n)) if added else 0
            enlarges = rank(Mat.from_cols(K, added + [v], n)) > before
            assert any(tracker.coordinates(v)[1]) == enlarges
            assert tracker.try_add(v) == enlarges
            if enlarges:
                added.append(v)
                continue
            rejected += 1
            coords = tracker.dependence()
            assert len(coords) == len(added)
            rebuilt = K.matvec(list(zip(*added)), coords)
            assert (rebuilt == v) if added else not any(v)
        assert tracker.rank == len(added)
    assert rejected >= 60


def test_span_tracker_dependence_needs_a_rejected_vector():
    K = Rationals()
    tracker = SpanTracker(K, 2)
    assert tracker.try_add([K.one, K.zero])
    with pytest.raises(ValueError):
        tracker.dependence()
    assert not tracker.try_add([K.from_int(3), K.zero])
    assert tracker.dependence() == [K.from_int(3)]
