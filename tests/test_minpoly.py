import random

import pytest

from conftest import rand_invertible, rand_matrix, rand_scalar, rand_vector, unit
from ratform import (
    Mat,
    Poly,
    PrimeField,
    Rationals,
    block_diag,
    char_poly_oracle,
    combine_lcm_vector,
    companion,
    eval_poly,
    eval_poly_vec,
    inverse,
    local_min_poly,
    min_poly,
    min_poly_vector,
    poly_lcm,
    rank,
    solve,
)


def P(K, *ints):
    return Poly.from_ints(K, ints)


def test_local_min_poly_examples():
    K = Rationals()
    got = local_min_poly(Mat.identity(K, 2), unit(K, 2, 0))
    assert got.mu == P(K, -1, 1)
    assert got.krylov == [unit(K, 2, 0)]

    shift = Mat.from_ints(K, [[0, 1], [0, 0]])
    got = local_min_poly(shift, unit(K, 2, 1))
    assert got.mu == P(K, 0, 0, 1)
    assert got.krylov == [unit(K, 2, 1), unit(K, 2, 0)]

    diag = Mat.from_ints(K, [[1, 0], [0, 2]])
    got = local_min_poly(diag, [K.one, K.one])
    assert got.mu == P(K, 2, -3, 1)


def test_local_min_poly_rejects_zero_vector():
    K = Rationals()
    with pytest.raises(ValueError):
        local_min_poly(Mat.identity(K, 2), [K.zero, K.zero])


def test_local_min_poly_annihilates_and_is_minimal():
    K = PrimeField(7)
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(1, 8)
        a = rand_matrix(K, rng, n)
        x = rand_vector(K, rng, n, nonzero=True)
        got = local_min_poly(a, x)
        assert not any(eval_poly_vec(got.mu, a, x))
        assert got.mu.is_monic and got.mu.degree == len(got.krylov) >= 1
        assert rank(Mat.from_cols(K, got.krylov, n)) == len(got.krylov)


@pytest.mark.parametrize("K", [PrimeField(7), Rationals()], ids=["GF7", "Q"])
def test_local_min_poly_coefficients_match_solving_the_krylov_system(K):
    """The dependence read off the Krylov elimination equals an independent solve."""
    rng = random.Random(83)
    degrees = {"full": 0, "one": 0, "between": 0}
    for trial in range(90):
        n = rng.randint(3, 9)
        kind = ("full", "one", "between")[trial % 3]
        if kind == "full":
            a = rand_matrix(K, rng, n)
            x = rand_vector(K, rng, n, nonzero=True)
        elif kind == "one":
            c = rand_scalar(K, rng)
            a = Mat(K, [[c if i == j else K.zero for j in range(n)] for i in range(n)])
            x = rand_vector(K, rng, n, nonzero=True)
        else:
            k = rng.randint(2, n - 1)
            a = block_diag([rand_matrix(K, rng, k), rand_matrix(K, rng, n - k)])
            x = rand_vector(K, rng, k, nonzero=True) + [K.zero] * (n - k)
        got = local_min_poly(a, x)
        m = got.mu.degree
        coeffs = solve(Mat.from_cols(K, got.krylov, n), a * got.krylov[-1])
        assert coeffs is not None
        assert got.mu.coeffs == [K.neg(c) for c in coeffs] + [K.one]
        if m == n:
            degrees["full"] += 1
        elif m == 1:
            degrees["one"] += 1
        else:
            degrees["between"] += 1
    assert min(degrees.values()) >= 20, degrees


def test_divisor_characterization():
    K = PrimeField(7)
    rng = random.Random(59)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = rand_matrix(K, rng, n)
        x = rand_vector(K, rng, n, nonzero=True)
        mu = local_min_poly(a, x).mu
        candidate = Poly(K, [rng.randrange(7) for _ in range(rng.randint(0, n + 1))])
        if candidate.is_zero:
            continue
        annihilates = not any(eval_poly_vec(candidate, a, x))
        assert annihilates == mu.divides(candidate)


def test_combine_coprime_case():
    K = Rationals()
    diag = Mat.from_ints(K, [[1, 0], [0, 2]])
    lx = local_min_poly(diag, unit(K, 2, 0))
    ly = local_min_poly(diag, unit(K, 2, 1))
    got = combine_lcm_vector(diag, lx, ly)
    assert got.vector == [1, 1]
    assert got.mu == P(K, 2, -3, 1)


def test_combine_divisibility_case_returns_input():
    K = Rationals()
    ident = Mat.identity(K, 2)
    lx = local_min_poly(ident, unit(K, 2, 0))
    ly = local_min_poly(ident, unit(K, 2, 1))
    got = combine_lcm_vector(ident, lx, ly)
    assert got is lx or got is ly
    assert got.mu == P(K, -1, 1)


def test_combine_split_case_hand_traced():
    K = Rationals()
    a = block_diag([companion(P(K, 0, 0, 1)), Mat.from_ints(K, [[1]])])
    x = unit(K, 3, 0)
    y = [K.zero, K.one, K.one]
    lx = local_min_poly(a, x)
    ly = local_min_poly(a, y)
    assert lx.mu == P(K, 0, 0, 1)
    assert ly.mu == P(K, 0, -1, 1)
    got = combine_lcm_vector(a, lx, ly)
    assert got.vector == [1, 0, 1]
    assert got.mu == P(K, 0, 0, -1, 1)  # X^2 (X - 1)


def test_combine_matches_lcm_on_random_triples():
    K = PrimeField(7)
    rng = random.Random(61)
    for _ in range(500):
        n = rng.randint(1, 7)
        a = rand_matrix(K, rng, n)
        x = rand_vector(K, rng, n, nonzero=True)
        y = rand_vector(K, rng, n, nonzero=True)
        lx = local_min_poly(a, x)
        ly = local_min_poly(a, y)
        got = combine_lcm_vector(a, lx, ly)
        assert got.mu == poly_lcm(lx.mu, ly.mu)
        assert not any(eval_poly_vec(got.mu, a, got.vector))


def test_min_poly_vector_examples():
    K = Rationals()
    got = min_poly_vector(Mat.identity(K, 3))
    assert got.vector == unit(K, 3, 0) and got.mu == P(K, -1, 1)

    got = min_poly_vector(Mat.zeros(K, 2, 2))
    assert got.vector == unit(K, 2, 0) and got.mu == P(K, 0, 1)

    got = min_poly_vector(Mat.from_ints(K, [[1, 0], [0, 2]]))
    assert got.vector == [1, 1] and got.mu == P(K, 2, -3, 1)

    with pytest.raises(ValueError):
        min_poly_vector(Mat(K, []))


def test_min_poly_examples():
    K = Rationals()
    p = P(K, 1, 1, 0, 1)
    assert min_poly(companion(p)) == p
    assert min_poly(Mat.identity(K, 4)) == P(K, -1, 1)
    assert min_poly(Mat.from_ints(K, [[0, 1], [0, 0]])) == P(K, 0, 0, 1)


def test_min_poly_annihilates_and_refines_cayley_hamilton():
    K = PrimeField(7)
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = rand_matrix(K, rng, n)
        mu = min_poly(a)
        assert eval_poly(mu, a).is_zero
        chi = char_poly_oracle(a)
        assert mu.divides(chi)
        power = Poly.one(K)
        for _ in range(n):
            power = power * mu
        assert chi.divides(power)


def test_min_poly_is_conjugation_invariant():
    K = PrimeField(7)
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = rand_matrix(K, rng, n)
        s = rand_invertible(K, rng, n)
        assert min_poly(a) == min_poly(inverse(s) * a * s)
