import random

import pytest

from conftest import rand_monic, shared_factor_pair
from ratform import (
    Mat,
    Poly,
    PrimeField,
    Rationals,
    companion,
    eval_poly,
    poly_gcd,
    poly_lcm,
    split_gcd,
)


def P(K, *ints):
    """Ascending integer coefficients."""
    return Poly.from_ints(K, ints)


def test_divmod_examples():
    K = Rationals()
    # X^2 = (X - 1)(X + 1) + 1
    q, r = divmod(P(K, 0, 0, 1), P(K, -1, 1))
    assert q == P(K, 1, 1) and r == P(K, 1)
    # unit divisor
    p = P(K, 2, 0, 5)
    q, r = divmod(p, Poly.one(K))
    assert q == p and r.is_zero
    # over GF(5): X^3 + 2X = X(X^2 + 1) + X
    G = PrimeField(5)
    a, b = P(G, 0, 2, 0, 1), P(G, 1, 0, 1)
    q, r = divmod(a, b)
    assert q == P(G, 0, 1) and r == P(G, 0, 1)
    assert b * q + r == a  # multiply-back check


def test_divmod_by_zero_raises():
    K = Rationals()
    with pytest.raises(ZeroDivisionError):
        divmod(P(K, 1, 1), Poly.zero(K))


def test_divmod_round_trip_random():
    for K in (Rationals(), PrimeField(7)):
        rng = random.Random(5)
        for _ in range(200):
            a = Poly(K, [K.from_int(rng.randint(-4, 4)) for _ in range(rng.randint(0, 7))])
            b = Poly(K, [K.from_int(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))])
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert b * q + r == a
            assert r.degree < b.degree


def test_gcd_examples():
    K = Rationals()
    assert poly_gcd(P(K, -1, 0, 1), P(K, 0, -1, 1)) == P(K, -1, 1)
    assert poly_gcd(P(K, 2, 4), Poly.zero(K)) == P(K, 1, 2).monic()
    assert poly_gcd(P(K, -1, 1), P(K, -2, 1)) == Poly.one(K)
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(K), Poly.zero(K))


def test_gcd_scaling_property():
    K = PrimeField(7)
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        a = rand_monic(K, rng, rng.randint(1, 3))
        b = rand_monic(K, rng, rng.randint(1, 3))
        c = rand_monic(K, rng, rng.randint(1, 3))
        if poly_gcd(a, b) != Poly.one(K):
            continue
        assert poly_gcd(a * c, b * c) == c
        checked += 1


def test_lcm_examples():
    K = Rationals()
    assert poly_lcm(P(K, -1, 1), P(K, -2, 1)) == P(K, 2, -3, 1)
    p = P(K, 2, 4)
    assert poly_lcm(p, p) == p.monic()
    # lcm(X^2, X(X-1)) = X^2 (X - 1)
    assert poly_lcm(P(K, 0, 0, 1), P(K, 0, -1, 1)) == P(K, 0, 0, -1, 1)
    with pytest.raises(ValueError):
        poly_lcm(p, Poly.zero(K))


def test_split_gcd_worked_examples():
    K = Rationals()
    x = Poly.x(K)
    xm1 = P(K, -1, 1)
    xm2 = P(K, -2, 1)
    xm3 = P(K, -3, 1)

    # (X-1)^2 X and (X-1) X^2: split X(X-1) into X * (X-1)
    h, k, p_red, q_red = split_gcd(xm1 * xm1 * x, xm1 * x * x)
    assert (h, k) == (x, xm1)
    assert (p_red, q_red) == (xm1, x)
    assert h * q_red == x * x and k * p_red == xm1 * xm1

    # (X-1)^2 (X-2) and (X-1)(X-3): gcd X-1 splits into 1 * (X-1)
    h, k, p_red, q_red = split_gcd(xm1 * xm1 * xm2, xm1 * xm3)
    assert h == Poly.one(K) and k == xm1
    assert q_red == xm3
    assert h * q_red * (k * p_red) == poly_lcm(xm1 * xm1 * xm2, xm1 * xm3)

    # X^2 (X-1) and X (X-1)^2: split X(X-1) into (X-1) * X
    h, k, p_red, q_red = split_gcd(x * x * xm1, x * xm1 * xm1)
    assert (h, k) == (xm1, x)


def test_split_gcd_rejects_bad_inputs():
    K = Rationals()
    x = Poly.x(K)
    with pytest.raises(ValueError):
        split_gcd(x * x, x)  # gcd equals the second argument
    with pytest.raises(ValueError):
        split_gcd(P(K, 1, 2), x)  # not monic
    with pytest.raises(ValueError):
        split_gcd(Poly.one(K), x)  # constant


def _check_split_postconditions(p, q):
    K = p.field
    h, k, p_red, q_red = split_gcd(p, q)
    g = poly_gcd(p, q)
    assert h * k == g
    assert p_red * g == p and q_red * g == q
    assert poly_gcd(k, q_red) == Poly.one(K)
    assert poly_gcd(h * q_red, k * p_red) == Poly.one(K)
    assert (h * q_red) * (k * p_red) == poly_lcm(p, q)


def test_split_gcd_random_gf7():
    K = PrimeField(7)
    rng = random.Random(23)
    for _ in range(500):
        p, q = shared_factor_pair(K, rng)
        _check_split_postconditions(p, q)


@pytest.mark.parametrize("K", [PrimeField(7), Rationals()], ids=["GF7", "Q"])
def test_split_gcd_of_a_coprime_pair_is_trivial(K):
    # combine_lcm_vector relies on this to combine coprime vectors as x + y
    rng = random.Random(29)
    pairs = 0
    while pairs < 100:
        p = rand_monic(K, rng, rng.randint(1, 6))
        q = rand_monic(K, rng, rng.randint(1, 6))
        if poly_gcd(p, q) != Poly.one(K):
            continue
        pairs += 1
        assert split_gcd(p, q) == (Poly.one(K), Poly.one(K), p, q)


def test_eval_poly_examples():
    K = Rationals()
    shift = Mat.from_ints(K, [[0, 1], [0, 0]])
    assert eval_poly(P(K, 0, 0, 1), shift).is_zero
    any_a = Mat.from_ints(K, [[1, 2], [3, 4]])
    assert eval_poly(Poly.one(K), any_a) == Mat.identity(K, 2)
    diag12 = Mat.from_ints(K, [[1, 0], [0, 2]])
    assert eval_poly(P(K, 2, -3, 1), diag12).is_zero


def test_eval_poly_is_ring_homomorphism():
    K = PrimeField(7)
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = Mat(K, [[rng.randrange(7) for _ in range(n)] for _ in range(n)])
        h1 = Poly(K, [rng.randrange(7) for _ in range(rng.randint(0, 4))])
        h2 = Poly(K, [rng.randrange(7) for _ in range(rng.randint(0, 4))])
        assert eval_poly(h1, a) * eval_poly(h2, a) == eval_poly(h1 * h2, a)
        rows = zip(eval_poly(h1, a).data, eval_poly(h2, a).data)
        added = [[K.add(x, y) for x, y in zip(r1, r2)] for r1, r2 in rows]
        assert Mat(K, added) == eval_poly(h1 + h2, a)


def test_poly_text_form():
    K = Rationals()
    assert str(Poly.zero(K)) == "0"
    assert str(P(K, 2, -3, 1)) == "X^2 - 3*X + 2"
    half = Poly(K, [K.inv(K.from_int(2)), K.from_int(-2), K.zero, K.one])
    assert str(half) == "X^3 - 2*X + 1/2"
    assert str(P(K, 0, -1)) == "-X"
    G = PrimeField(7)
    assert str(P(G, 6, 0, 1)) == "X^2 + 6"


def test_monic_and_degree_sentinel():
    K = Rationals()
    p = P(K, 2, 4)
    assert p.monic() == P(K, 1, 2).monic() == Poly(K, [K.inv(K.from_int(2)), K.one])
    assert Poly.zero(K).degree == float("-inf")
    assert Poly.zero(K).degree < Poly.one(K).degree == 0
    with pytest.raises(ValueError):
        Poly.zero(K).monic()


def test_gf_coefficients_are_reduced_when_built():
    """A coefficient outside [0, p) is its residue: in degree, text, equality and companion."""
    K = PrimeField(7)
    p = Poly(K, [1, 7])
    assert p == Poly.one(K) and p.degree == 0 and str(p) == "1"
    assert Poly(K, [-1, 1]) == Poly(K, [6, 1]) and Poly(K, [-1, 1]).coeffs == [6, 1]
    assert Poly(K, [14, -7]).is_zero
    assert companion(Poly(K, [3, 8])) == Mat(K, [[4]])
    Q = Rationals()
    coeffs = [Q.from_int(-1), Q.one]
    assert Poly(Q, coeffs).coeffs == coeffs and Poly(Q, coeffs).coeffs is not coeffs
