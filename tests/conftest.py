"""Shared random-instance generators for the test suite.

All tests seed their own random.Random so failures reproduce exactly.
Rational entries stay small (the algorithms are exact; the tests only
need structural variety, not large coefficients).
"""

import random
from fractions import Fraction

from ratform import Mat, Poly, PrimeField, Rationals, inverse, poly_gcd
from ratform.errors import SingularMatrixError


def rand_scalar(K, rng, lo=-3, hi=3):
    if K.kind == "gf":
        return rng.randrange(K.p)
    return Fraction(rng.randint(lo, hi))


def rand_matrix(K, rng, nrows, ncols=None, lo=-3, hi=3):
    ncols = nrows if ncols is None else ncols
    return Mat(K, [[rand_scalar(K, rng, lo, hi) for _ in range(ncols)] for _ in range(nrows)])


def rand_vector(K, rng, n, nonzero=False):
    while True:
        v = [rand_scalar(K, rng) for _ in range(n)]
        if not nonzero or any(v):
            return v


def unit(K, n, i):
    """e_i of length n, as the list of scalars a vector is."""
    return [K.one if k == i else K.zero for k in range(n)]


def rand_invertible(K, rng, n):
    while True:
        m = rand_matrix(K, rng, n)
        try:
            inverse(m)
        except SingularMatrixError:
            continue
        return m


def rand_monic(K, rng, degree):
    return Poly(K, [rand_scalar(K, rng) for _ in range(degree)] + [K.one])


def rand_nilpotent(K, rng, n):
    """Random strictly upper triangular matrix conjugated randomly."""
    strict = Mat(
        K,
        [
            [rand_scalar(K, rng) if j > i else K.zero for j in range(n)]
            for i in range(n)
        ],
    )
    s = rand_invertible(K, rng, n)
    return inverse(s) * strict * s


def poly_product(K, factors):
    out = Poly.one(K)
    for f in factors:
        out = out * f
    return out


def shared_factor_pair(K, rng, max_degree=8):
    """Monic pair with common factors, gcd a proper divisor of both."""
    while True:
        shared = [rand_monic(K, rng, rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        left = [rand_monic(K, rng, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        right = [rand_monic(K, rng, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        p = poly_product(K, shared + left)
        q = poly_product(K, shared + right)
        if not (1 <= p.degree <= max_degree and 1 <= q.degree <= max_degree):
            continue
        g = poly_gcd(p, q)
        if g != p and g != q:
            return p, q


def decimal_digits(n: int) -> str:
    """Exact decimal text of n, built from chunks str() accepts at any size limit."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= 10**1000:
        n, r = divmod(n, 10**1000)
        chunks.append(f"{r:01000d}")
    return sign + str(n) + "".join(reversed(chunks))


def gf7():
    return PrimeField(7)


def rationals():
    return Rationals()


def fresh_rng(seed):
    return random.Random(seed)
