"""Rank identity: an oracle for derogatory inputs past the 8x8 cofactor cap.

For any polynomial f, dim ker f(A) == sum_i deg gcd(f, P_i) over the
invariant factors P_i of A, because ker f on K[X]/(P) has dimension
deg gcd(f, P).  Merging two factors or splitting one breaks the
identity at f = P_1.  The check uses `eval_poly` and a Gaussian rank
written here, and the inputs are conjugated by elementary operations,
so nothing in it runs `SpanTracker` or the Krylov code.
"""

import random

import pytest

from conftest import rand_monic, rand_scalar
from ratform import Mat, Poly, PrimeField, Rationals, block_diag, companion, eval_poly, poly_gcd, rnf

FIELDS = [PrimeField(7), PrimeField(101), Rationals()]
IDS = ["GF7", "GF101", "Q"]


def gauss_rank(K, m):
    rows = [list(r) for r in m.data]
    r = 0
    for c in range(m.ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != K.zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = K.inv(rows[r][c])
        for i in range(r + 1, len(rows)):
            if rows[i][c] != K.zero:
                f = K.mul(rows[i][c], inv)
                rows[i] = [K.sub(x, K.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def scramble(K, a, rng, steps):
    """E A E^-1 for `steps` random E = I + c*e_i*e_j^T: row i += c*row j, then col j -= c*col i."""
    m = [list(r) for r in a.data]
    for _ in range(steps):
        i, j = rng.sample(range(a.nrows), 2)
        c = K.from_int(rng.choice((-1, 1, 2)))
        m[i] = [K.add(x, K.mul(c, y)) for x, y in zip(m[i], m[j])]
        for r in m:
            r[j] = K.sub(r[j], K.mul(c, r[i]))
    return Mat(K, m)


def derogatory_inputs(K, rng):
    """c*I, a scrambled divisibility chain, a scrambled nilpotent and an upper triangular matrix."""
    small = K.kind == "rational"  # Fraction arithmetic: keep n and the entries small
    n = 12 if small else rng.randint(20, 30)
    yield Mat(K, [[K.from_int(2) if i == j else K.zero for j in range(n)] for i in range(n)])

    q, r, t = rand_monic(K, rng, 2), rand_monic(K, rng, 1), rand_monic(K, rng, 2)
    chain = [q * r * t, q * r, q, q] if small else [q * r * t * t, q * r * t, q * r, q, q]
    form = block_diag([companion(f) for f in chain])
    yield scramble(K, form, rng, form.nrows)

    sizes = [4, 3, 3, 1, 1] if small else [7, 5, 5, 3, 2, 1]
    jordan = block_diag([companion(Poly(K, [K.zero] * s + [K.one])) for s in sizes])
    yield scramble(K, jordan, rng, jordan.nrows)

    n = 12 if small else 18
    diagonal = [K.from_int(rng.choice((1, 2))) for _ in range(n)]
    upper = [
        [diagonal[i] if i == j else rand_scalar(K, rng) if j > i and rng.random() < 0.4 else K.zero
         for j in range(n)]
        for i in range(n)
    ]
    yield Mat(K, upper)


@pytest.mark.parametrize("K", FIELDS, ids=IDS)
def test_kernel_dimensions_match_the_invariant_factors(K):
    rng = random.Random(411)
    for a in derogatory_inputs(K, rng):
        factors = rnf(a).factors
        assert sum(f.degree for f in factors) == a.nrows
        assert len(factors) > 1
        probes = factors + [rand_monic(K, rng, rng.randint(1, 3)) for _ in range(3)]
        probes.append(factors[-1] * rand_monic(K, rng, 1))
        for f in {str(f): f for f in probes}.values():
            kernel = a.nrows - gauss_rank(K, eval_poly(f, a))
            assert kernel == sum(poly_gcd(f, p).degree for p in factors)
