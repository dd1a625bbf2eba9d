"""Characteristic polynomial oracle past the 8x8 cofactor cap: Hessenberg reduction.

`hessenberg_char_poly` is Algorithm 2.2.9 of Cohen, "A Course in
Computational Algebraic Number Theory": reduce A to upper Hessenberg
form H by elementary similarity transforms (row i -= u * row m, then
column m += u * column i), then expand det(X*I - H) along the
subdiagonal.  It takes O(n^3) operations on plain ints mod p or
Fractions and calls no `Field`, `Mat` or `Poly` method, so it shares no
code with rnf.  The product of rnf's invariant factors must equal it.
"""

import random

import pytest

from conftest import poly_product, rand_monic, rand_scalar
from ratform import Mat, PrimeField, Rationals, block_diag, char_poly_oracle, companion, rnf
from test_rank_oracle import scramble

FIELDS = [PrimeField(7), PrimeField(101), Rationals()]
IDS = ["GF7", "GF101", "Q"]


def hessenberg_char_poly(K, rows):
    """det(X*I - A), coefficients constant first, for A given as n rows of n canonical scalars."""
    if K.kind == "gf":
        p = K.p
        red, inv = (lambda x: x % p), (lambda x: pow(x, -1, p))
    else:
        red, inv = (lambda x: x), (lambda x: 1 / x)
    h = [list(r) for r in rows]
    n = len(h)
    for m in range(1, n - 1):  # clear column m-1 below the subdiagonal
        i = next((i for i in range(m, n) if h[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        t = inv(h[m][m - 1])
        for i in range(m + 1, n):
            u = red(h[i][m - 1] * t)
            if u:
                h[i] = [red(x - u * y) for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = red(row[m] + u * row[i])
    # chi[k] = det(X*I - H_k) for the leading k x k block of H
    chi = [[K.one]]
    for m in range(n):
        nxt = [K.zero] + chi[m]
        terms = [(h[m][m], chi[m])]
        t = K.one
        for i in range(m - 1, -1, -1):
            t = red(t * h[i + 1][i])
            if not t:
                break
            terms.append((red(t * h[i][m]), chi[i]))
        for c, f in terms:
            for k, x in enumerate(f):
                nxt[k] = red(nxt[k] - c * x)
        chi.append(nxt)
    return chi[n]


def families(K, rng, n):
    """(name, A), n x n: upper triangular, c*I, a scrambled divisibility chain, strictly upper."""
    def triangle(diagonal):
        return Mat(K, [[K.zero] * i + [diagonal()] + [rand_scalar(K, rng) for _ in range(i + 1, n)] for i in range(n)])

    yield "upper triangular", triangle(lambda: K.from_int(rng.randint(0, 3)))
    c = K.from_int(rng.randint(1, 4))
    yield "c*I", Mat(K, [[c if i == j else K.zero for j in range(n)] for i in range(n)])
    degrees = []
    while sum(degrees) < n:
        degrees.append(min(n - sum(degrees), rng.choice((1, 2, 3, 5))))
    degrees.sort()  # ascending; each factor is the one before times a cofactor
    chain = [rand_monic(K, rng, degrees[0])]
    for lo, hi in zip(degrees, degrees[1:]):
        chain.append(chain[-1] * rand_monic(K, rng, hi - lo))
    yield "scrambled chain", scramble(K, block_diag([companion(f) for f in chain]), rng, 2 * n)
    yield "strictly upper", triangle(lambda: K.zero)


def test_the_oracle_agrees_with_the_cofactor_expansion_below_its_cap():
    rng = random.Random(229)
    for K in FIELDS:
        for n in range(2, 9):
            for _, a in families(K, rng, n):
                b = scramble(K, a, rng, 2 * n)
                assert hessenberg_char_poly(K, b.data) == char_poly_oracle(b).coeffs


@pytest.mark.parametrize("K", FIELDS, ids=IDS)
def test_rnf_factors_multiply_to_the_hessenberg_char_poly(K):
    rng = random.Random(2209)
    sizes = (4, 10, 16) if K.kind == "rational" else (6, 20, 60)
    for n in sizes:
        for name, a in families(K, rng, n):
            scrambled = scramble(K, a, rng, 2 * n)
            # A triangular input as it is costs rnf O(n^4) (ROADMAP item 2): the largest runs scrambled only.
            for b in (scrambled,) if n == sizes[-1] else (a, scrambled):
                assert poly_product(K, rnf(b).factors).coeffs == hessenberg_char_poly(K, b.data), (name, n)
