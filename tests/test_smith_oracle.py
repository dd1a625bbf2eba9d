"""Invariant factors from the Smith form of the characteristic matrix.

The paper's other route to the rational normal form: row and column
operations on xI - A over GF(p)[x] bring it to diag(1, ..., 1, d_1, ...,
d_r) with each d_i dividing the next, and the d_i are the invariant
factors.  Polynomials here are lists of ints mod p, lowest degree first,
with their own arithmetic: the oracle shares no code with `rnf`, its
`Poly` or its `SpanTracker`, and it reaches past the 8x8 cap of the
cofactor-determinant oracle.
"""

import random

from ratform import Mat, PrimeField, rnf
from test_rank_oracle import scramble

P = 7


def trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def add(f, g, sign=1):
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) + sign * (g[i] if i < len(g) else 0)) % P for i in range(n)])


def sub(f, g):
    return add(f, g, -1)


def mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % P
    return out


def divmod_poly(f, g):
    rem, quot = f[:], [0] * max(len(f) - len(g) + 1, 0)
    inv = pow(g[-1], -1, P)
    while len(rem) >= len(g):
        c, shift = rem[-1] * inv % P, len(rem) - len(g)
        quot[shift] = c
        rem = sub(rem, [0] * shift + [c * y % P for y in g])
    return trim(quot), rem


def monic(f):
    inv = pow(f[-1], -1, P)
    return [x * inv % P for x in f]


def smith_invariant_factors(a):
    """The non-unit diagonal of the Smith form of xI - A, each dividing the next."""
    n = len(a)
    m = [[trim([-a[i][j] % P] + ([1] if i == j else [])) for j in range(n)] for i in range(n)]
    diagonal = []
    for k in range(n):
        while True:
            _, i, j = min((len(m[i][j]), i, j) for i in range(k, n) for j in range(k, n) if m[i][j])
            m[k], m[i] = m[i], m[k]
            for row in m[k:]:
                row[k], row[j] = row[j], row[k]
            pivot, reduced = m[k][k], True
            for i in range(k + 1, n):
                if m[i][k]:
                    q, r = divmod_poly(m[i][k], pivot)
                    m[i] = [sub(x, mul(q, y)) for x, y in zip(m[i], m[k])]
                    reduced = reduced and not r
            for j in range(k + 1, n):
                if m[k][j]:
                    q, r = divmod_poly(m[k][j], pivot)
                    for row in m[k:]:
                        row[j] = sub(row[j], mul(q, row[k]))
                    reduced = reduced and not r
            if not reduced:
                continue  # a remainder of lower degree becomes the next pivot
            rest = [i for i in range(k + 1, n) for j in range(k + 1, n) if divmod_poly(m[i][j], pivot)[1]]
            if not rest:
                break
            m[k] = [add(x, y) for x, y in zip(m[k], m[rest[0]])]  # row k += row i
        diagonal.append(monic(m[k][k]))
    return [d for d in diagonal if len(d) > 1]


def random_monic(rng, degree):
    return [rng.randrange(P) for _ in range(degree)] + [1]


def chain_of_companions(n, rng):
    """A divisibility chain with degrees summing to n, smallest first, and its direct sum."""
    chain, total = [random_monic(rng, 1)], 1
    while total < n:
        room, last = n - total, len(chain[-1]) - 1
        if room < last:  # no room for another factor: the last one grows
            chain[-1] = mul(chain[-1], random_monic(rng, room))
            total = n
        else:  # the next factor is a multiple of the last, maybe equal to it
            chain.append(mul(chain[-1], random_monic(rng, rng.randint(0, min(2, room - last)))))
            total += len(chain[-1]) - 1
    a, off = [[0] * n for _ in range(n)], 0
    for f in chain:
        d = len(f) - 1
        for j in range(d - 1):
            a[off + j + 1][off + j] = 1
        for i in range(d):
            a[off + i][off + d - 1] = -f[i] % P
        off += d
    return chain, a


def test_smith_form_of_the_characteristic_matrix_gives_rnf_factors():
    K = PrimeField(P)
    rng = random.Random(229)
    derogatory = 0
    for n in range(6, 13):
        random_entries = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
        chain, block = chain_of_companions(n, rng)
        for a, expected in ((random_entries, None), (scramble(K, Mat(K, block), rng, 4 * n).data, chain)):
            smith = smith_invariant_factors(a)
            assert sum(len(d) - 1 for d in smith) == n
            if expected is not None:
                assert smith == expected
                derogatory += len(expected) > 1
            assert [f.coeffs for f in reversed(rnf(Mat(K, a)).factors)] == smith
    assert derogatory >= 5
