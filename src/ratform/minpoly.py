"""Minimal polynomials via Krylov sequences.

The minimal polynomial of a single vector x under A is found by growing
x, Ax, A^2 x, ... until the first linear dependence.  Vectors whose
minimal polynomials are P and Q can be combined into one whose minimal
polynomial is lcm(P, Q) using only gcd arithmetic, and iterating that
against canonical basis vectors produces a vector realizing the minimal
polynomial of the whole matrix -- no factoring, no eigenvalues.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionError, InternalInvariantError
from .linalg import Mat, SpanTracker, eval_poly_vec
from .poly import Poly, split_gcd

__all__ = [
    "LocalAnnihilator",
    "local_min_poly",
    "combine_lcm_vector",
    "min_poly_vector",
    "min_poly",
]


class LocalAnnihilator(NamedTuple):
    """A vector, its minimal polynomial under A, its Krylov basis and their elimination.

    mu is monic and non-constant, mu(A) * vector = 0, and the cached
    Krylov vectors vector, A*vector, ..., A^(deg mu - 1)*vector are
    linearly independent.  tracker is the `SpanTracker` that reduced
    them, reversed, and found mu; nothing adds to it afterwards.  The
    vectors are lists of canonical scalars.
    """

    vector: list
    mu: Poly
    krylov: list[list]
    tracker: SpanTracker


def local_min_poly(a: Mat, x: list) -> LocalAnnihilator:
    """Minimal polynomial of the vector x under the matrix a.

    Grows the Krylov sequence one vector at a time against an
    incrementally reduced copy; at the first dependence
    A^m x = c_0 x + ... + c_{m-1} A^{m-1} x the result is
    X^m - c_{m-1} X^{m-1} - ... - c_0, with the c_i read off the same
    elimination.  The vectors are fed reversed, so rows are reduced by
    their last entries: the dependence does not depend on the order of
    the coordinates, and the tracker returned with the chain also gives
    its basis completion and coordinates (`rnf` splits a block off it).
    x is reduced to canonical scalars first, once.
    """
    if not a.is_square:
        raise DimensionError("matrix must be square")
    if len(x) != a.nrows:
        raise DimensionError("vector length does not match matrix size")
    K = a.field
    x = K.canonical_row(x)
    if not any(x):
        raise ValueError("zero vector has no minimal polynomial")
    tracker = SpanTracker(K, a.nrows)
    krylov: list[list] = []
    cur = x
    while tracker.try_add(cur[::-1]):
        krylov.append(cur)
        cur = a * cur
    mu = Poly(K, [K.neg(c) for c in tracker.dependence()] + [K.one])
    return LocalAnnihilator(vector=x, mu=mu, krylov=krylov, tracker=tracker)


def combine_lcm_vector(
    a: Mat, lx: LocalAnnihilator, ly: LocalAnnihilator
) -> LocalAnnihilator:
    """A vector whose minimal polynomial is lcm of the two inputs'.

    If one minimal polynomial divides the other, the dominating input is
    returned unchanged.  Otherwise gcd splitting gives G = h*k and the
    combination h(A)x + k(A)y realizes the lcm; for coprime inputs
    h = k = 1 and this is the sum x + y.  G is a proper divisor of both,
    so deg h < deg P and deg k < deg Q: the combination is read off the
    cached Krylov vectors, with no matrix-vector product.  Its minimal
    polynomial is left unchecked: `min_poly_vector` checks that the
    degree grows, and `rnf`'s certificate checks the rest.
    """
    p, q = lx.mu, ly.mu
    if p.divides(q):
        return ly
    if q.divides(p):
        return lx
    h, k, _, _ = split_gcd(p, q)
    cols = lx.krylov[: len(h.coeffs)] + ly.krylov[: len(k.coeffs)]
    return local_min_poly(a, a.field.matvec(list(zip(*cols)), h.coeffs + k.coeffs))


def min_poly_vector(a: Mat, _trusted: list | None = None) -> LocalAnnihilator:
    """A vector whose minimal polynomial is the matrix's own.

    Starts from e_1 and repeatedly absorbs the smallest-index canonical
    basis vector not yet annihilated, so the result is deterministic.
    Each absorption strictly increases the degree.  The scan skips every
    e_i inside a span known to be annihilated, a copy of the candidate's
    own elimination of its Krylov chain (`LocalAnnihilator.tracker`).
    Each e_i is reduced against it once, by adding it; an annihilated
    e_i adds its chain but the last vector, which depends on the others,
    and one that escapes is annihilated by the lcm.  A skipped e_i is
    annihilated anyway, so the escapes found are the ones an exhaustive
    scan would find.

    With a list as `_trusted` (rnf's peel) the scan stops early, appends
    n and returns the e_1 chain unproven when the first candidate is
    annihilated, two more chains are left to spin and a fixed dense
    probe is annihilated too.  rnf's certificate then decides.
    """
    if not a.is_square:
        raise DimensionError("matrix must be square")
    n = a.nrows
    if n == 0:
        raise ValueError("empty matrix has no minimal polynomial")
    K = a.field
    acc = local_min_poly(a, [K.one] + [K.zero] * (n - 1))
    # A full Krylov chain means the candidate already annihilates A (it
    # divides the degree-n characteristic polynomial and has degree n),
    # so no scan is needed.
    if acc.mu.degree == n:
        return acc
    known = acc.tracker.copy()
    trust = _trusted is not None
    for i in range(1, n):
        e = [K.zero] * n
        e[i] = K.one
        if not known.try_add(e[::-1]):
            continue
        first, trust = trust, False
        chain = [e, a.col(i)]  # a * e_i is column i of a
        for _ in range(acc.mu.degree - 1):
            chain.append(a * chain[-1])
        image = K.matvec(list(zip(*chain)), acc.mu.coeffs)
        if not any(image):
            for w in chain[1:-1]:
                if not known.try_add(w[::-1]):
                    break
            if first and n - known.rank > acc.mu.degree:
                # a fixed dense probe, +-1..+-9 off the Lehmer sequence 48271^k mod 2^31 - 1
                xs = [pow(48271, k, 2**31 - 1) for k in range(1, n + 1)]
                probe = [K.from_int((x % 9 + 1) * (-1) ** x) for x in xs]
                if not any(eval_poly_vec(acc.mu, a, probe)):
                    _trusted.append(n)
                    return acc
            continue
        other = local_min_poly(a, e)
        grown = combine_lcm_vector(a, acc, other)
        if grown.mu.degree <= acc.mu.degree:
            raise InternalInvariantError("combination failed to grow the degree")
        acc = grown
        if acc.mu.degree == n:
            return acc
        # e_i is known already; combine_lcm_vector may return `other` itself
        for v in (acc.krylov if acc is not other else []) + other.krylov[1:]:
            known.try_add(v[::-1])
    return acc


def min_poly(a: Mat) -> Poly:
    """The minimal polynomial of a square matrix."""
    return min_poly_vector(a).mu
