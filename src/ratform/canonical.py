"""Rational normal form, similarity testing, nilpotent Jordan form.

Everything here uses field operations only: Krylov chains, Gaussian
elimination and polynomial gcds.  No factoring, no root finding, so the
results are exact over the rationals and over GF(p) alike.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .errors import (
    DimensionError,
    InternalInvariantError,
    MixedFieldError,
    NotNilpotentError,
)
from .linalg import (
    Mat,
    SpanTracker,
    block_diag,
    companion,
    over_rows,
    pivot_columns,
)
from .minpoly import min_poly_vector
from .poly import Poly

__all__ = [
    "RnfResult",
    "JnfResult",
    "rnf",
    "invariant_factors",
    "char_poly",
    "is_similar",
    "nilpotent_jnf",
]


class RnfResult(NamedTuple):
    """Invariant factors with the change of basis that exhibits them.

    factors[0] is the minimal polynomial; each later factor divides the
    previous one; the degrees sum to n.  rnf is the block-diagonal
    matrix of companion blocks and transform satisfies
    inverse(transform) * A * transform == rnf exactly.
    """

    factors: list[Poly]
    rnf: Mat
    transform: Mat


class JnfResult(NamedTuple):
    """Jordan data of a nilpotent matrix.

    partition lists the Jordan block sizes in descending order; jnf is
    the block-diagonal nilpotent Jordan matrix (ones on the subdiagonal,
    matching the companion-block convention); transform satisfies
    inverse(transform) * A * transform == jnf.
    """

    partition: list[int]
    jnf: Mat
    transform: Mat


def _fail(phase: str, block: int, message: str) -> InternalInvariantError:
    return InternalInvariantError(f"rnf {phase}, block {block}: {message}")


def _split_quotient(sub: Mat, tracker: SpanTracker) -> tuple[list[int], list[list], Mat]:
    """Split a cyclic block off the quotient matrix `sub`, reading only its tracker.

    `tracker` is the one `local_min_poly` fed the block's Krylov chain
    V, reversed, to find its polynomial mu; no elimination is repeated.
    Its pivots give `keep`, the e_s completing V.  In the basis
    C = [V | e_s for s in keep] the first d columns of C^-1 * sub * C
    are companion(mu) over zeros by construction, and sub * e_s is
    column s of sub, so only the completion columns C^-1 * y are
    computed.  The tracker gives both parts of each: the Krylov
    coordinates, and in its residual the coordinates on the e_s.  For
    the last block `keep` is empty and nothing is computed.

    Returns `keep`, the d rows of couplings of the new block to the
    completion, and the quotient matrix left to split.
    """
    m = sub.nrows
    keep = tracker.completion()
    parts = [tracker.coordinates(sub.col(s)[::-1]) for s in keep]
    coupling = [[x[k] for x, _ in parts] for k in range(tracker.rank)]
    rest = [[r[m - 1 - t] for _, r in parts] for t in keep]
    return keep, coupling, Mat(sub.field, rest)


def _clear_couplings(head: Poly, lead: list[list], chain: list[Poly]) -> list[list]:
    """Columns of X such that U = [[I, X], [0, I]] clears the leading block row.

    The trailing matrix is block upper triangular: companion(head) in the
    top-left corner, its couplings `lead` (deg head rows) to the right,
    and the exact companion blocks of `chain` on the diagonal below.
    Conjugating it by the unit upper triangular U makes it block
    diagonal; X fills the columns to the right of the leading block.

    Works because e_1 is cyclic for the leading block: its Krylov chain
    reads off coordinates, so the top segment of P_i(sub) * v_i *is* the
    coefficient vector of a polynomial h_i, and block i's own factor P_i
    divides h_i exactly; subtracting (h_i / P_i)(sub) * e_1 from v_i
    then decouples block i.  Every vector involved has a known companion
    part below the leading block, so only its top segment is carried:
    sub maps (y, e_t) to (companion(head) * y + lead[:, t], e_(t+1)).
    """
    K = head.field
    h = head.degree
    last = [K.neg(c) for c in head.coeffs[:h]]
    lead_cols = list(zip(*lead))

    def times_sub(y: list, t: int) -> list:
        top = y[-1]
        prev = [K.zero] + y[:-1]
        return [K.add(K.add(p, K.mul(c, top)), j) for p, c, j in zip(prev, last, lead_cols[t])]

    out: list[list] = []
    t = 0
    for i, factor in enumerate(chain, 1):
        d = factor.degree
        tops = [[K.zero] * h]
        for k in range(d):
            tops.append(times_sub(tops[-1], t + k))
        image = K.matvec(list(zip(*tops[1:])), factor.coeffs[1:])
        quotient, remainder = divmod(Poly(K, image), factor)
        if not remainder.is_zero:
            raise InternalInvariantError(f"coupling polynomial of later block {i} is not divisible")
        y = [K.neg(c) for c in quotient.coeffs]
        y += [K.zero] * (h - len(y))
        out.append(y)
        for k in range(d - 1):
            y = times_sub(y, t + k)
            out.append(y)
        t += d
    return out


def _times_form(cols: list[list], factors: list[Poly]) -> list[list]:
    """Columns of T * block_diag(companion(f)), read off the companion structure."""
    K = factors[0].field
    out: list[list] = []
    off = 0
    for f in factors:
        d = f.degree
        block = cols[off : off + d]
        out.extend(block[1:])
        out.append([K.neg(y) for y in K.matvec(list(zip(*block)), f.coeffs[:d])])
        off += d
    return out


def _certify(a: Mat, cols: list[list], factors: list[Poly], offsets: list[int]) -> Mat:
    """T from its columns, checked once: A*T == T*R and rank(T) == n.

    A times a column of T that is a unit vector e_s is column s of A,
    read off with no arithmetic.
    """
    n, K = a.nrows, a.field
    for c, (col, rhs) in enumerate(zip(cols, _times_form(cols, factors))):
        if col.count(K.zero) == n - 1 and K.one in col:
            s = col.index(K.one)
            image = [row[s] for row in a.data]
        else:
            image = K.matvec(a.data, col)
        if image != rhs:
            block = bisect_right(offsets, c) - 1
            raise _fail("certify", block, f"A*T and T*R differ in column {c}")
    t = Mat.from_cols(a.field, cols, n)
    pivots = pivot_columns(t)
    if len(pivots) < n:
        c = next(i for i, p in enumerate(pivots + [n]) if p != i)
        raise _fail("certify", bisect_right(offsets, c) - 1, f"column {c} of T is dependent")
    return t


def rnf(a: Mat) -> RnfResult:
    """Rational normal form R plus a transform T with T^-1 A T = R.

    Peels one companion block at a time, in shrinking quotient
    coordinates: find a vector realizing the minimal polynomial of the
    quotient matrix not yet split off, extend its Krylov chain to a
    basis with canonical vectors, read off the elimination that found
    its polynomial, and carry on with the completion's part of the
    quotient.  A block touches only that quotient, the
    couplings of the earlier blocks to it, and its own columns of T,
    which are its Krylov chain in the coordinates of A.  The couplings
    are then cleared innermost-first, each block updating only the rows
    above it and the columns of T to its right.  The result is checked
    once, by A*T == T*R and rank(T) == n; with the divisibility chain
    that proves R is the rational normal form.  So a block's escape scan
    may stop early (`min_poly_vector`), and an attempt that did and then
    fails a check is peeled once more with the full scan.

    An InternalInvariantError names the phase (peel, couple or certify)
    and the block where it was detected.
    """
    if not a.is_square:
        raise DimensionError("matrix must be square")
    if a.nrows == 0:
        raise ValueError("empty matrix has no rational normal form")
    trusted: list = []
    try:
        return _peel(a, trusted)
    except InternalInvariantError:
        if not trusted:
            raise
    return _peel(a, None)


def _peel(a: Mat, trusted: list | None) -> RnfResult:
    """rnf's peel, coupling and certificate; `trusted` is `min_poly_vector`'s `_trusted`."""
    n, K = a.nrows, a.field
    # Rows of the conjugated matrix above its companion diagonal; a row
    # of block j is meaningful right of that block only.
    upper = [[K.zero] * n for _ in range(n)]
    cols: list[list] = []  # the peeled columns of T
    basis = list(range(n))  # T's remaining columns are e_basis[s]
    factors: list[Poly] = []
    offsets: list[int] = []
    sub = a
    off = 0
    while off < n:
        j = len(factors)
        try:
            ann = min_poly_vector(sub, trusted)
            if factors and not ann.mu.divides(factors[-1]):
                raise InternalInvariantError("invariant factor chain broken")
            d = ann.mu.degree
            keep, coupling, sub = _split_quotient(sub, ann.tracker)
            for k, row in enumerate(coupling):
                upper[off + k][off + d :] = row
        except InternalInvariantError as exc:
            raise _fail("peel", j, str(exc)) from exc
        for row in upper[:off]:
            tail = row[off:]
            row[off:] = K.matvec(ann.krylov, tail) + [tail[s] for s in keep]
        for v in ann.krylov:
            col = [K.zero] * n
            for s, x in zip(basis, v):
                col[s] = x
            cols.append(col)
        basis = [basis[s] for s in keep]
        factors.append(ann.mu)
        offsets.append(off)
        off += d
    for j in range(len(factors) - 2, -1, -1):
        o, h = offsets[j], factors[j].degree
        lead = [upper[o + k][o + h :] for k in range(h)]
        if not any(map(any, lead)):
            continue  # X is zero: nothing to clear, T is unchanged
        try:
            x = _clear_couplings(factors[j], lead, factors[j + 1 :])
        except InternalInvariantError as exc:
            raise _fail("couple", j, str(exc)) from exc
        for row in upper[:o]:
            head = row[o : o + h]
            row[o + h :] = [K.add(y, z) for y, z in zip(row[o + h :], K.matvec(x, head))]
        heads = list(zip(*cols[o : o + h]))
        for c, xc in enumerate(x, o + h):
            cols[c] = [K.add(y, z) for y, z in zip(cols[c], K.matvec(heads, xc))]
    transform = _certify(a, cols, factors, offsets)
    form = block_diag([companion(f) for f in factors])
    return RnfResult(factors=factors, rnf=form, transform=transform)


def invariant_factors(a: Mat) -> list[Poly]:
    """The invariant factor list -- a complete similarity invariant."""
    return rnf(a).factors


def char_poly(a: Mat) -> Poly:
    """Characteristic polynomial as the product of the invariant factors.

    Rational operations only; the cofactor determinant stays a test
    oracle.
    """
    result = rnf(a)
    out = Poly.one(a.field)
    for f in result.factors:
        out = out * f
    return out


def is_similar(a: Mat, b: Mat, *, witness: bool = False):
    """Decide similarity by comparing invariant factors.

    With witness=True returns (similar, S) where S is invertible with
    A S = S B when similar (None otherwise).  S = Ta * Tb^-1 for the rnf
    transforms, read off by `over_rows` with no inverse formed.  Ta and Tb
    are certified onto the same R, so S * Tb == Ta, checked before
    returning, gives A S = Ta R Tb^-1 = S B and rank(S) = rank(Ta) = n.
    """
    if not a.is_square or not b.is_square:
        raise DimensionError("similarity is defined for square matrices")
    if a.nrows != b.nrows:
        raise DimensionError("matrices differ in size")
    if a.field != b.field:
        raise MixedFieldError("matrices over different fields")
    ra = rnf(a)
    rb = rnf(b)
    same = ra.factors == rb.factors
    if not witness:
        return same
    if not same:
        return False, None
    s = over_rows(ra.transform, rb.transform)
    if s * rb.transform != ra.transform:
        raise InternalInvariantError("similarity witness fails S*Tb = Ta")
    return True, s


def nilpotent_jnf(a: Mat) -> JnfResult:
    """Jordan normal form of a nilpotent matrix, read off its rational normal form.

    A is nilpotent exactly when its minimal polynomial is a monomial
    X^s.  Then every invariant factor is a monomial X^s_i, and
    companion(X^s_i) is the nilpotent Jordan block of size s_i, so the
    factor degrees are the partition (descending, since each factor
    divides the one before) and rnf's certified transform T gives
    T^-1 A T == the Jordan matrix.
    """
    if not a.is_square:
        raise DimensionError("matrix must be square")
    if a.nrows == 0:
        raise ValueError("empty matrix has no Jordan form")
    result = rnf(a)
    if any(result.factors[0].coeffs[:-1]):
        raise NotNilpotentError("matrix is not nilpotent")
    return JnfResult(
        partition=[f.degree for f in result.factors],
        jnf=result.rnf,
        transform=result.transform,
    )
