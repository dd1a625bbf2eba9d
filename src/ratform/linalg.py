"""Dense exact matrices, and vectors as lists, with one Gaussian elimination.

A vector is a plain list of canonical scalars, read as a column:
``A * v`` applies A on the left, so ``A * e_j`` reads off column j.
A caller's vector is reduced where it enters (`Mat * v`,
`eval_poly_vec`, `local_min_poly`, `complete_to_basis`).  All
operations return new objects; elimination routines mutate only
private working copies, so values are safe to share across threads.

`SpanTracker` is the only forward elimination; `rref`, and through it
`solve` and `kernel_basis`, adds a back pass to its rows, and
`over_rows` (X * A^-1, so also `inverse`) reads its coordinates.  Fed
reversed vectors, its pivots give a basis completion
(`SpanTracker.completion`) and it gives coordinates in that basis.
Its rows are stored and read in the field's own format (`field.py`),
which this module does not know.
`conjugates` (A*T == T*B and full rank) re-checks a transform for `--check`.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionError, MixedFieldError, SingularMatrixError
from .field import Field
from .poly import Poly

__all__ = [
    "Mat",
    "rref",
    "rank",
    "inverse",
    "kernel_basis",
    "solve",
    "complete_to_basis",
    "companion",
    "block_diag",
    "eval_poly",
    "eval_poly_vec",
    "char_poly_oracle",
]


class Mat:
    """A dense rows x cols matrix over an exact field, its entries made canonical when built."""

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field: Field, data):
        rows = [field.canonical_row(r) for r in data]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.data = rows

    # -- constructors --

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls(
            field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Mat":
        return cls(field, [[field.zero] * ncols for _ in range(nrows)])

    @classmethod
    def from_ints(cls, field: Field, rows) -> "Mat":
        return cls(field, [[field.from_int(k) for k in row] for row in rows])

    @classmethod
    def from_cols(cls, field: Field, cols, nrows: int) -> "Mat":
        data = [[field.zero] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise DimensionError("column of wrong length")
            for i, a in enumerate(col):
                data[i][j] = a
        return cls(field, data)

    # -- structure --

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def col(self, j: int) -> list:
        return [row[j] for row in self.data]

    def _require_same_field(self, other) -> None:
        if self.field != other.field:
            raise MixedFieldError("operands over different fields")

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    # -- arithmetic --

    def __mul__(self, other):
        K = self.field
        if isinstance(other, Mat):
            self._require_same_field(other)
            if self.ncols != other.nrows:
                raise DimensionError(
                    f"cannot multiply {self.nrows}x{self.ncols} by "
                    f"{other.nrows}x{other.ncols}"
                )
            bcols = list(zip(*other.data))
            return Mat(K, [K.matvec(bcols, row) for row in self.data])
        if self.ncols != len(other):
            raise DimensionError("matrix-vector size mismatch")
        return K.matvec(self.data, K.canonical_row(other))

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def __str__(self):
        K = self.field
        return "\n".join(" ".join(K.format(a) for a in row) for row in self.data)

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols} over {self.field.describe()})"


def _require_square(a: Mat) -> None:
    if not a.is_square:
        raise DimensionError(f"matrix is {a.nrows}x{a.ncols}, not square")


class Rref(NamedTuple):
    matrix: Mat
    pivots: list
    rank: int


def rref(a: Mat) -> Rref:
    """Reduced row echelon form with pivot column indices.

    A `SpanTracker` fed the rows of `a` keeps the independent ones with
    unit pivots, each cleared at the pivots kept before it.  Sorted by
    pivot, they need only a back pass: from the last pivot up, clear
    each pivot column from the rows above it.
    """
    K = a.field
    tracker = SpanTracker(K, a.ncols)
    for row in a.data:
        tracker.try_add(row)
    rows = sorted(tracker.pivot_rows(), key=lambda r: r[0])
    for k in range(len(rows) - 1, 0, -1):
        q, below = rows[k]
        for p, tail in rows[:k]:
            c = tail[q - p - 1]
            if c:
                tail[q - p - 1] = K.zero
                tail[q - p :] = K.sub_scaled(tail[q - p :], c, below)
    m = [[K.zero] * p + [K.one] + tail for p, tail in rows]
    m += [[K.zero] * a.ncols for _ in range(a.nrows - len(rows))]
    return Rref(Mat(K, m), [p for p, _ in rows], len(rows))


def pivot_columns(a: Mat) -> list[int]:
    """The pivot columns of `rref(a)`, by forward elimination only.

    They are the columns outside the span of the ones before them, so a
    `SpanTracker` fed the columns in order finds them without reducing
    above any pivot: on a full-rank n x n matrix that is about 2n^3/3
    field operations against about 2n^3 for the reduced form.
    """
    tracker = SpanTracker(a.field, a.nrows)
    pivots: list[int] = []
    for j, col in enumerate(zip(*a.data)):
        if tracker.rank == a.nrows:
            break
        if tracker.try_add(col):
            pivots.append(j)
    return pivots


def rank(a: Mat) -> int:
    return len(pivot_columns(a))


def inverse(a: Mat) -> Mat:
    """Exact inverse: the identity written over the rows of A (`over_rows`)."""
    return over_rows(Mat.identity(a.field, a.nrows), a)


def over_rows(x: Mat, a: Mat) -> Mat:
    """X * A^-1: row i solves y * A == row i of X, for an invertible A.

    One `SpanTracker` reduces the rows of A, and `coordinates` writes
    each row of X over them.
    """
    _require_square(a)
    a._require_same_field(x)
    if x.ncols != a.ncols:
        raise DimensionError(f"rows of length {x.ncols} over a {a.nrows}x{a.ncols} matrix")
    tracker = SpanTracker(a.field, a.ncols)
    if not all(map(tracker.try_add, a.data)):
        raise SingularMatrixError("matrix is singular")
    return Mat(a.field, [tracker.coordinates(row)[0] for row in x.data])


def conjugates(a: Mat, t: Mat, b: Mat) -> bool:
    """Whether T is invertible with A*T == T*B, that is T^-1 * A * T == B."""
    return a * t == t * b and rank(t) == a.nrows


def kernel_basis(a: Mat) -> list[list]:
    """Exact basis of the null space; empty iff the matrix is injective."""
    K = a.field
    reduced, pivots, _ = rref(a)
    pivot_set = set(pivots)
    basis = []
    for c in range(a.ncols):
        if c in pivot_set:
            continue
        v = [K.zero] * a.ncols
        v[c] = K.one
        for r, pc in enumerate(pivots):
            v[pc] = K.neg(reduced.data[r][c])
        basis.append(v)
    return basis


def solve(a: Mat, b: list):
    """One exact solution of A x = b, or None if the system is inconsistent.

    Free variables are set to zero, so the particular solution is
    deterministic.
    """
    if len(b) != a.nrows:
        raise DimensionError("right-hand side has wrong length")
    K = a.field
    aug = Mat(K, [row + [b[i]] for i, row in enumerate(a.data)])
    reduced, pivots, _ = rref(aug)
    if pivots and pivots[-1] == a.ncols:
        return None
    x = [K.zero] * a.ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced.data[r][a.ncols]
    return x


class SpanTracker:
    """Incrementally row-reduced set of vectors for independence tests.

    Rows are kept in echelon form in insertion order: each new row is
    reduced by the rows before it and scaled to a unit pivot at its
    first non-zero entry, and earlier rows are never touched again.
    Testing a vector is one forward pass costing O(dim * rank) field
    operations.  Each row also records its pivot scale and the
    multipliers (j, c) it was reduced by, which is enough to write a
    vector, or its part in the span, over the vectors that were added
    (`dependence`, `coordinates`).

    The field stores the rows and reduces a vector by them
    (`Field.reduce_by_rows`), in a format only it reads.  Entries must
    be canonical.  `pivots` and `pivot_rows` read rows back; `copy`
    gives a tracker of the same span to grow apart.
    """

    __slots__ = ("field", "dim", "_rows", "steps", "relation")

    def __init__(self, field: Field, dim: int):
        self.field = field
        self.dim = dim
        self._rows: list[tuple[int, object]] = []  # (pivot, row as the field stores it)
        self.steps: list[tuple] = []  # (pivot scale, multipliers) per row
        self.relation = None  # multipliers of the last vector try_add rejected

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return [piv for piv, _ in self._rows]

    def copy(self) -> "SpanTracker":
        """A tracker of the same rows; vectors added to either leave the other as it is."""
        twin = SpanTracker(self.field, self.dim)
        twin._rows, twin.steps, twin.relation = list(self._rows), list(self.steps), self.relation
        return twin

    def completion(self) -> list[int]:
        """The e_i, ascending, completing the vectors added, if fed reversed, to a basis."""
        ends = {self.dim - 1 - piv for piv, _ in self._rows}
        return [i for i in range(self.dim) if i not in ends]

    def pivot_rows(self) -> list[tuple[int, list]]:
        """The rows in insertion order as (pivot, fresh list of the entries after it)."""
        load = self.field.load_row
        return [(piv, load(piv, row, self.dim)) for piv, row in self._rows]

    def try_add(self, entries) -> bool:
        """Add the vector if it enlarges the span; report whether it did."""
        K = self.field
        v, multipliers = K.reduce_by_rows(entries, self._rows, self.dim)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            self.relation = multipliers
            return False
        s = K.inv(v[pivot])
        self._rows.append((pivot, K.store_row(pivot, K.scale(s, v[pivot + 1 :]), self.dim)))
        self.steps.append((s, multipliers))
        return True

    def coordinates(self, entries) -> tuple[list, list]:
        """(y, r) with the vector equal to sum(y[k] * u_k) + r, r zero at every pivot.

        u_k is the k-th vector added; y comes from the same
        back-substitution as `dependence`.
        """
        v, multipliers = self.field.reduce_by_rows(entries, self._rows, self.dim)
        return self._back_substitute(multipliers), v

    def dependence(self) -> list:
        """Coordinates of the last vector `try_add` rejected over the added ones.

        Rows are never changed, so the answer stays valid as later
        vectors are added (its trailing coordinates are zero).
        """
        if self.relation is None:
            raise ValueError("no vector has been rejected")
        return self._back_substitute(self.relation)

    def _back_substitute(self, multipliers) -> list:
        """Coefficients over the u_k of the sum of c * row_j over the multipliers.

        Row k is s_k * (u_k - sum of c * row_j over its own multipliers),
        so going from the last row down costs O(rank^2) field operations.
        """
        K = self.field
        y = [K.zero] * len(self._rows)
        for j, c in multipliers:
            y[j] = c
        for k in range(len(y) - 1, -1, -1):
            if not y[k]:
                continue
            s, own = self.steps[k]
            y[k] = K.mul(y[k], s)
            for j, c in own:
                y[j] = K.sub(y[j], K.mul(y[k], c))
        return y


def complete_to_basis(field: Field, vectors: list[list], n: int) -> Mat:
    """The inputs followed by the e_i completing them to a basis, as columns.

    e_i lies in the span of the inputs and e_0..e_(i-1) exactly when a
    vector of the inputs' span ends at entry i.  A `SpanTracker` fed the
    reversed inputs has its pivots at those entries, so every other
    index, ascending, is the lexicographically first completion
    (`SpanTracker.completion`).  `rnf` reads a block's completion off
    the tracker `local_min_poly` reduced its chain with.
    """
    tracker = SpanTracker(field, n)
    vectors = [field.canonical_row(v) for v in vectors]
    for v in vectors:
        if len(v) != n:
            raise DimensionError("vector of wrong length")
        if not tracker.try_add(v[::-1]):
            raise ValueError("input vectors are linearly dependent")
    extra = [[field.one if k == i else field.zero for k in range(n)] for i in tracker.completion()]
    return Mat.from_cols(field, vectors + extra, n)


def companion(p: Poly) -> Mat:
    """Companion matrix of a monic polynomial, cyclic on e_1.

    Ones sit on the subdiagonal (B * e_j = e_{j+1} for j < deg p) and the
    last column holds the negated coefficients, so e_1 generates the full
    Krylov chain e_1, e_2, ..., e_deg.
    """
    K = p.field
    if p.is_zero or p.degree < 1:
        raise ValueError("companion matrix needs a non-constant polynomial")
    if not p.is_monic:
        raise ValueError("companion matrix needs a monic polynomial")
    d = p.degree
    m = [[K.zero] * d for _ in range(d)]
    for j in range(d - 1):
        m[j + 1][j] = K.one
    for i in range(d):
        m[i][d - 1] = K.neg(p.coeffs[i])
    return Mat(K, m)


def block_diag(blocks: list[Mat]) -> Mat:
    """Assemble square blocks along the diagonal."""
    if not blocks:
        raise ValueError("block_diag needs at least one block")
    K = blocks[0].field
    for b in blocks:
        if not b.is_square:
            raise DimensionError("blocks must be square")
        if b.field != K:
            raise MixedFieldError("blocks over different fields")
    n = sum(b.nrows for b in blocks)
    m = [[K.zero] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.nrows):
            m[off + i][off : off + b.nrows] = b.data[i]
        off += b.nrows
    return Mat(K, m)


def eval_poly(p: Poly, a: Mat) -> Mat:
    """Horner evaluation of a polynomial at a square matrix."""
    _require_square(a)
    if p.field != a.field:
        raise MixedFieldError("polynomial and matrix over different fields")
    K = a.field
    n = a.nrows
    result = Mat.zeros(K, n, n)
    first = True
    for c in reversed(p.coeffs):
        if not first:
            result = result * a
        first = False
        if c:
            result = Mat(
                K,
                [
                    [
                        K.add(result.data[i][j], c) if i == j else result.data[i][j]
                        for j in range(n)
                    ]
                    for i in range(n)
                ],
            )
    return result


def eval_poly_vec(p: Poly, a: Mat, v: list) -> list:
    """p(A) * v without forming p(A): Horner with matrix-vector products."""
    _require_square(a)
    if p.field != a.field:
        raise MixedFieldError("polynomial and matrix over different fields")
    if len(v) != a.nrows:
        raise DimensionError("vector length does not match matrix size")
    K = a.field
    v = K.canonical_row(v)
    if p.is_zero:
        return [K.zero] * a.nrows
    w = K.scale(p.coeffs[-1], v)
    for c in reversed(p.coeffs[:-1]):
        w = a * w
        if c:
            w = [K.add(x, K.mul(c, y)) for x, y in zip(w, v)]
    return w


def char_poly_oracle(a: Mat) -> Poly:
    """Characteristic polynomial det(X*I - A) by cofactor expansion.

    Test oracle only: factorial-flavored cost, capped at 8x8.  The
    expansion is memoized on the set of remaining columns, which keeps
    the 8x8 case fast while staying a straight determinant computation.
    """
    _require_square(a)
    n = a.nrows
    if n > 8:
        raise ValueError("cofactor oracle is limited to matrices up to 8x8")
    K = a.field
    entries = [
        [Poly(K, [K.neg(a.data[i][j])] + [K.one] * (i == j)) for j in range(n)]
        for i in range(n)
    ]
    memo: dict[tuple, Poly] = {}

    def det(cols: tuple) -> Poly:
        """The minor on the last len(cols) rows and the columns cols, ascending."""
        if not cols:
            return Poly.one(K)
        if cols not in memo:
            r, acc = n - len(cols), Poly.zero(K)
            for k, j in enumerate(cols):
                term = entries[r][j] * det(cols[:k] + cols[k + 1 :])
                acc = acc + term if k % 2 == 0 else acc - term
            memo[cols] = acc
        return memo[cols]

    return det(tuple(range(n)))
