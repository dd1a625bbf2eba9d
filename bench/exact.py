"""Exact arithmetic for building benchmark inputs and checking outputs.

Independent of the library on purpose: generating an input or checking
a result here never touches a ratform `Field`, so it adds nothing to
`op_count`, and a defect in the library's kernels cannot hide itself by
also sitting in the oracle.

Scalars are ints reduced mod `p` when `p` is a prime, or `Fraction`s
when `p` is None.  Matrices are lists of rows; polynomials are
coefficient lists in ascending order, monic ones ending in 1.
"""

from __future__ import annotations

from fractions import Fraction


def norm(x, p):
    return x % p if p else Fraction(x)


def inv(x, p):
    return pow(x, -1, p) if p else 1 / Fraction(x)


def identity(n, p):
    return [[norm(int(i == j), p) for j in range(n)] for i in range(n)]


def matmul(a, b, p):
    cols = list(zip(*b))
    if p:
        return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _eliminate(a, p, augment):
    """Gauss-Jordan on [a | augment]; returns (rank, reduced augment)."""
    n = len(a)
    m = [list(r) + list(s) for r, s in zip(a, augment)]
    ncols = len(a[0]) if a else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, n) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        s = inv(m[r][c], p)
        m[r] = [norm(x * s, p) for x in m[r]]
        for i in range(n):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = [norm(x - f * y, p) for x, y in zip(m[i], m[r])]
        r += 1
    return r, [row[ncols:] for row in m]


def rank(a, p):
    return _eliminate(a, p, [[] for _ in a])[0]


def inverse(a, p):
    r, out = _eliminate(a, p, identity(len(a), p))
    if r != len(a):
        raise ValueError("singular matrix")
    return out


def poly_mul(f, g, p):
    out = [norm(0, p)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = norm(out[i + j] + x * y, p)
    return out


def poly_rem(f, g, p):
    """Remainder of f by the monic g, trailing zeros stripped."""
    rem = list(f)
    d = len(g) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c != 0:
            for j in range(d + 1):
                rem[i - d + j] = norm(rem[i - d + j] - c * g[j], p)
    rem = rem[:d]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def companion(f, p):
    """Companion block of the monic f: ones below the diagonal, -coeffs last."""
    d = len(f) - 1
    m = [[norm(0, p)] * d for _ in range(d)]
    for j in range(d - 1):
        m[j + 1][j] = norm(1, p)
    for i in range(d):
        m[i][d - 1] = norm(-f[i], p)
    return m


def block_diag(blocks, p):
    n = sum(len(b) for b in blocks)
    m = [[norm(0, p)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[off + i][off : off + len(b)] = row
        off += len(b)
    return m


def bits(x) -> int:
    """Numerator plus denominator bit size; an int has denominator 1."""
    return x.numerator.bit_length() + x.denominator.bit_length()


def check_similarity(a, b, s, p):
    """Why `a * s == s * b` with `s` invertible fails, or None if it holds."""
    if matmul(a, s, p) != matmul(s, b, p):
        return "A*S != S*B"
    if rank(s, p) != len(s):
        return "transform is singular"
    return None


def check_rnf(a, factors, form, transform, p, expected=None):
    """Why (factors, form, transform) is not the rational normal form of a.

    Returns None when it is: every factor is monic and non-constant,
    each divides the one before, the degrees sum to n, `form` is the
    block diagonal of their companions, and `transform` is an
    invertible T with A*T == T*R.  Together these pin the form down
    uniquely.  `expected`, when given, is the known factor chain.
    """
    n = len(a)
    if not factors or any(len(f) < 2 or f[-1] != 1 for f in factors):
        return "a factor is not monic and non-constant"
    if sum(len(f) - 1 for f in factors) != n:
        return "factor degrees do not sum to n"
    for earlier, later in zip(factors, factors[1:]):
        if poly_rem(earlier, later, p):
            return "divisibility chain broken"
    if expected is not None and factors != expected:
        return "factors differ from the generated chain"
    if form != block_diag([companion(f, p) for f in factors], p):
        return "form is not the companion block diagonal of the factors"
    return check_similarity(a, form, transform, p)
