"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Scalar values are plain Python objects: `fractions.Fraction` over the
rationals (always reduced, denominator positive) and canonical int
residues in [0, p) over GF(p).  All arithmetic goes through a field
context, which keeps results canonical and tallies the number of field
operations performed -- useful for checking that an algorithm's cost
scales polynomially.

Because the representations are canonical, `==` on scalar values is
exact mathematical equality and zero is the only falsy value.  `Mat`
and `Poly` put their entries through `canonical_row` when built, and so
do `Mat * v`, `eval_poly_vec`, `local_min_poly` and `complete_to_basis`
with a caller's vector: an int outside [0, p) is reduced mod p there,
an int over Q made a Fraction, and a float refused.

Only a field knows how `SpanTracker`'s rows are stored (`store_row`,
`load_row`, `reduce_by_rows`): `Field` keeps lists, which `Rationals`
inherits, and `PrimeField` packs a row into one int with an entry in
each fixed-width slot (`pack`), reduced mod p only when read back.
"""

from __future__ import annotations

import re
import sys
from array import array
from decimal import Decimal
from fractions import Fraction
from operator import index, mul

__all__ = ["Field", "Rationals", "PrimeField"]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # ASCII only: \d takes any script's digits
_INT_RE = re.compile(r"[+-]?[0-9]+")

# int() may refuse strings past 640 digits, the least int/str limit an interpreter can
# be set to (4300 by default); parse reads longer integers in halves, up to MAX_DIGITS.
_LEAF_DIGITS, MAX_DIGITS = 640, 100_000


def ascii_int(text: str) -> int:
    """int(text) for ASCII digits only: int() also takes other scripts' digits, signs and `_`."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an unsigned ASCII integer: {text!r}")
    return int(text)


def _read_int(text: str) -> int:
    """A signed integer of ASCII digits, read in halves past the least int/str limit."""
    if len(text) <= _LEAF_DIGITS:
        return int(text)
    digits = text.lstrip("+-")
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"an integer of {len(digits)} digits is past the cap of {MAX_DIGITS}")
    k = len(digits) // 2
    value = _read_int(digits[:-k]) * 10**k + _read_int(digits[-k:])
    return -value if text[0] == "-" else value


# Miller-Rabin on the first thirteen primes as bases is a proof of
# primality for every n below this bound, psi_13 (Sorenson and Webster,
# 2015); the first twelve alone only reach psi_12 = 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981

_LITTLE = sys.byteorder == "little"  # array("Q") is in machine byte order


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_BOUND."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Scalar context: arithmetic, parsing/formatting, operation count.

    Each field implements `zero`, `one`, `kind`, `describe` (the name
    that `==` and `hash` compare), `from_int`, `parse`, `format`, the
    scalar `add`, `sub`, `mul`, `neg` and `inv`, and the row-level
    `matvec`, `sub_scaled` and `scale`.  Instances are immutable apart
    from `op_count`, a running tally of the arithmetic operations run
    through the context.  A scalar method counts one; a row-level one
    counts in one step what the equivalent scalar calls would:
    `matvec(rows, v)`, each row's sum of products with v, len(v) muls
    and len(v)-1 adds per row; `sub_scaled(xs, c, ys)`, [x - c*y] over
    equal-length rows, a mul and a sub each; `scale(c, xs)`, [c*x for x
    in xs], one mul each; `reduce_by_rows`, as its `sub_scaled` calls.
    Equal contexts describe the same field, so values may flow between
    structures built from them.

    Values are canonical, so a value is zero iff it is falsy and `==` is
    equality in the field; neither test counts as an operation.
    """

    __slots__ = ("op_count",)

    def __init__(self):
        self.op_count = 0

    def reset_op_count(self) -> None:
        self.op_count = 0

    def __repr__(self):
        return f"<field {self.describe()}>"

    def __eq__(self, other):
        return isinstance(other, Field) and self.describe() == other.describe()

    def __hash__(self):
        return hash(self.describe())

    # -- stored rows of an elimination: here lists, the tail after a unit pivot --

    def store_row(self, pivot: int, tail: list, dim: int):
        """A row of length dim, zero before a unit pivot and tail after it, as stored."""
        return tail

    def load_row(self, pivot: int, row, dim: int) -> list:
        """The tail of a stored row as a fresh list."""
        return list(row)

    def reduce_by_rows(self, entries, rows, dim: int) -> tuple[list, list]:
        """The vector less c * row j for each multiplier (j, c) taken off, and the multipliers."""
        v = list(entries)
        multipliers = []
        for j, (piv, tail) in enumerate(rows):
            c = v[piv]
            if not c:
                continue
            v[piv] = self.zero
            v[piv + 1 :] = self.sub_scaled(v[piv + 1 :], c, tail)
            multipliers.append((j, c))
        return v, multipliers

    def canonical_row(self, xs) -> list:
        """The entries as a fresh list of canonical values; over Q, each int made a Fraction."""
        row = list(xs)
        for i, x in enumerate(row):
            if type(x) is not Fraction:
                if not isinstance(x, (int, Fraction)):
                    raise TypeError(f"not an exact rational scalar: {x!r}")
                row[i] = Fraction(x)
        return row


class Rationals(Field):
    """The field of rational numbers with arbitrary-precision values."""

    __slots__ = ()

    kind = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def describe(self) -> str:
        return "rational"

    def add(self, a, b):
        self.op_count += 1
        return a + b

    def sub(self, a, b):
        self.op_count += 1
        return a - b

    def mul(self, a, b):
        self.op_count += 1
        return a * b

    def neg(self, a):
        self.op_count += 1
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        self.op_count += 1
        return self.one / a

    def matvec(self, rows, v):
        n = len(v)
        if n == 0:
            return [self.zero] * len(rows)
        self.op_count += len(rows) * (2 * n - 1)
        return [sum(map(mul, row, v)) for row in rows]

    def sub_scaled(self, xs, c, ys):
        self.op_count += 2 * len(xs)
        return [x - c * y for x, y in zip(xs, ys)]

    def scale(self, c, xs):
        self.op_count += len(xs)
        return [c * x for x in xs]

    def from_int(self, k: int):
        return Fraction(index(k))

    def parse(self, text: str):
        if not _RATIONAL_RE.fullmatch(text):
            raise ValueError(f"not a rational scalar: {text!r}")
        num, _, den = text.partition("/")
        try:
            return Fraction(_read_int(num), _read_int(den or "1"))
        except ZeroDivisionError:
            raise ZeroDivisionError(f"zero denominator in {text!r}") from None

    def format(self, a) -> str:
        try:
            return str(a)
        except ValueError:
            # str() refuses ints past the interpreter's digit limit; Decimal does not.
            num, den = str(Decimal(a.numerator)), str(Decimal(a.denominator))
            return num if den == "1" else f"{num}/{den}"


class PrimeField(Field):
    """GF(p) for a prime modulus; residues kept canonical in [0, p)."""

    __slots__ = ("p", "_dim8")

    kind = "gf"
    zero = 0
    one = 1

    def __init__(self, p: int):
        super().__init__()
        if p >= PRIME_BOUND:
            raise ValueError(
                f"modulus {p} is not below {PRIME_BOUND}, the bound of the primality proof"
            )
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self._dim8 = ((2**64 - 1) // (p - 1) - 1) // (p - 1)  # the largest dim with 8-byte slots

    def describe(self) -> str:
        return f"gf {self.p}"

    def add(self, a, b):
        self.op_count += 1
        return (a + b) % self.p

    def sub(self, a, b):
        self.op_count += 1
        return (a - b) % self.p

    def mul(self, a, b):
        self.op_count += 1
        return (a * b) % self.p

    def neg(self, a):
        self.op_count += 1
        return (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        self.op_count += 1
        return pow(a, -1, self.p)

    # Products and sums are exact Python ints, reduced once per result.

    def matvec(self, rows, v):
        n = len(v)
        if n == 0:
            return [0] * len(rows)
        self.op_count += len(rows) * (2 * n - 1)
        p = self.p
        return [sum(map(mul, row, v)) % p for row in rows]

    def sub_scaled(self, xs, c, ys):
        self.op_count += 2 * len(xs)
        p = self.p
        return [(x - c * y) % p for x, y in zip(xs, ys)]

    def scale(self, c, xs):
        self.op_count += len(xs)
        p = self.p
        return [c * x % p for x in xs]

    # A stored row is one int with entry i in the little-endian slot of b
    # bytes at bit 8*b*i.  A slot holds a residue plus dim products of two
    # residues, so `V += (p - c) * row` never carries into the next slot.

    def slot_bytes(self, dim: int) -> int:
        if dim <= self._dim8:  # most fields and sizes: skip the big-int arithmetic
            return 8
        return max(8, (((self.p - 1) * (1 + dim * (self.p - 1))).bit_length() + 7) // 8)

    def pack(self, entries, b: int) -> int:
        """Canonical residues as one int with slots of b bytes."""
        if b == 8 and _LITTLE:
            return int.from_bytes(array("Q", entries).tobytes(), "little")
        return int.from_bytes(b"".join(x.to_bytes(b, "little") for x in entries), "little")

    def unpack(self, packed: int, n: int, b: int) -> list:
        """The n slots of a packed int, each reduced mod p."""
        p, data = self.p, packed.to_bytes(b * n, "little")
        if b == 8 and _LITTLE:
            return [x % p for x in array("Q", data)]
        return [int.from_bytes(data[i : i + b], "little") % p for i in range(0, b * n, b)]

    def store_row(self, pivot, tail, dim):
        b = self.slot_bytes(dim)
        return self.pack([1] + tail, b) << 8 * b * pivot

    def load_row(self, pivot, row, dim):
        b = self.slot_bytes(dim)
        return self.unpack(row >> 8 * b * (pivot + 1), dim - pivot - 1, b)

    def reduce_by_rows(self, entries, rows, dim):
        # Packed at the first row that meets it: a vector that meets none never is.
        for first, (piv, _) in enumerate(rows):
            if entries[piv]:
                break
        else:
            return list(entries), []
        p, b = self.p, self.slot_bytes(dim)
        packed = self.pack(entries, b)
        w, mask = 8 * b, (1 << 8 * b) - 1
        multipliers, ops = [], 0
        for j, (piv, row) in enumerate(rows[first:], first):
            c = (packed >> w * piv & mask) % p
            if c:
                packed += (p - c) * row
                multipliers.append((j, c))
                ops += dim - piv - 1
        self.op_count += 2 * ops  # as the sub_scaled calls of list rows
        return self.unpack(packed, dim, b), multipliers

    def from_int(self, k: int):
        return k % self.p

    def canonical_row(self, xs) -> list:
        p = self.p
        return [index(x) % p for x in xs]  # a float or a Fraction raises TypeError

    def parse(self, text: str):
        if not _INT_RE.fullmatch(text):
            raise ValueError(f"not a GF({self.p}) scalar: {text!r}")
        return _read_int(text) % self.p

    def format(self, a) -> str:
        return str(a)
