"""Dense univariate polynomials over an exact field.

Coefficients are stored ascending (``coeffs[i]`` multiplies X^i) with no
trailing zeros, so equal polynomials have equal representations.  The
zero polynomial has an empty coefficient list; its degree is the float
``-inf`` sentinel, which orders correctly against every true degree.
"""

from __future__ import annotations

from .errors import InternalInvariantError, MixedFieldError
from .field import Field

__all__ = ["Poly", "poly_gcd", "poly_lcm", "split_gcd"]

NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = field.canonical_row(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = cs

    # -- constructors --

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, [])

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, [field.one])

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, [field.zero, field.one])

    @classmethod
    def monomial(cls, field: Field, d: int) -> "Poly":
        """X^d."""
        return cls(field, [field.zero] * d + [field.one])

    @classmethod
    def from_ints(cls, field: Field, ints) -> "Poly":
        """Ascending integer coefficients, mapped into the field."""
        return cls(field, [field.from_int(k) for k in ints])

    # -- basic structure --

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is one."""
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        K = self.field
        s = K.inv(self.coeffs[-1])
        return Poly(K, K.scale(s, self.coeffs))

    def _require_same_field(self, other: "Poly") -> None:
        if self.field != other.field:
            raise MixedFieldError("polynomials over different fields")

    # -- ring operations --

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_field(other)
        K = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = K.add(out[i], c)
        return Poly(K, out)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_field(other)
        K = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            x = self.coeffs[i] if i < len(self.coeffs) else K.zero
            y = other.coeffs[i] if i < len(other.coeffs) else K.zero
            out.append(K.sub(x, y))
        return Poly(K, out)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_field(other)
        K = self.field
        if self.is_zero or other.is_zero:
            return Poly.zero(K)
        out = [K.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = K.add(out[i + j], K.mul(a, b))
        return Poly(K, out)

    def __divmod__(self, other):
        """Division with remainder: self = other*q + r, deg r < deg other."""
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        K = self.field
        d = len(other.coeffs) - 1
        rem = list(self.coeffs)
        if len(rem) <= d:
            return Poly.zero(K), Poly(K, rem)
        lead_inv = K.inv(other.coeffs[-1])
        quot = [K.zero] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = K.mul(c, lead_inv)
            quot[i - d] = q
            rem[i - d : i + 1] = K.sub_scaled(rem[i - d : i + 1], q, other.coeffs)
        return Poly(K, quot), Poly(K, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        """True iff self is non-zero and divides other exactly."""
        if self.is_zero:
            return False
        return (other % self).is_zero

    # -- text form: descending powers, e.g. "X^3 - 2*X + 1/2" --

    def __str__(self):
        if self.is_zero:
            return "0"
        K = self.field
        parts: list[str] = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            s = K.format(c)
            negative = s.startswith("-")
            mag = s[1:] if negative else s
            if e == 0:
                term = mag
            elif e == 1:
                term = "X" if mag == "1" else f"{mag}*X"
            else:
                term = f"X^{e}" if mag == "1" else f"{mag}*X^{e}"
            if not parts:
                parts.append(f"-{term}" if negative else term)
            else:
                parts.append(f" - {term}" if negative else f" + {term}")
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self} over {self.field.describe()})"


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm.

    gcd(P, 0) is defined as monic(P).  Over the rationals every remainder
    is renormalized to monic to damp coefficient growth; over GF(p) only
    the final result is normalized.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials")
    renorm = p.field.kind == "rational"
    a, b = p, q
    while not b.is_zero:
        r = a % b
        if renorm and not r.is_zero:
            r = r.monic()
        a, b = b, r
    return a.monic()


def poly_lcm(p: Poly, q: Poly) -> Poly:
    """Monic least common multiple: monic(p*q / gcd(p, q))."""
    if p.is_zero or q.is_zero:
        raise ValueError("lcm of a zero polynomial")
    quot, rem = divmod(p * q, poly_gcd(p, q))
    if not rem.is_zero:
        raise InternalInvariantError("gcd does not divide the product")
    return quot.monic()


def split_gcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly, Poly]:
    """Split G = gcd(p, q) into G = h*k so that lcm(p, q) factors coprimely.

    Returns (h, k, p_reduced, q_reduced) with p = G*p_reduced and
    q = G*q_reduced, where every irreducible factor of h divides
    q_reduced while k is coprime to q_reduced.  Consequently
    h*q_reduced and k*p_reduced are coprime and their product is
    lcm(p, q).  The split is computed without factoring anything:
    h = gcd(G, q_reduced**deg(G) mod G).

    Requires monic non-constant inputs with G a proper divisor of both.
    Coprime inputs (G = 1) give h = k = 1.
    """
    for name, poly in (("first", p), ("second", q)):
        if poly.is_zero or poly.degree < 1:
            raise ValueError(f"{name} argument must be non-constant")
        if not poly.is_monic:
            raise ValueError(f"{name} argument must be monic")
    g = poly_gcd(p, q)
    if g == p or g == q:
        raise ValueError("gcd must be a proper divisor of both arguments")
    p_red, p_rem = divmod(p, g)
    q_red, q_rem = divmod(q, g)
    if not (p_rem.is_zero and q_rem.is_zero):
        raise InternalInvariantError("gcd does not divide both arguments")
    power, base, e = Poly.one(g.field) % g, q_red % g, g.degree
    while e:  # power = q_red**deg(g) mod g, by square-and-multiply
        if e & 1:
            power = (power * base) % g
        base = (base * base) % g
        e >>= 1
    h = poly_gcd(g, power)
    k, k_rem = divmod(g, h)
    if not k_rem.is_zero:
        raise InternalInvariantError("split factor does not divide the gcd")
    return h, k.monic(), p_red, q_red
