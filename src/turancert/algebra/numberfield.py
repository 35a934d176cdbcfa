"""Exact arithmetic in Q(theta) for a real algebraic theta.

Elements are polynomials in theta reduced modulo a defining polynomial: a
coefficient tuple as long as the field degree.  Two reduced tuples stay
reduced under + - *, which act on the tuples (a product on integers, with
the monic modulus cancelling what passes the degree) and divide no `Poly`;
an operand left long by a shrunk modulus is reduced first.
The defining polynomial is kept square-free but need not be proven
irreducible: inversion uses dynamic splitting (when a gcd with the
modulus appears, the modulus shrinks to the factor that still vanishes
at the tracked root), so arithmetic stays exact either way.  Signs are
decided by interval evaluation with root refinement, with an exact
zero test via gcd first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .poly import Poly, _convolve, _integer_window, poly_gcd
from .roots import AlgebraicReal


def _iv_mul(a: tuple, b: tuple) -> tuple:
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(vals), max(vals))


def poly_eval_interval(p: Poly, lo: Fraction, hi: Fraction) -> tuple:
    """Interval enclosure of p over [lo, hi] (rational coefficients)."""
    acc = (Fraction(0), Fraction(0))
    x = (lo, hi)
    for c in reversed(p.coeffs):
        acc = _iv_mul(acc, x)
        acc = (acc[0] + c, acc[1] + c)
    return acc


def _is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


class NumberField:
    """Q(theta) with theta a tracked real root."""

    def __init__(self, root: AlgebraicReal):
        self.root = root
        self.modulus = Poly(root.poly.coeffs).monic()
        self.known_irreducible = self._cheap_irreducible()

    def _cheap_irreducible(self) -> bool:
        d = self.modulus.degree
        if d == 1:
            return True
        if d == 2:
            b, a = self.modulus.coeffs[1], self.modulus.coeffs[2]
            c = self.modulus.coeffs[0]
            disc = b * b - 4 * a * c
            return not _is_rational_square(disc)
        return False

    @property
    def degree(self) -> int:
        return self.modulus.degree

    # -- root-aware modulus maintenance -----------------------------------

    def _root_vanishes(self, g: Poly) -> bool:
        """True if g(theta) == 0, for g dividing the modulus."""
        if g.degree <= 0:
            return False
        sl = g.eval(self.root.lo)
        sh = g.eval(self.root.hi)
        return (sl > 0) != (sh > 0) or sl == 0 or sh == 0

    def _shrink_modulus(self, g: Poly) -> None:
        self.modulus = g.monic()
        self.known_irreducible = self._cheap_irreducible()

    def reduce(self, p: Poly) -> tuple:
        rem = p % self.modulus
        cs = list(rem.coeffs)
        cs += [Fraction(0)] * (self.degree - len(cs))
        return tuple(cs[: self.degree])

    def _reduced(self, e: "NFElem") -> tuple:
        """e's coefficient tuple, reduced only when its length is not the degree."""
        cs = e.coeffs
        return cs if len(cs) == self.degree else self.reduce(Poly(cs))

    def _mul(self, a: tuple, b: tuple) -> tuple:
        """The product of two reduced tuples, on integers: the convolution of
        the cleared tuples, each coefficient past the degree cancelled against
        the modulus as it is now (splitting may have shrunk it), cleared too."""
        (x, s), (y, t) = _integer_window(a), _integer_window(b)
        (m, _), d = _integer_window(self.modulus.coeffs), self.degree
        out, scale = _convolve(x, y), s * t
        for k in range(2 * d - 2, d - 1, -1):
            c = out[k]
            if c:
                if m[d] != 1:
                    out, scale = [m[d] * v for v in out], scale * m[d]
                for i in range(k - d, k):
                    out[i] -= c * m[i - k + d]
        return tuple(Fraction(c, scale) for c in out[:d])

    # -- element factory ----------------------------------------------------

    def element(self, coeffs) -> "NFElem":
        return NFElem(self, self.reduce(Poly(coeffs)))

    def generator(self) -> "NFElem":
        return self.element([0, 1])

    def from_rational(self, q) -> "NFElem":
        return self.element([q])

    # -- core ops on coefficient tuples ---------------------------------------

    def is_zero(self, e: "NFElem") -> bool:
        cs = self._reduced(e)
        if not any(cs):
            return True
        if self.known_irreducible:
            return False
        g = poly_gcd(Poly(cs), self.modulus)
        if g.degree > 0 and self._root_vanishes(g):
            self._shrink_modulus(g)
            return True
        return False

    def inv(self, e: "NFElem") -> "NFElem":
        while True:
            p = Poly(self._reduced(e))
            if p.is_zero():
                raise ZeroDivisionError("inverse of zero field element")
            # extended Euclid: u*p + v*modulus = g
            r0, r1 = self.modulus, p
            u0, u1 = Poly(), Poly([1])
            while not r1.is_zero() and r1.degree > 0:
                q, r = r0.divmod(r1)
                r0, r1 = r1, r
                u0, u1 = u1, u0 - q * u1
            if r1.is_zero():
                # gcd r0 nontrivial: p and modulus share a factor
                g = r0.monic()
                if self._root_vanishes(g):
                    self._shrink_modulus(g)
                    raise ZeroDivisionError("inverse of zero field element")
                self._shrink_modulus(self.modulus.exact_div(g))
                continue
            c = r1.constant()
            return NFElem(self, self.reduce(u1.scale(1 / c)))

    def sign(self, e: "NFElem") -> int:
        if self.is_zero(e):
            return 0
        p = Poly(self._reduced(e))
        while True:
            lo, hi = poly_eval_interval(p, self.root.lo, self.root.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.root.refine()

    def approx_interval(self, e: "NFElem", width: Optional[Fraction] = None) -> tuple:
        p = Poly(self._reduced(e))
        lo, hi = poly_eval_interval(p, self.root.lo, self.root.hi)
        if width is not None:
            while hi - lo > width:
                self.root.refine()
                lo, hi = poly_eval_interval(p, self.root.lo, self.root.hi)
        return lo, hi

    def to_fraction(self, e: "NFElem") -> Optional[Fraction]:
        """Exact rational value if the element is rational, else None."""
        cs = self._reduced(e)
        c0 = cs[0] if cs else Fraction(0)
        if not any(cs[1:]):
            return c0
        if self.known_irreducible:
            return None
        # reducible modulus: the value may still be rational
        if self.is_zero(NFElem(self, cs) - self.from_rational(c0)):
            return c0
        return None


class NFElem:
    """Element of a NumberField; supports field arithmetic and exact sign."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple):
        self.field = field
        self.coeffs = tuple(Fraction(c) if isinstance(c, int) else c for c in coeffs)

    def _lift(self, other) -> Optional["NFElem"]:
        if isinstance(other, NFElem):
            if other.field is not self.field:
                raise ValueError("mixing elements of different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    # arithmetic ----------------------------------------------------------

    def __add__(self, other):
        K = self.field
        if isinstance(other, (int, Fraction)):
            # a rational operand leaves a reduced tuple reduced: act on it directly
            a = K._reduced(self)
            return NFElem(K, (a[0] + other,) + a[1:])
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return NFElem(K, tuple(x + y for x, y in zip(K._reduced(self), K._reduced(o))))

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, NFElem)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        K = self.field
        if isinstance(other, (int, Fraction)):
            return NFElem(K, tuple(c * other for c in K._reduced(self)))
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return NFElem(K, K._mul(K._reduced(self), K._reduced(o)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * self.field.inv(o)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.field.inv(self)

    def __pow__(self, k: int):
        if k < 0:
            return self.field.inv(self) ** (-k)
        out = self.field.from_rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # predicates ------------------------------------------------------------

    def __bool__(self) -> bool:
        return not self.field.is_zero(self)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.field.is_zero(self - o)

    __hash__ = None  # type: ignore[assignment]

    def sign(self) -> int:
        return self.field.sign(self)

    def approx_interval(self, width: Optional[Fraction] = None) -> tuple:
        return self.field.approx_interval(self, width)

    def to_fraction(self) -> Optional[Fraction]:
        return self.field.to_fraction(self)

    def __float__(self) -> float:
        lo, hi = self.approx_interval(Fraction(1, 10**15))
        return float((lo + hi) / 2)

    def __repr__(self) -> str:
        return f"NFElem({list(self.coeffs)!r} mod {list(self.field.modulus.coeffs)!r})"


def rationalize(x, direction: str, max_den: int = 10**6) -> Fraction:
    """Nearest safe rational with denominator <= max_den.

    direction 'up' gives a value >= x, 'down' a value <= x.  Exact
    rationals pass through unchanged (no rounding needed).
    """
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    q = x.to_fraction()
    if q is not None:
        return q
    lo, hi = x.approx_interval(Fraction(1, 4 * max_den))
    if direction == "up":
        num = hi.numerator * max_den + hi.denominator - 1
        return Fraction(num // hi.denominator, max_den)
    if direction == "down":
        num = lo.numerator * max_den
        return Fraction(num // lo.denominator, max_den)
    raise ValueError("direction must be 'up' or 'down'")
