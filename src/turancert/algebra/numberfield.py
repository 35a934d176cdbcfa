"""Exact arithmetic in Q(theta) for a real algebraic theta.

Elements are polynomials in theta reduced modulo a defining polynomial.
An element stores an integer numerator tuple `num`, as long as the field
degree, over one positive denominator `den`, in the normal form
gcd(den, *num) = 1; `coeffs` gives the tuple of `Fraction`s num[i] / den.
Two reduced elements stay reduced under + - *, which act on the integers
and divide no `Poly`; each result takes one gcd to its normal form.
A product cancels what passes the degree against the cleared modulus by
`_fold`, which also folds each column of the grid arrays of
`asymptotics.ratio`.  An operand left long by a shrunk modulus is reduced
first.
The defining polynomial is kept square-free but need not be proven
irreducible: inversion uses dynamic splitting (when a gcd with the
modulus appears, the modulus shrinks to the factor that still vanishes
at the tracked root), so arithmetic stays exact either way.  Signs are
decided by interval evaluation with root refinement, with an exact
zero test via gcd first; an enclosure that still holds 0 when narrower
than a lower bound on |e| for e != 0 is an error, not a longer refinement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .poly import Poly, _convolve, _exact_quotient, _int_gcd, _integer_window, _poly_of, _primitive_ints, pow_by_squaring
from .roots import AlgebraicReal, _sign_at


def _iv_mul(a: tuple, b: tuple) -> tuple:
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(vals), max(vals))


def _is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


class NumberField:
    """Q(theta) with theta a tracked real root."""

    def __init__(self, root: AlgebraicReal):
        self.root = root
        self._shrink_modulus(Poly(root.poly.coeffs))

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

    # -- root-aware modulus maintenance -----------------------------------

    def _root_vanishes(self, g: list[int]) -> bool:
        """True if g(theta) == 0, for the integers g (highest first, degree
        > 0) of a factor of the modulus."""
        return _sign_at(g, self.root.lo) * _sign_at(g, self.root.hi) <= 0

    def _shrink_modulus(self, g: Poly) -> None:
        """Make g, monic, the modulus, kept with its degree and integer form."""
        self.modulus = g.monic()
        self.degree = self.modulus.degree
        self.int_modulus = _integer_window(self.modulus.coeffs)[0]
        self.known_irreducible = self._cheap_irreducible()

    def reduce(self, p: Poly) -> tuple:
        rem = p % self.modulus
        cs = list(rem.coeffs)
        cs += [Fraction(0)] * (self.degree - len(cs))
        return tuple(cs[: self.degree])

    def _reduced(self, e: "NFElem") -> "NFElem":
        """e, reduced only when its length is not the degree."""
        return e if len(e.num) == self.degree else NFElem(self, self.reduce(Poly(e.coeffs)))

    def _mul(self, a: "NFElem", b: "NFElem") -> "NFElem":
        """The product of two reduced elements, on integers: the convolution
        of the numerators, folded to the degree against the integer modulus
        as it is now (splitting may have shrunk it)."""
        num, scale = _fold(_convolve(a.num, b.num), self.int_modulus, self.degree)
        return _normal(self, num, a.den * b.den * scale)

    # -- element factory ----------------------------------------------------

    def element(self, coeffs) -> "NFElem":
        return NFElem(self, self.reduce(Poly(coeffs)))

    def generator(self) -> "NFElem":
        return self.element([0, 1])

    def from_rational(self, q) -> "NFElem":
        return self.element([q])

    # -- core ops on coefficient tuples ---------------------------------------

    def is_zero(self, e: "NFElem") -> bool:
        x = self._reduced(e).num
        if not any(x):
            return True
        if self.known_irreducible:
            return False
        g = _int_gcd(x[::-1], self.int_modulus[::-1])
        if len(g) > 1 and self._root_vanishes(g):
            self._shrink_modulus(_poly_of(g))
            return True
        return False

    def inv(self, e: "NFElem") -> "NFElem":
        while True:
            p = Poly(self._reduced(e).coeffs)
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
                if self._root_vanishes(_primitive_ints(g)):
                    self._shrink_modulus(g)
                    raise ZeroDivisionError("inverse of zero field element")
                self._shrink_modulus(self.modulus.exact_div(g))
                continue
            c = r1.constant()
            return NFElem(self, self.reduce(u1.scale(1 / c)))

    def _enclose(self, e: "NFElem") -> tuple:
        """e's enclosure over the root's interval by interval Horner, on
        integers: step j scaled by den * D^j, D the root ends' denominator."""
        r = self._reduced(e)
        (lo, hi), D = _integer_window((self.root.lo, self.root.hi))
        a = b = 0
        for j, c in enumerate(reversed(r.num)):
            a, b = _iv_mul((a, b), (lo, hi))
            a, b = a + c * D**j, b + c * D**j
        scale = r.den * D ** (len(r.num) - 1)
        return Fraction(a, scale), Fraction(b, scale)

    def sign(self, e: "NFElem") -> int:
        """Refines the root until e's enclosure leaves 0; one narrower than
        `_floor(e)` that still holds 0 means `is_zero` missed a zero."""
        if self.is_zero(e):
            return 0
        floor = None
        while True:
            lo, hi = self._enclose(e)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            floor = self._floor(e) if floor is None else floor
            if hi - lo < floor:
                raise ArithmeticError(f"internal: {e!r} is zero, but the zero test passed it")
            self.root.refine()

    def _floor(self, e: "NFElem") -> Fraction:
        """A lower bound on |e| for e = g(theta)/den != 0 (1 if g = 0).  With
        M the modulus over its gcd with g (degree k, integer lead c), the
        resultant c^deg(g) prod g(theta_i) over M's roots is a nonzero
        integer and each |g(theta_i)| is at most S, g's absolute
        coefficients at M's Cauchy bound: |e| >= 1/(den |c|^deg(g) S^(k-1))."""
        r = self._reduced(e)
        if not any(r.num):
            return Fraction(1)
        m = self.int_modulus[::-1]
        g = _int_gcd(r.num[::-1], m)
        if len(g) > 1:
            m = _exact_quotient(m, g)
        k = len(m) - 1
        B = 1 + max(Fraction(abs(c), abs(m[0])) for c in m[1:])
        S = sum(abs(c) * B**i for i, c in enumerate(r.num))
        return 1 / (r.den * abs(m[0]) ** (len(r.num) - 1) * S ** (k - 1))

    def approx_interval(self, e: "NFElem", width: Optional[Fraction] = None) -> tuple:
        lo, hi = self._enclose(e)
        if width is not None:
            while hi - lo > width:
                self.root.refine()
                lo, hi = self._enclose(e)
        return lo, hi

    def to_fraction(self, e: "NFElem") -> Optional[Fraction]:
        """Exact rational value if the element is rational, else None."""
        r = self._reduced(e)
        c0 = Fraction(r.num[0], r.den)
        if not any(r.num[1:]):
            return c0
        if self.known_irreducible:
            return None
        # reducible modulus: the value may still be rational
        if self.is_zero(r - c0):
            return c0
        return None


def _fold(cs: list, m: list, d: int) -> tuple:
    """Integers cs (lowest first, at least d) reduced to d against the
    integer modulus m of degree d, and the factor m[d]^(len(cs) - d) they
    were scaled by: the same for every cs of one length, so that the
    columns of a grid array keep one denominator."""
    lead, scale = m[d], 1
    for k in range(len(cs) - 1, d - 1, -1):
        c = cs[k]
        if lead != 1:
            cs, scale = [lead * v for v in cs[:k]], scale * lead
        if c:
            for i in range(k - d, k):
                cs[i] -= c * m[i - k + d]
    return cs[:d], scale


def _normal(field: NumberField, num, den: int) -> "NFElem":
    """The element num / den (den > 0), divided to normal form by one gcd."""
    g = math.gcd(den, *num)
    if g > 1:
        num, den = [c // g for c in num], den // g
    e = object.__new__(NFElem)
    e.field, e.num, e.den = field, tuple(num), den
    return e


class NFElem:
    """Element of a NumberField; supports field arithmetic and exact sign."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, coeffs: tuple):
        # lcm-clearing reduced Fractions leaves gcd(den, *num) = 1
        num, self.den = _integer_window(coeffs)
        self.field, self.num = field, tuple(num)

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.num)

    def _lift(self, other) -> Optional["NFElem"]:
        if isinstance(other, NFElem):
            if other.field is not self.field:
                raise ValueError("mixing elements of different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    # arithmetic ----------------------------------------------------------

    def _add(self, other, sign: int):
        """self + sign * other, on the integers of the reduced operands."""
        K = self.field
        a = K._reduced(self)
        x, s = a.num, a.den
        if not isinstance(other, NFElem):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            # a rational operand leaves a reduced tuple reduced: act on it directly
            if not other:
                return a
            p, r = sign * other.numerator, other.denominator
            return _normal(K, (x[0] * r + p * s,) + tuple(c * r for c in x[1:]), s * r)
        b = K._reduced(self._lift(other))
        y, t = b.num, b.den
        return _normal(K, [u * t + sign * v * s for u, v in zip(x, y)], s * t)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __neg__(self):
        a = self.field._reduced(self)
        return _normal(a.field, [-c for c in a.num], a.den)

    def __mul__(self, other):
        K = self.field
        if isinstance(other, NFElem):
            return K._mul(K._reduced(self), K._reduced(self._lift(other)))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        a = K._reduced(self)
        if other == 1:
            return a
        return _normal(K, [c * other.numerator for c in a.num], a.den * other.denominator)

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
        return pow_by_squaring(self, k, self.field.from_rational(1))

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


ROUND_DEN = 10**6  # an irrational value rounds outward to a multiple of 1/ROUND_DEN


def rationalize(x, direction: str) -> Fraction:
    """A multiple of 1/ROUND_DEN on one side of x, less than 2/ROUND_DEN from it.

    direction 'up' gives a value >= x, 'down' a value <= x.  Exact
    rationals, of any denominator, pass through unchanged.
    """
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    q = x.to_fraction()
    if q is not None:
        return q
    lo, hi = x.approx_interval(Fraction(1, 4 * ROUND_DEN))
    if direction == "up":
        num = hi.numerator * ROUND_DEN + hi.denominator - 1
        return Fraction(num // hi.denominator, ROUND_DEN)
    if direction == "down":
        num = lo.numerator * ROUND_DEN
        return Fraction(num // lo.denominator, ROUND_DEN)
    raise ValueError("direction must be 'up' or 'down'")
