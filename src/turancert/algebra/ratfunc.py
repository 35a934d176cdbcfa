"""Rational functions num/den in one variable over an exact field.

Canonical form: num and den coprime.  Over the rationals the pair is the
integer normal form of `algebra.poly`: both are cleared to integers once,
by one common scale, and those lists are divided by their integer gcd,
then by their joint content, with the sign that makes the denominator's
lead positive (so printed forms match hand-cleared fractions exactly).
Over other fields the denominator is monic.

That pair is unique, so a rational function may be built any way at all
and normalised once.  Each `RatFunc` operator normalises its result;
`_Frac` does not: it is a rational function over Q whose numerator is an
integer list and whose denominator is a product of integer-list factors,
with + - * / and integer shifts taking no gcd and no content.  The
certificate inequalities of `certify` (corners, induction steps,
discharge) and the scalars of `parser` are built as `_Frac`s and
normalised by `_Frac.normal` only where a threshold, a stored field or a
parse decision needs the canonical pair.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import (
    Poly, _convolve, _exact_quotient, _int_gcd, _int_shift, _integer_coeffs,
    _jointly_primitive, _scalar_inv, poly_gcd, scalar_sign,
)


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Poly) else Poly([num]) if not isinstance(num, (list, tuple)) else Poly(num)
        if den is None:
            den = Poly([1])
        elif not isinstance(den, Poly):
            den = Poly(den) if isinstance(den, (list, tuple)) else Poly([den])
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly([1])
            return
        if num.degree == 0 and den.degree == 0:
            c = _const(_quotient(num.coeffs[0], den.coeffs[0]))
            self.num, self.den = c.num, c.den
            return
        if num.is_rational() and den.is_rational():
            self.num, self.den = _canonical(*_integer_coeffs((num, den)))
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num.exact_div(g), den.exact_div(g)
        lead_inv = _scalar_inv(den.leading())
        self.num, self.den = num.scale(lead_inv), den.scale(lead_inv)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(Poly([c]))

    @staticmethod
    def variable() -> "RatFunc":
        return RatFunc(Poly([0, 1]))

    @staticmethod
    def laurent(terms) -> "RatFunc":
        """The sum of c n^e over (e, c) pairs with int exponents e, as one
        numerator over n^k, k the largest -e (or 0); equal exponents add."""
        k = max([0] + [-e for e, _ in terms])
        num = [0] * (k + max(e for e, _ in terms) + 1)
        for e, c in terms:
            num[e + k] += c
        return RatFunc(Poly(num), Poly([0] * k + [1]))

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(Poly())

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(Poly([1]))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return _quotient(self.num.constant(), self.den.constant())

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self.num * other.den == other.num * self.den
        if isinstance(other, (int, Fraction)):
            return self == RatFunc.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFunc({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if self.is_constant() and other.is_constant():
            return _const(self.constant_value() + other.constant_value())
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        # negating the numerator of a canonical pair leaves it canonical
        out = object.__new__(RatFunc)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other) -> "RatFunc":
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other) -> "RatFunc":
        return _as_ratfunc(other) + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if self.is_constant() and other.is_constant():
            return _const(self.constant_value() * other.constant_value())
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if self.is_constant() and other.is_constant():
            return _const(self.constant_value() / other.constant_value())
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return _as_ratfunc(other) / self

    def __pow__(self, k: int) -> "RatFunc":
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError
            return RatFunc(self.den ** (-k), self.num ** (-k))
        return RatFunc(self.num ** k, self.den ** k)

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def eval(self, x):
        d = self.den.eval(x)
        if isinstance(d, Fraction) and d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.eval(x) * _scalar_inv(d)

    def shift(self, a) -> "RatFunc":
        """r(x + a)."""
        return RatFunc(self.num.compose_shift(a), self.den.compose_shift(a))


def _canonical(a, b) -> list[Poly]:
    """The canonical pair of the integer lists a/b (highest first, b nonzero
    with a nonzero lead): one gcd, then the joint content and the sign."""
    if not a:
        return [Poly(), Poly([1])]
    g = _int_gcd(a, b) if min(len(a), len(b)) > 1 else [1]
    if len(g) > 1:
        a, b = _exact_quotient(a, g), _exact_quotient(b, g)
    return _jointly_primitive((a, b), b[0])


class _Frac:
    """num / prod(f^m for f, m in den.items()) over Q, not normalised: num
    and each factor f are integer tuples, highest degree first, with a
    nonzero lead (num is () for zero).

    A sum takes, for each factor, the larger of its two multiplicities
    (factors are compared by value), so t(x, y) of two fractions over b and
    d comes out over (bd)^2, as clearing by hand would give.  No operation
    takes a gcd; `normal()` takes one, for the canonical `RatFunc`.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: tuple, den: dict):
        self.num, self.den = num, den

    @staticmethod
    def of(r: RatFunc) -> "_Frac":
        """A rational `RatFunc` as a fraction."""
        num, den = _integer_coeffs((r.num, r.den))
        return _Frac(num, {} if den == (1,) else {den: 1})

    def _lifted(self, den: dict) -> tuple:
        """num times the factors that `den` has beyond self.den."""
        return _times(self.num, {f: m - self.den.get(f, 0) for f, m in den.items()})

    def __add__(self, other) -> "_Frac":
        other = _lift(other)
        den = {**other.den, **{f: max(m, other.den.get(f, 0)) for f, m in self.den.items()}}
        a, b = self._lifted(den), other._lifted(den)
        if len(a) < len(b):
            a, b = b, a
        k = len(a) - len(b)
        return _Frac(_stripped(a[:k] + tuple(x + y for x, y in zip(a[k:], b))), den)

    def __neg__(self) -> "_Frac":
        return _Frac(tuple(-c for c in self.num), self.den)

    def __sub__(self, other) -> "_Frac":
        return self + -_lift(other)

    def __rsub__(self, other) -> "_Frac":
        return _lift(other) + -self

    def __mul__(self, other) -> "_Frac":
        other = _lift(other)
        den = dict(self.den)
        for f, m in other.den.items():
            den[f] = den.get(f, 0) + m
        return _Frac(tuple(_convolve(self.num, other.num)) if self.num and other.num else (), den)

    __rmul__ = __mul__

    def __truediv__(self, other: "_Frac") -> "_Frac":
        if not other.num:
            raise ZeroDivisionError("division by a zero fraction")
        den = dict(self.den)
        den[other.num] = den.get(other.num, 0) + 1
        return _Frac(_times(self.num, other.den), den)

    def shift(self, a: int) -> "_Frac":
        """r(x + a) for an int a."""
        return _Frac(tuple(_int_shift(self.num, a)), {tuple(_int_shift(f, a)): m for f, m in self.den.items()})

    def normal(self) -> RatFunc:
        """The canonical `RatFunc`: one gcd of num and the expanded denominator."""
        out = object.__new__(RatFunc)
        out.num, out.den = _canonical(list(self.num), list(_times((1,), self.den)))
        return out


def _times(num: tuple, factors: dict) -> tuple:
    """num times f^m for each factor f and multiplicity m."""
    for f, m in factors.items():
        for _ in range(m):
            num = tuple(_convolve(num, f)) if num else num
    return num


def _lift(x) -> _Frac:
    """An int as a fraction."""
    return x if isinstance(x, _Frac) else _Frac((x,) if x else (), {})


def _stripped(cs: tuple) -> tuple:
    """cs without its leading zeros."""
    k = 0
    while k < len(cs) and not cs[k]:
        k += 1
    return cs[k:]


def _quotient(x, d):
    """x/d for exact scalars, with no division by a rational 1."""
    return x if isinstance(d, Fraction) and d == 1 else x / d


def _const(v) -> RatFunc:
    """Canonical constant v, built as the general path would: an integer pair or v/1."""
    out = object.__new__(RatFunc)
    if isinstance(v, Fraction):
        out.num, out.den = Poly([v.numerator]), Poly([v.denominator])
    else:
        out.num, out.den = Poly([v]), Poly([1])
    return out


def _as_ratfunc(x) -> RatFunc:
    """Coerce a scalar, polynomial or rational function to RatFunc."""
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, Poly):
        return RatFunc(x)
    return RatFunc.const(x)


def sign_at_infinity(r: RatFunc) -> int:
    """Eventual sign of r(x) as x -> +infinity (-1, 0, or 1)."""
    if r.is_zero():
        return 0
    return scalar_sign(r.num.leading()) * scalar_sign(r.den.leading())


def limit_at_infinity(r: RatFunc):
    """Limit of r(x) as x -> +infinity.

    Returns a scalar for finite limits, or the strings '+inf'/'-inf'.
    """
    dn, dd = r.num.degree, r.den.degree
    if r.is_zero() or dn < dd:
        return Fraction(0)
    if dn == dd:
        return r.num.leading() * _scalar_inv(r.den.leading())
    return "+inf" if sign_at_infinity(r) > 0 else "-inf"
