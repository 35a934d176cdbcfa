"""Truncated asymptotic series sum_i c_i(log n) / n^{e_i} + O(n^{-beta}).

Coefficients are rational functions of an abstract variable L standing for
log n; exponents are arbitrary rationals (negative allowed, so polynomial
prefactors embed).  errorOrder None means the remainder is identically
zero (finite closed form), not merely unknown.

Truncation is strict: a term is kept iff its exponent is strictly below
errorOrder; boundary terms are absorbed into the error, so the remainder
is big-O of n^{-errorOrder}, not little-o.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from ..algebra import RatFunc
from ..algebra.poly import pow_by_squaring
from ..algebra.ratfunc import _as_ratfunc

Exp = Fraction


def gen_binomial(alpha, k: int):
    """Generalized binomial coefficient C(alpha, k) for rational alpha."""
    out = Fraction(1)
    a = Fraction(alpha)
    for i in range(k):
        out *= (a - i) / (k - i)
    return out


def _min_error(*errs) -> Optional[Fraction]:
    finite = [e for e in errs if e is not None]
    return min(finite) if finite else None


class AsymSeries:
    __slots__ = ("terms", "error_order")

    def __init__(self, terms: Iterable = (), error_order=None):
        merged: dict = {}
        for e, c in terms:
            e = Fraction(e)
            c = _as_ratfunc(c)
            if e in merged:
                merged[e] = merged[e] + c
            else:
                merged[e] = c
        err = Fraction(error_order) if error_order is not None else None
        kept = [
            (e, c)
            for e, c in merged.items()
            if c and (err is None or e < err)
        ]
        kept.sort(key=lambda t: t[0])
        self.terms = tuple(kept)
        self.error_order = err

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "AsymSeries":
        return AsymSeries()

    @staticmethod
    def one() -> "AsymSeries":
        return AsymSeries([(Fraction(0), 1)])

    @staticmethod
    def constant(c) -> "AsymSeries":
        return AsymSeries([(Fraction(0), c)])

    @staticmethod
    def error_only(order) -> "AsymSeries":
        return AsymSeries([], error_order=order)

    # -- structure -------------------------------------------------------------

    def is_exact(self) -> bool:
        return self.error_order is None

    def is_zero(self) -> bool:
        return not self.terms and self.error_order is None

    def coefficient(self, exp) -> RatFunc:
        exp = Fraction(exp)
        for e, c in self.terms:
            if e == exp:
                return c
        return RatFunc.zero()

    def __eq__(self, other):
        if isinstance(other, AsymSeries):
            return self.terms == other.terms and self.error_order == other.error_order
        return NotImplemented

    def __hash__(self):
        return hash((self.terms, self.error_order))

    def __repr__(self) -> str:
        parts = [f"({e}, {c!r})" for e, c in self.terms]
        return f"AsymSeries([{', '.join(parts)}], error_order={self.error_order})"

    # -- ring operations --------------------------------------------------------

    def __add__(self, other) -> "AsymSeries":
        if not isinstance(other, AsymSeries):
            other = AsymSeries.constant(other)
        return AsymSeries(
            list(self.terms) + list(other.terms),
            _min_error(self.error_order, other.error_order),
        )

    __radd__ = __add__

    def __neg__(self) -> "AsymSeries":
        return AsymSeries([(e, -c) for e, c in self.terms], self.error_order)

    def __sub__(self, other) -> "AsymSeries":
        if not isinstance(other, AsymSeries):
            other = AsymSeries.constant(other)
        return self + (-other)

    def scale(self, c) -> "AsymSeries":
        c = _as_ratfunc(c)
        return AsymSeries([(e, c * k) for e, k in self.terms], self.error_order)

    def __mul__(self, other) -> "AsymSeries":
        if not isinstance(other, AsymSeries):
            return self.scale(other)
        errs = []
        if self.error_order is not None:
            if other.terms:
                errs.append(self.error_order + other.terms[0][0])
            if other.error_order is not None:
                errs.append(self.error_order + other.error_order)
            elif not other.terms:  # other is exactly zero
                return AsymSeries.zero()
        if other.error_order is not None:
            if self.terms:
                errs.append(other.error_order + self.terms[0][0])
            elif self.error_order is None:  # self exactly zero
                return AsymSeries.zero()
        err = _min_error(*errs)
        # terms are sorted by exponent: a pair at or past the error order
        # ends its row, as every later pair in it would be dropped too
        prods = []
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                if err is not None and ea + eb >= err:
                    break
                prods.append((ea + eb, ca * cb))
        return AsymSeries(prods, err)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "AsymSeries":
        if k < 0:
            raise ValueError("negative powers go through series_inv")
        return pow_by_squaring(self, k, AsymSeries.one())

    # -- reshaping ---------------------------------------------------------------

    def shift_exponents(self, delta) -> "AsymSeries":
        """Multiply by n^{-delta}: every exponent and the error move by delta."""
        delta = Fraction(delta)
        err = None if self.error_order is None else self.error_order + delta
        return AsymSeries([(e + delta, c) for e, c in self.terms], err)

    def truncate(self, order) -> "AsymSeries":
        order = Fraction(order)
        if self.error_order is not None and self.error_order <= order:
            return self
        return AsymSeries(self.terms, order)


# -- operation layer ------------------------------------------------------------


def _require_order(a: AsymSeries, order, what: str) -> Fraction:
    if order is not None:
        return Fraction(order)
    if a.error_order is not None:
        return a.error_order
    raise ValueError(f"{what} of an exact series needs an explicit order")


def series_mul(a: AsymSeries, b: AsymSeries) -> AsymSeries:
    return a * b


def _split_one(a: AsymSeries, what: str) -> AsymSeries:
    if not a.terms or a.terms[0][0] != 0 or a.terms[0][1] != RatFunc.one():
        raise ValueError(f"{what} needs leading term exactly 1")
    return AsymSeries(a.terms[1:], a.error_order)


def _binomial_kernel(x: AsymSeries, alpha: Fraction) -> AsymSeries:
    """(1 + x)^alpha for x with positive exponents and a finite error order.

    One pass of J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2,
    4.7), graded by exponent: b_e = (1/e) sum_f ((alpha+1) f - e) x_f b_{e-f}
    over the exponents e below x's error order that sums of x's exponents
    reach.  For alpha = -1 it is b_e = -sum_f x_f b_{e-f}.
    """
    eps = x.error_order
    reach = new = {Fraction(0)}
    while new:
        new = {e + f for e in new for f, _ in x.terms if e + f < eps} - reach
        reach = reach | new
    b = {Fraction(0): RatFunc.one()}
    for e in sorted(reach)[1:]:
        acc = RatFunc.zero()
        for f, xf in x.terms:
            if e - f in b:
                t = xf * b[e - f]
                acc = acc + (t if alpha == -1 else t * (((alpha + 1) * f - e) / e))
        if acc:
            b[e] = -acc if alpha == -1 else acc
    return AsymSeries(b.items(), eps)


def series_inv(a: AsymSeries, order=None) -> AsymSeries:
    """1/a for a = 1 + (positive-exponent terms)."""
    x = _split_one(a, "series_inv")
    if x.is_zero():
        return AsymSeries.one()
    return _binomial_kernel(x.truncate(_require_order(a, order, "series_inv")), Fraction(-1))


def series_pow_binomial(a: AsymSeries, alpha, order=None) -> AsymSeries:
    """a^alpha for a = 1 + (positive-exponent terms), rational alpha."""
    alpha = Fraction(alpha)
    x = _split_one(a, "series_pow_binomial")
    if alpha.denominator == 1 and alpha >= 0 and x.is_exact():
        # plain integer power of a finite series stays exact
        return a ** int(alpha)
    beta = _require_order(a, order, "series_pow_binomial")
    x = x.truncate(beta)
    if alpha.denominator != 1 or alpha < 0:
        return _binomial_kernel(x, alpha)
    # a nonnegative integer power is a finite binomial sum, C(alpha, k) = 0
    # past k = alpha; it takes half the time of the recurrence
    out = AsymSeries.one().truncate(x.error_order)
    power = AsymSeries.one()
    for k in range(1, int(alpha) + 1):
        power = (power * x).truncate(beta)
        if not power.terms:
            break
        out = out + power.scale(gen_binomial(alpha, k))
    return out


def binomial_power(c, alpha, order) -> AsymSeries:
    """(1 + c/n)^alpha as a series; exact when alpha is a nonnegative integer."""
    alpha = Fraction(alpha)
    c = Fraction(c)
    if c == 0:
        return AsymSeries.one()
    if alpha.denominator == 1 and alpha >= 0:
        return AsymSeries(
            [(Fraction(k), gen_binomial(alpha, k) * c**k) for k in range(int(alpha) + 1)]
        )
    order = Fraction(order)
    terms = []
    k = 0
    while Fraction(k) < order:
        terms.append((Fraction(k), gen_binomial(alpha, k) * c**k))
        k += 1
    return AsymSeries(terms, order)


def delta_series(direction: int, order) -> AsymSeries:
    """log(n + direction) - log n for direction +1 or -1."""
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    order = Fraction(order)
    terms = []
    k = 1
    while Fraction(k) < order:
        if direction == 1:
            terms.append((Fraction(k), Fraction((-1) ** (k - 1), k)))
        else:
            terms.append((Fraction(k), Fraction(-1, k)))
        k += 1
    return AsymSeries(terms, order)


def compose_coef_shift(r: RatFunc, direction: int, order) -> AsymSeries:
    """r(log(n + direction)) as a series with RatFunc-in-L coefficients.

    Taylor expansion of r at L along delta = log(n+dir) - log n; the j-th
    derivative term contributes at exponent >= j.
    """
    order = Fraction(order)
    if r.num.degree <= 0 and r.den.degree <= 0:
        # constant in L: shifting n does not touch it
        return AsymSeries.constant(r)
    d = delta_series(direction, order)
    out = AsymSeries.constant(r).truncate(order)
    power = AsymSeries.one()
    deriv = r
    fact = 1
    j = 1
    while Fraction(j) < order:
        power = (power * d).truncate(order)
        deriv = deriv.derivative()
        fact *= j
        if not power.terms or deriv.is_zero():
            break
        out = out + power.scale(deriv * Fraction(1, fact))
        j += 1
    return out


def shift_series(a: AsymSeries, direction: int, order=None) -> AsymSeries:
    """Re-expand a(n + direction) around n.

    Each term c(L)/n^e becomes c(log(n+dir)) * n^{-e} (1 + dir/n)^{-e};
    exponents move by nonnegative integers only.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    beta = _require_order(a, order, "shift_series")
    out = AsymSeries.error_only(beta)
    for e, c in a.terms:
        if e >= beta:
            continue
        rel = beta - e
        factor = compose_coef_shift(c, direction, rel) * binomial_power(
            direction, -e, rel
        )
        out = out + factor.shift_exponents(e)
    return out.truncate(beta)
