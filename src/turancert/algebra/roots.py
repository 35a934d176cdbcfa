"""Exact real root location: Sturm chains, isolation, positivity thresholds.

The layer runs on one representation: coprime integer coefficients, highest
degree first.  The entries that take a `Poly` (`eventual_positivity_threshold`,
`isolate_real_roots`, `AlgebraicReal`, and `no_roots_above`, which also takes
the integers) clear it once, by `poly._primitive_ints` (`TypeError` on any
other scalar); `squarefree_part`, `sturm_chain`, `rational_roots_small`,
`cauchy_root_bound` and every evaluation then take integer lists, and all
decisions are exact.  A chain member is a positive multiple of the
`Fraction` chain's (integer pseudo-remainders, `poly._prem`), so it has its
signs.  Thresholds count sign variations by integer Horner at integer
points, one chain for num and one for den; isolation counts them at
rational points by homogeneous integer Horner (`_value_at`) and returns
`AlgebraicReal` handles, whose `poly` is the only `Poly` it builds.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import (
    Poly, _derivative, _exact_quotient, _horner, _over, _prem, _primitive_ints,
    squarefree_part,
)
from .ratfunc import RatFunc, sign_at_infinity


def sturm_chain(cs: list[int]) -> list[list[int]]:
    """Sturm chain of the integers cs (highest first): cs, its derivative,
    then the negated pseudo-remainders, each after the first content-free
    with its sign kept."""
    chain, b = [cs], _derivative(cs)
    while b:
        chain.append(b)
        if len(b) == 1:
            break
        b = [-c for c in _prem(chain[-2], b)]
    return chain


def _value_at(cs, x: Fraction) -> int:
    """p(x) times x.denominator^deg p, for the integers cs of p (highest
    first): homogeneous integer Horner, with the sign of p(x)."""
    acc, scale = 0, 1
    for c in cs:
        acc = acc * x.numerator + c * scale
        scale *= x.denominator
    return acc


def _sign_at(cs, x: Fraction) -> int:
    """The sign of p(x), for the integers cs of p (highest first)."""
    v = _value_at(cs, x)
    return (v > 0) - (v < 0)


def _count_roots(chain: list, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b] of a square-free chain head,
    for a Sturm chain as integer lists (highest first)."""
    return (_sign_changes([_value_at(cs, a) for cs in chain])
            - _sign_changes([_value_at(cs, b) for cs in chain]))


def cauchy_root_bound(cs: list[int]) -> Fraction:
    """B with all real roots inside (-B, B), for the integers cs of a
    polynomial (highest first)."""
    if len(cs) <= 1:
        return Fraction(1)
    m = max(abs(c) for c in cs[1:])
    return Fraction(1) + Fraction(m, abs(cs[0]))


def _sign_changes(values: list[int]) -> int:
    """Sign changes along the integers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def no_roots_above(p: Poly | list[int]) -> int:
    """The smallest integer M >= 0 with no real root of p in (M, inf).

    That is max(0, ceil(largest real root)).  A Sturm count V(m) - V(inf)
    on the square-free part gives the roots in (m, inf); the search gallops
    up from 0 through 1, 2, 4, ... to the first count of zero and then
    bisects.  Coefficients with no sign change have no positive root
    (Descartes' rule of signs), so M = 0 with no chain: the denominators
    n^j (n+1)^k of the certificate inequalities take this path.  p is a
    rational `Poly` or its integers (highest first), as the threshold scan
    and a claimed threshold's check hold them.
    """
    cs = _primitive_ints(p) if isinstance(p, Poly) else p
    if len(cs) <= 1 or not _sign_changes(cs):
        return 0
    chain = sturm_chain(squarefree_part(cs))
    at_inf = _sign_changes([cs[0] for cs in chain])

    def roots_above(m: int) -> int:
        return _sign_changes([_horner(cs, m) for cs in chain]) - at_inf

    if not roots_above(0):
        return 0
    lo, hi = 0, 1
    while roots_above(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # roots above lo, none above hi
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if roots_above(mid) else (lo, mid)
    return hi


class AlgebraicReal:
    """A real algebraic number: square-free integer polynomial + interval.

    The isolating interval (lo, hi) contains exactly one root of `poly`;
    for rational numbers lo == hi.  Interval endpoints are never roots
    unless lo == hi.  `refine()` halves the width; instances are mutable
    only through refinement (value never changes).
    """

    __slots__ = ("poly", "lo", "hi", "_ints", "_lo_sign")

    def __init__(self, poly: Poly, lo: Fraction, hi: Fraction):
        self.poly = poly
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self._ints = _primitive_ints(poly)  # highest degree first
        self._lo_sign = _sign_at(self._ints, self.lo)  # kept by refine

    def __repr__(self) -> str:
        return f"AlgebraicReal({list(self.poly.coeffs)!r}, {self.lo}, {self.hi})"

    def is_rational(self) -> bool:
        return self.lo == self.hi

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not refined to a rational point")
        return self.lo

    def refine(self) -> None:
        """Halve the interval, keeping the half with the sign change.  The sign
        at lo is not evaluated again: lo moves only to a midpoint whose sign was just taken."""
        if self.lo == self.hi:
            return
        mid = (self.lo + self.hi) / 2
        v = _sign_at(self._ints, mid)
        if v == 0:
            self.lo = self.hi = mid
            return
        if self._lo_sign * v < 0:
            self.hi = mid
        else:
            self.lo = mid
            self._lo_sign = v

    def refine_below(self, width: Fraction) -> None:
        while self.hi - self.lo > width:
            self.refine()

    def approx(self) -> float:
        self.refine_below(Fraction(1, 10**12))
        return float((self.lo + self.hi) / 2)


def isolate_real_roots(p: Poly) -> list[AlgebraicReal]:
    """All distinct real roots (rational coefficients), sorted increasing.

    Rational roots found by the divisor search come back as exact points
    (lo == hi, linear defining polynomial); the remaining roots carry the
    reduced square-free factor and a genuine isolating interval.
    """
    qs = squarefree_part(_primitive_ints(p))
    if len(qs) <= 1:
        return []
    points: list[AlgebraicReal] = []
    for rv in rational_roots_small(qs):
        # a primitive factor leaves a primitive quotient with positive lead
        lin = [rv.denominator, -rv.numerator]
        qs = _exact_quotient(qs, lin)
        points.append(AlgebraicReal(_over(lin[::-1], 1), rv, rv))
    roots: list[AlgebraicReal] = []
    if len(qs) > 1:
        q = _over(qs[::-1], 1)
        chain = sturm_chain(qs)
        bound = cauchy_root_bound(qs)
        lo, hi = -bound - 1, bound + 1

        def recurse(a: Fraction, b: Fraction, count: int) -> None:
            if count == 0:
                return
            if count == 1 and _sign_at(qs, a) * _sign_at(qs, b) < 0:
                roots.append(AlgebraicReal(q, a, b))
                return
            mid = (a + b) / 2
            if not _value_at(qs, mid):
                roots.append(AlgebraicReal(q, mid, mid))
                # shrink around the exact root so the sub-intervals exclude it
                w = (b - a) / 4
                while True:
                    m1, m2 = mid - w, mid + w
                    if _value_at(qs, m1) and _value_at(qs, m2):
                        c_left = _count_roots(chain, a, m1)
                        c_mid = _count_roots(chain, m1, m2)
                        if c_mid == 1:
                            recurse(a, m1, c_left)
                            recurse(m2, b, count - c_left - 1)
                            return
                    w /= 2
            c_left = _count_roots(chain, a, mid)
            recurse(a, mid, c_left)
            recurse(mid, b, count - c_left)

        total = _count_roots(chain, lo, hi)
        recurse(lo, hi, total)
        # shrink intervals until they exclude the split-off rational points,
        # so sorting by endpoints orders the actual values
        for ar in roots:
            for pt in points:
                while ar.lo < pt.lo < ar.hi:
                    ar.refine()
    roots.extend(points)
    roots.sort(key=lambda r: (r.lo, r.hi))
    return roots


def rational_roots_small(cs: list[int]) -> list[Fraction]:
    """Rational roots of the coprime integers cs (highest first), found by
    divisor search; skipped when the constant or leading coefficient
    exceeds 10^6, where the search stops being cheap."""
    if len(cs) <= 1:
        return []
    found = set() if cs[-1] else {Fraction(0)}
    while not cs[-1]:
        cs = cs[:-1]
    a0, ad = abs(cs[-1]), abs(cs[0])
    if max(a0, ad) <= 10**6:
        found.update(
            c
            for pnum in _divisors(a0)
            for pden in _divisors(ad)
            for c in (Fraction(pnum, pden), Fraction(-pnum, pden))
            if not _value_at(cs, c)
        )
    return sorted(found)


def _divisors(n: int) -> set[int]:
    return {d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k)}


def eventual_positivity_threshold(r: RatFunc) -> int:
    """Smallest N0 >= 0 with r(n) > 0 and den(r)(n) != 0 for all ints n > N0.

    Requires sign_at_infinity(r) > 0; raises ValueError otherwise.  The
    returned threshold is minimal: r(N0) <= 0 or den(N0) == 0 or N0 == 0.
    Both conditions hold at n exactly when num(n) den(n) > 0, which is
    scanned down by integer Horner from M = max(`no_roots_above(num)`,
    `no_roots_above(den)`): the real roots of num den are those of num and
    those of den, so M is the bound one Sturm chain of the product would
    give, from two chains of half the degree.
    """
    if sign_at_infinity(r) <= 0:
        raise ValueError("rational function is not eventually positive")
    num, den = _primitive_ints(r.num), _primitive_ints(r.den)
    top = max(no_roots_above(num), no_roots_above(den))
    for n in range(top, 0, -1):
        if _horner(num, n) * _horner(den, n) <= 0:
            return n
    return 0
