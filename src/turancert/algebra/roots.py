"""Exact real root location: Sturm chains, isolation, positivity thresholds.

All decisions are made with exact arithmetic.  Sturm chains work over any
exact ordered field scalar (rationals, real algebraic numbers); full root
isolation is provided for rational-coefficient polynomials and returns
`AlgebraicReal` handles (square-free defining polynomial + isolating
interval with refinement).
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, scalar_abs_upper, scalar_sign, squarefree_part
from .ratfunc import RatFunc, sign_at_infinity


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of p; each member scaled by a positive constant."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        rem = -rem
        if rem.is_zero():
            break
        if rem.is_rational():
            _, prim = rem.content_and_primitive()
            if rem.leading() < 0:
                prim = -prim
            rem = prim
        else:
            lead = rem.leading()
            s = lead.sign()
            inv = lead ** (-1)
            rem = rem.scale(inv if s > 0 else -inv)
        chain.append(rem)
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for q in chain:
        s = scalar_sign(q.eval(x))
        if s:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b] for a square-free chain head."""
    return _variations(chain, a) - _variations(chain, b)


def cauchy_root_bound(p: Poly) -> Fraction:
    """B with all real roots of p inside (-B, B)."""
    if p.degree <= 0:
        return Fraction(1)
    lead = scalar_abs_upper(p.leading())
    m = max(scalar_abs_upper(c) for c in p.coeffs[:-1])
    return Fraction(1) + m / lead if lead else Fraction(1)


def no_roots_above(p: Poly) -> int:
    """Smallest-ish integer M >= 0 with no real roots of p in (M, inf).

    Uses a Sturm count to shrink the Cauchy bound; exact, works over any
    exact scalar with sign support.
    """
    if p.degree <= 0:
        return 0
    q = squarefree_part(p)
    chain = sturm_chain(q)
    b = cauchy_root_bound(q)
    hi = int(b) + 1
    lo = 0
    if count_roots_halfopen(chain, Fraction(lo), Fraction(hi)) == 0:
        return 0
    # binary search: smallest m with zero roots in (m, hi]
    while hi - lo > 1:
        mid = (hi + lo) // 2
        if count_roots_halfopen(chain, Fraction(mid), Fraction(hi)) == 0:
            hi = mid
        else:
            lo = mid
    return hi if count_roots_halfopen(chain, Fraction(lo), Fraction(hi)) else lo


class AlgebraicReal:
    """A real algebraic number: square-free integer polynomial + interval.

    The isolating interval (lo, hi) contains exactly one root of `poly`;
    for rational numbers lo == hi.  Interval endpoints are never roots
    unless lo == hi.  `refine()` halves the width; instances are mutable
    only through refinement (value never changes).
    """

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: Poly, lo: Fraction, hi: Fraction):
        self.poly = poly
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)

    def __repr__(self) -> str:
        return f"AlgebraicReal({list(self.poly.coeffs)!r}, {self.lo}, {self.hi})"

    def is_rational(self) -> bool:
        return self.lo == self.hi

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not refined to a rational point")
        return self.lo

    def refine(self) -> None:
        if self.lo == self.hi:
            return
        mid = (self.lo + self.hi) / 2
        v = self.poly.eval(mid)
        if v == 0:
            self.lo = self.hi = mid
            return
        # keep the half with the sign change
        if scalar_sign(self.poly.eval(self.lo)) * scalar_sign(v) < 0:
            self.hi = mid
        else:
            self.lo = mid

    def refine_below(self, width: Fraction) -> None:
        while self.hi - self.lo > width:
            self.refine()

    def approx(self, digits: int = 12) -> float:
        self.refine_below(Fraction(1, 10**digits))
        return float((self.lo + self.hi) / 2)


def isolate_real_roots(p: Poly) -> list[AlgebraicReal]:
    """All distinct real roots (rational coefficients), sorted increasing.

    Rational roots found by the divisor search come back as exact points
    (lo == hi, linear defining polynomial); the remaining roots carry the
    reduced square-free factor and a genuine isolating interval.
    """
    if not p.is_rational():
        raise TypeError("isolation implemented for rational coefficients")
    if p.degree <= 0:
        return []
    q = squarefree_part(p)
    points: list[AlgebraicReal] = []
    for rv in rational_roots_small(q):
        q = q.exact_div(Poly([-rv, 1]))
        points.append(AlgebraicReal(Poly([-rv, 1]).primitive(), rv, rv))
    roots: list[AlgebraicReal] = []
    if q.degree > 0:
        q = q.primitive()
        chain = sturm_chain(q)
        bound = cauchy_root_bound(q)
        lo, hi = -bound - 1, bound + 1

        def recurse(a: Fraction, b: Fraction, count: int) -> None:
            if count == 0:
                return
            if count == 1 and scalar_sign(q.eval(a)) * scalar_sign(q.eval(b)) < 0:
                roots.append(AlgebraicReal(q, a, b))
                return
            mid = (a + b) / 2
            if q.eval(mid) == 0:
                roots.append(AlgebraicReal(q, mid, mid))
                # shrink around the exact root so the sub-intervals exclude it
                w = (b - a) / 4
                while True:
                    m1, m2 = mid - w, mid + w
                    if q.eval(m1) != 0 and q.eval(m2) != 0:
                        c_left = count_roots_halfopen(chain, a, m1)
                        c_mid = count_roots_halfopen(chain, m1, m2)
                        if c_mid == 1:
                            recurse(a, m1, c_left)
                            recurse(m2, b, count - c_left - 1)
                            return
                    w /= 2
            c_left = count_roots_halfopen(chain, a, mid)
            recurse(a, mid, c_left)
            recurse(mid, b, count - c_left)

        total = count_roots_halfopen(chain, lo, hi)
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


def rational_roots_small(p: Poly, limit: int = 10**6) -> list[Fraction]:
    """Rational roots found by divisor search; skipped when coefficients
    are too large for the search to be cheap."""
    if p.degree <= 0 or not p.is_rational():
        return []
    _, prim = p.content_and_primitive()
    coeffs = [int(c) for c in prim.coeffs]
    k = 0
    while coeffs[k] == 0:
        k += 1
    found = [Fraction(0)] if k else []
    coeffs = coeffs[k:]
    a0, ad = abs(coeffs[0]), abs(coeffs[-1])
    if a0 > limit or ad > limit:
        return found
    picked = set()
    for pnum in _divisors(a0):
        for pden in _divisors(ad):
            for s in (1, -1):
                cand = Fraction(s * pnum, pden)
                if cand in picked:
                    continue
                if prim.eval(cand) == 0:
                    picked.add(cand)
                    found.append(cand)
    return sorted(found)


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def eventual_positivity_threshold(r: RatFunc) -> int:
    """Smallest N0 >= 0 with r(n) > 0 and den(r)(n) != 0 for all ints n > N0.

    Requires sign_at_infinity(r) > 0; raises ValueError otherwise.  The
    returned threshold is minimal: r(N0) <= 0 or den(N0) == 0 or N0 == 0.
    """
    if sign_at_infinity(r) <= 0:
        raise ValueError("rational function is not eventually positive")
    prod = r.num * r.den
    top = no_roots_above(prod)
    for n in range(top, 0, -1):
        dv = r.den.eval(n)
        if (isinstance(dv, Fraction) and dv == 0) or (not isinstance(dv, Fraction) and not dv):
            return n
        val = r.num.eval(n) * (1 / dv if isinstance(dv, Fraction) else dv ** (-1))
        if scalar_sign(val) <= 0:
            return n
    return 0
