"""Test oracles that no command needs.

On asymptotic series: the exact value of a truncated series at a grid
point, the phi map on a u-expansion, and `AsymSeries` versions of the stage
residual, of the u-expansion and of the ratio window functions, which the
package computes on grid arrays.

On grid arrays: the stage solver's helpers on `Fraction`/`NFElem` lists,
one scalar operation at a time (binomial rows, shifts, Cauchy products,
inverses, residual rebuilds, the u grid), and a stage solve by one residual
rebuild per stage; the package runs these on integer numerators.

On exact scalars: polynomial products and shifts by a loop over the
coefficients in their own scalar type, and number-field `+ - * /`,
negation, powers, zero test, sign and rational value by a `Poly` division
by the modulus after every operation, and enclosures over the root's
interval by interval Horner in `Fraction`s, which the package does on
integers and reduced tuples.
Root refinement by bisection that evaluates the polynomial in `Fraction`
arithmetic at both ends of every step, and Sturm root counts by `Fraction`
evaluation of the chain's `Poly` members.  Positivity thresholds from one
Sturm chain of the product num den.

On certificates: the corner polynomials, the induction inequalities and
the discharge inequalities built one `RatFunc` operator at a time, each
operator normalising its result, which the package builds as one
unnormalised fraction and normalises once.

On exact terms: the search for the base window of the ratio induction,
trying every start in `Fraction` arithmetic.

On truncated windows: random PREC-bit truncations and the random fractional
parts that the truncation drops, for the radius tests of the sign forms.

On expansions at large n: the relative error of a ratio expansion, and of
its u-series, against exact terms at n = 500 .. 4000, in 60-digit `mpmath`.
The terms come from integer companion-matrix products (binary splitting),
not from the package's stepper.  A sample, it can refute an accepted
branch, though it proves none.

On the corpus: lookup of an entry by name.

On text forms: the polynomial printer that `turancert.parser` carried
before `render.poly_text` took its place, for rational coefficients, and
the clearing of a parsed relation's denominators by an lcm of Fraction
`Poly`s, with an exact `poly_gcd` for every new denominator, which the
parser forms on integer lists.

On command lines: the argparse tree that `turancert.cli` parsed with
before its own option-table parser, built from the same `cli.COMMANDS`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
from fractions import Fraction
from typing import Optional

import mpmath

from turancert.algebra import NFElem, Poly, RatFunc, no_roots_above, poly_gcd, scalar_sign, sign_at_infinity
from turancert.algebra.poly import _horner, _integer_coeffs, _jointly_primitive
from turancert.asymptotics import (
    AsymSeries,
    RatioExpansion,
    binomial_power,
    compose_coef_shift,
    series_inv,
    shift_series,
)
from turancert import __version__, cli
from turancert.asymptotics.ratio import _Resonance, u_grid
from turancert.certify import turan_form
from turancert.corpus import ENTRIES, CorpusEntry
from turancert.sequences import PREC, Recurrence, check_scaling


def get(name: str) -> CorpusEntry:
    """The corpus entry `name`; a KeyError lists the known names."""
    if name not in ENTRIES:
        raise KeyError(f"unknown corpus entry {name!r}; have {sorted(ENTRIES)}")
    return ENTRIES[name]


# -- expansions at large n ------------------------------------------------------

EXPANSION_POINTS = (500, 1000, 2000, 4000)
EXPANSION_WIDTH = Fraction(1, 10**50)  # of the intervals that stand for NFElem scalars


def _step_product(coeffs: list, lo: int, hi: int) -> tuple:
    """(P, D) with w(hi) = P w(lo) / D, for the window w(m) = (a(m+d-1), ...,
    a(m)) and the integer coefficients (highest first) of p0..pd: a product
    tree of the companion matrices, in integers."""
    if hi - lo == 1:
        p0, *ps = (_horner(p, lo) for p in coeffs)
        return [ps] + [[p0 if j == i else 0 for j in range(len(ps))] for i in range(len(ps) - 1)], p0
    mid = (lo + hi) // 2
    (P1, D1), (P2, D2) = _step_product(coeffs, lo, mid), _step_product(coeffs, mid, hi)
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*P1)] for row in P2], D1 * D2


def exact_terms_at(rec: Recurrence, points: tuple) -> dict:
    """{n: (x, D)} with a(n) = x / D exactly, not reduced, for each n >= 0 of
    `points`: integer windows that binary splitting steps from the initial
    values, forming no term between two points and no gcd."""
    coeffs, d = _integer_coeffs(rec.coeffs), rec.order
    den = math.lcm(*(v.denominator for v in rec.initials[:d]))
    w = [v.numerator * (den // v.denominator) for v in rec.initials[:d]][::-1]
    m, out = 0, {}
    for n in sorted(points):
        if n > m:
            P, D = _step_product(coeffs, m, n)
            if not D:
                raise ZeroDivisionError(f"p0 vanishes on [{m}, {n})")
            w, den, m = [sum(p * x for p, x in zip(row, w)) for row in P], den * D, n
        out[n] = w[-1], den
    return out


@functools.lru_cache(maxsize=16)
def _terms_near_points(rec: Recurrence) -> dict:
    """{n: a(n)} as 60-digit mpf for n - 1, n and n + 1, n in EXPANSION_POINTS."""
    points = tuple(n + j for n in EXPANSION_POINTS for j in (-1, 0, 1))
    with mpmath.workdps(60):
        return {n: mpmath.mpf(x) / D for n, (x, D) in exact_terms_at(rec, points).items()}


def _mpf(x) -> mpmath.mpf:
    """A Fraction, or an NFElem by the midpoint of its interval at EXPANSION_WIDTH."""
    if isinstance(x, NFElem):
        lo, hi = x.approx_interval(EXPANSION_WIDTH)
        x = (lo + hi) / 2
    return mpmath.mpf(x.numerator) / x.denominator


def expansion_errors(rec: Recurrence, rx: RatioExpansion, scaling: str = "none") -> tuple:
    """The relative errors at EXPANSION_POINTS of lam n^mu (1 + sum c_i
    n^(-i/rho)) against the exact a(n+1)/a(n), and of the u-series
    sum u_k n^(-k/rho) (`u_grid` under `scaling`) against the exact u_n,
    as two lists of mpf (inf where a term is 0), in 60 digits."""
    check_scaling(scaling)
    with mpmath.workdps(60):
        a = _terms_near_points(rec)
        lam, mu = _mpf(rx.lam), _mpf(rx.mu)
        cs, us = [_mpf(c) for c in [Fraction(1)] + rx.coeffs], [_mpf(c) for c in u_grid(rx, scaling)]
        ratio, u = [], []
        for n in EXPANSION_POINTS:
            if not (a[n - 1] and a[n] and a[n + 1]):
                ratio.append(mpmath.inf)
                u.append(mpmath.inf)
                continue
            x = mpmath.mpf(n) ** (mpmath.mpf(-1) / rx.rho)
            exact_u = a[n - 1] * a[n + 1] / a[n] ** 2 * (mpmath.mpf(n) / (n + 1) if scaling == "factorial" else 1)
            ratio.append(abs(lam * mpmath.mpf(n) ** mu * mpmath.polyval(cs[::-1], x) * a[n] / a[n + 1] - 1))
            u.append(abs(mpmath.polyval(us[::-1], x) / exact_u - 1))
        return ratio, u


def _decays(errors: list, order: Fraction, octaves: int) -> bool:
    """Whether e(4000) < 10^-40, or the slope log2(e(4000)/e(m))/octaves,
    m = 4000/2^octaves, is at most -order + 0.6."""
    if errors[-1] < mpmath.mpf(10) ** -40:
        return True
    start = errors[-1 - octaves]
    if not start or mpmath.isinf(errors[-1]):
        return False
    return mpmath.log(errors[-1] / start, 2) / octaves <= -float(order) + 0.6


def expansion_agrees(rec: Recurrence, rx: RatioExpansion, scaling: str = "none") -> bool:
    """Whether the branch rx that `ratio_expansion` accepts for `rec` agrees
    with its exact terms.  The relative error e(n) of the ratio expansion
    must decay like n^-((T+1)/rho), T = len(rx.coeffs): log2(e(4000)/e(2000))
    is at most -(T+1)/rho + 0.6, unless e(4000) < 10^-40.  The u-series
    under `scaling` must meet the same bound on its mean slope from 500 to
    4000, since its error can change sign in between (involutions at K = 4,
    near n = 1000, leaves a last-octave slope of -3.7 against -4.5)."""
    order = Fraction(len(rx.coeffs) + 1, rx.rho)
    ratio, u = expansion_errors(rec, rx, scaling)
    return _decays(ratio, order, 1) and _decays(u, order, 3)


def eval_exact(s: AsymSeries, n: int):
    """Value of the truncated sum at integer n >= 1, exactly.

    Needs log-free (constant) coefficients, and n must be a perfect
    q-th power for every exponent denominator q that appears.
    """
    total = Fraction(0)
    for e, c in s.terms:
        if not c.is_constant():
            raise ValueError("exact evaluation needs log-free coefficients")
        root = _integer_root(n, e.denominator)
        if root**e.denominator != n:
            raise ValueError(
                f"{n} is not a perfect {e.denominator}th power; "
                "pick evaluation points on the exponent grid"
            )
        total = total + c.constant_value() * Fraction(root) ** (-e.numerator)
    return total


def _integer_root(n: int, q: int) -> int:
    r = int(round(n ** (1.0 / q)))
    while r > 0 and r**q > n:
        r -= 1
    while (r + 1) ** q <= n:
        r += 1
    return r


def phi_u_expansion(u: AsymSeries, order=None) -> AsymSeries:
    """u-ratio of the centered sequence b_n = a_n^2 - a_{n-1}a_{n+1}.

    Uses the exact identity u{b}_n = u_n^2 (u_{n-1}-1)(u_{n+1}-1)/(u_n-1)^2
    on the series level: write 1 - u = lead(L) n^{-alpha} g(n) with g
    leading 1, then the ratio splits into shifted-g, shifted-lead and
    binomial factors.  `order` asks for o(n^-order) in the result,
    capped by what the accuracy of u supports.
    """
    if u.error_order is None and order is None:
        raise ValueError("phi_u_expansion of an exact series needs an explicit order")
    if not u.terms or u.terms[0] != (Fraction(0), RatFunc.one()):
        raise ValueError("u must have leading term exactly 1")
    D = AsymSeries.one() - u
    if not D.terms:
        raise ValueError("1 - u vanishes to working order; need a nonzero r1")
    alpha, lead = D.terms[0]
    if alpha <= 0:
        raise ValueError("u must tend to 1 from a positive-order correction")
    rel_candidates = []
    if order is not None:
        rel_candidates.append(Fraction(order))
    if u.error_order is not None:
        rel_candidates.append(u.error_order - alpha)
    rel = min(rel_candidates)
    if rel <= 0:
        raise ValueError("u is not accurate enough for any phi-ratio term")
    w = u.truncate(alpha + rel)
    D = (AsymSeries.one() - w).truncate(alpha + rel)
    g = AsymSeries([(e - alpha, c / lead) for e, c in D.terms], rel)
    f_part = binomial_power(1, -alpha, rel) * binomial_power(-1, -alpha, rel)
    if not lead.is_constant():
        inv_lead = lead ** (-1)
        f_part = f_part * compose_coef_shift(lead, 1, rel).scale(inv_lead)
        f_part = f_part * compose_coef_shift(lead, -1, rel).scale(inv_lead)
    gi = series_inv(g, rel)
    out = (w * w) * f_part * shift_series(g, 1, rel) * shift_series(g, -1, rel) * gi * gi
    return out.truncate(rel)


def series_v_shifted(cs: list, rho: int, j: int, rel_order: Fraction) -> AsymSeries:
    """v(n+j) re-expanded at n, for v = 1 + sum cs[i-1] n^{-i/rho}."""
    out = AsymSeries.one().truncate(rel_order)
    for i, c in enumerate(cs, start=1):
        e = Fraction(i, rho)
        if e >= rel_order:
            break
        if not c:
            continue
        if j == 0:
            out = out + AsymSeries([(e, c)])
        else:
            out = out + binomial_power(j, -e, rel_order - e).shift_exponents(e).scale(c)
    return out


def series_residual(rec: Recurrence, lam, mu: Fraction, rho: int, cs: list, rel_order: Fraction) -> AsymSeries:
    """p0(n) prod_{j<d} r(n+j) - sum_k pk(n) prod_{j<d-k} r(n+j), with
    r(n) = lam n^mu v(n); absolute exponents (n^s appears as exponent -s).
    Each p_k takes the prefix product of the first d-k shifted factors."""
    d = rec.order
    prefix = [AsymSeries.one()]
    for j in range(d):
        vj = series_v_shifted(cs, rho, j, rel_order)
        if j > 0:
            vj = vj * binomial_power(j, mu, rel_order)
        prefix.append((prefix[-1] * vj).truncate(rel_order))
    total = AsymSeries.zero()
    for k, p in enumerate(rec.coeffs):
        if p.is_zero():
            continue
        x = d - k
        term = AsymSeries([(Fraction(-t), pt) for t, pt in enumerate(p.coeffs)]) * prefix[x]
        term = term.scale(lam**x).shift_exponents(-mu * x)
        total = total + term if k == 0 else total - term
    return total


def series_u_expansion(rx: RatioExpansion, scaling: str = "none") -> AsymSeries:
    """u_n = r(n)/r(n-1) by series algebra on rx.v: (1 - 1/n)^(-mu) v(n) / v(n-1),
    times (1 + 1/n)^(-1) under factorial scaling."""
    beta = rx.v.error_order
    u = binomial_power(-1, -rx.mu, beta)
    u = u * rx.v * series_inv(shift_series(rx.v, -1, beta), beta)
    if scaling == "factorial":
        u = u * binomial_power(1, -1, beta)
    return u.truncate(beta)


def series_ratio_windows(rx: RatioExpansion, order: int) -> tuple:
    """The ratio window functions by series algebra on rx.v: the terms of
    lam (1 - 1/n)^mu v(n-1) n^mu below n^(mu - order + 1), with a unit
    slack there taken off (lower) and added (upper)."""
    beta = Fraction(order + 1)
    mu = int(rx.mu)
    w = binomial_power(-1, Fraction(mu), beta) * shift_series(rx.v, -1, beta)
    mid = [(mu - int(e), rx.lam * c.constant_value()) for e, c in w.truncate(Fraction(order)).terms]
    slack = mu - order + 1
    return RatFunc.laurent(mid + [(slack, -1)]), RatFunc.laurent(mid + [(slack, 1)])


# -- grid arrays as Fraction lists --------------------------------------------------
#
# The stage solver's grid helpers as they were before the package moved them
# to integer numerators over one denominator: a grid array is a list of T + 1
# scalars (`Fraction` or `NFElem`), entry k the coefficient of n^(-k/rho), and
# each + and * is one scalar operation.  The package's kernels are checked
# against these, values and output types alike.


def _binomial_row(j, alpha, rho: int, T: int) -> list:
    """(1 + j/n)^alpha: C(alpha, l) j^l at k = l rho."""
    row = [Fraction(0)] * (T + 1)
    b = Fraction(1)
    for l, k in enumerate(range(0, T + 1, rho)):
        row[k] = b
        b = b * (alpha - l) / (l + 1) * j
    return row


def _memo_row(rows: dict, j, alpha, rho: int, T: int) -> list:
    """`_binomial_row` through the memo `rows`, keyed on (j, alpha, rho):
    a row is built once, to the largest T asked, and sliced after."""
    row = rows.get((j, alpha, rho))
    if row is None or len(row) <= T:
        row = rows[(j, alpha, rho)] = _binomial_row(j, alpha, rho, T)
    return row[: T + 1]


def _add_shifted(row: list, c, i: int, j: int, rho: int, rows: dict) -> None:
    """Add the term c n^{-i/rho} of v, taken at n + j, to v(n+j)'s row:
    c (1 + j/n)^{-i/rho} from k = i on."""
    for k, b in enumerate(_memo_row(rows, j, Fraction(-i, rho), rho, len(row) - 1 - i)):
        if b:
            row[i + k] += c * b


def _shifted(cs: list, rho: int, j: int, T: int, rows: dict) -> list:
    """v(n+j) for v = 1 + sum cs[i-1] n^{-i/rho}."""
    row = [Fraction(1)] + [Fraction(0)] * T
    for i, c in enumerate(cs, start=1):
        if c:
            _add_shifted(row, c, i, j, rho, rows)
    return row


def _terms(a: list) -> list:
    """(k, scalar) for each nonzero entry of a grid array."""
    return [(k, x) for k, x in enumerate(a) if x]


def _mul(a: list, b: list) -> list:
    """Truncated Cauchy product of two grid arrays of one length, over
    their nonzero entries only."""
    out = [Fraction(0)] * len(b)
    tb = _terms(b)
    for m, x in _terms(a):
        for k, y in tb:
            if m + k >= len(out):
                break
            out[m + k] += x * y
    return out


def _inv(a: list) -> list:
    """1/a for the grid array a = 1 + x: out[k] = -sum x[m] out[k - m] over
    the nonzero entries of x and of out."""
    x = _terms(a)[1:]
    out, nonzero = [Fraction(1)], [True]
    for k in range(1, len(a)):
        out.append(-sum(c * out[k - m] for m, c in x if m <= k and nonzero[k - m]))
        nonzero.append(bool(out[k]))
    return out


def _slot_terms(rec: Recurrence, lam, mu: Fraction, e0: Fraction, rho: int) -> list:
    """(x, off, s_k lam^x p_k[t]) per recurrence monomial on the grid: with
    r(n) = lam n^mu v(n), residual slot i (absolute exponent -e0 + i/rho) is
    the sum of s_k lam^x p_k[t] P_x[i - off], x = d - k, off = rho(e0 - t - mu x),
    over integral off, where P_x = prod_{j<x} (1 + j/n)^mu v(n+j)."""
    d = rec.order
    out = []
    for k, p in enumerate(rec.coeffs):
        x = d - k
        sign_lam = lam**x if k == 0 else -(lam**x)
        for t, pt in enumerate(p.coeffs):
            off = rho * (e0 - t - mu * x)
            if pt and off.denominator == 1:
                out.append((x, int(off), sign_lam * pt))
    return out


def _residual_slots(rec: Recurrence, lam, mu: Fraction, e0: Fraction, rho: int, cs: list,
                    rows: Optional[dict] = None) -> list:
    """Residual slots 0..T for T = len(cs), rebuilt from c_1..c_T by whole
    grid products, none of the online solver's arrays; binomial rows come
    from the memo `rows`, fresh if none is given."""
    T = len(cs)
    rows = {} if rows is None else rows
    prefix = [[Fraction(1)] + [Fraction(0)] * T]
    for j in range(rec.order):
        f = _mul(_memo_row(rows, j, mu, rho, T), _shifted(cs, rho, j, T, rows))
        prefix.append(_mul(prefix[-1], f))
    slots = _slot_terms(rec, lam, mu, e0, rho)
    return [sum(s * prefix[x][i - off] for x, off, s in slots if off <= i) for i in range(T + 1)]


def u_grid(rx: RatioExpansion, scaling: str = "none") -> list:
    """u_n = a(n-1)a(n+1)/a(n)^2 = r(n)/r(n-1) = (1 - 1/n)^(-mu) v(n)/v(n-1)
    as a grid array of T + 1 entries, T = len(rx.coeffs), entry k the
    coefficient of n^(-k/rho); factorial scaling multiplies by
    n/(n+1) = (1 + 1/n)^(-1)."""
    check_scaling(scaling)
    rho, cs = rx.rho, rx.coeffs
    T = len(cs)
    u = _mul(_binomial_row(-1, -rx.mu, rho, T), [Fraction(1)] + cs)
    u = _mul(u, _inv(_shifted(cs, rho, -1, T, {})))
    if scaling == "factorial":
        u = _mul(u, _binomial_row(1, Fraction(-1), rho, T))
    return u


def reference_solve_stages(rec: Recurrence, lam, mu: Fraction, e0: Fraction, rho: int, T: int,
                           slope, st) -> list:
    """`ratio._solve_stages` by one `_residual_slots` rebuild per stage on
    `Fraction` lists: slot i of c_1..c_{i-1}, 0 is b, and c_i = -b/slope;
    at slope 0 a zero b gives c_i = Fraction(0) and any other b resonates.
    Keeps the same record in st: stages, their floats, the resonant stage."""
    if st.resonance is not None and st.resonance <= T:
        raise _Resonance(st.resonance)
    cs = list(st.cs)
    while len(cs) < T:
        i = len(cs) + 1
        b = _residual_slots(rec, lam, mu, e0, rho, cs + [Fraction(0)])[i]
        if not slope:
            if b:
                st.resonance = i
                raise _Resonance(i)
            cs.append(Fraction(0))
        else:
            cs.append(-(b / slope))
    st.floats += [float(c) for c in cs[len(st.cs):]]
    st.cs = cs
    return cs[:T]


# -- exact terms ----------------------------------------------------------------


def ratio_base_reference(table, s_l: RatFunc, s_u: RatFunc, start: int, d: int, budget: int):
    """The first m in [start, start + budget) whose d - 1 ratios
    a(j)/a(j-1), j = m .. m + d - 2, each lie in [s_l(j), s_u(j)], tried m
    by m in `Fraction` arithmetic; None if there is none.  A zero a(j-1)
    or a pole of either bound at j leaves the ratio out."""
    for m in range(start, start + budget):
        ok = True
        for j in range(m, m + d - 1):
            prev, cur = table.values(j - 1, j)
            try:
                ok = prev != 0 and s_l.eval(j) <= cur / prev <= s_u.eval(j)
            except ZeroDivisionError:
                ok = False
            if not ok:
                break
        if ok:
            return m
    return None


# -- exact scalars ------------------------------------------------------------


def loop_product(a: Poly, b: Poly) -> Poly:
    """a * b by the schoolbook loop over the coefficients, in their own type."""
    if not a.coeffs or not b.coeffs:
        return Poly()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(out)


def loop_shift(p: Poly, a) -> Poly:
    """p(x + a) by Horner, with `loop_product` for each step."""
    acc = Poly()
    for c in reversed(p.coeffs):
        acc = loop_product(acc, Poly([a, 1])) + Poly([c])
    return acc


def _lift(x: NFElem, y) -> NFElem:
    return y if isinstance(y, NFElem) else x.field.from_rational(y)


def nf_add(x: NFElem, y) -> NFElem:
    """x + y, padded to one length and reduced by the modulus."""
    y = _lift(x, y)
    n = max(len(x.coeffs), len(y.coeffs))
    a = list(x.coeffs) + [Fraction(0)] * (n - len(x.coeffs))
    b = list(y.coeffs) + [Fraction(0)] * (n - len(y.coeffs))
    return NFElem(x.field, x.field.reduce(Poly([u + v for u, v in zip(a, b)])))


def nf_sub(x: NFElem, y) -> NFElem:
    return nf_add(x, -_lift(x, y))


def nf_mul(x: NFElem, y) -> NFElem:
    """x * y as a loop product of the two tuples, reduced by the modulus."""
    y = _lift(x, y)
    return NFElem(x.field, x.field.reduce(loop_product(Poly(x.coeffs), Poly(y.coeffs))))


def nf_neg(x: NFElem) -> NFElem:
    return NFElem(x.field, x.field.reduce(Poly([-c for c in x.coeffs])))


def nf_pow(x: NFElem, k: int) -> NFElem:
    """x ** k by |k| loop products, inverted for k < 0."""
    out = x.field.from_rational(1)
    for _ in range(abs(k)):
        out = nf_mul(out, x)
    return x.field.inv(out) if k < 0 else out


def nf_div(x: NFElem, y) -> NFElem:
    """x / y as x times the inverse of y (a rational y as its reciprocal)."""
    if isinstance(y, NFElem):
        return nf_mul(x, x.field.inv(y))
    return nf_mul(x, 1 / Fraction(y))


def nf_is_zero(x: NFElem) -> bool:
    """Zero test on the reduced tuple; a reducible modulus shrinks to the
    factor it shares with a nonzero tuple vanishing at the tracked root."""
    K = x.field
    cs = K.reduce(Poly(x.coeffs))
    if not any(cs):
        return True
    if K.known_irreducible:
        return False
    g = poly_gcd(Poly(cs), K.modulus)
    lo, hi = g.eval(K.root.lo), g.eval(K.root.hi)
    if g.degree > 0 and ((lo > 0) != (hi > 0) or lo == 0 or hi == 0):
        K._shrink_modulus(g)
        return True
    return False


def _iv_mul(a: tuple, b: tuple) -> tuple:
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(vals), max(vals))


def poly_eval_interval(p: Poly, lo: Fraction, hi: Fraction) -> tuple:
    """Interval enclosure of p over [lo, hi] by Horner in `Fraction`s."""
    acc = (Fraction(0), Fraction(0))
    x = (lo, hi)
    for c in reversed(p.coeffs):
        acc = _iv_mul(acc, x)
        acc = (acc[0] + c, acc[1] + c)
    return acc


def nf_sign(x: NFElem) -> int:
    K = x.field
    if nf_is_zero(x):
        return 0
    p = Poly(K.reduce(Poly(x.coeffs)))
    if p.degree <= 0:
        return (p.constant() > 0) - (p.constant() < 0)
    while True:
        lo, hi = poly_eval_interval(p, K.root.lo, K.root.hi)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        K.root.refine()


def nf_approx_interval(x: NFElem, width: Fraction) -> tuple:
    """An enclosure of x no wider than width, refining the root as needed."""
    K = x.field
    p = Poly(K.reduce(Poly(x.coeffs)))
    lo, hi = poly_eval_interval(p, K.root.lo, K.root.hi)
    while hi - lo > width:
        K.root.refine()
        lo, hi = poly_eval_interval(p, K.root.lo, K.root.hi)
    return lo, hi


def nf_to_fraction(x: NFElem):
    K = x.field
    cs = K.reduce(Poly(x.coeffs))
    c0 = cs[0] if cs else Fraction(0)
    if not any(cs[1:]):
        return c0
    if K.known_irreducible:
        return None
    return c0 if nf_is_zero(nf_sub(NFElem(K, cs), c0)) else None


def random_truncation(rng, k):
    """k integers of mixed signs and up to PREC + 1 bits, some of them tiny."""
    return [rng.choice((1, -1)) * rng.getrandbits(rng.randint(0, PREC + 1)) for _ in range(k)]


def random_deltas(rng, k):
    """k Fractions in [0, 1), the ends 0 and 1 - 2^-200 among them."""
    ends = (Fraction(0), 1 - Fraction(1, 2**200))
    return [rng.choice(ends) if rng.random() < 0.4 else Fraction(rng.randrange(2**70), 2**70) for _ in range(k)]


def bisect_reference(poly: Poly, lo: Fraction, hi: Fraction) -> tuple:
    """One bisection of the isolating interval [lo, hi] of a root of poly:
    the half whose ends' `Fraction` values differ in sign, or the midpoint
    twice when poly vanishes there."""
    if lo == hi:
        return lo, hi
    mid = (lo + hi) / 2
    v = poly.eval(mid)
    if v == 0:
        return mid, mid
    return (lo, mid) if scalar_sign(poly.eval(lo)) * scalar_sign(v) < 0 else (mid, hi)


def count_roots_halfopen(chain: list, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b] of a square-free chain head,
    from the signs of the chain's `Poly`s evaluated at a and b."""

    def variations(x):
        signs = [s for s in (scalar_sign(q.eval(x)) for q in chain) if s]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return variations(a) - variations(b)


def shift_reference(r: RatFunc, a) -> RatFunc:
    """r(n + a), both sides shifted in the polynomial ring and normalised."""
    return RatFunc(r.num.compose_shift(a), r.den.compose_shift(a))


def product_chain_threshold(r: RatFunc) -> int:
    """`eventual_positivity_threshold` from one Sturm chain of num den: scan
    down from `no_roots_above(num den)` to the first n with (num den)(n) <= 0."""
    prod = r.num * r.den
    for n in range(no_roots_above(prod), 0, -1):
        if prod.eval(n) <= 0:
            return n
    return 0


def corner_polynomial_reference(g: RatFunc, f: RatFunc, corner: int) -> RatFunc:
    """t at corner `corner` (0..3 as (g,g), (g,f), (f,g), (f,f)) on `RatFunc`s."""
    x = g if corner < 2 else f
    y = shift_reference(g if corner % 2 == 0 else f, 1)
    return turan_form(x, y)


def induction_inequalities_reference(rec: Recurrence, s_l: RatFunc, s_u: RatFunc) -> list:
    """(r, what) for s_l, |q_k| (what None) and the two induction steps, with
    running products of s_l(n+d-j) and s_u(n+d-j), j < k, on `RatFunc`s."""
    d = rec.order
    p0 = RatFunc(rec.coeffs[0])
    q = [RatFunc(rec.coeffs[k]) / p0 for k in range(1, d + 1)]
    out = [(s_l, "s_l(n)")]
    upper_step = lower_step = q[0]
    prod_small = prod_large = RatFunc.one()
    for k in range(2, d + 1):
        prod_small = prod_small * shift_reference(s_l, d - k + 1)
        prod_large = prod_large * shift_reference(s_u, d - k + 1)
        qk = q[k - 1]
        sk = sign_at_infinity(qk)
        if sk == 0:
            continue
        out.append((qk if sk > 0 else -qk, None))
        hi, lo = (prod_small, prod_large) if sk > 0 else (prod_large, prod_small)
        upper_step = upper_step + qk / hi
        lower_step = lower_step + qk / lo
    out.append((shift_reference(s_u, d) - upper_step, "s_u(n+d) - upper step"))
    out.append((lower_step - shift_reference(s_l, d), "lower step - s_l(n+d)"))
    return out


def discharge_inequalities_reference(s_l: RatFunc, s_u: RatFunc, g: RatFunc, f: RatFunc) -> list:
    """(r, what) for f - s_u(n+1)/s_l(n) and s_l(n+1)/s_u(n) - g on `RatFunc`s."""
    return [
        (f - shift_reference(s_u, 1) / s_l, "f(n) - s_u(n+1)/s_l(n)"),
        (shift_reference(s_l, 1) / s_u - g, "s_l(n+1)/s_u(n) - g(n)"),
    ]


def poly_text_reference(p: Poly, var: str = "n") -> str:
    """Plain text of a polynomial, highest power first."""
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = Fraction(p[k])
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if k == 0:
            body = str(c)
        else:
            power = var if k == 1 else f"{var}^{k}"
            body = power if c == 1 else f"{c}*{power}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def clearing_reference(coeffs: dict, max_degree: int) -> list:
    """p0..pd of the relation sum_k coeffs[k] a(n+k) = 0, for canonical
    `RatFunc`s keyed by shift, the lowest 0: every coefficient times the lcm
    of the denominators, built by `poly_gcd` and `Poly.exact_div`, with
    p0 = coeffs[d] and p_k = -coeffs[d-k], in their joint normal form.  A
    ValueError carries the parser's text when the lcm's degree would pass
    max_degree or p0 is zero."""
    den = Poly([1])
    for r in coeffs.values():
        if r.den != den:
            g = poly_gcd(den, r.den)
            if den.degree + r.den.degree - g.degree > max_degree:
                raise ValueError("relation too large: its cleared denominator's degree would exceed "
                                 f"MAX_POWER_DEGREE = {max_degree}")
            den = den * r.den.exact_div(g)
    d = max(coeffs)
    polys = [coeffs[k].num * den.exact_div(coeffs[k].den) if k in coeffs else Poly() for k in range(d, -1, -1)]
    if polys[0].is_zero():
        raise ValueError("degenerate relation: the highest shift cancels")
    ints = _integer_coeffs([polys[0]] + [-p for p in polys[1:]])
    return _jointly_primitive(ints, ints[0][0])


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it reports arguments it does not know under its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


def _add_argument(p: argparse.ArgumentParser, a: "cli.Arg", suppress: bool = False) -> None:
    """`a` as an argparse argument; `suppress` leaves its dest unset unless given."""
    kw = {"help": a.help}
    if a.kind == "flag":
        kw["action"] = "store_true"
    else:
        kw.update({"type": int} if a.kind == "int" else {})
        kw.update({"choices": a.choices} if a.choices else {})
        kw.update({"metavar": a.metavar} if a.metavar else {})
    if not a.flags:
        p.add_argument(a.dest, **kw)
        return
    kw.update({"required": True} if a.required else {})
    p.add_argument(*a.flags, dest=a.dest, default=argparse.SUPPRESS if suppress else a.default, **kw)


def argparse_reference() -> argparse.ArgumentParser:
    """The root parser with every command, as argparse reads `cli.COMMANDS`.
    The common options sit on the root and on each command, where they
    are set only when given."""
    root = argparse.ArgumentParser(prog="turancert")
    root.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    for a in cli.COMMON:
        _add_argument(root, a)
    sub = root.add_subparsers(dest="cmd", required=True, metavar="command",
                              parser_class=_CommandParser)
    for name, (fn, help_text, positionals, options) in cli.COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for a in cli.COMMON:
            _add_argument(p, a, suppress=True)
        for a in (*positionals, *options):
            _add_argument(p, a)
        p.set_defaults(fn=fn)
    return root


def parse_outcome(parse, argv: list) -> tuple:
    """(exit code, the namespace's attributes or None, stdout, stderr) of
    parse(argv), where a usage exit counts as code 1 and a help exit as 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = parse(list(argv))
        except SystemExit as exc:
            return (0 if exc.code == 0 else 1), None, out.getvalue(), err.getvalue()
    return 0, vars(ns), out.getvalue(), err.getvalue()
