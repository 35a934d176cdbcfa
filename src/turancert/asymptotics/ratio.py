"""Consecutive-ratio expansions a(n+1)/a(n) ~ lam * n^mu * v(n) for
P-recursive sequences, and the induced expansion of u_n.

The growth branch comes from the Newton polygon of the recurrence: the
rightmost upper-hull edge fixes mu, the edge polynomial fixes the
admissible lam values.  Past that point every exact step runs on grid
arrays: plain lists of T + 1 scalars (`Fraction` or `NFElem`, whatever lam
brings), entry k the coefficient of n^(-k/rho).  Four helpers do all of
their arithmetic: the binomial row (1 + j/n)^alpha, the shifted v(n+j), the
truncated Cauchy product and the inverse of 1 + x.

Correction coefficients of v are solved stage by stage, online, by the
triangular coefficient recurrence of Wimp & Zeilberger (1985); a solve
that adds stages then rebuilds every residual slot from the final
coefficients by whole-array products, and each slot must be exactly 0.
`u_grid` runs on the same arrays.  An `AsymSeries` is built only on
demand, by `_grid_series`: the v of a `RatioExpansion` and the u-series
of `u_expansion`.  Every candidate branch must pass an empirical ratio
check on exact terms before it is accepted (wrong branches miss by orders
of magnitude, so loose float thresholds are safe; no exactness claim
rests on the check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..algebra import NumberField, Poly, isolate_real_roots
from ..sequences import Recurrence, TermTable, check_scaling
from .series import AsymSeries


class ExpansionError(RuntimeError):
    """No admissible growth branch fits the recurrence."""

    def __init__(self, message: str, details: Optional[dict] = None):
        super().__init__(message)
        self.details = details or {}


class _Resonance(Exception):
    def __init__(self, stage: int):
        self.stage = stage


@dataclass
class RatioExpansion:
    """a(n+1)/a(n) = lam * n^mu * v(n) with v = 1 + sum c_i n^{-i/rho} + o(...)."""

    lam: object
    lam_poly: Optional[Poly]
    mu: Fraction
    rho: int
    coeffs: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def v(self) -> AsymSeries:
        """v as a series, to the error order (T + 1)/rho, built on each read."""
        return _grid_series([Fraction(1)] + self.coeffs, self.rho)


# -- Newton polygon ---------------------------------------------------------


def newton_points(rec: Recurrence) -> list:
    """(shift count, coefficient degree) per nonzero recurrence coefficient."""
    d = rec.order
    return [(d - k, p.degree) for k, p in enumerate(rec.coeffs) if not p.is_zero()]


def _upper_hull(points: list) -> list:
    pts = sorted(points)
    hull: list = []
    for p in pts:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def dominant_edge(rec: Recurrence) -> tuple:
    """(mu, E0, on-edge term indices) for the fastest-growing branch."""
    pts = newton_points(rec)
    if len(pts) < 2:
        raise ExpansionError(
            "recurrence has a single nonzero coefficient; no ratio branch exists"
        )
    hull = _upper_hull(pts)
    if len(hull) == 1:
        raise ExpansionError("degenerate Newton polygon")
    (x1, m1), (x2, m2) = hull[-2], hull[-1]
    mu = -Fraction(m2 - m1, x2 - x1)
    e0 = Fraction(m2) + mu * x2
    d = rec.order
    on_edge = [
        k
        for k, p in enumerate(rec.coeffs)
        if not p.is_zero() and Fraction(p.degree) + mu * (d - k) == e0
    ]
    return mu, e0, on_edge


def edge_polynomial(rec: Recurrence, mu: Fraction, on_edge: list) -> Poly:
    """Leading-balance polynomial in lam; its positive roots are the
    admissible growth constants for the chosen edge."""
    d = rec.order
    x_min = min(d - k for k in on_edge)
    coeffs = [Fraction(0)] * (d - x_min + 1)
    for k in on_edge:
        sign = 1 if k == 0 else -1
        coeffs[(d - k) - x_min] += sign * rec.coeffs[k].leading()
    return Poly(coeffs)


# -- grid arrays ----------------------------------------------------------------
#
# A grid array holds T + 1 scalars; entry k is the coefficient of n^(-k/rho).


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


def _grid_series(a: list, rho: int) -> AsymSeries:
    """The grid array a as a series, to its error order len(a)/rho."""
    return AsymSeries([(Fraction(k, rho), c) for k, c in enumerate(a)], Fraction(len(a), rho))


def _terms(a: list) -> list:
    """(k, scalar) for each nonzero entry of a grid array."""
    return [(k, x) for k, x in enumerate(a) if x]


def _coef(terms, b: list, i: int):
    """Coefficient i of a * b, with a given by (k, scalar) terms."""
    return sum(x * b[i - m] for m, x in terms if m <= i)


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


# -- stage solver -------------------------------------------------------------


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


@dataclass
class _Stages:
    """Checked stages of one (root, rho) try, their floats, and any resonant stage."""

    cs: list = field(default_factory=list)
    floats: list = field(default_factory=list)
    resonance: Optional[int] = None


def _branch(root, rec: Recurrence, on_edge: list) -> tuple:
    """(lam, lam_poly, approx, float(lam), slope, stages per rho) for an edge root.

    The slope is the coefficient of c_i in residual slot i at every stage:
    sum_k s_k lc(p_k) (d-k) lam^(d-k) over the edge, s_0 = +1 and s_k = -1
    otherwise.  It is lam^(x_min+1) E'(lam), zero exactly at a multiple root."""
    if root.is_rational():
        lam, lam_poly = root.as_fraction(), None
    else:
        nf = NumberField(root)
        lam, lam_poly = nf.generator(), nf.modulus
    d = rec.order
    slope = sum((1 if k == 0 else -1) * rec.coeffs[k].leading() * (d - k) * lam ** (d - k) for k in on_edge)
    return lam, lam_poly, root.approx(), float(lam), slope, {}


def _online_stages(rec: Recurrence, lam, mu: Fraction, e0: Fraction, rho: int, T: int,
                   slope, st: _Stages, rows: dict) -> list:
    """c_1..c_T by the triangular recurrence of Wimp & Zeilberger (1985),
    solved online on grid arrays: v_j of v(n+j), f_j = (1 + j/n)^mu v_j,
    and the prefix products P_x = P_{x-1} f_{x-1}, one new Cauchy
    coefficient each per stage.  Slot i (`_slot_terms`) reads P_x up to
    index i only, and P_x[i] holds c_i only as x c_i, so slot i is
    b + slope * c_i with b built from c_1..c_{i-1}.  Stages kept in `st`
    are replayed into the arrays, not solved again.  Binomial rows come
    from the memo `rows`."""
    known = len(st.cs)
    d = rec.order
    slots = _slot_terms(rec, lam, mu, e0, rho)
    binom = [_terms(_memo_row(rows, j, mu, rho, T)) for j in range(d)]
    v = [[Fraction(1)] + [Fraction(0)] * T for _ in range(d)]
    f = [[Fraction(1)] + [Fraction(0)] * T for _ in range(d)]
    P = [[Fraction(1)] + [Fraction(0)] * T for _ in range(d + 1)]
    cs = []
    for i in range(1, T + 1):
        for j in range(d):
            f[j][i] = _coef(binom[j], v[j], i)
        for x in range(1, d + 1):
            P[x][i] = _coef(enumerate(P[x - 1][: i + 1]), f[x - 1], i)
        if i <= known:
            c = st.cs[i - 1]
        else:
            b = sum(s * P[x][i - off] for x, off, s in slots if off <= i)
            if not slope:
                if b:
                    st.resonance = i
                    raise _Resonance(i)
                c = Fraction(0)
            else:
                c = -(b / slope)
        cs.append(c)
        for j in range(d):
            _add_shifted(v[j], c, i, j, rho, rows)
            f[j][i] += c
        for x in range(1, d + 1):
            P[x][i] += x * c
    return cs


def _solve_stages(rec: Recurrence, lam, mu: Fraction, e0: Fraction, rho: int, T: int,
                  slope, st: _Stages) -> list:
    """c_1..c_T, continuing from the checked stages kept in `st`.

    New stages come from the online recurrence of `_online_stages`.  A
    solve that adds any ends by rebuilding every residual slot 0..T from
    the final c_1..c_T with whole grid products (`_residual_slots`), so a
    slip in the online arrays shows; each slot must be exactly 0.  The two
    share one memo of binomial rows, so each row is built once per solve."""
    if st.resonance is not None and st.resonance <= T:
        raise _Resonance(st.resonance)
    if len(st.cs) >= T:
        return st.cs[:T]
    rows: dict = {}
    cs = _online_stages(rec, lam, mu, e0, rho, T, slope, st, rows)
    for i, r in enumerate(_residual_slots(rec, lam, mu, e0, rho, cs, rows)):
        if r:
            raise ExpansionError(f"internal: residual slot {i} does not vanish after stage solve")
    st.floats += [float(c) for c in cs[len(st.cs):]]
    st.cs = cs
    return cs


# -- branch acceptance ---------------------------------------------------------


def _ratio_checkpoint(table: TermTable, n: int) -> Optional[tuple]:
    limit = n + 50
    while table.value(n) == 0 or table.value(n + 1) == 0:
        n += 1
        if n > limit:
            return None
    return n, table.value(n + 1) / table.value(n)


def _empirical_residuals(table: TermTable, lamf, mu: Fraction, rho: int, floats: list) -> list:
    muf = float(mu)
    out = []
    for n0 in (40, 80):
        point = _ratio_checkpoint(table, n0)
        if point is None:
            return [float("inf"), float("inf")]
        n, exact = point
        v = 1.0 + sum(c * float(n) ** (-i / rho) for i, c in enumerate(floats, start=1))
        pred = lamf * float(n) ** muf * v
        if pred == 0:
            return [float("inf"), float("inf")]
        out.append(abs(float(exact) - pred) / abs(pred))
    return out


def _positive_roots_desc(char: Poly) -> list:
    roots = isolate_real_roots(char)
    pos = []
    for r in roots:
        while r.lo < 0 < r.hi:
            r.refine()
        if r.lo >= 0 and not (r.is_rational() and r.as_fraction() == 0):
            pos.append(r)
    pos.reverse()
    return pos


def ratio_expansion(
    rec: Recurrence,
    K: int,
    rho: Optional[int] = None,
    table: Optional[TermTable] = None,
) -> RatioExpansion:
    """Expand a(n+1)/a(n) to K correction orders past the growth term.

    Edge roots and solved stages are kept on `table`, per (recurrence, rho)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if table is None:
        table = TermTable(rec)
    if (rec, rho) not in table.expansions:
        mu, e0, on_edge = dominant_edge(rec)
        char = edge_polynomial(rec, mu, on_edge)
        table.expansions[(rec, rho)] = mu, e0, char, [_branch(r, rec, on_edge) for r in _positive_roots_desc(char)]
    mu, e0, char, roots = table.expansions[(rec, rho)]
    diagnostics: dict = {
        "newtonPoints": newton_points(rec),
        "mu": str(mu),
        "edgePolynomial": [str(c) for c in char.coeffs],
        "branches": [],
    }
    if not roots:
        raise ExpansionError(
            "edge polynomial has no positive real root; the dominant balance "
            "is not a positive growth branch",
            diagnostics,
        )
    rho_base = rho if rho is not None else mu.denominator
    rho_options = (rho_base,) if rho is not None else (rho_base, 2 * rho_base, 4 * rho_base)
    for lam, lam_poly, approx, lamf, slope, tries in roots:
        entry: dict = {"lambdaApprox": approx}
        for rho_try in rho_options:
            T = K * rho_try
            st = tries.setdefault(rho_try, _Stages())
            try:
                cs = _solve_stages(rec, lam, mu, e0, rho_try, T, slope, st)
            except _Resonance as res:
                entry["status"] = f"resonance at stage {res.stage} with rho={rho_try}"
                continue
            res40, res80 = _empirical_residuals(table, lamf, mu, rho_try, st.floats[:T])
            entry["residuals"] = (res40, res80)
            if res80 < 1e-3 and res80 <= 0.75 * res40 + 1e-12:
                entry["status"] = "accepted"
                diagnostics["branches"].append(entry)
                return RatioExpansion(
                    lam=lam,
                    lam_poly=lam_poly,
                    mu=mu,
                    rho=rho_try,
                    coeffs=cs,
                    diagnostics=diagnostics,
                )
            entry["status"] = "rejected by exact-term comparison"
            break
        diagnostics["branches"].append(dict(entry))
    raise ExpansionError(
        "no growth branch matches the exact terms; if every branch reports "
        "resonance, retry with an explicit larger rho",
        diagnostics,
    )


# -- induced expansions ----------------------------------------------------------


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


def u_expansion(rx: RatioExpansion, scaling: str = "none") -> AsymSeries:
    """`u_grid` as a series, to v's error order (T + 1)/rho."""
    return _grid_series(u_grid(rx, scaling), rx.rho)
