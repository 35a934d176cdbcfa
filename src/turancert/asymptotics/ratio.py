"""Consecutive-ratio expansions a(n+1)/a(n) ~ lam * n^mu * v(n) for
P-recursive sequences, and the induced expansion of u_n.

The growth branch comes from the Newton polygon of the recurrence: the
rightmost upper-hull edge fixes mu, the edge polynomial fixes the
admissible lam values.  Correction coefficients of v are solved stage by
stage, online, by the triangular coefficient recurrence of Wimp &
Zeilberger (1985) on scalar arrays; one full residual build per solve
then checks that every slot up to the last stage cancels.  Every
candidate branch must pass an empirical ratio check on exact terms before
it is accepted (wrong branches miss by orders of magnitude, so loose
float thresholds are safe; no exactness claim rests on the check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..algebra import NumberField, Poly, isolate_real_roots
from ..sequences import Recurrence, TermTable, check_scaling
from .series import (
    AsymSeries,
    binomial_power,
    gen_binomial,
    series_inv,
    shift_series,
)


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
    v: AsymSeries
    coeffs: list
    diagnostics: dict = field(default_factory=dict)

    def growth_record(self) -> dict:
        rec: dict = {
            "lambdaApprox": float(self.lam),
            "mu": str(self.mu),
            "rho": self.rho,
        }
        if self.lam_poly is None:
            rec["lambda"] = str(Fraction(self.lam))
        else:
            rec["lambdaMinimalPolynomial"] = [
                str(Fraction(c)) for c in self.lam_poly.coeffs
            ]
            root = self.lam.field.root
            rec["lambdaInterval"] = [str(root.lo), str(root.hi)]
        if self.rho == 2 and self.coeffs and self.coeffs[0]:
            # v = 1 + c1/sqrt(n) + ... lifts to a stretched-exponential
            # factor exp(2*c1*sqrt(n)) in a(n) itself
            rec["stretchedExponential"] = {
                "form": "exp(c*sqrt(n))",
                "c": _scalar_str(2 * self.coeffs[0]),
            }
        return rec


def _scalar_str(x) -> str:
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    q = x.to_fraction()
    if q is not None:
        return str(q)
    return repr(float(x))


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


# -- stage solver -------------------------------------------------------------


def _v_shifted(cs: list, rho: int, j: int, rel_order: Fraction) -> AsymSeries:
    """v(n+j) re-expanded at n, for v = 1 + sum cs[i-1] n^{-i/rho}."""
    out = AsymSeries.one().truncate(rel_order)
    for i, c in enumerate(cs, start=1):
        e = Fraction(i, rho)
        if e >= rel_order:
            break
        if not c:
            continue
        if j == 0:
            out = out + AsymSeries.from_term(e, c)
        else:
            out = out + binomial_power(j, -e, rel_order - e).shift_exponents(e).scale(c)
    return out


def _residual(rec: Recurrence, lam, mu: Fraction, rho: int, cs: list, rel_order: Fraction) -> AsymSeries:
    """p0(n) prod_{j<d} r(n+j) - sum_k pk(n) prod_{j<d-k} r(n+j), with
    r(n) = lam n^mu v(n); absolute exponents (n^s appears as exponent -s).
    Each p_k takes the prefix product of the first d-k shifted factors."""
    d = rec.order
    prefix = [AsymSeries.one()]
    for j in range(d):
        vj = _v_shifted(cs, rho, j, rel_order)
        if j > 0:
            vj = vj * binomial_power(j, mu, rel_order)
        prefix.append((prefix[-1] * vj).truncate(rel_order))
    total = AsymSeries.zero()
    for k, p in enumerate(rec.coeffs):
        if p.is_zero():
            continue
        x = d - k
        term = AsymSeries.from_poly_in_n(p) * prefix[x]
        term = term.scale(lam**x).shift_exponents(-mu * x)
        total = total + term if k == 0 else total - term
    return total


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
                   slope, st: _Stages) -> list:
    """c_1..c_T by the triangular recurrence of Wimp & Zeilberger (1985),
    solved online on coefficient arrays indexed by the grid index k
    (exponent k/rho): v_j[k] of v(n+j), f_j = (1 + j/n)^mu v_j, and the
    prefix products P_x = P_{x-1} f_{x-1}, one new Cauchy coefficient each
    per stage.  Residual slot i is
    sum_k s_k lam^x sum_t p_k[t] P_x[i - rho(e0 - t - mu x)], x = d - k, over
    integral, non-negative indices.  It reads P_x up to index i only, and
    P_x[i] holds c_i only as x c_i, so slot i is b + slope * c_i with b built
    from c_1..c_{i-1}.  Stages kept in `st` are replayed into the arrays,
    not solved again."""
    known = len(st.cs)
    d = rec.order
    slot = []
    for k, p in enumerate(rec.coeffs):
        x = d - k
        sign_lam = lam**x if k == 0 else -(lam**x)
        for t, pt in enumerate(p.coeffs):
            off = rho * (e0 - t - mu * x)
            if pt and off.denominator == 1:
                slot.append((x, int(off), sign_lam * pt))
    # (1 + j/n)^mu puts C(mu, l) j^l at k = l rho
    binom = [[gen_binomial(mu, l) * j**l for l in range(T // rho + 1)] for j in range(d)]
    v = [[1] + [0] * T for _ in range(d)]
    f = [[1] + [0] * T for _ in range(d)]
    P = [[1] + [0] * T for _ in range(d + 1)]
    cs = []
    for i in range(1, T + 1):
        for j in range(d):
            f[j][i] = sum(binom[j][l] * v[j][i - l * rho] for l in range(i // rho + 1) if binom[j][l])
        for x in range(1, d + 1):
            P[x][i] = sum(P[x - 1][a] * f[x - 1][i - a] for a in range(i + 1))
        if i <= known:
            c = st.cs[i - 1]
        else:
            b = sum(s * P[x][i - off] for x, off, s in slot if off <= i)
            if not slope:
                if b:
                    st.resonance = i
                    raise _Resonance(i)
                c = Fraction(0)
            else:
                c = -(b / slope)
        cs.append(c)
        for j in range(d):
            v[j][i] += c
            f[j][i] += c
        for x in range(1, d + 1):
            P[x][i] += x * c
        # c_i n^{-i/rho} (1 + j/n)^{-i/rho} puts c_i C(-i/rho, l) j^l at k = i + l rho
        a, binom_l = Fraction(-i, rho), Fraction(1)
        for l in range(1, (T - i) // rho + 1):
            binom_l = binom_l * (a - l + 1) / l
            for j in range(1, d):
                v[j][i + l * rho] += c * (binom_l * j**l)
    return cs


def _solve_stages(rec: Recurrence, lam, mu: Fraction, e0: Fraction, rho: int, T: int,
                  slope, st: _Stages) -> list:
    """c_1..c_T, continuing from the checked stages kept in `st`.

    New stages come from the online recurrence of `_online_stages`; a solve
    that adds any ends with one full `_residual` build, in which every slot
    up to T must cancel identically."""
    if st.resonance is not None and st.resonance <= T:
        raise _Resonance(st.resonance)
    if len(st.cs) >= T:
        return st.cs[:T]
    cs = _online_stages(rec, lam, mu, e0, rho, T, slope, st)
    res = _residual(rec, lam, mu, rho, cs, Fraction(T + 1, rho))
    for i in range(T + 1):
        if not res.coefficient(-e0 + Fraction(i, rho)).is_zero():
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
            v = AsymSeries(
                [(Fraction(0), 1)]
                + [(Fraction(i, rho_try), c) for i, c in enumerate(cs, start=1)],
                Fraction(T + 1, rho_try),
            )
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
                    v=v,
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


def u_expansion(rx: RatioExpansion, scaling: str = "none") -> AsymSeries:
    """u_n = a(n-1)a(n+1)/a(n)^2 = r(n)/r(n-1) as a series; optional
    factorial scaling multiplies by n/(n+1)."""
    check_scaling(scaling)
    beta = rx.v.error_order
    u = binomial_power(-1, -rx.mu, beta)
    u = u * rx.v * series_inv(shift_series(rx.v, -1, beta), beta)
    if scaling == "factorial":
        u = u * binomial_power(1, -1, beta)
    return u.truncate(beta)
