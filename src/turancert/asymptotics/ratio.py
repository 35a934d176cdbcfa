"""Consecutive-ratio expansions a(n+1)/a(n) ~ lam * n^mu * v(n) for
P-recursive sequences, and the induced expansion of u_n.

The growth branch comes from the Newton polygon of the recurrence: the
rightmost upper-hull edge fixes mu, the edge polynomial fixes the
admissible lam values.  Past that point every exact step runs on grid
arrays of T + 1 scalars, entry k the coefficient of n^(-k/rho), held as
integer numerators over one positive denominator: one int list per power
lam^e of the field basis (one list for a rational lam).  The binomial row
(1 + j/n)^alpha, the shifted v(n+j), the truncated Cauchy product and the
inverse of 1 + x run on ints and take one gcd per result; the solver's
online arrays move to a common denominator only when an entry brings a
new one.  Columns that pass the field degree are folded by
`numberfield._fold`, against the modulus as it is at that call (a zero
test may split it).  Scalars (`Fraction`, `NFElem`) come in through
`_to_grid` and leave only as the solved stages, `u_grid` and
`ratio_window_grid`; each zero test that decides an outcome (resonance,
a nonzero residual slot) is made on the scalar, through `is_zero`.

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

import math
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Optional

from ..algebra import NFElem, NumberField, Poly, isolate_real_roots
from ..algebra.numberfield import _fold, _normal
from ..algebra.poly import _common_scale, _integer_window
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


class RatioExpansion:
    """a(n+1)/a(n) = lam * n^mu * v(n) with v = 1 + sum c_i n^{-i/rho} + o(...)."""

    __slots__ = ("lam", "lam_poly", "mu", "rho", "coeffs", "diagnostics")

    def __init__(self, lam, lam_poly: Optional[Poly], mu: Fraction, rho: int, coeffs: list,
                 diagnostics: Optional[dict] = None):
        self.lam, self.lam_poly, self.mu, self.rho, self.coeffs = lam, lam_poly, mu, rho, coeffs
        self.diagnostics = {} if diagnostics is None else diagnostics

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
# A grid array (planes, den) holds T + 1 scalars: entry k, the coefficient of
# n^(-k/rho), is sum_e planes[e][k] lam^e / den, den > 0.  The online arrays
# of the stage solver are the same pair in a list, so that it can grow.


def _to_grid(xs: list, K) -> tuple:
    """The scalars xs (ints, `Fraction`s, or `NFElem`s of K) as a grid array."""
    if K is None:
        nums, den = _integer_window(xs)
        return [nums], den
    pad = (0,) * (K.degree - 1)
    es = [K._reduced(x) if isinstance(x, NFElem) else _normal(K, (x.numerator,) + pad, x.denominator) for x in xs]
    scale, den = _integer_window([Fraction(1, e.den) for e in es])
    return [list(p) for p in zip(*([c * t for c in e.num] for e, t in zip(es, scale)))], den


def _grid(planes: list, den: int, K) -> tuple:
    """planes / den with any planes past the field degree (left by a split)
    folded away and one gcd taken."""
    if K is not None and len(planes) > K.degree:
        cols = [_fold(list(c), K.int_modulus, K.degree) for c in zip(*planes)]
        planes, den = [list(p) for p in zip(*(c for c, _ in cols))], den * cols[0][1]
    g = math.gcd(den, *chain.from_iterable(planes))
    return ([[c // g for c in p] for p in planes], den // g) if g > 1 else (planes, den)


def _values(g: tuple, K, nf: Optional[list] = None) -> list:
    """The scalars of a grid array: `NFElem`s in a field, save the entries k
    with nf[k] False, which are rational and become `Fraction`s."""
    planes, den = _grid(*g, K)
    if K is None:
        return [Fraction(c, den) for c in planes[0]]
    planes = planes + [[0] * len(planes[0])] * (K.degree - len(planes))
    out = [_normal(K, col, den) for col in zip(*planes)]
    return out if nf is None else [x if t else x.to_fraction() for x, t in zip(out, nf)]


def _unit(T: int) -> list:
    return [[[1] + [0] * T], 1]


def _entry(a, b, k: int, K) -> tuple:
    """Entry k of the product of grid arrays a and b (b longer than k): a
    column of numerators, folded to the field degree, and its denominator."""
    (xs, s), (ys, t) = a, b
    col = [0] * (len(xs) + len(ys) - 1)
    for e, x in enumerate(xs):
        for f, y in enumerate(ys):
            col[e + f] += sum(map(mul, x[: k + 1], y[k::-1]))
    if K is None or len(col) <= K.degree:
        return col, s * t
    col, scale = _fold(col, K.int_modulus, K.degree)
    return col, s * t * scale


def _put(g: list, k: int, col, den: int, row=(1,)) -> None:
    """Add col / den times the ints row to the online grid array g from
    entry k on, g first moving to the lcm of the denominators if den does
    not divide its own."""
    planes, D = g
    q, r = divmod(D, den)
    if r:
        g[1], s, q = _common_scale(D, den)
        planes[:] = [[c * s for c in p] for p in planes]
    if len(col) > len(planes):
        planes += [[0] * len(planes[0]) for _ in range(len(col) - len(planes))]
    for p, c in zip(planes, col):
        if c:
            c *= q
            for t, w in enumerate(row, k):
                if w:
                    p[t] += c * w


def _binomial_row(j, alpha, rho: int, T: int) -> tuple:
    """(1 + j/n)^alpha: C(alpha, l) j^l at k = l rho.  For alpha = p/q, entry
    l is j^l p(p - q)..(p - (l-1)q) / (q^l l!), built over q^L L!, L = T // rho."""
    p, q = Fraction(alpha).as_integer_ratio()
    row, num = [0] * (T + 1), 1
    den = scale = math.prod(q * t for t in range(1, T // rho + 1))
    for l, k in enumerate(range(0, T + 1, rho)):
        row[k] = num * scale
        num, scale = num * (p - l * q) * j, scale // (q * (l + 1))
    return _grid([row], den, None)


def _memo_row(rows: dict, j, alpha, rho: int, T: int) -> tuple:
    """`_binomial_row` through the memo `rows`, keyed on (j, alpha, rho):
    a row is built once, to the largest T asked, and sliced after."""
    row = rows.get((j, alpha, rho))
    if row is None or len(row[0][0]) <= T:
        row = rows[(j, alpha, rho)] = _binomial_row(j, alpha, rho, T)
    return [row[0][0][: T + 1]], row[1]


def _shifted(cs: tuple, rho: int, j: int, rows: dict, K) -> tuple:
    """v(n+j) for the grid array cs of v = 1 + sum c_i n^{-i/rho}: the sum of
    c_i (1 + j/n)^{-i/rho} from entry i on."""
    planes, D = cs
    T = len(planes[0]) - 1
    out = [[[0] * (T + 1)], 1]
    for i, col in enumerate(zip(*planes)):
        if any(col):
            (row,), R = _memo_row(rows, j, Fraction(-i, rho), rho, T - i)
            _put(out, i, col, D * R, row)
    return _grid(*out, K)


def _grid_series(a: list, rho: int) -> AsymSeries:
    """The scalars a of a grid array as a series, to its error order len(a)/rho."""
    return AsymSeries([(Fraction(k, rho), c) for k, c in enumerate(a)], Fraction(len(a), rho))


def _mul(a: tuple, b: tuple, K) -> tuple:
    """Truncated Cauchy product of two grid arrays of one length."""
    cols = [_entry(a, b, k, K) for k in range(len(b[0][0]))]
    return _grid([list(p) for p in zip(*(c for c, _ in cols))], cols[0][1], K)


def _inv(a: tuple, K) -> tuple:
    """1/a for the grid array a = 1 + x: out[k] = -sum x[m] out[k - m], m >= 1."""
    planes, den = a
    x, out = ([[0] + p[1:] for p in planes], den), _unit(len(planes[0]) - 1)
    for k in range(1, len(planes[0])):
        col, d = _entry(x, out, k, K)
        _put(out, k, [-c for c in col], d)
    return _grid(*out, K)


# -- stage solver -------------------------------------------------------------


def _slot_terms(rec: Recurrence, lam, mu: Fraction, e0: Fraction, rho: int, T: int) -> list:
    """(x, S_x) per shift count x = d - k with a term on the grid, S_x the
    grid array of s_k lam^x p_k[t] at off = rho(e0 - t - mu x), for each
    integral off <= T: with r(n) = lam n^mu v(n), residual slot i
    (absolute exponent -e0 + i/rho) is the sum over x of entry i of
    S_x P_x, where P_x = prod_{j<x} (1 + j/n)^mu v(n+j)."""
    K, d = getattr(lam, "field", None), rec.order
    powers = [1]
    for _ in range(d):
        powers.append(powers[-1] * lam)
    out = []
    for k, p in enumerate(rec.coeffs):
        x = d - k
        terms = {}
        for t, pt in enumerate(p.coeffs):
            off = rho * (e0 - t - mu * x)
            if pt and off.denominator == 1 and off <= T:
                terms[int(off)] = powers[x] * (pt if k == 0 else -pt)
        if terms:
            out.append((x, _to_grid([terms.get(i, 0) for i in range(T + 1)], K)))
    return out


def _slot(slots: list, arrays: list, i: int, K) -> list:
    """Residual slot i, the sum over x of entry i of S_x arrays[x], as a
    one-entry online grid array."""
    acc = [[[0]], 1]
    for x, s in slots:
        _put(acc, 0, *_entry(s, arrays[x], i, K))
    return acc


def _residual_slots(rec: Recurrence, lam, mu: Fraction, e0: Fraction, rho: int, cs: tuple,
                    rows: Optional[dict] = None) -> list:
    """Residual slots 0..T as scalars, for the grid array cs of
    [1, c_1..c_T], rebuilt by whole grid products, none of the online
    solver's arrays; binomial rows come from the memo `rows`, fresh if
    none is given."""
    K = getattr(lam, "field", None)
    T = len(cs[0][0]) - 1
    rows = {} if rows is None else rows
    prefix = [_unit(T)]
    for j in range(rec.order):
        f = _mul(_memo_row(rows, j, mu, rho, T), _shifted(cs, rho, j, rows, K), K)
        prefix.append(_mul(prefix[-1], f, K))
    slots = _slot_terms(rec, lam, mu, e0, rho, T)
    return [_values(_slot(slots, prefix, i, K), K)[0] for i in range(T + 1)]


class _Stages:
    """Checked stages of one (root, rho) try, their floats, and any resonant stage."""

    __slots__ = ("cs", "floats", "resonance")

    def __init__(self):
        self.cs: list = []
        self.floats: list = []
        self.resonance: Optional[int] = None


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
                   slope, st: _Stages, rows: dict) -> tuple:
    """The grid array [1, c_1..c_T] by the triangular recurrence of Wimp &
    Zeilberger (1985), solved online on grid arrays: v_j of v(n+j),
    f_j = (1 + j/n)^mu v_j, and the prefix products P_x = P_{x-1} f_{x-1},
    one new Cauchy coefficient each per stage.  Slot i (`_slot_terms`)
    reads P_x up to index i only, and P_x[i] holds c_i only as x c_i, so
    slot i is b + slope * c_i with b built from c_1..c_{i-1}.  Stages kept
    in `st` are replayed into the arrays, not solved again.  Binomial rows
    come from the memo `rows`.  The array of v itself is v_0, f_0 and P_1."""
    K = getattr(lam, "field", None)
    d = rec.order
    slots = _slot_terms(rec, lam, mu, e0, rho, T)
    binom = [_memo_row(rows, j, mu, rho, T) for j in range(d)]
    known, kden = _to_grid([1] + st.cs, K)
    step = _to_grid([-1 / slope], K) if slope else None
    cs = _unit(T)
    v, f = [cs] + [_unit(T) for _ in range(1, d)], [cs] + [_unit(T) for _ in range(1, d)]
    P = [_unit(T), cs] + [_unit(T) for _ in range(2, d + 1)]
    for i in range(1, T + 1):
        for j in range(1, d):
            _put(f[j], i, *_entry(binom[j], v[j], i, K))
        for x in range(2, d + 1):
            _put(P[x], i, *_entry(P[x - 1], f[x - 1], i, K))
        if i <= len(st.cs):
            col, den = [p[i] for p in known], kden
        elif step is None:
            if _values(_slot(slots, P, i, K), K)[0]:
                st.resonance = i
                raise _Resonance(i)
            col, den = [0], 1
        else:
            col, den = _entry(_slot(slots, P, i, K), step, 0, K)
            g = math.gcd(den, *col)
            col, den = [c // g for c in col], den // g
        _put(cs, i, col, den)
        for j in range(1, d):
            (row,), R = _memo_row(rows, j, Fraction(-i, rho), rho, T - i)
            _put(v[j], i, col, den * R, row)
            _put(f[j], i, col, den)
        for x in range(2, d + 1):
            _put(P[x], i, [x * c for c in col], den)
    return _grid(*cs, K)


def _solve_stages(rec: Recurrence, lam, mu: Fraction, e0: Fraction, rho: int, T: int,
                  slope, st: _Stages) -> list:
    """c_1..c_T, continuing from the checked stages kept in `st`.

    New stages come from the online recurrence of `_online_stages`.  A
    solve that adds any ends by rebuilding every residual slot 0..T from
    the final c_1..c_T with whole grid products (`_residual_slots`), so a
    slip in the online arrays shows; each slot must be exactly 0.  The two
    share one memo of binomial rows, so each row is built once per solve.
    New stages leave as scalars: `NFElem`s in a number field, except under
    a zero slope, where every stage is a `Fraction` 0."""
    if st.resonance is not None and st.resonance <= T:
        raise _Resonance(st.resonance)
    if len(st.cs) >= T:
        return st.cs[:T]
    rows: dict = {}
    cs = _online_stages(rec, lam, mu, e0, rho, T, slope, st, rows)
    for i, r in enumerate(_residual_slots(rec, lam, mu, e0, rho, cs, rows)):
        if r:
            raise ExpansionError(f"internal: residual slot {i} does not vanish after stage solve")
    new = _values(cs, getattr(lam, "field", None), [bool(slope)] * (T + 1))[len(st.cs) + 1 :]
    st.floats += [float(c) for c in new]
    st.cs = st.cs + new
    return st.cs


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
    raise ExpansionError("no growth branch matches the exact terms", diagnostics)


# -- induced expansions ----------------------------------------------------------


def _nonzero(g: tuple, K) -> list:
    """The nonzero entries of a grid array: by their numerators where no
    split can hide a zero, else by the field's zero test."""
    if K is None or K.known_irreducible:
        return [any(c) for c in zip(*g[0])]
    return [bool(x) for x in _values(g, K)]


def _types(za: list, ta: list, zb: list, tb: Optional[list] = None) -> list:
    """The entries of a product that scalar arithmetic skipping zero entries
    makes `NFElem`s: where two nonzero entries meet, one an `NFElem` (z
    flags the nonzero entries, t the `NFElem`s).  With tb None, those of
    the inverse of a = 1 + x, zb flagging the inverse's nonzero entries."""
    out: list = []
    if not any(ta) and not any(tb or ()):
        return [False] * len(zb)
    for k in range(len(zb)):
        t, lo = (out, 1) if tb is None else (tb, 0)
        out.append(any(za[m] and zb[k - m] and (ta[m] or t[k - m]) for m in range(lo, k + 1)))
    return out


def u_grid(rx: RatioExpansion, scaling: str = "none") -> list:
    """u_n = a(n-1)a(n+1)/a(n)^2 = r(n)/r(n-1) = (1 - 1/n)^(-mu) v(n)/v(n-1)
    as a grid array of T + 1 scalars, T = len(rx.coeffs), entry k the
    coefficient of n^(-k/rho); factorial scaling multiplies by
    n/(n+1) = (1 + 1/n)^(-1).  Each entry is an `NFElem` or a `Fraction`
    as scalar arithmetic skipping zero entries makes it (`_types`), since
    the JSON form shows the type."""
    check_scaling(scaling)
    K, rho, n = getattr(rx.lam, "field", None), rx.rho, len(rx.coeffs) + 1
    cs = _to_grid([1] + rx.coeffs, K)
    s = _shifted(cs, rho, -1, {}, K)
    inv, rational = _inv(s, K), [False] * n
    tc = [False] + [isinstance(c, NFElem) for c in rx.coeffs]
    ts = _types([False] + _nonzero(cs, K)[1:], tc, [k % rho == 0 for k in range(n)], rational)
    factors = [(cs, tc), (inv, _types(_nonzero(s, K), ts, _nonzero(inv, K)))]
    if scaling == "factorial":
        factors.append((_binomial_row(1, -1, rho, n - 1), rational))
    u, t = _binomial_row(-1, -rx.mu, rho, n - 1), rational
    for g, tg in factors:
        t = _types(_nonzero(u, K), t, _nonzero(g, K), tg)
        u = _mul(u, g, K)
    return _values(u, K, t)


def u_expansion(rx: RatioExpansion, scaling: str = "none") -> AsymSeries:
    """`u_grid` as a series, to v's error order (T + 1)/rho."""
    return _grid_series(u_grid(rx, scaling), rx.rho)


def ratio_window_grid(rx: RatioExpansion, T: int) -> list:
    """a(n)/a(n-1) over lam n^mu, that is (1 - 1/n)^mu v(n-1), as a grid
    array of T + 1 scalars from c_1..c_T (zero past the expansion)."""
    K = getattr(rx.lam, "field", None)
    cs = _to_grid(([1] + rx.coeffs + [0] * T)[: T + 1], K)
    return _values(_mul(_binomial_row(-1, rx.mu, rx.rho, T), _shifted(cs, rx.rho, -1, {}, K), K), K)
