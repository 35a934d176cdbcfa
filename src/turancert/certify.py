"""Finite certificates for the cubic Turan inequality.

The pipeline turns an asymptotic ratio expansion into unconditional,
finitely checkable claims:

1. Two-sided rational bounds s_l(n) <= a(n)/a(n-1) <= s_u(n), proved by a
   window induction on the recurrence with an exactly checked base segment.
2. A u-window g(n) <= u_n <= f(n) discharged symbolically from the ratio
   bounds (u_n is a quotient of consecutive ratios).
3. Four corner polynomials: values of the two-variable form
   t(x, y) = 4(1-x)(1-y) - (1-xy)^2 at the corners of the rectangle
   [g(n), f(n)] x [g(n+1), f(n+1)].  t is concave in each variable, so its
   minimum over the rectangle sits at a corner; positive corners beyond
   explicit thresholds prove the inequality for all larger n.
4. An exactly evaluated initial segment covering every index below the
   thresholds, with violations listed rather than hidden.

Everything is exact rational arithmetic; no step trusts the asymptotic
expansion beyond the inductively proved windows.

Each inequality that a threshold is taken of (the corners, the induction
steps, the discharge) is built as one unnormalised fraction
(`algebra.ratfunc._Frac`) and normalised to its canonical `RatFunc` once,
right before its threshold or its place in a certificate.  The canonical
pair is unique, so this gives the same polynomials, thresholds and bytes
as normalising after every operation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import ClassVar, NamedTuple, Optional

from . import __version__
from .algebra import (
    Poly,
    RatFunc,
    eventual_positivity_threshold,
    limit_at_infinity,
    rationalize,
    sign_at_infinity,
)
from .algebra.poly import _integer_coeffs
from .algebra.ratfunc import _Frac
from .asymptotics import RatioExpansion, ratio_expansion
from .asymptotics.ratio import ratio_window_grid, u_grid
from .render import frac_str, ratfunc_to_json
from .sequences import (
    Recurrence,
    TermTable,
    _escape,
    check_inequality_range,
    check_scaling,
    first_escape,
    scale_window,
)

# indices of exact terms a certificate may scan for its ratio induction: the
# induction threshold must lie below it, and the base window within it past
# the threshold
BASE_SCAN_BUDGET = 10000
U_WINDOW_SPAN = 2000  # indices past validFrom that a u-window certificate rechecks


class CertifyError(RuntimeError):
    """Raised when a certificate cannot be established at the given order."""


class CornerError(CertifyError):
    """A corner of a sound u-window is not eventually positive, so the
    window does not settle the cubic Turan inequality."""


def _ept(r: RatFunc, what: str) -> int:
    """Eventual positivity threshold of `what`, mapped onto CertifyError."""
    if sign_at_infinity(r) <= 0:
        raise CertifyError(f"required inequality is not eventually positive: {what}")
    return eventual_positivity_threshold(r)


def turan_form(x, y):
    """t(x, y) = 4(1-x)(1-y) - (1-xy)^2 on exact scalars, RatFuncs or `_Frac`s."""
    w = 1 - x * y
    return 4 * (1 - x) * (1 - y) - w * w


# -- ratio bounds ---------------------------------------------------------------


class RatioBounds(NamedTuple):
    """Certified window s_l(n) <= a(n)/a(n-1) <= s_u(n) for all n > valid_from."""

    lam: Fraction
    mu: int
    lower: RatFunc
    upper: RatFunc
    valid_from: int


def _ratio_window_functions(rx: RatioExpansion, order: int):
    """a(n)/a(n-1) = lam n^mu (1 - 1/n)^mu v(n-1) to order - 1 corrections,
    plus unit slack, read off the expansion's grid arrays: entry k of
    (1 - 1/n)^mu v(n-1) is the coefficient of lam n^(mu - k)."""
    if rx.rho != 1:
        raise CertifyError(
            "certification needs an expansion on the integer exponent grid"
        )
    if not isinstance(rx.lam, Fraction):
        raise CertifyError("certification needs a rational growth constant")
    mu = rx.mu
    if mu.denominator != 1:
        raise CertifyError("certification needs an integer power correction")
    mu = int(mu)

    T = order - 1
    w = ratio_window_grid(rx, T)
    mid = [(mu - k, rx.lam * c) for k, c in enumerate(w)]
    slack = mu - T
    return RatFunc.laurent(mid + [(slack, -1)]), RatFunc.laurent(mid + [(slack, 1)]), mu


def certify_ratio_bounds(
    table: TermTable, order: int = 4, rx: Optional[RatioExpansion] = None
) -> RatioBounds:
    """Prove two-sided bounds on consecutive-term ratios by window induction.

    The recurrence is rewritten as r(n+d) = q_1(n) + sum_k q_k(n) / prod of
    the d-1 previous ratios.  Once every q_k has settled sign and the bound
    functions discharge the induction step symbolically, a scan finds d-1
    consecutive exactly in-window ratios to start the induction.  The upper
    and lower steps bound r(n+d) through the window of the ratios before it.
    """
    rec = table.rec
    if rx is None:
        rx = ratio_expansion(rec, order, table=table)
    s_l, s_u, mu = _ratio_window_functions(rx, order)

    n1 = _induction_threshold(rec, s_l, s_u)
    if n1 >= BASE_SCAN_BUDGET:
        raise CertifyError(
            f"the ratio induction starts past n = {n1}, beyond the "
            f"{BASE_SCAN_BUDGET} indices a base scan covers"
        )
    # for d = 1, r(n+1) = q_1(n) exactly, so the step covers every n+1 with n > n1
    d = rec.order
    valid_from = n1 + 1 if d == 1 else _base_window(table, s_l, s_u, n1 + 2, d) - 1
    return RatioBounds(rx.lam, mu, s_l, s_u, valid_from)


def _induction_threshold(rec: Recurrence, s_l: RatFunc, s_u: RatFunc) -> int:
    """An n1 past which s_l > 0, every q_k = p_k/p_0 has its eventual sign
    and both induction steps hold: d - 1 consecutive ratios inside the
    window [s_l, s_u] at n+1 .. n+d-1, n > n1, put r(n+d) inside it too."""
    return max(
        _ept(r, what) if what else eventual_positivity_threshold(r)
        for r, what in _induction_inequalities(rec, s_l, s_u)
    )


def _induction_inequalities(rec: Recurrence, s_l: RatFunc, s_u: RatFunc):
    """Yield (r, what) for each r > 0 that `_induction_threshold` needs, in
    the order it checks them: s_l, |q_k| for q_k != 0 (what is None, the
    sign being known), the upper and lower step.  The steps and running
    products are unnormalised `_Frac`s, and each r is normalised once, when
    it is yielded.
    """
    yield s_l, "s_l(n)"
    d = rec.order
    # the p_k are cleared jointly, so q_k = p_k/p_0 keeps its scale
    p0, *ps = (_Frac(cs, {}) for cs in _integer_coeffs(rec.coeffs))
    q = [p / p0 for p in ps]
    L, U = _Frac.of(s_l), _Frac.of(s_u)

    # over_small and over_large run over 1/s_l(n+d-j) and 1/s_u(n+d-j), j < k;
    # the upper step divides q_k > 0 by the small product, q_k < 0 by the large.
    upper_step = lower_step = q[0]
    over_small = over_large = _Frac((1,), {})
    for k in range(2, d + 1):
        over_small = over_small / L.shift(d - k + 1)
        over_large = over_large / U.shift(d - k + 1)
        qk = q[k - 1].normal()
        sk = sign_at_infinity(qk)
        if sk == 0:
            continue
        yield (qk if sk > 0 else -qk), None
        hi, lo = (over_small, over_large) if sk > 0 else (over_large, over_small)
        upper_step = upper_step + q[k - 1] * hi
        lower_step = lower_step + q[k - 1] * lo

    yield (U.shift(d) - upper_step).normal(), "s_u(n+d) - upper step"
    yield (lower_step - L.shift(d)).normal(), "lower step - s_l(n+d)"


def _base_window(table: TermTable, s_l: RatFunc, s_u: RatFunc, start: int, d: int) -> int:
    """The first m in [start, start + BASE_SCAN_BUDGET) with s_l(j) <=
    a(j)/a(j-1) <= s_u(j) for every j in [m, m + d - 2].  Each m is an
    `_escape` scan with k = 2; after an escape at n, every m up to n fails
    at n too, so the next m tried is n + 1."""
    m = start
    while m < start + BASE_SCAN_BUDGET:
        n = _escape(table, s_l, s_u, m, m + d - 2, 2)
        if n is None:
            return m
        m = n + 1
    raise CertifyError(
        f"no base window of {d - 1} in-window ratios within "
        f"{BASE_SCAN_BUDGET} indices past {start}; retry with a larger order"
    )


# -- u window -------------------------------------------------------------------


class UBounds(NamedTuple):
    """Certified window g(n) <= u_n <= f(n) for all n > valid_from."""

    lower: RatFunc
    upper: RatFunc
    valid_from: int
    slack_exponent: Fraction
    kept: dict


def u_bound_functions(u: list, order: int):
    """Window functions from the u-grid of an expansion on the integer grid
    (`u_grid`, entry k the coefficient of n^-k): kept terms, rounded outward.

    Keeps the nonzero entries 0 < k < order-1, rounds them outward to
    multiples of 1/ROUND_DEN (10^-6), and adds a unit slack at the last kept
    exponent (or at order-1 if none is kept).
    """
    kept = {
        Fraction(k): (rationalize(c, "down"), rationalize(c, "up"))
        for k, c in enumerate(u[: order - 1])
        if k and c
    }
    slack_exp = max(kept, default=Fraction(order - 1))

    def build(side, slack_sign):
        terms = [(0, 1)] + [(-int(e), pair[side]) for e, pair in kept.items()]
        return RatFunc.laurent(terms + [(-int(slack_exp), slack_sign)])

    return build(0, -1), build(1, +1), slack_exp, kept


def certify_u_bounds(table: TermTable, order: int = 4) -> tuple:
    """Certified two-sided u_n window, discharged from the ratio window.

    u_n = r(n+1)/r(n) with r(n) = a(n)/a(n-1), so with positive ratio
    bounds s_l <= r <= s_u the quotient is sandwiched by
    s_l(n+1)/s_u(n) and s_u(n+1)/s_l(n).  The pair is kept on `table`,
    per order.
    """
    if order not in table.u_bounds:
        rx = ratio_expansion(table.rec, order, table=table)
        rb = certify_ratio_bounds(table, order, rx)
        g, f, slack_exp, kept = u_bound_functions(u_grid(rx), order)
        n2 = max(_discharge_threshold(rb.lower, rb.upper, g, f), rb.valid_from)
        table.u_bounds[order] = rb, UBounds(g, f, n2, slack_exp, kept)
    return table.u_bounds[order]


def _discharge_threshold(s_l: RatFunc, s_u: RatFunc, g: RatFunc, f: RatFunc) -> int:
    """An n2 past which g(n) < s_l(n+1)/s_u(n) and s_u(n+1)/s_l(n) < f(n)."""
    return max(_ept(r, what) for r, what in _discharge_inequalities(s_l, s_u, g, f))


def _discharge_inequalities(s_l: RatFunc, s_u: RatFunc, g: RatFunc, f: RatFunc):
    """Yield (r, what) for the two r > 0 of `_discharge_threshold`, in its
    order, each built as one `_Frac` and normalised once."""
    L, U = _Frac.of(s_l), _Frac.of(s_u)
    yield (_Frac.of(f) - U.shift(1) / L).normal(), "f(n) - s_u(n+1)/s_l(n)"
    yield (L.shift(1) / U - _Frac.of(g)).normal(), "s_l(n+1)/s_u(n) - g(n)"


def scaled_bounds(ub: UBounds, scaling: str) -> UBounds:
    """The u-window under `scaling`, by `scale_window`."""
    lower, upper = scale_window(ub.lower, ub.upper, scaling)
    return ub._replace(lower=lower, upper=upper)


# -- corner polynomials and the certificate ------------------------------------


def corner_polynomial(g: RatFunc, f: RatFunc, corner: int) -> RatFunc:
    """t at corner `corner` of [g(n), f(n)] x [g(n+1), f(n+1)].

    Corners are numbered 0..3 as (g,g), (g,f), (f,g), (f,f), the second
    coordinate shifted to n+1.  t is taken on unnormalised `_Frac`s, so with
    x = a/b and y = c/d the value is (4(b-a)(d-c)bd - (bd-ac)^2)/(bd)^2,
    normalised by one gcd.
    """
    if corner not in (0, 1, 2, 3):
        raise ValueError("corner must be in 0..3")
    x = _Frac.of(g if corner < 2 else f)
    y = _Frac.of(g if corner % 2 == 0 else f).shift(1)
    return turan_form(x, y).normal()


def corner_suite(g: RatFunc, f: RatFunc) -> list:
    """All four corner polynomials with eventual positivity thresholds."""
    out = []
    for corner in range(4):
        poly = corner_polynomial(g, f, corner)
        if sign_at_infinity(poly) <= 0:
            raise CornerError(
                f"corner {corner} of the u-window is not eventually positive; "
                "either the window is too wide or the form is negative on it"
            )
        out.append({"value": poly, "threshold": eventual_positivity_threshold(poly)})
    return out


def _recurrence_fields(rec: Recurrence) -> dict:
    """The "coeffs" and "initials" of a certificate's "sequence" block."""
    return {"coeffs": [[frac_str(c) for c in p.coeffs] for p in rec.coeffs],
            "initials": [frac_str(v) for v in rec.initials]}


class Certificate:
    """What every certificate kind proves: the ratio window and the u-window.

    `to_json` writes this shared head (tool version, kind, sequence, order,
    ratio bounds, u bounds) and then the kind's own fields from `_tail`.
    """

    __slots__ = ("rec", "scaling", "order", "ratio", "bounds")
    kind: ClassVar[str]

    def __init__(self, rec: Recurrence, scaling: str, order: int, ratio: RatioBounds, bounds: UBounds):
        self.rec, self.scaling, self.order, self.ratio, self.bounds = rec, scaling, order, ratio, bounds

    def _tail(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:
        return {
            "toolVersion": __version__,
            "kind": self.kind,
            "sequence": {
                "name": self.rec.name, **_recurrence_fields(self.rec), "scaling": self.scaling,
            },
            "order": self.order,
            "ratioBounds": {
                "lambda": frac_str(self.ratio.lam),
                "mu": self.ratio.mu,
                "lower": ratfunc_to_json(self.ratio.lower),
                "upper": ratfunc_to_json(self.ratio.upper),
                "validFrom": self.ratio.valid_from,
            },
            "bounds": {
                "g": ratfunc_to_json(self.bounds.lower),
                "f": ratfunc_to_json(self.bounds.upper),
                "validFrom": self.bounds.valid_from,
                "slackExponent": frac_str(self.bounds.slack_exponent),
            },
            **self._tail(),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


class TuranCertificate(Certificate):
    """Finite certificate that the cubic Turan inequality holds from an index.

    All claims are exact: the u-window holds for n > bounds.valid_from by the
    ratio induction, the four corner values are positive for n > N, and every
    index in the initial segment was evaluated in exact arithmetic.
    """

    __slots__ = ("corners", "N", "violations")
    kind = "turan3"

    def __init__(self, rec, scaling, order, ratio, bounds, corners: list, N: int, violations: list):
        super().__init__(rec, scaling, order, ratio, bounds)
        self.corners, self.N, self.violations = corners, N, violations

    @property
    def holds_from(self) -> int:
        return _holds_from(self.violations)

    def _tail(self) -> dict:
        return {
            "corners": [
                {**ratfunc_to_json(corner["value"]), "threshold": corner["threshold"]}
                for corner in self.corners
            ],
            "N": self.N,
            "initialSegment": {"from": 1, "to": self.N, "violations": list(self.violations)},
            "holdsFrom": self.holds_from,
        }


def _holds_from(violations: list) -> int:
    """holdsFrom: one past the last violation on [1, N], or 1 if there is none."""
    return violations[-1] + 1 if violations else 1


def certify_turan3(table: TermTable, order: int = 4, scaling: str = "none") -> TuranCertificate:
    """End-to-end certificate for 4 b_n b_{n+1} > (a_n a_{n+1} - a_{n-1} a_{n+2})^2."""
    rb, ub = certify_u_bounds(table, order)
    ub = scaled_bounds(ub, scaling)

    corners = corner_suite(ub.lower, ub.upper)
    n_cert = max([ub.valid_from] + [c["threshold"] for c in corners])

    violations = check_inequality_range(table, "turan3", 1, n_cert, scaling)
    return TuranCertificate(table.rec, scaling, order, rb, ub, corners, n_cert, violations)


class UWindowCertificate(Certificate):
    """Certified window g(n) <= u_n <= f(n) without a sign conclusion.

    Emitted when the window itself is sound but its corners do not settle
    the cubic inequality, for instance when the window sits above 1.  The
    checked segment records an exact recheck of the containment.
    """

    __slots__ = ("checked_from", "checked_to")
    kind = "u-window"

    def __init__(self, rec, scaling, order, ratio, bounds, checked_from: int, checked_to: int):
        super().__init__(rec, scaling, order, ratio, bounds)
        self.checked_from, self.checked_to = checked_from, checked_to

    def _tail(self) -> dict:
        return {"checkedSegment": {"from": self.checked_from, "to": self.checked_to}}


def certify_u_window(table: TermTable, order: int = 4, scaling: str = "none") -> UWindowCertificate:
    """Certified u-window alone, rechecked exactly over a finite segment.

    The containment already holds for all n > validFrom by the ratio
    induction; the segment recheck over (validFrom, validFrom +
    U_WINDOW_SPAN] is a redundant exact confirmation stored with the artifact.
    Containment is scale-free, so the recheck reads the unscaled window.
    For an order-1 recurrence `first_escape` steps terms only up to its
    closed-form threshold and decides the rest of the segment by root
    counts, so the table gains no term past that threshold.
    """
    rb, ub = certify_u_bounds(table, order)

    lo, hi = ub.valid_from + 1, ub.valid_from + U_WINDOW_SPAN
    n = first_escape(table, ub.lower, ub.upper, lo, hi)
    if n is not None:
        raise CertifyError(f"u at n = {n} escapes the certified window")

    return UWindowCertificate(table.rec, scaling, order, rb, scaled_bounds(ub, scaling), lo, hi)


# -- independent re-check -------------------------------------------------------


def _rf_from_json(obj: dict, name: str) -> RatFunc:
    """A rational function of a certificate: two lists of rational strings."""
    parts = []
    for part in ("num", "den"):
        cs = obj[part]
        if type(cs) is not list:
            raise ValueError(f"{name}.{part} must be a list, got {cs!r}")
        parts.append(Poly([_json_rational(c, f"{name}.{part}") for c in cs]))
    return RatFunc(*parts)


def _json_rational(value, name: str) -> Fraction:
    """A rational field of a certificate, in the form the writer emits:
    a string s with frac_str(Fraction(s)) == s, such as "-3/4" or "2"."""
    if type(value) is not str or frac_str(Fraction(value)) != value:
        raise ValueError(f"{name} must be a rational string, got {value!r}")
    return Fraction(value)


def _json_int(value, name: str) -> int:
    """An integer field of a certificate: a JSON int, and not a bool."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def verify_certificate(cert: dict, table: TermTable):
    """Replay a certificate against the sequence itself.

    The head and the kind's own fields are read in one parse; a certificate
    that does not parse is rejected as malformed, and so is an integer
    field that is not a JSON integer (a string, a float or a boolean) or a
    rational coefficient that is not a string in the writer's form.  Then
    every claim is proved exactly from the stored fields and the table's
    recurrence alone: it names that recurrence, `_replay_windows` proves both windows
    and checks slackExponent against g and f, and for "turan3" the corners
    follow from g and f with valid thresholds, N covers them and validFrom,
    and the segment's violations and holdsFrom are reproduced; for
    "u-window" u_n stays in the window on a nonempty checked segment that
    starts right after validFrom.  Containment is scale-free, so a scaled
    g and f are unscaled once (`scale_window`), for all but the corners
    and the Turan segment.  Returns (ok, diagnosis list).
    """
    bad: list = []
    try:
        if not isinstance(cert, dict):
            raise TypeError("expected a JSON object")
        kind = cert.get("kind", "turan3")
        if kind not in ("turan3", "u-window"):
            return False, [f"unknown certificate kind {kind!r}"]
        seq = cert.get("sequence", {})
        if any(seq.get(key) != value for key, value in _recurrence_fields(table.rec).items()):
            bad.append("certificate does not describe this recurrence")
        scaling = seq.get("scaling", "none")
        check_scaling(scaling)
        order = _json_int(cert["order"], "order")
        if order < 1:
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        rb = cert["ratioBounds"]
        ratio = RatioBounds(
            _json_rational(rb["lambda"], "lambda"), _json_int(rb["mu"], "mu"),
            _rf_from_json(rb["lower"], "lower"), _rf_from_json(rb["upper"], "upper"),
            _json_int(rb["validFrom"], "validFrom"),
        )
        g = _rf_from_json(cert["bounds"]["g"], "g")
        f = _rf_from_json(cert["bounds"]["f"], "f")
        valid_from = _json_int(cert["bounds"]["validFrom"], "validFrom")
        slack_exp = _json_rational(cert["bounds"]["slackExponent"], "slackExponent")
        if valid_from < 0:
            raise ValueError(f"negative validFrom {valid_from}")
        if kind == "turan3":
            seg = cert["initialSegment"]
            tail = {
                "n_cert": _json_int(cert["N"], "N"),
                "corners": [
                    (_rf_from_json(c, "corner"), _json_int(c["threshold"], "threshold"))
                    for c in cert["corners"]
                ],
                "segment": (_json_int(seg["from"], "from"), _json_int(seg["to"], "to")),
                "violations": [_json_int(v, "violation") for v in seg["violations"]],
                "holds_from": _json_int(cert["holdsFrom"], "holdsFrom"),
            }
        else:
            seg = cert["checkedSegment"]
            tail = {"segment": (_json_int(seg["from"], "from"), _json_int(seg["to"], "to"))}
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return False, [f"malformed certificate: {exc}"]

    g0, f0 = scale_window(g, f, scaling, undo=True)
    bad += _replay_windows(table, order, ratio, g0, f0, valid_from, slack_exp) or (
        _replay_turan3(table, scaling, g, f, valid_from, **tail) if kind == "turan3"
        else _replay_u_window(table, g0, f0, valid_from, **tail))
    return not bad, bad


def _replay_windows(table, order, rb, g, f, valid_from, slack_exp) -> list:
    """Prove the stored ratio window and the unscaled u-window g, f with the
    builder's own induction and discharge, and check that the stated slack
    exponent is the largest power of 1/n in f - g.  Exponents are read off the
    stored functions, so no stated order or mu sizes the work."""
    slack = rb.upper - rb.lower
    e = slack.num.degree - slack.den.degree
    if e != rb.mu - order + 1 or slack != RatFunc.laurent([(e, 2)]):
        return [f"s_u(n) - s_l(n) is not 2 n^{rb.mu - order + 1}, the slack of mu = {rb.mu} at order {order}"]
    top = rb.lower.num.degree - rb.lower.den.degree
    if not rb.lower or top != rb.mu or limit_at_infinity(rb.lower / RatFunc.laurent([(top, 1)])) != rb.lam:
        return [f"s_l(n) does not lead with lambda n^mu = {frac_str(rb.lam)} n^{rb.mu}"]
    try:
        n1 = _induction_threshold(table.rec, rb.lower, rb.upper)
        n2 = max(_discharge_threshold(rb.lower, rb.upper, g, f), rb.valid_from)
    except CertifyError as exc:
        return [f"the window is not proved: {exc}"]
    if rb.valid_from <= n1:
        return [f"ratio validFrom {rb.valid_from} is below the induction threshold {n1 + 1}"]
    base = _escape(table, rb.lower, rb.upper, rb.valid_from + 1, rb.valid_from + table.rec.order - 1, 2)
    if base is not None:
        return [f"base ratio a(n)/a(n-1) at n = {base} is outside the ratio window"]
    if valid_from < n2:
        return [f"validFrom {valid_from} is below {n2}, past which the ratio window discharges the u-window"]
    width = f - g
    if not width or slack_exp != _pole_order(width):
        return [f"slackExponent {frac_str(slack_exp)} is not the largest power of 1/n in f(n) - g(n)"]
    return []


def _pole_order(r: RatFunc) -> int:
    """The order of r's pole at n = 0: the largest power of 1/n in a Laurent polynomial r."""
    den, num = (next(i for i, c in enumerate(p.coeffs) if c) for p in (r.den, r.num))
    return den - num


def _replay_turan3(
    table, scaling, g, f, valid_from, n_cert, corners, segment, violations, holds_from
) -> list:
    bad, reach = [], [valid_from]  # past max(reach), proved windows and corners settle the form
    if len(corners) != 4:
        bad.append("expected exactly four corner polynomials")
    else:
        for i, (got, thr) in enumerate(corners):
            expect = corner_polynomial(g, f, i)
            if got != expect:
                bad.append(f"corner {i} does not match the stored window functions")
                continue
            if sign_at_infinity(expect) <= 0:
                bad.append(f"corner {i} is not eventually positive")
            else:
                reach.append(eventual_positivity_threshold(expect))
                if reach[-1] > thr:
                    bad.append(f"corner {i} threshold {thr} is not valid")
            if thr > n_cert:
                bad.append(f"N = {n_cert} does not cover corner {i} threshold {thr}")

    if valid_from > n_cert:
        bad.append("N does not cover the window validity threshold")

    lo, hi = segment
    if lo != 1 or hi != n_cert:
        bad.append("initial segment does not cover [1, N]")
    elif len(reach) == 5:  # else a corner check has rejected the certificate
        viol = check_inequality_range(table, "turan3", lo, min(hi, max(reach)), scaling)
        if viol != violations:
            bad.append("initial-segment violations do not match")
        if holds_from != _holds_from(viol):
            bad.append("holdsFrom is inconsistent with the violations")
    return bad


def _replay_u_window(table, g, f, valid_from, segment) -> list:
    lo, hi = segment
    if lo != valid_from + 1:
        return ["checked segment does not start right after validFrom"]
    if hi < lo:
        return ["checked segment is empty"]
    n = first_escape(table, g, f, lo, min(hi, valid_from + U_WINDOW_SPAN))
    return [] if n is None else [f"u at n = {n} escapes the stored window"]
