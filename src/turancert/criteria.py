"""Asymptotic criteria for the cubic Turan form and iterated log-concavity.

Both criteria take the AsymSeries of u_n = a_{n-1} a_{n+1} / a_n^2 that
`u_expansion` (or a model form) returns, which must lead with exactly 1,

    u_n = 1 + r_1(log n)/n^{alpha_1} + ... + r_m(log n)/n^{alpha_m} + o(n^{-beta}),

read its correction terms and error order directly, and return a Verdict.
A "fails" verdict is only issued when the sign of the leading coefficient of
the relevant form is established exactly; every other non-affirmative
outcome is "inconclusive" with a rule naming the obstruction.

Iterated log-concavity follows r_1 from level to level (r -> 2r, or
r -> 2r + t at alpha_1 = 2).  The verdict needs only the sign at infinity of
each level, so a level is carried as a Laurent series in x = 1/log n: a
valuation and exact scalar coefficients (Fraction or NFElem), known up to an
O(x^order) term.  Its sign at infinity is the sign of its first nonzero
coefficient, and a level is used only once such a coefficient lies below its
order, which makes the sign exact.  When every known coefficient cancels, r_1
is expanded further and the chain rebuilt; the exact level is a rational
function of log n with a known bound on its denominator degree, and a nonzero
one has a nonzero coefficient at or below that bound, so zeros up to the
bound prove the level identically 0.  A constant r_1 stays an exact constant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import RatFunc, limit_at_infinity, scalar_sign, sign_at_infinity
from .asymptotics import AsymSeries, ratio_expansion, u_expansion
from .render import _scalar_str, coef_str, frac_str, inv_log_series_str
from .sequences import TermTable

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

# Rules whose inconclusive verdicts can be cured by a longer expansion.
RETRYABLE = ("turan3.insufficient-order", "llc.insufficient-order")


class Verdict:
    """Outcome of one criterion: result, deciding rule, and reasoning trace."""

    __slots__ = ("result", "rule", "reason", "trace")

    def __init__(self, result: str, rule: str, reason: str, trace: Optional[list] = None):
        self.result, self.rule, self.reason = result, rule, reason
        self.trace = [] if trace is None else trace

    def to_dict(self) -> dict:
        return {"result": self.result, "rule": self.rule, "reason": self.reason, "trace": list(self.trace)}

    @property
    def retryable(self) -> bool:
        return self.result == INCONCLUSIVE and self.rule in RETRYABLE


def _corrections(u: AsymSeries) -> tuple:
    """The correction terms (alpha_i, r_i) of u = 1 + sum r_i(log n)/n^alpha_i.

    An AsymSeries keeps its exponents sorted and distinct and its
    coefficients nonzero, so past a leading 1 every exponent is positive.
    """
    if not u.terms or u.terms[0] != (0, RatFunc.one()):
        raise ValueError("leading term must equal 1")
    return u.terms[1:]


def _leading_verdict(
    terms: tuple, beta: Optional[Fraction], trace: list, prefix: str, equality, convex
) -> Optional[Verdict]:
    """The verdict that the first correction decides on its own, or None.

    u identically 1 holds with equality, no visible correction is too short,
    and r_1 > 0 at infinity makes the sequence eventually log-convex.
    `equality` and `convex` are the criterion's (trace note, reason) pairs.
    """
    if not terms:
        if beta is None:
            trace.append(equality[0])
            return Verdict(HOLDS, f"{prefix}.equality", equality[1], trace)
        trace.append(f"no correction term visible below o(n^-{frac_str(beta)})")
        reason = "no correction term visible at this order"
        return Verdict(INCONCLUSIVE, f"{prefix}.insufficient-order", reason, trace)

    a1, r1 = terms[0]
    trace.append(f"alpha_1 = {frac_str(a1)}, r_1 = {coef_str(r1)}")
    s1 = sign_at_infinity(r1)
    trace.append(f"sign of r_1 at infinity: {s1:+d}")
    if s1 <= 0:
        return None
    trace.append(convex[0])
    return Verdict(FAILS, f"{prefix}.log-convex", convex[1], trace)


def _hypothesis_gap(
    terms: tuple, beta: Optional[Fraction], trace: list, prefix: str
) -> Optional[Verdict]:
    """Check the visible-span hypothesis alpha_m - alpha_1 >= 1.

    Exact forms are exempt: every omitted exponent has coefficient zero, so
    nothing hides between alpha_1 and alpha_1 + 1.  A truncated series can
    conceal non-smooth terms inside its o(n^-beta) tail, and those do not
    lose a power of n under the shift n -> n+1.
    """
    if beta is None:
        return None
    span = terms[-1][0] - terms[0][0]
    if span >= 1:
        return None
    trace.append(
        f"visible span alpha_m - alpha_1 = {frac_str(span)} < 1; "
        "the expansion does not certify the terms that drive the form"
    )
    return Verdict(
        INCONCLUSIVE,
        f"{prefix}.insufficient-order",
        "expansion too short to certify a full power of n past the first correction",
        trace,
    )


def turan3_asymptotic(u: AsymSeries) -> Verdict:
    """Eventual sign of 4(1-u_n)(1-u_{n+1}) - (1-u_n u_{n+1})^2.

    Positive sign of the form is equivalent to the cubic Turan inequality
    4 b_n b_{n+1} > (a_n a_{n+1} - a_{n-1} a_{n+2})^2 for the underlying
    sequence, where b_n = a_n^2 - a_{n-1} a_{n+1}.
    """
    terms, beta = _corrections(u), u.error_order
    trace: list = []
    leading = _leading_verdict(terms, beta, trace, "turan3", (
        "u is identically 1; the form vanishes identically",
        "equality case: the form is 0",
    ), (
        "u_n > 1 eventually, so 4(1-u_n)(1-u_{n+1}) <= (u_n + u_{n+1} - 2)^2"
        " < (u_n u_{n+1} - 1)^2 and the form is eventually negative",
        "the sequence is eventually log-convex; the form is eventually negative",
    ))
    if leading is not None:
        return leading
    a1, r1 = terms[0]

    gap = _hypothesis_gap(terms, beta, trace, "turan3")
    if gap is not None:
        return gap

    if beta is not None and beta <= 2 * a1:
        trace.append(
            f"error order {frac_str(beta)} <= 2*alpha_1 = {frac_str(2 * a1)}; "
            "the competing terms of the form are not certified"
        )
        return Verdict(
            INCONCLUSIVE,
            "turan3.insufficient-order",
            "expansion too short to fix the leading term of the form",
            trace,
        )

    if a1 < 2:
        trace.append(
            f"leading term of the form: -4 r_1^3 / n^(3 alpha_1) with 3 alpha_1 = "
            f"{frac_str(3 * a1)} < 2 alpha_1 + 2; positive since r_1 < 0 eventually"
        )
        return Verdict(
            HOLDS,
            "turan3.subcritical",
            "alpha_1 < 2 and r_1 < 0 eventually, so the form is eventually positive",
            trace,
        )

    if a1 > 2:
        trace.append(
            "alpha_1 > 2: the shift term dominates and this criterion does not apply"
        )
        return Verdict(
            INCONCLUSIVE,
            "turan3.supercritical",
            "alpha_1 > 2 is outside the scope of this criterion",
            trace,
        )

    # Critical regime alpha_1 = 2: the n^-6 coefficient is -4 r_1^2 (r_1 + 1).
    lim = limit_at_infinity(r1)
    lim_str = lim if isinstance(lim, str) else _scalar_str(lim)
    trace.append(f"alpha_1 = 2 (critical); limit of r_1 at infinity: {lim_str}")
    if lim == "-inf" or (not isinstance(lim, str) and scalar_sign(lim + 1) < 0):
        trace.append("leading term of the form: -4 r_1^2 (r_1 + 1) / n^6 > 0")
        return Verdict(
            HOLDS,
            "turan3.critical.limit",
            "limit of r_1 is below -1, so the form is eventually positive",
            trace,
        )
    if lim != -1:
        trace.append("leading term of the form: -4 r_1^2 (r_1 + 1) / n^6 < 0")
        return Verdict(
            FAILS,
            "turan3.critical.limit",
            "limit of r_1 is above -1, so the form is eventually negative",
            trace,
        )

    deficit = sign_at_infinity(r1 + 1)
    trace.append(f"limit of r_1 is -1; sign of r_1 + 1 at infinity: {deficit:+d}")
    if deficit < 0:
        trace.append("r_1 + 1 < 0 eventually, so -4 r_1^2 (r_1 + 1) / n^6 > 0")
        return Verdict(
            HOLDS,
            "turan3.critical.deficit",
            "r_1 approaches -1 from below, so the form is eventually positive",
            trace,
        )
    if deficit > 0:
        trace.append("r_1 + 1 > 0 eventually, so -4 r_1^2 (r_1 + 1) / n^6 < 0")
        return Verdict(
            FAILS,
            "turan3.critical.deficit",
            "r_1 approaches -1 from above, so the form is eventually negative",
            trace,
        )
    trace.append("r_1 is identically -1; the leading term of the form vanishes")
    return Verdict(
        INCONCLUSIVE,
        "turan3.boundary",
        "r_1 == -1 identically; the sign is not decided at this order",
        trace,
    )


# -- the level chain in x = 1/log n ---------------------------------------------

START_TERMS = 12  # coefficients of r_1 expanded first; doubled while a level is undecided


class LogSeries:
    """sum_i coeffs[i] x^(val+i) + O(x^order) in x = 1/log n, exact scalars.

    An exact constant has `order` None, val 0 and at most one coefficient
    (none for 0).  A truncated series keeps coeffs[0] != 0, so its first
    coefficient is its leading term; a truncated series with no coefficient
    has every known coefficient zero and an undecided sign.
    """

    __slots__ = ("val", "coeffs", "order")

    def __init__(self, val: int, coeffs, order: Optional[int]):
        coeffs = list(coeffs)
        k = 0
        while k < len(coeffs) and not coeffs[k]:
            k += 1
        self.val = val if order is None else val + k
        self.coeffs = tuple(coeffs[k:])
        self.order = order

    @staticmethod
    def from_ratfunc(r: RatFunc, terms: int) -> "LogSeries":
        """r(log n) expanded to `terms` coefficients past its leading term.

        With L = 1/x, N(L)/D(L) = x^(deg D - deg N) * rev(N)(x) / rev(D)(x),
        and both reversed polynomials are nonzero at x = 0.
        """
        if r.is_constant():
            return LogSeries(0, [r.constant_value()], None)
        val = r.den.degree - r.num.degree
        coeffs = _series_div(r.num.coeffs[::-1], r.den.coeffs[::-1], terms)
        return LogSeries(val, coeffs, val + terms)

    def is_zero(self) -> bool:
        return self.order is None and not self.coeffs

    def constant_value(self):
        if self.order is not None:
            raise ValueError("not a constant level")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def sign(self) -> int:
        """Sign at infinity: the sign of the leading coefficient."""
        return scalar_sign(self.coeffs[0]) if self.coeffs else 0


def _series_div(num, den, terms: int) -> list:
    """Coefficients 0..terms-1 of the power series num/den, den[0] != 0."""
    inv = 1 / den[0]
    out: list = []
    for k in range(terms):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc * inv)
    return out


def _critical_step(r: LogSeries) -> LogSeries:
    """The level map r -> 2r + t, t = 2 + (log r)'' - (log r)' in log n.

    d/dL is -x^2 d/dx.  With r = x^v s(x), s(0) != 0 and s known to p
    terms, (log r)' = -v x - x^2 s'/s is known mod x^(p+1), and so is t.
    The log derivatives see only |r|, so the map is sign-agnostic in r.
    """
    if r.order is None:
        return LogSeries(0, [2 * r.constant_value() + 2], None)
    v, s = r.val, r.coeffs
    p = len(s)
    q = _series_div([k * s[k] for k in range(1, p)], s, p - 1)
    lr = [Fraction(0), Fraction(-v)] + [-c for c in q]
    t = [Fraction(2)] + [-lr[j] - (j - 1) * lr[j - 1] for j in range(1, p + 1)]
    lo, order = min(v, 0), min(v + p, p + 1)
    out = []
    for j in range(lo, order):
        c = t[j] if j >= 0 else Fraction(0)
        if j >= v:
            c += 2 * s[j - v]
        out.append(c)
    return LogSeries(lo, out, order)


def _settled(level: LogSeries, den_bound: int) -> Optional[LogSeries]:
    """The level with its sign decided, or None when more terms are needed.

    A nonzero N(L)/D(L) has valuation deg D - deg N <= deg D in x, so a
    series known to be zero below x^order with order > den_bound (a bound
    on deg D) is identically zero.
    """
    if level.coeffs or level.order is None:
        return level
    return LogSeries(0, [], None) if level.order > den_bound else None


def _level_chain(r1: RatFunc, ell: int, critical: bool, terms: int) -> Optional[list]:
    """Levels 1..ell from r_1 expanded to `terms` terms; None if one is undecided."""
    level = LogSeries.from_ratfunc(r1, terms)
    # degree bounds on the numerator and denominator of the exact level:
    # 2r + t = (2 N^3 D + T) / (N D)^2 with deg T <= 2 deg(N D)
    a, b = r1.num.degree, r1.den.degree
    levels = [level]
    for _ in range(ell - 1):
        if level.is_zero():
            raise ValueError(
                "leading coefficient vanishes; deeper levels are not determined"
            )
        if critical:
            level = _settled(_critical_step(level), 2 * a + 2 * b)
            a, b = max(3 * a + b, 2 * a + 2 * b), 2 * a + 2 * b
            if level is None:
                return None
        else:
            level = LogSeries(level.val, [2 * c for c in level.coeffs], level.order)
        levels.append(level)
    return levels


def llc_level_coefficients(u: AsymSeries, ell: int) -> list:
    """Predicted leading coefficient r_1 at each level 1..ell of iterated phi.

    Level k+1 is obtained from level k by r -> 2r (alpha_1 < 2) or
    r -> 2r + t (alpha_1 = 2).  The leading exponent alpha_1 is preserved.
    Each level is a LogSeries in 1/log n whose sign is decided.
    """
    corrections = _corrections(u)
    if not corrections:
        raise ValueError("no correction term to iterate")
    a1, r1 = corrections[0]
    terms = START_TERMS
    while True:
        levels = _level_chain(r1, ell, a1 == 2, terms)
        if levels is not None:
            return levels
        terms *= 2


def llc_threshold(ell: int) -> Fraction:
    """Critical-regime threshold: r_1 < -2 + 2^(2-ell) grants ell levels."""
    if ell < 1:
        raise ValueError("level must be at least 1")
    return Fraction(-2) + Fraction(4, 2**ell)


def llogconcave_asymptotic(u: AsymSeries, ell: int) -> Verdict:
    """Eventual ell-fold log-concavity of the underlying sequence.

    Level 1 is ordinary log-concavity (u_n < 1 eventually) and is decided in
    both directions.  Levels >= 2 use a sufficient condition: alpha_1 < 2 with
    r_1 < 0 eventually, or alpha_1 = 2 with r_1 < -2 + 2^(2-ell) eventually.
    """
    if ell < 1:
        raise ValueError("level must be at least 1")
    terms, beta = _corrections(u), u.error_order
    trace: list = []
    leading = _leading_verdict(terms, beta, trace, "llc", (
        "u is identically 1; every iterated difference vanishes",
        "equality case: all levels vanish",
    ), (
        "u_n > 1 eventually: the level-1 difference is eventually negative",
        "the sequence is eventually log-convex, so level 1 already fails",
    ))
    if leading is not None:
        return leading
    a1, r1 = terms[0]

    if ell >= 2:
        gap = _hypothesis_gap(terms, beta, trace, "llc")
        if gap is not None:
            return gap

    if beta is not None and ell * a1 >= beta:
        trace.append(
            f"error order {frac_str(beta)} <= ell*alpha_1 = {frac_str(ell * a1)}; "
            f"level {ell} is beyond the certified horizon"
        )
        return Verdict(
            INCONCLUSIVE,
            "llc.insufficient-order",
            f"expansion too short to certify level {ell}",
            trace,
        )

    if a1 > 2:
        trace.append("alpha_1 > 2: outside the scope of this criterion")
        return Verdict(
            INCONCLUSIVE,
            "llc.supercritical",
            "alpha_1 > 2 is outside the scope of this criterion",
            trace,
        )

    critical = a1 == 2
    if critical and ell >= 2:
        c = llc_threshold(ell)
        # r_1 - c is eventually negative, identically 0, or eventually positive
        below = ("yes", "boundary", "no")[sign_at_infinity(r1 - c) + 1]
        trace.append(
            f"critical regime: level {ell} threshold is r_1 < {frac_str(c)}; "
            f"comparison: {below}"
        )
        if below == "no":
            return Verdict(
                INCONCLUSIVE,
                "llc.threshold",
                f"r_1 does not stay below {frac_str(c)}, so level {ell} is not granted",
                trace,
            )
        if below == "boundary":
            return Verdict(
                INCONCLUSIVE,
                "llc.boundary",
                f"r_1 == {frac_str(c)} identically sits on the level-{ell} boundary",
                trace,
            )

    # Record the predicted leading coefficient at each granted level.  Every
    # level below the last is eventually negative here, so none is zero.
    rule_txt = "2r + t" if critical else "2r"
    for k, rk in enumerate(llc_level_coefficients(u, ell), start=1):
        sk = rk.sign()
        trace.append(
            f"level {k}: r_1 = {inv_log_series_str(rk)} (map {rule_txt}), "
            f"sign at infinity {sk:+d}"
        )
        if sk >= 0:
            return Verdict(
                INCONCLUSIVE,
                "llc.trace-anomaly",
                f"predicted level-{k} coefficient is not eventually negative",
                trace,
            )

    if critical:
        if ell == 1:
            reason = "alpha_1 = 2 with r_1 < 0 eventually: log-concave eventually"
            rule = "llc.level1"
        else:
            reason = (
                f"alpha_1 = 2 with r_1 < {frac_str(llc_threshold(ell))} eventually "
                f"grants {ell} levels"
            )
            rule = "llc.critical.threshold"
    else:
        if ell == 1:
            reason = "r_1 < 0 eventually: log-concave eventually"
            rule = "llc.level1"
        else:
            reason = (
                f"alpha_1 = {frac_str(a1)} < 2 with r_1 < 0 eventually grants "
                "every finite level"
            )
            rule = "llc.subcritical"
    return Verdict(HOLDS, rule, reason, trace)


# -- drivers --------------------------------------------------------------------


def _drive(table: TermTable, check, scaling, max_order) -> Verdict:
    order = min(4, max_order)
    while True:
        v = check(u_expansion(ratio_expansion(table.rec, order, table=table), scaling=scaling))
        if not v.retryable or order >= max_order:
            return v
        order = min(max_order, 2 * order)


def turan3_verdict(table: TermTable, scaling: str = "none", max_order: int = 8) -> Verdict:
    """Expand u_n for the table's recurrence and decide the cubic Turan form.

    Starts at expansion order 4 and doubles up to max_order while the verdict
    stays inconclusive for lack of certified terms.
    """
    return _drive(table, turan3_asymptotic, scaling, max_order)


def llogconcave_verdict(table: TermTable, ell: int, scaling: str = "none", max_order: int = 8) -> Verdict:
    """Expand u_n for the table's recurrence and decide ell-fold log-concavity."""
    return _drive(table, lambda u: llogconcave_asymptotic(u, ell), scaling, max_order)
