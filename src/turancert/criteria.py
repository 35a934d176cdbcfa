"""Asymptotic criteria for the cubic Turan form and iterated log-concavity.

Both criteria consume a normalized expansion of u_n = a_{n-1} a_{n+1} / a_n^2,

    u_n = 1 + r_1(log n)/n^{alpha_1} + ... + r_m(log n)/n^{alpha_m} + o(n^{-beta}),

and return a Verdict.  A "fails" verdict is only issued when the sign of the
leading coefficient of the relevant form is established exactly; every other
non-affirmative outcome is "inconclusive" with a rule naming the obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .algebra import RatFunc, limit_at_infinity, sign_at_infinity
from .asymptotics import AsymSeries, ratio_expansion, u_expansion
from .render import coef_str, frac_str
from .sequences import Recurrence, TermTable

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

# Rules whose inconclusive verdicts can be cured by a longer expansion.
RETRYABLE = ("turan3.insufficient-order", "llc.insufficient-order")


@dataclass
class Verdict:
    """Outcome of one criterion: result, deciding rule, and reasoning trace."""

    result: str
    rule: str
    reason: str
    trace: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "result": self.result,
            "rule": self.rule,
            "reason": self.reason,
            "trace": list(self.trace),
        }

    @property
    def retryable(self) -> bool:
        return self.result == INCONCLUSIVE and self.rule in RETRYABLE


class UnForm:
    """Correction terms (alpha_i, r_i) of a u-expansion, plus its error order."""

    __slots__ = ("terms", "error_order")

    def __init__(self, terms, error_order: Optional[Fraction]):
        terms = tuple((Fraction(e), r) for e, r in terms)
        for e, r in terms:
            if e <= 0:
                raise ValueError("correction exponents must be positive")
            if r.is_zero():
                raise ValueError("correction coefficients must be nonzero")
        if any(terms[i][0] >= terms[i + 1][0] for i in range(len(terms) - 1)):
            raise ValueError("correction exponents must increase")
        self.terms = terms
        self.error_order = error_order

    @property
    def m(self) -> int:
        return len(self.terms)

    @property
    def alpha1(self) -> Fraction:
        return self.terms[0][0]

    @property
    def r1(self) -> RatFunc:
        return self.terms[0][1]

    @property
    def alpha_last(self) -> Fraction:
        return self.terms[-1][0]


def to_un_form(u: AsymSeries) -> UnForm:
    """Split a series with leading term 1 into its correction terms."""
    if not u.terms or u.terms[0][0] != 0:
        raise ValueError("series must have a constant leading term")
    lead = u.terms[0][1]
    if not (lead.is_constant() and lead.constant_value() == 1):
        raise ValueError("leading term must equal 1")
    return UnForm(u.terms[1:], u.error_order)


def _coerce(u: Union[AsymSeries, UnForm]) -> UnForm:
    return u if isinstance(u, UnForm) else to_un_form(u)


def _eventually_below(r: RatFunc, c: Fraction) -> str:
    """Whether r(log n) < c for all large n: 'yes', 'no', or 'boundary' (r == c)."""
    lim = limit_at_infinity(r)
    if lim == "-inf":
        return "yes"
    if lim == "+inf":
        return "no"
    if lim < c:
        return "yes"
    if lim > c:
        return "no"
    s = sign_at_infinity(r - Fraction(c))
    if s < 0:
        return "yes"
    if s > 0:
        return "no"
    return "boundary"


def _hypothesis_gap(un: UnForm, trace: list, prefix: str) -> Optional[Verdict]:
    """Check the visible-span hypothesis alpha_m - alpha_1 >= 1.

    Exact forms are exempt: every omitted exponent has coefficient zero, so
    nothing hides between alpha_1 and alpha_1 + 1.  A truncated series can
    conceal non-smooth terms inside its o(n^-beta) tail, and those do not
    lose a power of n under the shift n -> n+1.
    """
    if un.error_order is None:
        return None
    span = un.alpha_last - un.alpha1
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


def turan3_asymptotic(u: Union[AsymSeries, UnForm]) -> Verdict:
    """Eventual sign of 4(1-u_n)(1-u_{n+1}) - (1-u_n u_{n+1})^2.

    Positive sign of the form is equivalent to the cubic Turan inequality
    4 b_n b_{n+1} > (a_n a_{n+1} - a_{n-1} a_{n+2})^2 for the underlying
    sequence, where b_n = a_n^2 - a_{n-1} a_{n+1}.
    """
    un = _coerce(u)
    trace: list = []

    if un.m == 0:
        if un.error_order is None:
            trace.append("u is identically 1; the form vanishes identically")
            return Verdict(HOLDS, "turan3.equality", "equality case: the form is 0", trace)
        trace.append(f"no correction term visible below o(n^-{frac_str(un.error_order)})")
        return Verdict(
            INCONCLUSIVE,
            "turan3.insufficient-order",
            "no correction term visible at this order",
            trace,
        )

    a1, r1 = un.alpha1, un.r1
    trace.append(f"alpha_1 = {frac_str(a1)}, r_1 = {coef_str(r1)}")

    s1 = sign_at_infinity(r1)
    trace.append(f"sign of r_1 at infinity: {s1:+d}")
    if s1 > 0:
        trace.append(
            "u_n > 1 eventually, so 4(1-u_n)(1-u_{n+1}) <= (u_n + u_{n+1} - 2)^2"
            " < (u_n u_{n+1} - 1)^2 and the form is eventually negative"
        )
        return Verdict(
            FAILS,
            "turan3.log-convex",
            "the sequence is eventually log-convex; the form is eventually negative",
            trace,
        )

    gap = _hypothesis_gap(un, trace, "turan3")
    if gap is not None:
        return gap

    beta = un.error_order
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
    lim_str = lim if isinstance(lim, str) else frac_str(lim)
    trace.append(f"alpha_1 = 2 (critical); limit of r_1 at infinity: {lim_str}")
    if lim == "-inf" or (not isinstance(lim, str) and lim < -1):
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


def _level_increment(r: RatFunc) -> RatFunc:
    """Additive part of the level map r -> 2r + t in the critical regime.

    t = 2 + (log r)'' - (log r)', with derivatives taken in log n; the log
    derivatives see only |r|, so the formula is sign-agnostic in r.
    """
    lr = r.derivative() / r
    return lr.derivative() - lr + Fraction(2)


def llc_level_coefficients(
    u: Union[AsymSeries, UnForm], ell: int
) -> list:
    """Predicted leading coefficient r_1 at each level 1..ell of iterated phi.

    Level k+1 is obtained from level k by r -> 2r (alpha_1 < 2) or
    r -> 2r + t (alpha_1 = 2).  The leading exponent alpha_1 is preserved.
    """
    un = _coerce(u)
    if un.m == 0:
        raise ValueError("no correction term to iterate")
    levels = [un.r1]
    critical = un.alpha1 == 2
    for _ in range(ell - 1):
        r = levels[-1]
        if r.is_zero():
            raise ValueError(
                "leading coefficient vanishes; deeper levels are not determined"
            )
        levels.append(2 * r + _level_increment(r) if critical else 2 * r)
    return levels


def llc_threshold(ell: int) -> Fraction:
    """Critical-regime threshold: r_1 < -2 + 2^(2-ell) grants ell levels."""
    if ell < 1:
        raise ValueError("level must be at least 1")
    return Fraction(-2) + Fraction(4, 2**ell)


def llogconcave_asymptotic(u: Union[AsymSeries, UnForm], ell: int) -> Verdict:
    """Eventual ell-fold log-concavity of the underlying sequence.

    Level 1 is ordinary log-concavity (u_n < 1 eventually) and is decided in
    both directions.  Levels >= 2 use a sufficient condition: alpha_1 < 2 with
    r_1 < 0 eventually, or alpha_1 = 2 with r_1 < -2 + 2^(2-ell) eventually.
    """
    if ell < 1:
        raise ValueError("level must be at least 1")
    un = _coerce(u)
    trace: list = []

    if un.m == 0:
        if un.error_order is None:
            trace.append("u is identically 1; every iterated difference vanishes")
            return Verdict(
                HOLDS, "llc.equality", "equality case: all levels vanish", trace
            )
        trace.append(f"no correction term visible below o(n^-{frac_str(un.error_order)})")
        return Verdict(
            INCONCLUSIVE,
            "llc.insufficient-order",
            "no correction term visible at this order",
            trace,
        )

    a1, r1 = un.alpha1, un.r1
    trace.append(f"alpha_1 = {frac_str(a1)}, r_1 = {coef_str(r1)}")

    s1 = sign_at_infinity(r1)
    trace.append(f"sign of r_1 at infinity: {s1:+d}")
    if s1 > 0:
        trace.append("u_n > 1 eventually: the level-1 difference is eventually negative")
        return Verdict(
            FAILS,
            "llc.log-convex",
            "the sequence is eventually log-convex, so level 1 already fails",
            trace,
        )

    if ell >= 2:
        gap = _hypothesis_gap(un, trace, "llc")
        if gap is not None:
            return gap

    beta = un.error_order
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
        below = _eventually_below(r1, c)
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
    for k, rk in enumerate(llc_level_coefficients(un, ell), start=1):
        sk = sign_at_infinity(rk)
        trace.append(
            f"level {k}: r_1 = {coef_str(rk)} (map {rule_txt}), sign at infinity {sk:+d}"
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


def _drive(rec, check, scaling, max_order, rho, table) -> Verdict:
    if table is None:
        table = TermTable(rec)
    order = min(4, max_order)
    last: Optional[Verdict] = None
    while True:
        rx = ratio_expansion(rec, order, rho=rho, table=table)
        u = u_expansion(rx, scaling=scaling)
        last = check(u)
        if not last.retryable or order >= max_order:
            return last
        order = min(max_order, 2 * order)


def turan3_verdict(
    rec: Recurrence,
    scaling: str = "none",
    max_order: int = 8,
    rho: Optional[int] = None,
    table: Optional[TermTable] = None,
) -> Verdict:
    """Expand u_n for a recurrence and decide the cubic Turan form.

    Starts at expansion order 4 and doubles up to max_order while the verdict
    stays inconclusive for lack of certified terms.
    """
    return _drive(rec, turan3_asymptotic, scaling, max_order, rho, table)


def llogconcave_verdict(
    rec: Recurrence,
    ell: int,
    scaling: str = "none",
    max_order: int = 8,
    rho: Optional[int] = None,
    table: Optional[TermTable] = None,
) -> Verdict:
    """Expand u_n for a recurrence and decide ell-fold log-concavity."""
    return _drive(
        rec, lambda u: llogconcave_asymptotic(u, ell), scaling, max_order, rho, table
    )
