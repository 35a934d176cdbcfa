"""Re-derive every stored corpus artifact and report pass/fail.

Each check recomputes one expected value (terms, growth data, series
coefficients, verdicts, windows, corner polynomials, thresholds) from
scratch and compares exactly.  Results are plain tuples so the CLI can
render them as text or JSON.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .algebra import Poly, RatFunc, eventual_positivity_threshold
from .algebra.poly import _horner, _integer_coeffs, _integer_window
from .asymptotics import ratio_expansion, u_expansion
from .certify import (
    CertifyError,
    certify_turan3,
    certify_u_bounds,
    corner_polynomial,
    turan_form,
)
from .corpus import ENTRIES, CorpusEntry
from .criteria import llogconcave_verdict, turan3_verdict
from .sequences import TermTable, check_inequality_range, first_escape, scale_window, turan3_sign, u_value


class CheckResult(NamedTuple):
    """(entry, check, ok, detail)"""

    entry: str
    check: str
    ok: bool
    detail: str = ""


def window_functions(window: dict, scaling: str) -> tuple[RatFunc, RatFunc]:
    """Bound pair 1 + sum c/n^e per side, under `scaling` by `scale_window`."""
    g, f = (RatFunc.laurent([(0, 1)] + [(-int(e), c) for e, c in window[part].items()]) for part in ("g", "f"))
    return scale_window(g, f, scaling)


def _check_terms(e: CorpusEntry, table: TermTable) -> list:
    want = e.expected["terms"]["values"]
    got = table.values(0, len(want) - 1)
    ok = list(got) == list(want)
    return [CheckResult(e.name, "terms", ok, "" if ok else f"got {got[:4]}...")]


def _check_growth(e: CorpusEntry, table: TermTable) -> list:
    want = e.expected["lam"]
    rx = ratio_expansion(table.rec, 4, table=table)
    probs = []
    if rx.mu != want["mu"]:
        probs.append(f"mu {rx.mu} != {want['mu']}")
    if rx.rho != want["rho"]:
        probs.append(f"rho {rx.rho} != {want['rho']}")
    if "value" in want:
        if rx.lam_poly is not None or Fraction(rx.lam) != want["value"]:
            probs.append(f"lambda {rx.lam} != {want['value']}")
    else:
        coeffs = None if rx.lam_poly is None else [
            Fraction(c) for c in rx.lam_poly.coeffs
        ]
        minpoly = [Fraction(c) for c in want["minpoly"]]
        if coeffs != minpoly and coeffs != minpoly[::-1]:
            probs.append(f"minimal polynomial {coeffs} != {minpoly}")
        elif abs(float(rx.lam) - want["approx"]) > 1e-3:
            probs.append(f"approx {float(rx.lam):.4f} != {want['approx']}")
    return [CheckResult(e.name, "ratio-growth", not probs, "; ".join(probs))]


def _coefficient_problems(e: CorpusEntry, table: TermTable, order: int, want) -> list:
    """"n^-k: got != c" for each (k, c) of `want` where e's u-series at
    `order` has not the constant c at n^-k."""
    u = u_expansion(ratio_expansion(table.rec, order, table=table))
    got = {k: u.coefficient(k) for k, _ in want}
    return [f"n^-{k}: {got[k]} != {c}" for k, c in want
            if not (got[k].is_constant() and got[k].constant_value() == c)]


def _check_u_series(e: CorpusEntry, table: TermTable) -> list:
    want = e.expected["u_series"]["coeffs"]
    probs = _coefficient_problems(e, table, int(max(want)) + 1, sorted(want.items()))
    return [CheckResult(e.name, "u-series", not probs, "; ".join(probs))]


def _check_turan3(e: CorpusEntry, table: TermTable) -> list:
    v = turan3_verdict(table, e.scaling, 8)
    ok = v.result == e.expected["turan3"]
    detail = "" if ok else f"{v.result} ({v.rule}) != {e.expected['turan3']}"
    return [CheckResult(e.name, "turan3-verdict", ok, detail)]


def _check_llc_level(e: CorpusEntry, table: TermTable) -> list:
    ell = e.expected["llc_level"]
    v = llogconcave_verdict(table, ell, e.scaling, 8)
    ok = v.result == "holds"
    return [CheckResult(e.name, f"llc-level-{ell}", ok, "" if ok else f"{v.result} ({v.rule})")]


def _check_ht_bounds(e: CorpusEntry, table: TermTable) -> list:
    want = e.expected["ht_bounds"]
    try:
        _, ub = certify_u_bounds(table, 4)
    except CertifyError as exc:
        # not certifiable on this grid; the window constant must still
        # simplify to the stored exact rational in the expansion
        probs = _coefficient_problems(e, table, 4, want["d"].items())
        detail = f"window constants only ({exc})" if not probs else "; ".join(probs)
        return [CheckResult(e.name, "ht-bounds", not probs, detail)]
    probs = []
    if dict(ub.kept) != {k: (v, v) for k, v in want["d"].items()}:
        probs.append(f"kept {ub.kept} != {want['d']}")
    if ub.slack_exponent != want["slack_exponent"]:
        probs.append(f"slack exponent {ub.slack_exponent}")
    if ub.valid_from > want["n_max"]:
        probs.append(f"validFrom {ub.valid_from} > {want['n_max']}")
    if not probs:
        n = first_escape(table, ub.lower, ub.upper, ub.valid_from + 1, ub.valid_from + 100)
        if n is not None:
            probs.append(f"sandwich breaks at n={n}")
    return [CheckResult(e.name, "ht-bounds", not probs, "; ".join(probs))]


def _check_corners(e: CorpusEntry, table: TermTable) -> list:
    suite = e.expected["corner_suite"]
    g, f = window_functions(suite["window"], e.scaling)
    out = []
    for i, stored in enumerate(suite["corners"]):
        probs = []
        mine = corner_polynomial(g, f, i)
        if mine != RatFunc(Poly(stored["num"]), stored["den"]):
            probs.append("polynomial differs")
        else:
            thr = eventual_positivity_threshold(mine)
            if thr != stored["minimal_threshold"]:
                probs.append(f"threshold {thr} != {stored['minimal_threshold']}")
            if stored["printed_threshold"] < stored["minimal_threshold"]:
                probs.append("printed threshold below the minimal one")
        out.append(CheckResult(e.name, f"corner-{i}", not probs, "; ".join(probs)))
    return out


def _check_holds_from(e: CorpusEntry, table: TermTable) -> list:
    start = e.expected["holds_from"]
    probs = []
    bad = check_inequality_range(table, "turan3", start, start + 59, e.scaling)
    if bad:
        probs.append(f"sign at n={bad[0]} not positive")
    if start > 1 and turan3_sign(table, start - 1, e.scaling) > 0:
        probs.append(f"already positive at n={start - 1}")
    out = [CheckResult(e.name, "holds-from", not probs, "; ".join(probs))]
    try:
        cert = certify_turan3(table, 4, e.scaling)
        ok = cert.holds_from == start
        out.append(
            CheckResult(
                e.name, "certificate", ok,
                "" if ok else f"holdsFrom {cert.holds_from} != {start}",
            )
        )
    except CertifyError as exc:
        out.append(CheckResult(e.name, "certificate", True, f"not certifiable ({exc})"))
    return out


def _check_first_u_index(e: CorpusEntry, table: TermTable) -> list:
    first = e.expected["first_u_index"]
    probs = []
    if u_value(table, first - 1) != 0:
        probs.append(f"u({first - 1}) nonzero")
    for n in range(first, first + 60):
        if u_value(table, n) <= 0:
            probs.append(f"u({n}) not positive")
            break
    return [CheckResult(e.name, "first-u-index", not probs, "; ".join(probs))]


def _check_residual(e: CorpusEntry, table: TermTable) -> list:
    """The recurrence holds on a(0..300+d), tested on integers: the
    coefficients and the terms are each scaled by one positive integer."""
    d = table.rec.order
    p0, *ps = _integer_coeffs(table.rec.coeffs)
    xs, _ = _integer_window(table.values(0, 300 + d))
    bad = [
        n for n in range(0, 300)
        if _horner(p0, n) * xs[n + d]
        != sum(_horner(pk, n) * xs[n + d - k] for k, pk in enumerate(ps, 1))
    ]
    return [CheckResult(e.name, "residual", not bad, f"nonzero at {bad[:3]}" if bad else "")]


_CHECKERS = {
    "terms": _check_terms,
    "lam": _check_growth,
    "u_series": _check_u_series,
    "turan3": _check_turan3,
    "llc_level": _check_llc_level,
    "ht_bounds": _check_ht_bounds,
    "corner_suite": _check_corners,
    "holds_from": _check_holds_from,
    "first_u_index": _check_first_u_index,
}


def check_entry(entry: CorpusEntry, cache_dir: Optional[str] = None) -> list:
    table = TermTable(entry.recurrence, cache_dir=cache_dir)
    results = []
    for key, fn in _CHECKERS.items():
        if key in entry.expected:
            try:
                results.extend(fn(entry, table))
            except Exception as exc:  # a crash is a failing check, not a crash
                results.append(CheckResult(entry.name, key.replace("_", "-"), False, repr(exc)))
    results.extend(_check_residual(entry, table))
    table.flush()
    return results


def rectangle_lemma() -> CheckResult:
    """The corner form's minimum over any rectangle sits at a corner.

    As a polynomial in x over Q(y), t(x, y) has degree 2 and x^2
    coefficient -y^2 <= 0, so t is concave in x for every real y; t is
    symmetric, so it is concave in y too.  Concave in each variable, t
    takes its minimum over a rectangle at a corner.  Both facts are
    checked exactly on the coefficients of t.
    """
    y = RatFunc.variable()
    t = turan_form(Poly([0, 1]), y)
    rows = [c if isinstance(c, RatFunc) else RatFunc.const(c) for c in t.coeffs]
    # (i, j) -> the coefficient of x^i y^j
    coeff = {(i, j): c for i, r in enumerate(rows) for j, c in enumerate(r.num.coeffs)}
    probs = []
    if t.degree != 2 or rows[2] != -(y * y):
        probs.append("x^2 coefficient is not -y^2")
    if any(r.den != Poly([1]) for r in rows) or any(
        coeff.get((j, i), 0) != c for (i, j), c in coeff.items()
    ):
        probs.append("t is not a symmetric polynomial")
    detail = "; ".join(probs) or "exact: x^2 coefficient -y^2, t symmetric"
    return CheckResult("(global)", "rectangle-minimum", not probs, detail)


def run_all(cache_dir: Optional[str] = None) -> list:
    results: list = []
    for name in sorted(ENTRIES):
        results.extend(check_entry(ENTRIES[name], cache_dir))
    results.append(rectangle_lemma())
    results.sort(key=lambda r: (r.entry, r.check))
    return results
