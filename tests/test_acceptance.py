"""Acceptance suite: one test per core guarantee of the package.

Every check is exact (integer, rational, or symbolic) except the levels of
n^2 log n, where certified interval arithmetic decides signs.  Run with -v
to get one pass/fail line per guarantee.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

from mpmath import iv

from turancert.algebra import (
    Poly,
    RatFunc,
    eventual_positivity_threshold,
)
from turancert.asymptotics import (
    AsymSeries,
    compose_coef_shift,
    ratio_expansion,
    shift_series,
    u_expansion,
    u_power,
    u_power_log,
)
from turancert.certify import certify_u_bounds, corner_polynomial
from turancert.checks import window_functions
from turancert.cli import main as cli_main
from turancert.corpus import ENTRIES
from turancert.criteria import (
    llc_level_coefficients,
    llogconcave_asymptotic,
    llogconcave_verdict,
    turan3_asymptotic,
    turan3_verdict,
)
from turancert.sequences import TermTable, phi_values, u_value

from oracles import get


def rf(num, den=(1,)) -> RatFunc:
    return RatFunc(Poly([F(c) for c in num]), Poly([F(c) for c in den]))


def _random_ratfunc(rng: random.Random) -> RatFunc:
    def poly() -> Poly:
        deg = rng.randint(0, 3)
        cs = [F(rng.randint(-5, 5)) for _ in range(deg)]
        cs.append(F(rng.choice([1, 2, 3, -1, -2])))
        return Poly(cs)

    return RatFunc(poly(), poly())


def test_corner_polynomial_golden_suite():
    """All 12 corner polynomials match their stored forms, with the stated
    positivity thresholds (exact, coefficient for coefficient)."""
    published = {
        "motzkin": (0, 4, 4, 3),
        "franel3": (0, 3, 3, 2),
        "bn": (0, 6, 5, 7),
    }
    for name, thresholds in published.items():
        entry = get(name)
        suite = entry.expected["corner_suite"]
        g, f = window_functions(suite["window"], entry.scaling)
        for i, stored in enumerate(suite["corners"]):
            poly = corner_polynomial(g, f, i)
            assert poly == RatFunc(Poly(stored["num"]), stored["den"])
            thr = eventual_positivity_threshold(poly)
            if thr == thresholds[i]:
                continue
            # one stored threshold is valid but not minimal; the computed
            # one must be sharper, and the wider range must still hold
            assert name == "bn" and i == 3 and thr == 3 < thresholds[i]
            for n in range(thr + 1, thresholds[i] + 25):
                assert poly.eval(n) > 0


def test_u_expansion_golden_series():
    """The u-series of the two hand-expanded corpus entries come out exactly."""
    u = u_expansion(ratio_expansion(get("inverse-catalan").recurrence, 5))
    assert u.coefficient(F(2)) == RatFunc.const(F(-3, 2))
    assert u.coefficient(F(3)) == RatFunc.const(F(9, 4))
    assert u.coefficient(F(4)) == RatFunc.const(F(-21, 8))

    u = u_expansion(ratio_expansion(get("involutions").recurrence, 5))
    assert u.coefficient(F(1)) == RatFunc.const(F(-1, 2))
    assert u.coefficient(F(3, 2)) == RatFunc.const(F(-1, 4))
    assert u.coefficient(F(2)) == RatFunc.const(F(5, 8))


def test_certified_u_window_end_to_end(tmp_path, capsys):
    """The certify command on the binomial-sum entry emits the 1 + 1/(2n^2)
    and 1 + 5/(2n^2) window with a sound start index, verified exactly for
    the 2000 indices that follow it."""
    rec = get("binomial4").recurrence
    table = TermTable(rec)
    _, ub = certify_u_bounds(table, 4)
    assert ub.lower == rf([F(1, 2), 0, 1], [0, 0, 1])
    assert ub.upper == rf([F(5, 2), 0, 1], [0, 0, 1])
    assert ub.valid_from <= 200
    for n in range(ub.valid_from + 1, ub.valid_from + 2001):
        assert ub.lower.eval(n) <= u_value(table, n) <= ub.upper.eval(n)

    cert_path = tmp_path / "binomial4.json"
    code = cli_main(["certify", "binomial4", "-o", str(cert_path)])
    capsys.readouterr()
    assert code in (0, 2)
    doc = json.loads(cert_path.read_text())
    g = rf([F(c) for c in doc["bounds"]["g"]["num"]],
           [F(c) for c in doc["bounds"]["g"]["den"]])
    f = rf([F(c) for c in doc["bounds"]["f"]["num"]],
           [F(c) for c in doc["bounds"]["f"]["den"]])
    assert g == rf([F(1, 2), 0, 1], [0, 0, 1])
    assert f == rf([F(5, 2), 0, 1], [0, 0, 1])
    emitted_from = int(doc["bounds"]["validFrom"])
    assert emitted_from <= 200
    fresh = TermTable(rec)
    for n in range(emitted_from + 1, emitted_from + 2001):
        u = u_value(fresh, n)
        assert g.eval(n) <= u <= f.eval(n)


def test_motzkin_u_window_sandwich_exact():
    """u_n of the Motzkin numbers, which is u_n (n+1)/n of the scaled
    sequence, sits strictly inside the certified window for every n in
    [75, 5000], in exact arithmetic."""
    table = TermTable(get("motzkin").recurrence)
    table.values(74, 5001)
    for n in range(75, 5001):
        v = u_value(table, n)
        assert 1 + F(1, 2 * n * n) < v < 1 + F(5, 2 * n * n)


def test_turan_verdict_classifications():
    """The verdict engine classifies the six positive corpus entries, four
    exact closed u-forms, and the narrow-span counterexample correctly."""
    for name in ("inverse-catalan", "involutions", "apery", "motzkin", "franel3", "bn"):
        entry = get(name)
        v = turan3_verdict(TermTable(entry.recurrence), scaling=entry.scaling)
        assert v.result == "holds", (name, v.rule)

    L = RatFunc.variable()
    one = RatFunc.one()
    closed_forms = [
        AsymSeries([(F(0), one), (F(1), -one)]),                 # 1 - 1/n
        AsymSeries([(F(0), one), (F(1), -(L ** -1))]),           # 1 - 1/(n log n)
        AsymSeries([(F(0), one), (F(2), RatFunc.const(F(-2)))]), # 1 - 2/n^2
        AsymSeries([(F(0), one), (F(2), -L)]),                   # 1 - log n / n^2
    ]
    for u in closed_forms:
        assert turan3_asymptotic(u).result == "holds"

    # second correction only 1/3 of a power below the first: the o-tail can
    # hide terms that defeat the shift analysis, so no verdict is honest
    narrow = AsymSeries([(F(0), one), (F(1), -one), (F(4, 3), one)], F(3, 2))
    assert turan3_asymptotic(narrow).result == "inconclusive"


def test_iterated_log_concavity_levels():
    """Level claims: 2 levels for the inverse Catalan numbers, 6 for n^3 and
    n^2 log n; every claimed level is cross-checked against the iterated-phi
    leading coefficient and against concrete phi values on [100, 2000]."""
    ic = get("inverse-catalan")
    assert llogconcave_verdict(TermTable(ic.recurrence), 2).result == "holds"
    u_ic = u_expansion(ratio_expansion(ic.recurrence, 8))
    assert [r.sign() for r in llc_level_coefficients(u_ic, 2)] == [-1, -1]
    table = TermTable(ic.recurrence)
    for level in (1, 2):
        assert all(v > 0 for v in phi_values(table, level, 100, 2000))

    u_cube = u_power(3, None)
    u_sqlog = u_power_log(2, 1, F(14))
    for ell in range(1, 7):
        assert llogconcave_asymptotic(u_cube, ell).result == "holds"
        assert llogconcave_asymptotic(u_sqlog, ell).result == "holds"
    assert [r.constant_value() for r in llc_level_coefficients(u_cube, 6)] == [
        F(-3), F(-4), F(-6), F(-10), F(-18), F(-34),
    ]
    assert all(r.sign() < 0 for r in llc_level_coefficients(u_sqlog, 6))

    # positivity through level 7 makes every level up to 6 strictly
    # log-concave on the window
    vals = [n ** 3 for n in range(100, 2015)]
    for _ in range(7):
        vals = [vals[i + 1] ** 2 - vals[i] * vals[i + 2] for i in range(len(vals) - 2)]
        assert all(v > 0 for v in vals)

    old_prec = iv.prec
    iv.prec = 400
    try:
        ivals = [iv.mpf(n) ** 2 * iv.log(iv.mpf(n)) for n in range(100, 2015)]
        for _ in range(7):
            ivals = [
                ivals[i + 1] * ivals[i + 1] - ivals[i] * ivals[i + 2]
                for i in range(len(ivals) - 2)
            ]
            # interval lower endpoints certify the sign
            assert all(v.a > 0 for v in ivals)
    finally:
        iv.prec = old_prec


def test_shift_and_structure_identities():
    """First- and second-order shift coefficients, plus the second-order
    structure of a_n = r(log n)/n^alpha, hold symbolically for 20 random
    rational functions."""
    for seed in range(20):
        rng = random.Random(7000 + seed)
        r = _random_ratfunc(rng)
        d1 = r.derivative()
        d2 = d1.derivative()
        plus = compose_coef_shift(r, 1, 3)
        minus = compose_coef_shift(r, -1, 3)
        assert plus.coefficient(1) == d1
        assert minus.coefficient(1) == -d1
        assert plus.coefficient(2) == (d2 - d1) / 2
        assert minus.coefficient(2) == (d2 - d1) / 2

        alpha = F(rng.randint(1, 6), rng.choice([1, 2]))
        a = AsymSeries([(alpha, r)])
        beta = alpha + 4
        q = shift_series(a, 1, beta) * shift_series(a, -1, beta)
        u = q.shift_exponents(-2 * alpha).scale(r ** (-2))
        lr = d1 / r
        assert u.coefficient(F(0)) == RatFunc.one()
        assert u.coefficient(F(1)).is_zero()
        assert u.coefficient(F(2)) == RatFunc.const(alpha) + lr.derivative() - lr

        css = shift_series(a, 1, alpha + 3) + shift_series(a, -1, alpha + 3) - a - a
        assert css.coefficient(alpha).is_zero()
        assert css.coefficient(alpha + 1).is_zero()
        expected = alpha * (alpha + 1) * r - (2 * alpha + 1) * d1 + d2
        assert css.coefficient(alpha + 2) == expected


def test_rectangle_propagation_and_term_invariants():
    """Four positive corners force t > 0 inside a rectangle (100k random
    rectangles, 25 interior samples each); term tables satisfy their own
    recurrences and the phi iteration identities for n <= 2000."""
    # integer grid with denominator D: t_int(i, j) = D^4 t(i/D, j/D)
    D = 2520
    D2 = D * D
    rng = random.Random(1905)

    def t_int(i, j):
        return 4 * (D - i) * (D - j) * D2 - (D2 - i * j) ** 2

    accepted = 0
    tried = 0
    while accepted < 100_000:
        tried += 1
        assert tried < 3_000_000
        x1 = rng.randint(-2 * D, 2 * D - 2)
        x2 = rng.randint(x1 + 2, 2 * D)
        y1 = rng.randint(-2 * D, 2 * D - 2)
        y2 = rng.randint(y1 + 2, 2 * D)
        if (
            t_int(x1, y1) <= 0
            or t_int(x1, y2) <= 0
            or t_int(x2, y1) <= 0
            or t_int(x2, y2) <= 0
        ):
            continue
        accepted += 1
        for _ in range(25):
            i = rng.randint(x1 + 1, x2 - 1)
            j = rng.randint(y1 + 1, y2 - 1)
            assert t_int(i, j) > 0, (x1, x2, y1, y2, i, j)

    for name in sorted(ENTRIES):
        rec = get(name).recurrence
        d = rec.order
        table = TermTable(rec)
        vals = table.values(0, 2002 + d)
        for n in range(0, 2001):
            assert rec.residual(vals[n:n + d + 1], n) == 0, (name, n)

        lvl1 = phi_values(table, 1, 0, 2000)
        lvl2 = phi_values(table, 2, 0, 1998)
        for i in range(len(lvl2)):
            assert lvl2[i] == lvl1[i + 1] ** 2 - lvl1[i] * lvl1[i + 2]
        # a(1) = 0 in one entry leaves u undefined below n = 2
        for n in range(2, 2001, 25):
            assert lvl1[n] == vals[n + 1] ** 2 * (1 - u_value(table, n + 1))
