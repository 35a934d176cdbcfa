"""Certification pipeline: ratio windows, u windows, corners, certificates."""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction as F

import pytest

from turancert.algebra import Poly, RatFunc, eventual_positivity_threshold
from turancert.asymptotics import ExpansionError, ratio_expansion
from turancert.asymptotics.ratio import u_grid
from turancert.certify import (
    CertifyError,
    CornerError,
    certify_ratio_bounds,
    certify_turan3,
    certify_u_bounds,
    certify_u_window,
    corner_polynomial,
    corner_suite,
    scaled_bounds,
    turan_form,
    u_bound_functions,
    verify_certificate,
)
from turancert import certify, checks, cli, sequences
from turancert.algebra import ratfunc as ratfunc_module
from turancert.corpus import ENTRIES, CorpusEntry
from turancert.parser import parse_recurrence
from turancert.render import frac_str, ratfunc_to_json
from turancert.sequences import (
    PREC, Recurrence, TermTable, check_inequality_range, first_escape, u_value,
)

from oracles import (
    corner_polynomial_reference, discharge_inequalities_reference, get, induction_inequalities_reference,
    random_deltas, random_truncation, ratio_base_reference, series_ratio_windows,
)


def rf(num, den=(1,)) -> RatFunc:
    return RatFunc(Poly([F(c) for c in num]), Poly([F(c) for c in den]))


SCALE = rf([0, 1], [1, 1])  # n/(n+1)


def window_pair(d_lo, d_hi, scaled):
    """1 + d/n^2 bound pair, optionally times the factorial-scaling factor."""
    g = rf([d_lo, 0, 1], [0, 0, 1])
    f = rf([d_hi, 0, 1], [0, 0, 1])
    return (g * SCALE, f * SCALE) if scaled else (g, f)


# documented window pairs behind the stored corner suites
CORNER_PAIRS = {
    "motzkin": window_pair(F(1, 2), F(5, 2), True),
    "franel3": window_pair(F(0), F(2), True),
    "bn": window_pair(F(0), F(3), True),
}


class TestRatioBounds:
    def test_order_one_direct_discharge(self):
        rb = certify_ratio_bounds(TermTable(get("inverse-catalan").recurrence), 4)
        assert rb.lam == F(1, 4)
        assert rb.mu == 0
        t = TermTable(get("inverse-catalan").recurrence)
        vals = t.values(0, 200)
        for n in range(rb.valid_from + 1, 200):
            assert rb.lower.eval(n) <= vals[n] / vals[n - 1] <= rb.upper.eval(n)

    def test_window_induction_motzkin(self):
        rec = get("motzkin").recurrence
        rb = certify_ratio_bounds(TermTable(rec), 4)
        t = TermTable(rec)
        vals = t.values(0, rb.valid_from + 300)
        for n in range(rb.valid_from + 1, rb.valid_from + 300):
            assert rb.lower.eval(n) <= vals[n] / vals[n - 1] <= rb.upper.eval(n)

    def test_slack_is_one_unit(self):
        rb = certify_ratio_bounds(TermTable(get("motzkin").recurrence), 4)
        width = rb.upper - rb.lower
        # mu = 0, order 4: slack n^-3 on each side
        assert width == rf([2], [0, 0, 0, 1])

    def test_half_integer_grid_refused(self):
        with pytest.raises(CertifyError):
            certify_ratio_bounds(TermTable(get("involutions").recurrence), 4)

    def test_algebraic_growth_refused(self):
        with pytest.raises(CertifyError):
            certify_ratio_bounds(TermTable(get("bn").recurrence), 4)

    def test_window_functions_match_series_construction(self):
        # lam (1 - 1/n)^mu v(n-1) n^mu from the grid arrays, against the
        # same window built by binomial_power and shift_series; every
        # corpus entry has mu = 0, so three recurrences add mu = 1, -1, 2
        pairs = 0
        for name in CERTIFIABLE + sorted(POWER_GROWTH):
            rec = POWER_GROWTH[name] if name in POWER_GROWTH else get(name).recurrence
            t = TermTable(rec)
            for order in range(2, 10):
                rx = ratio_expansion(rec, order, table=t)
                s_l, s_u, mu = certify._ratio_window_functions(rx, order)
                want = series_ratio_windows(rx, order)
                assert (s_l, s_u) == want, (name, order)
                assert [repr(r) for r in (s_l, s_u)] == [repr(r) for r in want]
                assert mu == rx.mu
                pairs += 1
        assert pairs == 72

    def test_base_window_matches_fraction_search(self, monkeypatch):
        # each base-window search against the Fraction search that tries
        # every start, and every outcome against its recorded value
        searches, base_window = [], certify._base_window

        def recorded(*args):
            searches.append(args)
            return base_window(*args)

        monkeypatch.setattr(certify, "_base_window", recorded)
        got, searched = {}, 0
        for name in sorted(ENTRIES):
            rec = get(name).recurrence
            for order in range(2, 9):
                searches.clear()
                try:
                    result = certify_ratio_bounds(TermTable(rec), order).valid_from
                except CertifyError as err:
                    result = str(err)
                got.setdefault(name, []).append(result)
                for table, s_l, s_u, start, d in searches:
                    m = ratio_base_reference(table, s_l, s_u, start, d, certify.BASE_SCAN_BUDGET)
                    assert m is not None and result == m - 1, (name, order)
                    searched += 1
        assert got == RATIO_VALID_FROM
        assert searched == 35  # inverse-catalan has order 1 and no base window

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_base_window_resumes_past_each_escape(self, monkeypatch, d):
        # terms of mixed signs with zeros among them, so that runs of d - 1
        # ratios inside the bounds are short; every start is compared with
        # the search that tries each m, including searches that run out
        rng = random.Random(30 + d)
        vals = [rng.choice((0, 1, 1, -1, 2, -3, 5)) * rng.randint(1, 4) for _ in range(90)]
        t = TermTable(Recurrence([Poly([1]), Poly([1])], vals))
        monkeypatch.setattr(certify, "BASE_SCAN_BUDGET", 12)
        outcomes = set()
        for g, f in ((RatFunc.const(-2), RatFunc.const(3)), (1 - 1 / (X - 9), 1 + X / 4)):
            for start in range(1, 70):
                m = ratio_base_reference(t, g, f, start, d, 12)
                want = m if m is not None else (
                    f"no base window of {d - 1} in-window ratios within "
                    f"12 indices past {start}; retry with a larger order"
                )
                try:
                    got = certify._base_window(t, g, f, start, d)
                except CertifyError as err:
                    got = str(err)
                assert got == want, (g, f, start)
                outcomes.add(m is None or m - start)
        assert True in outcomes and 0 in outcomes and max(outcomes) > 1


# a(n+2) = (n+2) a(n+1) + a(n), (n+1) a(n+1) = 3 a(n) and
# a(n+2) = (n+2)^2 a(n+1) + a(n): ratios lam n^mu v(n) with mu = 1, -1, 2
POWER_GROWTH = {
    "mu=1": Recurrence([Poly([1]), Poly([2, 1]), Poly([1])], [1, 1]),
    "mu=-1": Recurrence([Poly([1, 1]), Poly([3])], [1]),
    "mu=2": Recurrence([Poly([1]), Poly([4, 4, 1]), Poly([1])], [1, 1]),
}


# valid_from of the ratio window at orders 2..8, or the refusal
RATIO_VALID_FROM = {
    "apery": ["certification needs a rational growth constant"] * 7,
    "binomial4": [24, 5, 6, 9, 11, 14, 19],
    "bn": ["certification needs a rational growth constant"] * 7,
    "domb": [11, 8, 12, 35, 136, 638, 3479],
    "fine": [7, 7, 8, 9, 8, 11, 15],
    "franel3": [3, 2, 3, 4, 5, 7, 9],
    "inverse-catalan": [3, 2, 2, 2, 2, 2, 2],
    "involutions": ["certification needs an expansion on the integer exponent grid"] * 7,
    "motzkin": [15, 32, 67, 135, 271, 543, 1085],
}

# valid_from of the ratio window at orders 2..5, or the refusal, for
# recurrences of order 3 and 4: the induction multiplies more than one
# shifted bound, and q_k > 0, q_k = 0 and q_k < 0 all occur
HIGHER_ORDER_VALID_FROM = {
    "a(n+3) - a(n+2) - a(n+1) - 2*a(n) = 0 ; 1, 1, 3": [6, 8, 12, 17],
    "a(n+3) - 4*a(n+2) + 9*a(n) = 0 ; 2, 4, 11": [15, 31, 49, 69],
    "(n+3)*a(n+3) - (n+3)*a(n+2) - (n+2)*a(n+1) - 2*(n+1)*a(n) = 0 ; 1, 1, 3": [5, 7, 11, 17],
    "a(n+4) - a(n+3) - a(n+2) - a(n+1) - 2*a(n) = 0 ; 1, 1, 2, 3": [16, 22, 33, 45],
    "a(n+4) - 2*a(n+3) - a(n+1) + 2*a(n) = 0 ; 1, 3, 5, 9": [3, 6, 11, 17],
    "(n+3)^2*a(n+3) - (3*n^2+15*n+19)*a(n+2) + (n+2)*a(n+1) - (n+1)*a(n) = 0 ; 1, 2, 5":
        [2, 2, 2, 4],
    "a(n+3) - 6*a(n+2) + 11*a(n+1) - 6*a(n) = 0 ; 3, 6, 14":
        ["required inequality is not eventually positive: s_u(n+d) - upper step"] * 4,
}


@pytest.mark.parametrize("text", sorted(HIGHER_ORDER_VALID_FROM))
def test_ratio_induction_beyond_order_two(text):
    rec = parse_recurrence(text)
    t = TermTable(rec)
    got = []
    for order in range(2, 6):
        try:
            rb = certify_ratio_bounds(t, order)
        except CertifyError as err:
            got.append(str(err))
            continue
        got.append(rb.valid_from)
        vals = t.values(0, rb.valid_from + 60)
        for n in range(rb.valid_from + 1, rb.valid_from + 60):
            assert rb.lower.eval(n) <= vals[n] / vals[n - 1] <= rb.upper.eval(n)
    assert got == HIGHER_ORDER_VALID_FROM[text]


def forms(pairs) -> list:
    """(num, den, what) coefficient tuples of (RatFunc, what) pairs."""
    return [(r.num.coeffs, r.den.coeffs, what) for r, what in pairs]


def assert_fused_match(rec, s_l, s_u, g, f, label):
    """The fused corner, induction and discharge builders give the same
    coefficient tuples as their operator-by-operator references, on g and f
    as given and under the factorial scaling."""
    assert forms(certify._induction_inequalities(rec, s_l, s_u)) == forms(
        induction_inequalities_reference(rec, s_l, s_u)), label
    for scaled in (False, True):
        gs, fs = (g * sequences.FACTORIAL_FACTOR, f * sequences.FACTORIAL_FACTOR) if scaled else (g, f)
        assert forms(certify._discharge_inequalities(s_l, s_u, gs, fs)) == forms(
            discharge_inequalities_reference(s_l, s_u, gs, fs)), (label, scaled)
        for i in range(4):
            got, want = corner_polynomial(gs, fs, i), corner_polynomial_reference(gs, fs, i)
            assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs), (label, scaled, i)


def random_laurent(rng, top: int, lead, terms: int) -> RatFunc:
    """lead n^top plus random rational corrections at n^(top-1) .. n^(top-terms)."""
    return RatFunc.laurent([(top, lead)] + [
        (top - k, F(rng.randint(-20, 20), rng.randint(1, 6))) for k in range(1, terms + 1)
    ])


class TestFusedInequalities:
    def test_corpus_windows_match_references(self):
        # every corpus window on the integer grid at K = 4, 6, 8, whether or
        # not its proof closes
        compared = 0
        for name in sorted(ENTRIES):
            rec = get(name).recurrence
            t = TermTable(rec)
            for order in (4, 6, 8):
                rx = ratio_expansion(rec, order, table=t)
                try:
                    s_l, s_u, _ = certify._ratio_window_functions(rx, order)
                except CertifyError:
                    continue
                g, f, _, _ = u_bound_functions(u_grid(rx), order)
                assert_fused_match(rec, s_l, s_u, g, f, (name, order))
                compared += 1
        assert compared == 18

    @pytest.mark.parametrize("text", sorted(HIGHER_ORDER_VALID_FROM))
    def test_higher_order_windows_match_references(self, text):
        rec = parse_recurrence(text)
        t = TermTable(rec)
        for order in range(2, 6):
            rx = ratio_expansion(rec, order, table=t)
            s_l, s_u, _ = certify._ratio_window_functions(rx, order)
            g, f, _, _ = u_bound_functions(u_grid(rx), order)
            assert_fused_match(rec, s_l, s_u, g, f, order)

    def test_random_windows_match_references(self):
        # random Laurent ratio and u windows (each also under the factorial
        # scaling) on the corpus and higher-order recurrences
        rng = random.Random(2901)
        recs = [get(name).recurrence for name in sorted(ENTRIES)]
        recs += [parse_recurrence(text) for text in sorted(HIGHER_ORDER_VALID_FROM)]
        for trial in range(200):
            mu = rng.choice([-1, 0, 0, 1, 2])
            lam = F(rng.randint(1, 30), rng.randint(1, 4))
            s_l = random_laurent(rng, mu, lam, rng.randint(0, 3))
            s_u = s_l + RatFunc.laurent([(mu - rng.randint(1, 3), F(rng.randint(1, 9), rng.randint(1, 3)))])
            g = random_laurent(rng, 0, 1, rng.randint(1, 3))
            f = g + RatFunc.laurent([(-rng.randint(1, 3), F(rng.randint(1, 9), rng.randint(1, 4)))])
            assert_fused_match(rng.choice(recs), s_l, s_u, g, f, trial)

    @pytest.mark.parametrize("scale", [F(1, 2), F(2, 3), F(-3, 4)])
    def test_rational_coefficient_recurrences(self, scale):
        # a `coeffs` document whose polynomials clear to different scales
        # (fine halved: 3 + n, 9/2 + 7n/2, 3 + 2n) gives the same induction
        # inequalities as the integer recurrence it is a multiple of
        for name in sorted(ENTRIES):
            rec = get(name).recurrence
            doc = {
                "coeffs": [[str(c * scale) for c in p.coeffs] for p in rec.coeffs],
                "initials": [str(v) for v in rec.initials],
            }
            scaled, _ = cli.recurrence_from_json(doc)
            rx = ratio_expansion(rec, 6, table=TermTable(rec))
            try:
                s_l, s_u, _ = certify._ratio_window_functions(rx, 6)
            except CertifyError:
                continue
            want = forms(induction_inequalities_reference(rec, s_l, s_u))
            assert forms(certify._induction_inequalities(scaled, s_l, s_u)) == want, (name, scale)
            assert forms(induction_inequalities_reference(scaled, s_l, s_u)) == want, (name, scale)

    def test_one_gcd_per_corner(self, monkeypatch):
        calls = []
        int_gcd = ratfunc_module._int_gcd

        def counted(*args):
            calls.append(args)
            return int_gcd(*args)

        monkeypatch.setattr(ratfunc_module, "_int_gcd", counted)
        for name in ("motzkin", "franel3"):
            g, f = CORNER_PAIRS[name]
            for i in range(4):
                calls.clear()
                corner_polynomial(g, f, i)
                assert len(calls) == 1, (name, i)


class TestUBounds:
    def test_refusal_names_the_inequality(self):
        with pytest.raises(CertifyError) as err:
            certify._ept(RatFunc(Poly([1, -1])), "s_l(n)")
        assert str(err.value) == "required inequality is not eventually positive: s_l(n)"

    def test_every_discharge_names_its_inequality(self, monkeypatch):
        seen, ept = [], certify._ept

        def recorded(r, what):
            seen.append(what)
            return ept(r, what)

        monkeypatch.setattr(certify, "_ept", recorded)
        certify_u_bounds(TermTable(get("motzkin").recurrence), 4)
        assert seen == [
            "s_l(n)",
            "s_u(n+d) - upper step",
            "lower step - s_l(n+d)",
            "f(n) - s_u(n+1)/s_l(n)",
            "s_l(n+1)/s_u(n) - g(n)",
        ]

    def test_binomial4_printed_pair(self):
        rec = get("binomial4").recurrence
        rb, ub = certify_u_bounds(TermTable(rec), 4)
        assert ub.lower == rf([F(1, 2), 0, 1], [0, 0, 1])
        assert ub.upper == rf([F(5, 2), 0, 1], [0, 0, 1])
        assert ub.valid_from <= 200
        assert ub.kept == {F(2): (F(3, 2), F(3, 2))}
        assert ub.slack_exponent == 2

    def test_binomial4_sandwich(self):
        rec = get("binomial4").recurrence
        t = TermTable(rec)
        _, ub = certify_u_bounds(t, 4)
        for n in range(ub.valid_from + 1, ub.valid_from + 300):
            assert ub.lower.eval(n) <= u_value(t, n) <= ub.upper.eval(n)

    def test_motzkin_and_franel3_pairs(self):
        _, ub = certify_u_bounds(TermTable(get("motzkin").recurrence), 4)
        assert ub.lower == rf([F(1, 2), 0, 1], [0, 0, 1])
        assert ub.upper == rf([F(5, 2), 0, 1], [0, 0, 1])
        _, ub = certify_u_bounds(TermTable(get("franel3").recurrence), 4)
        assert ub.lower == rf([0, 0, 1], [0, 0, 1])
        assert ub.upper == rf([2, 0, 1], [0, 0, 1])

    def test_shared_table_matches_fresh_calls(self):
        # one window solve per order serves every caller of a table
        rec = get("motzkin").recurrence
        shared = TermTable(rec)
        pair = certify_u_bounds(shared, 4)
        assert pair == certify_u_bounds(TermTable(rec), 4)
        assert certify_u_bounds(shared, 4) is pair
        for make in (certify_turan3, certify_u_window):
            cert = make(shared, 4, scaling="factorial")
            assert cert.to_json() == make(TermTable(rec), 4, scaling="factorial").to_json()
            assert verify_certificate(cert.to_json(), shared) == (True, [])
        assert certify_u_bounds(shared, 5) == certify_u_bounds(TermTable(rec), 5)
        assert len(shared.u_bounds) == 2

    def test_bound_functions_keep_rule(self):
        rec = get("motzkin").recurrence
        g, f, slack_exp, kept = u_bound_functions(u_grid(ratio_expansion(rec, 6)), 6)
        # order 6 keeps exponents 2, 3, 4 and puts the slack at 4
        assert sorted(kept) == [F(2), F(3), F(4)]
        assert slack_exp == 4
        n = 50
        uv = u_value(TermTable(rec), n)
        assert g.eval(n) < uv < f.eval(n)


class TestCorners:
    @pytest.mark.parametrize("name", sorted(CORNER_PAIRS))
    def test_stored_corner_goldens(self, name):
        g, f = CORNER_PAIRS[name]
        for i, stored in enumerate(get(name).expected["corner_suite"]["corners"]):
            mine = corner_polynomial(g, f, i)
            assert mine == RatFunc(Poly(stored["num"]), stored["den"])
            assert eventual_positivity_threshold(mine) == stored["minimal_threshold"]

    def test_bn_printed_threshold_is_valid_but_loose(self):
        g, f = CORNER_PAIRS["bn"]
        stored = get("bn").expected["corner_suite"]["corners"][3]
        thr = eventual_positivity_threshold(corner_polynomial(g, f, 3))
        assert thr == 3
        assert stored["printed_threshold"] == 7
        assert thr < stored["printed_threshold"]

    def test_corner_orientation(self):
        g, f = CORNER_PAIRS["franel3"]
        n = 17
        pairs = [
            (g.eval(n), g.eval(n + 1)),
            (g.eval(n), f.eval(n + 1)),
            (f.eval(n), g.eval(n + 1)),
            (f.eval(n), f.eval(n + 1)),
        ]
        for i, (x, y) in enumerate(pairs):
            assert corner_polynomial(g, f, i).eval(n) == turan_form(x, y)
        with pytest.raises(ValueError):
            corner_polynomial(g, f, 4)

    def test_critical_window_refused(self):
        # inverse-catalan: u -> 1 at order n^-2, same order as the window
        # width, so no corner can be eventually positive.
        rec = get("inverse-catalan").recurrence
        _, ub = certify_u_bounds(TermTable(rec), 4)
        with pytest.raises(CornerError):
            corner_suite(ub.lower, ub.upper)


class TestTuranCertificate:
    def test_motzkin_end_to_end(self):
        e = get("motzkin")
        t = TermTable(e.recurrence)
        cert = certify_turan3(t, 4, scaling="factorial")
        assert cert.violations == [1]
        assert cert.holds_from == 2
        assert cert.N >= max(c["threshold"] for c in cert.corners)
        ok, diag = verify_certificate(cert.to_json(), t)
        assert ok, diag

    def test_franel3_end_to_end(self):
        e = get("franel3")
        t = TermTable(e.recurrence)
        cert = certify_turan3(t, 4, scaling="factorial")
        assert cert.violations == [1]
        assert cert.holds_from == 2
        ok, diag = verify_certificate(cert.to_json(), t)
        assert ok, diag

    def test_json_round_trip_and_determinism(self):
        e = get("motzkin")
        cert = certify_turan3(TermTable(e.recurrence), 4, scaling="factorial")
        blob = cert.dumps()
        again = certify_turan3(TermTable(e.recurrence), 4, scaling="factorial").dumps()
        assert blob == again
        parsed = json.loads(blob)
        ok, diag = verify_certificate(parsed, TermTable(e.recurrence))
        assert ok, diag
        assert parsed["toolVersion"]
        assert parsed["sequence"]["scaling"] == "factorial"

    def test_unknown_scaling_rejected(self):
        with pytest.raises(ValueError):
            certify_turan3(TermTable(get("motzkin").recurrence), 4, scaling="geometric")

    def test_scaled_bounds(self):
        _, ub = certify_u_bounds(TermTable(get("motzkin").recurrence), 4)
        assert scaled_bounds(ub, "none") == ub
        scaled = scaled_bounds(ub, "factorial")
        assert (scaled.lower, scaled.upper) == (ub.lower * SCALE, ub.upper * SCALE)
        assert (scaled.valid_from, scaled.kept) == (ub.valid_from, ub.kept)
        with pytest.raises(ValueError, match="unknown scaling"):
            scaled_bounds(ub, "geometric")

    def test_scaled_bounds_keep_every_other_field(self):
        _, ub = certify_u_bounds(TermTable(get("motzkin").recurrence), 4)
        scaled = scaled_bounds(ub, "factorial")
        kept = [f for f in type(ub)._fields if f not in ("lower", "upper")]
        assert kept == ["valid_from", "slack_exponent", "kept"]
        assert [getattr(scaled, f) for f in kept] == [getattr(ub, f) for f in kept]
        assert (scaled.lower, scaled.upper) != (ub.lower, ub.upper)

    def test_verify_rejects_tampered_threshold(self):
        e = get("motzkin")
        cert = certify_turan3(TermTable(e.recurrence), 4, scaling="factorial").to_json()
        cert["corners"][1]["threshold"] -= 1
        ok, diag = verify_certificate(cert, TermTable(e.recurrence))
        assert not ok
        assert any("threshold" in d for d in diag)

    def test_verify_rejects_tampered_bound(self):
        e = get("motzkin")
        cert = certify_turan3(TermTable(e.recurrence), 4, scaling="factorial").to_json()
        cert["bounds"]["f"]["num"][0] = "99"
        ok, diag = verify_certificate(cert, TermTable(e.recurrence))
        assert not ok
        assert any("corner" in d for d in diag)

    def test_verify_rejects_tampered_violations(self):
        e = get("motzkin")
        cert = certify_turan3(TermTable(e.recurrence), 4, scaling="factorial").to_json()
        cert["initialSegment"]["violations"] = []
        ok, diag = verify_certificate(cert, TermTable(e.recurrence))
        assert not ok
        assert any("violations" in d for d in diag)

    @pytest.mark.parametrize("name, tamper, message", [
        # g gets a pole just past validFrom, and grows like n
        ("motzkin", lambda doc: doc["bounds"]["g"].update(
            den=[str(-doc["bounds"]["validFrom"] - 3), "1"]),
         "the window is not proved: required inequality is not eventually positive:"
         " s_l(n+1)/s_u(n) - g(n)"),
        # u_1 of fine is undefined, as a(1) = 0
        ("fine", lambda doc: doc["bounds"].update(validFrom=0),
         "validFrom 0 is below 8, past which the ratio window discharges the u-window"),
    ], ids=["window-pole", "zero-term"])
    def test_verify_rejects_undefined_sample(self, name, tamper, message):
        e = get(name)
        t = TermTable(e.recurrence)
        doc = certify_turan3(t, 4, scaling=e.scaling).to_json()
        tamper(doc)
        ok, diag = verify_certificate(doc, t)
        assert not ok
        assert message in diag

    @pytest.mark.parametrize("extra, diagnosis", [
        ([], []),
        ([5 * 10**4], ["initial-segment violations do not match"]),
    ], ids=["raised", "raised-with-violation"])
    def test_raised_n_does_not_size_the_rescan(self, extra, diagnosis):
        # past the corner thresholds and validFrom the proved window and the
        # corners settle every index, so a larger stored N costs no terms
        e = get("motzkin")
        doc = certify_turan3(TermTable(e.recurrence), 4, scaling="factorial").to_json()
        assert doc["N"] == 67
        doc["N"] = doc["initialSegment"]["to"] = 10**5
        doc["initialSegment"]["violations"] += extra
        t = TermTable(e.recurrence)
        start = time.perf_counter()
        ok, diag = verify_certificate(doc, t)
        assert time.perf_counter() - start < 0.5
        assert (ok, diag) == (not diagnosis, diagnosis)
        assert len(t) < 100

    def test_rejected_corner_does_not_size_the_rescan(self):
        # a corner that does not match rejects the certificate, so the
        # initial segment is not scanned at all
        e = get("motzkin")
        doc = certify_turan3(TermTable(e.recurrence), 4, scaling="factorial").to_json()
        doc["N"] = doc["initialSegment"]["to"] = 10**5
        num = doc["corners"][0]["num"]
        num[0] = frac_str(F(num[0]) + 1)
        t = TermTable(e.recurrence)
        start = time.perf_counter()
        ok, diag = verify_certificate(doc, t)
        assert time.perf_counter() - start < 0.5
        assert not ok and "corner 0 does not match the stored window functions" in diag
        assert len(t) < 100

    def test_verify_rejects_wrong_sequence(self):
        cert = certify_turan3(TermTable(get("franel3").recurrence), 4, scaling="factorial")
        ok, diag = verify_certificate(cert.to_json(), TermTable(get("motzkin").recurrence))
        assert not ok
        assert any("recurrence" in d for d in diag)

    def test_the_table_is_the_sequence_certified(self, capsys, tmp_path):
        # Motzkin's recurrence from a(0)=5, a(1)=1: the certificate is the
        # variant's own, and Motzkin's table rejects it
        motzkin = get("motzkin").recurrence
        variant = Recurrence(motzkin.coeffs, [5, 1], name="variant")
        cert = certify_turan3(TermTable(variant), 4, "factorial")
        assert (cert.holds_from, cert.violations) == (5, [1, 2, 3, 4])
        assert verify_certificate(cert.to_json(), TermTable(variant)) == (True, [])
        ok, diag = verify_certificate(cert.to_json(), TermTable(motzkin))
        assert not ok and diag[0] == "certificate does not describe this recurrence"
        path = tmp_path / "variant.json"
        path.write_text(cert.dumps())
        assert cli.main(["verify", str(path), "motzkin"]) == 3
        assert capsys.readouterr().out.startswith("certificate for motzkin: REJECTED\n")

    def test_verify_rejects_malformed(self):
        ok, diag = verify_certificate({"sequence": {}}, TermTable(get("motzkin").recurrence))
        assert not ok
        assert any("malformed" in d for d in diag)

    def test_verify_rejects_unknown_kind(self):
        cert = certify_turan3(TermTable(get("motzkin").recurrence), 4, scaling="factorial")
        doc = cert.to_json()
        doc["kind"] = "llc2"
        ok, diag = verify_certificate(doc, TermTable(get("motzkin").recurrence))
        assert not ok
        assert any("kind" in d for d in diag)


class TestUWindowCertificate:
    # binomial4 sits above 1, so its corners refuse but the window itself
    # certifies; the window-only artifact records exactly that
    def test_binomial4_end_to_end(self):
        e = get("binomial4")
        t = TermTable(e.recurrence)
        with pytest.raises(CertifyError, match="not eventually positive"):
            certify_turan3(t, 4)
        cert = certify_u_window(t, 4)
        assert cert.bounds.lower == rf([F(1, 2), 0, 1], [0, 0, 1])
        assert cert.bounds.upper == rf([F(5, 2), 0, 1], [0, 0, 1])
        assert cert.bounds.valid_from <= 200
        assert cert.checked_from == cert.bounds.valid_from + 1
        assert cert.checked_to == cert.bounds.valid_from + 2000
        doc = json.loads(cert.dumps())
        assert doc["kind"] == "u-window"
        ok, diag = verify_certificate(doc, t)
        assert ok, diag

    def test_scaled_window(self):
        e = get("motzkin")
        t = TermTable(e.recurrence)
        cert = certify_u_window(t, 4, scaling="factorial")
        g, f = CORNER_PAIRS["motzkin"]
        assert cert.bounds.lower == g
        assert cert.bounds.upper == f
        ok, diag = verify_certificate(cert.to_json(), t)
        assert ok, diag

    def test_verify_rejects_tampered_window(self):
        e = get("binomial4")
        t = TermTable(e.recurrence)
        doc = certify_u_window(t, 4).to_json()
        doc["bounds"]["g"]["num"][0] = "3"
        ok, diag = verify_certificate(doc, t)
        assert not ok
        assert (
            "the window is not proved: required inequality is not eventually positive:"
            " s_l(n+1)/s_u(n) - g(n)"
        ) in diag

    def test_verify_rejects_early_valid_from(self):
        e = get("binomial4")
        t = TermTable(e.recurrence)
        doc = certify_u_window(t, 4).to_json()
        doc["bounds"]["validFrom"] = 1
        doc["checkedSegment"] = {"from": 2, "to": 100}
        ok, diag = verify_certificate(doc, t)
        assert not ok
        assert "validFrom 1 is below 6, past which the ratio window discharges the u-window" in diag

    def test_verify_rejects_segment_before_window(self):
        # the recheck never reads terms before a(0)
        e = get("binomial4")
        t = TermTable(e.recurrence)
        doc = certify_u_window(t, 4).to_json()
        doc["checkedSegment"]["from"] = 0
        ok, diag = verify_certificate(doc, t)
        assert (ok, diag) == (False, ["checked segment does not start right after validFrom"])

    @pytest.mark.parametrize("to", [6, 3, -5])
    def test_verify_rejects_empty_segment(self, to):
        # a segment ending before it starts rechecks no index at all
        e = get("binomial4")
        t = TermTable(e.recurrence)
        doc = certify_u_window(t, 4).to_json()
        assert doc["checkedSegment"]["from"] == 7
        doc["checkedSegment"]["to"] = to
        ok, diag = verify_certificate(doc, t)
        assert (ok, diag) == (False, ["checked segment is empty"])

    def test_raised_segment_end_does_not_size_the_rescan(self):
        # the window is proved for every n > validFrom; the rescan covers
        # the U_WINDOW_SPAN indices that certify_u_window checks
        e = get("binomial4")
        doc = certify_u_window(TermTable(e.recurrence), 4).to_json()
        doc["checkedSegment"]["to"] = doc["checkedSegment"]["from"] + 10**6
        t = TermTable(e.recurrence)
        start = time.perf_counter()
        ok, diag = verify_certificate(doc, t)
        assert time.perf_counter() - start < 1
        assert (ok, diag) == (True, [])
        assert len(t) <= doc["checkedSegment"]["from"] + certify.U_WINDOW_SPAN + 2

    def test_order1_segment_work_does_not_grow_with_its_length(self):
        # inverse-catalan is order 1: past a closed-form threshold (here
        # below the segment) u_n is decided by root counts, not by terms
        rec = get("inverse-catalan").recurrence
        t = TermTable(rec)
        _, ub = certify_u_bounds(t, 4)
        filled = len(t)
        doc = certify_u_window(t, 4).to_json()
        assert len(t) == filled < ub.valid_from + 2001
        lo = ub.valid_from + 1
        t = TermTable(rec)
        assert first_escape(t, ub.lower, ub.upper, lo, lo + 1999) is None
        assert len(t) == lo  # a(0..lo-1): the first window's first term
        doc["checkedSegment"]["to"] = doc["checkedSegment"]["from"] + 10**6
        start = time.perf_counter()
        ok, diag = verify_certificate(doc, TermTable(rec))
        assert time.perf_counter() - start < 0.5
        assert (ok, diag) == (True, [])


HALF_CUBE = rf([1], [0, 0, 0, 2])  # 1/(2n^3), half the K = 4 ratio slack


def with_part(part, key, change):
    """A tamper that replaces the rational function doc[part][key] by change(it)."""
    def tamper(doc):
        doc[part][key] = ratfunc_to_json(change(certify._rf_from_json(doc[part][key], key)))
    return tamper


def with_lower(lam, change):
    """A tamper that sets s_l to change(s_l), and s_u to s_l + 2/n^3 and
    lambda to lam, so that the slack and the limit still match."""
    def tamper(doc):
        s_l = change(certify._rf_from_json(doc["ratioBounds"]["lower"], "lower"))
        doc["ratioBounds"].update(
            {"lambda": lam, "lower": ratfunc_to_json(s_l), "upper": ratfunc_to_json(s_l + 4 * HALF_CUBE)})
    return tamper


def refreshed(doc, table, n_cert=None):
    """doc with every field that follows from its windows recomputed: the
    corners and their thresholds, N (kept when given), the initial segment
    and holdsFrom, so that only the head's own claims can be wrong."""
    g, f = (certify._rf_from_json(doc["bounds"][k], k) for k in ("g", "f"))
    corners = [corner_polynomial(g, f, i) for i in range(4)]
    thresholds = [eventual_positivity_threshold(c) for c in corners]
    doc["corners"] = [{**ratfunc_to_json(c), "threshold": t} for c, t in zip(corners, thresholds)]
    n_cert = max([doc["bounds"]["validFrom"]] + thresholds) if n_cert is None else n_cert
    violations = check_inequality_range(table, "turan3", 1, n_cert, doc["sequence"]["scaling"])
    doc["N"], doc["initialSegment"] = n_cert, {"from": 1, "to": n_cert, "violations": violations}
    doc["holdsFrom"] = violations[-1] + 1 if violations else 1
    return doc


NOT_POSITIVE = "the window is not proved: required inequality is not eventually positive: "
SLACK = "s_u(n) - s_l(n) is not 2 n^-3, the slack of mu = 0 at order 4"
ZERO = RatFunc.zero()


class TestProvedHead:
    """Tampered heads of motzkin's K = 4 factorial certificate, every
    dependent field recomputed: each claim is false, and was accepted
    while `verify` only sampled u_n past validFrom."""

    @pytest.mark.parametrize("n_cert, tamper, message", [
        # f: u's own expansion with its n^-4 coefficient lowered by 1/5,
        # which u leaves at n = 231
        (67, with_part("bounds", "f", lambda f: (
            1 + rf([F(3, 2)], [0, 0, 1]) - rf([F(39, 8)], [0, 0, 0, 1])
            + rf([F(489, 32) - F(1, 5)], [0, 0, 0, 0, 1])) * SCALE),
         NOT_POSITIVE + "f(n) - s_u(n+1)/s_l(n)"),
        (None, lambda doc: doc["ratioBounds"].update(validFrom=10),
         "ratio validFrom 10 is below the induction threshold 67"),
        (30, lambda doc: doc["bounds"].update(validFrom=30),
         "validFrom 30 is below 67, past which the ratio window discharges the u-window"),
        (None, with_lower("3", lambda s: s - HALF_CUBE), NOT_POSITIVE + "s_u(n+d) - upper step"),
        (None, lambda doc: doc["ratioBounds"].update({"lambda": "5"}),
         "s_l(n) does not lead with lambda n^mu = 5 n^0"),
        (None, with_part("ratioBounds", "upper", lambda s: s - HALF_CUBE), SLACK),
        (None, with_part("ratioBounds", "lower", lambda s: ZERO), SLACK),
        (None, with_part("ratioBounds", "lower", lambda s: -s), SLACK),
        (None, with_lower("0", lambda s: ZERO), "s_l(n) does not lead with lambda n^mu = 0 n^0"),
        (None, with_lower("-3", lambda s: -s), NOT_POSITIVE + "s_l(n)"),
        # f - g is 2 n^-2 once unscaled from n/(n+1)
        (None, lambda doc: doc["bounds"].update(slackExponent="7/3"),
         "slackExponent 7/3 is not the largest power of 1/n in f(n) - g(n)"),
    ], ids=["a-low-f", "b-ratio-valid-from", "c-valid-from", "d-shifted-window", "e-lambda",
            "f-low-s_u", "g-zero-s_l", "g-negated-s_l", "g-zero-s_l-matched", "g-negated-s_l-matched",
            "h-slack-exponent"])
    def test_rejects_a_false_head(self, n_cert, tamper, message):
        rec = get("motzkin").recurrence
        t = TermTable(rec)
        doc = certify_turan3(t, 4, "factorial").to_json()
        tamper(doc)
        doc = refreshed(doc, t, n_cert)
        assert verify_certificate(doc, t) == (False, [message])

    def test_base_ratios_are_checked_exactly(self):
        # 3^n's window closes the induction for 2^n too, whose ratios lie outside it
        three = parse_recurrence("a(n+2) - 5*a(n+1) + 6*a(n) = 0 ; 1, 3")
        two = parse_recurrence("a(n+2) - 5*a(n+1) + 6*a(n) = 0 ; 1, 2")
        doc = certify_u_window(TermTable(three), 4).to_json()
        assert doc["ratioBounds"]["validFrom"] == 6
        assert verify_certificate(doc, TermTable(three)) == (True, [])
        assert verify_certificate(doc, TermTable(two)) == (False, [
            "certificate does not describe this recurrence",
            "base ratio a(n)/a(n-1) at n = 7 is outside the ratio window",
        ])

    @pytest.mark.parametrize("tamper, message", [
        (with_lower("0", lambda s: ZERO), "s_l(n) does not lead with lambda n^mu = 0 n^0"),
        (with_lower("-3", lambda s: -s), NOT_POSITIVE + "s_l(n)"),
    ], ids=["zero", "negated"])
    def test_a_false_lower_bound_exits_3_with_a_diagnosis(self, capsys, tmp_path, tamper, message):
        rec = get("motzkin").recurrence
        doc = certify_turan3(TermTable(rec), 4, "factorial").to_json()
        tamper(doc)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", str(path), "motzkin"]) == 3
        out, err = capsys.readouterr()
        assert (out.splitlines(), err) == (["certificate for motzkin: REJECTED", "  " + message], "")

    def test_verify_needs_no_expansion(self, monkeypatch):
        docs = []
        for name, e in sorted(ENTRIES.items()):
            for order in (4, 6, 8):
                for make in (certify_turan3, certify_u_window):
                    try:
                        cert = make(TermTable(e.recurrence), order, e.scaling)
                    except (CertifyError, ExpansionError):
                        continue
                    docs.append((e.recurrence, cert.to_json()))
        # turan3 on domb, fine, franel3 and motzkin at every order, and on
        # inverse-catalan at 6 and 8; u-window on those five and binomial4
        assert len(docs) == 14 + 18

        def refused(*args, **kwargs):
            raise AssertionError("verify reached the expansion")

        for attr in ("ratio_expansion", "certify_u_bounds", "certify_ratio_bounds"):
            monkeypatch.setattr(certify, attr, refused)
        for rec, doc in docs:
            assert verify_certificate(doc, TermTable(rec)) == (True, []), doc["sequence"]["name"]

    @pytest.mark.parametrize("order", [8, 16, 24])
    def test_rewritten_order_is_rejected_at_once(self, order):
        rec = get("binomial4").recurrence
        t = TermTable(rec)
        doc = certify_u_window(t, 4).to_json()
        doc["order"] = order
        start = time.perf_counter()
        ok, diag = verify_certificate(doc, t)
        assert time.perf_counter() - start < 0.5
        assert (ok, diag) == (False, [f"s_u(n) - s_l(n) is not 2 n^{1 - order}, the slack of mu = 0 at order {order}"])


def scaled_u(table, n, scaling):
    """u_n of a(n), or u_n n/(n+1), that of a(n)/n!, under the factorial
    scaling."""
    u = u_value(table, n)
    return u * F(n, n + 1) if scaling == "factorial" else u


def unscaled(scaling, g, f):
    """A window on the u_n of `scaled_u` as the window on the unscaled u_n
    that has the same escapes: each bound over n/(n+1) under the factorial
    scaling."""
    return (g / SCALE, f / SCALE) if scaling == "factorial" else (g, f)


def oracle_escape(table, scaling, g, f, lo, hi):
    """The Fraction scan that first_escape replaced: the scaled u_n between
    two evaluations."""
    for n in range(lo, hi + 1):
        try:
            inside = g.eval(n) <= scaled_u(table, n, scaling) <= f.eval(n)
        except ZeroDivisionError:
            inside = False
        if not inside:
            return n
    return None


def scaled_escape(table, scaling, g, f, lo, hi):
    """first_escape of a window on the scaled u_n, run on its unscaled window."""
    return first_escape(table, *unscaled(scaling, g, f), lo, hi)


def all_escapes(scan, *args):
    """Every index of [lo, hi] that `scan(*head, lo, hi)` reports, for
    args = (*head, lo, hi), restarting after each."""
    *head, lo, hi = args
    out = []
    while (n := scan(*head, lo, hi)) is not None:
        out.append(n)
        lo = n + 1
    return out


def assert_same_escapes(table, scaling, g, f, lo, hi):
    got = all_escapes(scaled_escape, table, scaling, g, f, lo, hi)
    assert got == all_escapes(oracle_escape, table, scaling, g, f, lo, hi)
    return got


X = RatFunc.variable()
CERTIFIABLE = ["binomial4", "domb", "fine", "franel3", "inverse-catalan", "motzkin"]
# terms of both signs: a(n) = (-3)^n (n+1)!, and signs + + - - repeating,
# under which u_n < 0
SIGNED = {
    "alternating": Recurrence([Poly([1]), Poly([-6, -3])], [1]),
    "period-4 signs": Recurrence([Poly([1]), Poly(), Poly([-1, -1])], [1, 1]),
}


def moved_windows(g, f):
    """The window itself and copies narrowed or widened by c/n^k."""
    yield g, f
    for c, k in ((F(1, 2), 1), (F(1, 2), 2), (F(3, 2), 2), (F(1, 3), 3), (F(7), 3), (F(40), 4)):
        d = c / X**k
        yield g + d, f - d
        yield g - d, f + d
        yield g + d, f
        yield g, f - d


class TestFirstEscape:
    """first_escape against the Fraction oracle, escape by escape."""

    @pytest.mark.parametrize("scaling", ["none", "factorial"])
    @pytest.mark.parametrize("name", CERTIFIABLE)
    def test_certified_windows_match_oracle(self, name, scaling):
        rec = get(name).recurrence
        t = TermTable(rec)
        ub = scaled_bounds(certify_u_bounds(t, 4)[1], scaling)
        escaped = inside = 0
        for g, f in moved_windows(ub.lower, ub.upper):
            for lo, hi in ((1, 60), (ub.valid_from + 1, ub.valid_from + 40)):
                got = assert_same_escapes(t, scaling, g, f, lo, hi)
                escaped += len(got)
                inside += hi - lo + 1 - len(got)
        assert escaped and inside

    def test_bn_negative_first_term(self):
        # a(0) = -1 makes u_1 = -7
        e = get("bn")
        t = TermTable(e.recurrence)
        g, f = CORNER_PAIRS["bn"]
        assert t.value(0) == -1
        for g2, f2 in moved_windows(g, f):
            assert_same_escapes(t, e.scaling, g2, f2, 1, 60)
        assert first_escape(t, *unscaled(e.scaling, g, f), 1, 60) == 1

    def test_pole_inside_range(self):
        # the moved bound has a pole at n = 40 and a negative denominator below it
        rec = get("binomial4").recurrence
        t = TermTable(rec)
        _, ub = certify_u_bounds(t, 4)
        g, f = ub.lower, ub.upper
        for g2, f2 in (
            (g - 1 / (X - 40), f),
            (g, f + 1 / (X - 40)),
            (g - 1 / (X - 40) ** 2, f + 1 / (X - 40) ** 2),
        ):
            got = assert_same_escapes(t, "none", g2, f2, 1, 80)
            assert 40 in got
        assert first_escape(t, g - 1 / (X - 40) ** 2, f, 20, 80) == 40

    def test_zero_terms_escape(self):
        # fine: a(1) = 0 leaves u_1 undefined
        e = get("fine")
        t = TermTable(e.recurrence)
        g, f = window_pair(F(0), F(3), True)
        assert t.value(1) == 0
        assert first_escape(t, *unscaled(e.scaling, g, f), 1, 1) == 1
        assert_same_escapes(t, e.scaling, g, f, 1, 60)
        # 1, 0, 0, 1, 0, 0, ...: u_1 = u_2 = 0/0, where the form itself is 0
        t = TermTable(Recurrence([Poly([1]), Poly(), Poly(), Poly([1])], [1, 0, 0]))
        g, f = RatFunc.const(-1), RatFunc.const(1)
        assert all_escapes(first_escape, t, g, f, 1, 8) == [1, 2, 4, 5, 7, 8]
        assert_same_escapes(t, "none", g, f, 1, 8)

    @pytest.mark.parametrize("name, scaling", [("binomial4", "none"), ("motzkin", "factorial")])
    def test_bound_equal_to_u_is_inside(self, name, scaling):
        # equality defeats the filter, so the exact form decides, and <= holds
        t = TermTable(get(name).recurrence)
        n0 = 30
        c = RatFunc.const(scaled_u(t, n0, scaling))
        assert first_escape(t, *unscaled(scaling, c, c), n0, n0) is None
        assert first_escape(t, *unscaled(scaling, c, RatFunc.const(10)), n0, n0) is None
        assert first_escape(t, *unscaled(scaling, RatFunc.const(0), c), n0, n0) is None
        got = assert_same_escapes(t, scaling, c, c, n0 - 5, n0 + 5)
        assert got == [n for n in range(n0 - 5, n0 + 6) if n != n0]

    def test_rejecting_scan_fills_terms_lazily(self):
        # tampered motzkin upper bound: u leaves it at n = 231 of [68, 2000]
        rec = get("motzkin").recurrence
        _, ub = certify_u_bounds(TermTable(rec), 4)
        assert ub.valid_from == 67
        f = 1 + F(3, 2) / X**2 - F(39, 8) / X**3 + (F(489, 32) - F(1, 5)) / X**4
        t = TermTable(rec)
        assert first_escape(t, ub.lower, f, 68, 2000) == 231
        assert len(t) == 233  # a(0..232): checking n = 231 needs a(232)

    @pytest.mark.parametrize("scaling", ["none", "factorial"])
    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_every_corpus_entry_matches_oracle(self, name, scaling):
        # windows 1 +- c/n around the limit 1 of u, narrowed and widened
        t = TermTable(get(name).recurrence)
        escaped = inside = 0
        for g, f in moved_windows(1 - 2 / X, 1 + 2 / X):
            for lo, hi in ((1, 40), (150, 190)):
                got = assert_same_escapes(t, scaling, g, f, lo, hi)
                escaped += len(got)
                inside += hi - lo + 1 - len(got)
        assert escaped and inside

    @pytest.mark.parametrize("scaling", ["none", "factorial"])
    @pytest.mark.parametrize("name", sorted(ENTRIES) + sorted(SIGNED))
    def test_tightened_bounds_escape_at_a_known_index(self, name, scaling):
        # g = u(n0) + eps - M (n - n0)^2 lies far below u except at n0, where
        # it passes u by eps; the upper bound mirrors it.  eps = 0 is a touch.
        # The larger eps is seen on the PREC-bit truncation, the smaller one
        # only by the exact products.
        t = TermTable(SIGNED[name] if name in SIGNED else get(name).recurrence)
        wide, m = RatFunc.const(-100), RatFunc.const(100)
        for n0 in (5, 37, 150):
            u0 = scaled_u(t, n0, scaling)
            bump = 100 * (X - n0) ** 2
            for eps, want in ((F(1, 10**30), n0), (F(1, 10**80), n0), (F(0), None)):
                g, f = u0 + eps - bump, u0 - eps + bump
                assert first_escape(t, *unscaled(scaling, g, m), 2, 200) == want
                assert first_escape(t, *unscaled(scaling, wide, f), 2, 200) == want
                assert_same_escapes(t, scaling, g, f, 2, 200)

    def test_alternating_terms_past_the_filter_width(self):
        # a(n) = (-3)^n (n+1)! has u_n = (n+2)/(n+1) exactly, and windows of
        # mixed signs that outgrow PREC bits from n = 25 on
        t = TermTable(SIGNED["alternating"])
        u = (X + 2) / (X + 1)
        assert t.value(61) < 0 < t.value(60) and t.value(60).numerator.bit_length() > 2 * PREC
        assert first_escape(t, u, u, 1, 120) is None
        assert first_escape(t, u - 1 / X**9, u + 1 / X**9, 1, 120) is None
        # a bound off u by less than the truncation resolves is settled exactly
        assert first_escape(t, u - 1, u - 1 / X**40, 40, 120) == 40
        assert first_escape(t, u + 1 / X**40, u + 1, 40, 120) == 40
        for cut in (3, 60, 61, 99):
            # both bounds cross u at n = cut, and u leaves them from n = cut + 1
            g, f = u + (X - cut) / X**12, u + (cut - X) / X**12
            assert first_escape(t, u, f, 1, 120) == cut + 1
            assert first_escape(t, g, u, 1, 120) == cut + 1
            assert all_escapes(first_escape, t, g, f, 1, 120) == list(range(cut + 1, 121))
            for scaling in ("none", "factorial"):
                assert_same_escapes(t, scaling, g, u + 1, 1, 120)
                assert_same_escapes(t, scaling, u - 1, f, 1, 120)


    def test_u_radius_bounds_every_move(self):
        # q A - p B at t + delta, against its value at t, for the entries
        # (x[0], x[-2], x[-1]) of a window: (w0, w1, w2) for k = 3, and
        # (w0, w0, w1) for k = 2, where A = w0 w1 and B = w0^2 share a delta
        rng = random.Random(23)
        for k in (3, 2):
            for _ in range(400):
                w = random_truncation(rng, k)
                a, b, ea, eb = sequences._window_products(w[0], w[-2], w[-1])
                assert (a, b) == ((w[0] * w[2], w[1] ** 2) if k == 3 else (w[0] * w[1], w[0] ** 2))
                for _ in range(5):
                    p, q = rng.randint(-(10**12), 10**12), rng.randint(1, 10**12)
                    moved = [x + d for x, d in zip(w, random_deltas(rng, k))]
                    ma, mb, _, _ = sequences._window_products(moved[0], moved[-2], moved[-1])
                    change = q * (ma - a) - p * (mb - b)
                    assert abs(change) <= q * ea + abs(p) * eb, (w, p, q)

    def test_u_window_segments_need_no_exact_fallback(self, monkeypatch):
        """The default u-window recheck decides every index on its
        truncation: products taken on more than PREC bits are a fallback
        to the exact integers."""
        calls = []

        def counted(*w):
            calls.append(max(x.bit_length() for x in w) > PREC)
            return products(*w)

        products = sequences._window_products
        monkeypatch.setattr(sequences, "_window_products", counted)
        for name in ("binomial4", "motzkin"):
            rec = get(name).recurrence
            t = TermTable(rec)
            _, ub = certify_u_bounds(t, 4)
            calls.clear()
            assert first_escape(t, ub.lower, ub.upper, ub.valid_from + 1, ub.valid_from + 2000) is None
            assert len(calls) == 2000 and not any(calls), name
            # a bound equal to u(n0) is decided only by the exact products
            c = RatFunc.const(u_value(t, 500))
            calls.clear()
            assert first_escape(t, c, c, 500, 500) is None
            assert calls == [False, True]


def kernel_escape(table, scaling, g, f, lo, hi):
    """The window kernel alone, with no closed-form tail."""
    return sequences._escape(table, *unscaled(scaling, g, f), lo, hi, 3)


def escapes_or_error(scan, rec, *args):
    """`all_escapes(scan, table, *args)` on a fresh table of `rec`, ending
    with (type, text) of the exception that stopped it, if one did."""
    out = []
    try:
        out += all_escapes(scan, TermTable(rec), *args)
    except Exception as exc:
        out.append((type(exc), str(exc)))
    return out


def exact_u(rec, scaling):
    """u_n = R(n)/R(n-1) of an order-1 recurrence, R = p1/p0, times
    n/(n+1) under the factorial scaling."""
    r = RatFunc(rec.coeffs[1], rec.coeffs[0])
    q = r / r.shift(-1)
    return q * SCALE if scaling == "factorial" else q


def random_order1_case(rng):
    """(rec, scaling, g, f, lo, hi, kind): a random order-1 recurrence, a
    window around its exact u_n of one of five kinds, and a segment."""
    kind = rng.choice(["tight", "pole", "far", "nonpositive", "wide"])
    if kind == "far":  # g or f crosses u on (c1, c2), past n = 1000
        c1 = rng.randint(1001, 1060)
        c2 = c1 + rng.randint(0, 4) + F(1, 2)
        lo, hi = rng.randint(950, 1000), int(c2) + rng.randint(1, 20)
    else:
        lo = rng.randint(1, 30)
        hi = lo + rng.randint(0, 80)

    def linear(root_chance):
        """c (n - r) with an integer root r in range, or a n + b with no root >= 0."""
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        if rng.random() < root_chance:
            return Poly([-c * rng.randint(0, hi), c])
        p = Poly([rng.randint(1, 9), rng.randint(1, 4)])
        return p * Poly([rng.randint(1, 5), 1]) if rng.random() < 0.2 else p.scale(c)

    p0, p1 = linear(0.15), linear(0.15)
    initials = [F(rng.randint(-9, 9) or 1, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.1:
        initials[rng.randrange(len(initials))] = F(0)
    rec = Recurrence([p0, p1], initials)
    scaling = rng.choice(["none", "factorial"])
    u = exact_u(rec, scaling)
    d = F(rng.randint(1, 9), rng.randint(1, 3)) / X ** rng.randint(1, 4)
    g, f = u - d, u + F(rng.randint(1, 9), 2) / X ** rng.randint(1, 4)
    if kind == "pole":
        bump = F(rng.randint(1, 5)) / (X - rng.randint(lo, hi))
        g, f = (g - bump, f) if rng.random() < 0.5 else (g, f + bump)
    elif kind == "far":
        cross = F(rng.randint(1, 9)) * (X - c1) * (X - c2) / X ** rng.randint(3, 6)
        g, f = (u - cross, f) if rng.random() < 0.5 else (g, u + cross)
    elif kind == "nonpositive":
        g, f = (u + d, f) if rng.random() < 0.5 else (g, u)
    elif kind == "wide":
        g, f = RatFunc.const(-50), RatFunc.const(50)
    return rec, scaling, g, f, lo, hi, kind


class TestOrder1ClosedForm:
    """first_escape on order-1 tables, which decides the tail past a
    closed-form threshold, against the kernel alone and the Fraction oracle."""

    def test_random_recurrences_match_kernel_and_oracle(self):
        rng = random.Random(31)
        seen = {"escape": 0, "none": 0, "error": 0, "cut": 0, "far escape": 0}
        for _ in range(420):
            rec, scaling, g, f, lo, hi, kind = case = random_order1_case(rng)
            got = escapes_or_error(scaled_escape, rec, scaling, g, f, lo, hi)
            assert got == escapes_or_error(kernel_escape, rec, scaling, g, f, lo, hi), case
            if got and isinstance(got[-1], tuple):
                seen["error"] += 1
                continue
            assert got == all_escapes(oracle_escape, TermTable(rec), scaling, g, f, lo, hi), case
            seen["escape" if got else "none"] += 1
            seen["far escape"] += kind == "far" and any(n > 1000 for n in got)
            seen["cut"] += sequences._order1_tail_start(TermTable(rec), *unscaled(scaling, g, f), lo, hi) < hi
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("scaling", ["none", "factorial"])
    def test_alternating_fails_only_past_1000(self, scaling):
        # a(n) = (-3)^n (n+1)!: the lower bound crosses u on (1500, 1503.5)
        rec = SIGNED["alternating"]
        u = exact_u(rec, scaling)
        assert exact_u(rec, "none") == (X + 2) / (X + 1)
        g = u - (X - 1500) * (X - F(3007, 2)) / X**5
        t = TermTable(rec)
        assert all_escapes(scaled_escape, t, scaling, g, u + 1 / X, 1, 3000) == [1501, 1502, 1503]
        assert_same_escapes(t, scaling, g, u + 1 / X, 1, 3000)
        assert all_escapes(kernel_escape, t, scaling, g, u + 1 / X, 1, 3000) == [1501, 1502, 1503]


def random_order2_case(rng):
    """(rec, g, f, lo, hi, n0, kind): a random order-2 recurrence whose p0 vanishes at
    no n >= 0, and a window on its unscaled u_n around the value at a random
    n0, of one of three kinds: narrowing about u(n0), a bump that u leaves
    at n0 alone, or wide."""
    p0 = Poly([rng.randint(1, 4), rng.randint(0, 3)])
    p1, p2 = (Poly([rng.randint(-9, 9), rng.randint(-4, 4)]) for _ in range(2))
    rec = Recurrence([p0, p1, p2], [F(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for _ in range(2)])
    lo = rng.randint(1, 20)
    hi = lo + rng.randint(0, 60)
    n0 = rng.randint(lo, hi)
    try:
        c = u_value(TermTable(rec), n0)
    except ZeroDivisionError:
        c = F(1)
    kind = rng.choice(["narrow", "bump", "wide"])
    if kind == "narrow":
        g = c - F(rng.randint(1, 9), rng.randint(1, 3)) / X ** rng.randint(0, 3)
        f = c + F(rng.randint(1, 9), rng.randint(1, 3)) / X ** rng.randint(0, 3)
    elif kind == "bump":  # above u(n0) by 1/10^30 there, far below u elsewhere
        g, f = c + F(1, 10**30) - 10**6 * (X - n0) ** 2, RatFunc.const(10**9)
    else:
        g, f = RatFunc.const(-50), RatFunc.const(50)
    return rec, g, f, lo, hi, n0, kind


class TestScaleFree:
    """Containment is scale-free: first_escape on the unscaled u_n and a
    window [g, f] of it finds every index where the scaled u_n, in Fraction
    arithmetic, leaves [g F, f F], F = n/(n+1) the factorial factor, and
    [g, f] itself without the scaling."""

    @staticmethod
    def assert_scale_free(rec, g, f, lo, hi, table=None):
        """The escapes from [g, f]; under both scalings, the oracle's escapes
        of the scaled u_n from the scaled window are the same.  A scan that
        a vanishing p0 stops is not compared: the oracle, which reads a(n)
        before a(n+1), counts a zero a(n) as an escape first."""
        got = (escapes_or_error(first_escape, rec, g, f, lo, hi) if table is None
               else all_escapes(first_escape, table, g, f, lo, hi))
        if got and isinstance(got[-1], tuple):
            return got
        for scaling in ("none", "factorial"):
            gs, fs = (g * SCALE, f * SCALE) if scaling == "factorial" else (g, f)
            want = (escapes_or_error(oracle_escape, rec, scaling, gs, fs, lo, hi) if table is None
                    else all_escapes(oracle_escape, table, scaling, gs, fs, lo, hi))
            assert got == want, (rec, g, f, lo, hi, scaling)
        return got

    @pytest.mark.parametrize("name", CERTIFIABLE)
    def test_certified_corpus_windows(self, name):
        rec = get(name).recurrence
        t = TermTable(rec)
        ub = certify_u_bounds(t, 4)[1]
        escaped = inside = 0
        for g, f in moved_windows(ub.lower, ub.upper):
            for lo, hi in ((1, 40), (ub.valid_from + 1, ub.valid_from + 30)):
                got = self.assert_scale_free(rec, g, f, lo, hi, t)
                escaped += len(got)
                inside += hi - lo + 1 - len(got)
        assert escaped and inside

    def test_random_order1_tables(self):
        # the windows of `random_order1_case` around the exact u_n, taken
        # unscaled; the "far" ones cross u past n = 1000, in the closed-form tail
        rng = random.Random(39)
        seen = {"escape": 0, "none": 0, "error": 0, "tail": 0}
        for _ in range(80):
            rec, scaling, g, f, lo, hi, kind = random_order1_case(rng)
            g, f = unscaled(scaling, g, f)
            got = self.assert_scale_free(rec, g, f, lo, hi)
            if got and isinstance(got[-1], tuple):
                seen["error"] += 1
                continue
            seen["escape" if got else "none"] += 1
            seen["tail"] += sequences._order1_tail_start(TermTable(rec), g, f, lo, hi) < hi
        assert min(seen.values()) >= 5, seen

    def test_random_order2_tables(self):
        rng = random.Random(392)
        escaped = inside = bumps = 0
        for _ in range(60):
            rec, g, f, lo, hi, n0, kind = random_order2_case(rng)
            got = self.assert_scale_free(rec, g, f, lo, hi)
            if kind == "bump":
                assert n0 in got
                bumps += 1
            escaped += len(got)
            inside += hi - lo + 1 - len(got)
        assert escaped and inside and bumps, (escaped, inside, bumps)


def oracle_ratio_escape(table, scaling, g, f, lo, hi):
    """The scaled ratio a(n)/a(n-1) between two evaluations, in Fraction
    arithmetic; a zero a(n-1) or a pole of a bound is an escape."""
    for n in range(lo, hi + 1):
        prev, cur = table.values(n - 1, n)
        try:
            ratio = cur / prev / (n if scaling == "factorial" else 1)
            inside = g.eval(n) <= ratio <= f.eval(n)
        except ZeroDivisionError:
            inside = False
        if not inside:
            return n
    return None


def ratio_escape(table, scaling, g, f, lo, hi):
    """The k = 2 scan of a window on the scaled ratio, run on its unscaled
    window: a(n)/a(n-1) of a(n)/n! is that of a(n) over n."""
    return sequences._escape(table, *((g * X, f * X) if scaling == "factorial" else (g, f)), lo, hi, 2)


def given_terms(vals):
    """A table whose first terms are vals, continued by a(n+1) = a(n)."""
    return TermTable(Recurrence([Poly([1]), Poly([1])], vals))


def assert_same_ratio_escapes(table, scaling, g, f, lo, hi):
    got = all_escapes(ratio_escape, table, scaling, g, f, lo, hi)
    assert got == all_escapes(oracle_ratio_escape, table, scaling, g, f, lo, hi), (g, f)
    return got


# a(n-1) < 0 at n = 2 (a(n) < 0) and n = 3 (a(n) > 0), a(n-1) = 0 at n = 5
SIGNED_TERMS = [2, -3, -5, 7, 0, 4, 6]
RATIOS = {1: F(-3, 2), 2: F(5, 3), 3: F(-7, 5), 4: F(0), 6: F(3, 2)}
BIG = 3**150  # windows past PREC bits take the truncated path


class TestRatioEscape:
    """The k = 2 scan of a(n)/a(n-1) on hand-built tables, each case
    against the Fraction comparison."""

    @pytest.mark.parametrize("scale", [1, BIG])
    @pytest.mark.parametrize("n", sorted(RATIOS))
    def test_bound_equal_to_the_ratio_is_inside(self, n, scale):
        t = given_terms([v * scale for v in SIGNED_TERMS])
        r = RatFunc.const(RATIOS[n])
        assert ratio_escape(t, "none", r, r, n, n) is None
        for eps in (F(1, 10**20), F(1, 10**50)):  # seen on the truncation, then only exactly
            for g, f in ((r + eps, r + 1), (r - 1, r - eps)):
                assert ratio_escape(t, "none", g, f, n, n) == n
                assert oracle_ratio_escape(t, "none", g, f, n, n) == n
        assert oracle_ratio_escape(t, "none", r, r, n, n) is None

    @pytest.mark.parametrize("scale", [1, BIG])
    def test_zero_previous_term_escapes(self, scale):
        t = given_terms([v * scale for v in SIGNED_TERMS])
        wide = RatFunc.const(-100), RatFunc.const(100)
        assert ratio_escape(t, "none", *wide, 1, 7) == 5
        assert all_escapes(ratio_escape, t, "none", *wide, 1, 7) == [5]
        assert_same_ratio_escapes(t, "none", *wide, 1, 7)

    def test_pole_of_the_lower_bound_escapes(self):
        # g = -10 + 1/(n - 3): a pole at n = 3, a negative denominator below
        t = given_terms(SIGNED_TERMS)
        g, f = -10 + 1 / (X - 3), RatFunc.const(10)
        assert all_escapes(ratio_escape, t, "none", g, f, 1, 7) == [3, 5]
        assert_same_ratio_escapes(t, "none", g, f, 1, 7)

    @pytest.mark.parametrize("scaling", ["none", "factorial"])
    @pytest.mark.parametrize("scale", [1, BIG, F(1, 3**90)])
    def test_moved_bounds_match_fraction_comparison(self, scale, scaling):
        # entries past PREC bits of both signs, offsets below the
        # truncation, and a rational table that windows clear to integers
        vals = [v * scale + (k % 3 - 1) for k, v in enumerate(SIGNED_TERMS * 3)]
        t = given_terms(vals)
        escaped = inside = 0
        for g, f in moved_windows(RatFunc.const(-2), RatFunc.const(2)):
            for g2, f2 in ((g, f), (g - 1 / (X - 6), f), (g, f + (X - 12) / X)):
                got = assert_same_ratio_escapes(t, scaling, g2, f2, 1, len(vals) - 1)
                escaped += len(got)
                inside += len(vals) - 1 - len(got)
        assert escaped and inside


def test_certificates_reach_no_series_operation(monkeypatch):
    """Certify and verify take every window from grid arrays: with the
    series operations made to fail in every module that binds them, both
    certificate kinds are still built and verified."""
    from turancert.asymptotics import series

    def refused(*args, **kwargs):
        raise AssertionError("a series operation was reached")

    for attr in ("shift_series", "binomial_power"):
        original = getattr(series, attr)
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(attr) is original:
                monkeypatch.setattr(module, attr, refused)
    for attr in ("__mul__", "__rmul__", "truncate"):
        monkeypatch.setattr(series.AsymSeries, attr, refused)
    for name in ("motzkin", "binomial4"):
        rec = get(name).recurrence
        full = certify_turan3(TermTable(rec), 4, "factorial")
        window = certify_u_window(TermTable(rec), 4)
        for cert in (full, window):
            assert verify_certificate(cert.to_json(), TermTable(rec)) == (True, [])


@pytest.mark.parametrize(
    "name,make",
    [("motzkin", certify_turan3), ("domb", certify_turan3),
     ("binomial4", certify_u_window), ("inverse-catalan", certify_u_window)],
)
def test_certificates_build_no_series(monkeypatch, name, make):
    """The expansion reaches certify as grid arrays only: with `AsymSeries`
    made impossible to build, certificates are still built and verified."""
    from turancert.asymptotics import series

    def refused(*args, **kwargs):
        raise AssertionError("an AsymSeries was built")

    monkeypatch.setattr(series.AsymSeries, "__init__", refused)
    e = get(name)
    cert = make(TermTable(e.recurrence), 4, e.scaling)
    assert verify_certificate(cert.to_json(), TermTable(e.recurrence)) == (True, [])


class TestRectangleLemma:
    def test_min_over_rectangle_sits_at_corner(self):
        rng = random.Random(20240817)
        for _ in range(500):
            x0 = F(rng.randint(-40, 40), rng.randint(1, 20))
            x1 = x0 + F(rng.randint(0, 30), rng.randint(1, 20))
            y0 = F(rng.randint(-40, 40), rng.randint(1, 20))
            y1 = y0 + F(rng.randint(0, 30), rng.randint(1, 20))
            corner_min = min(
                turan_form(x0, y0),
                turan_form(x0, y1),
                turan_form(x1, y0),
                turan_form(x1, y1),
            )
            for _ in range(25):
                x = x0 + (x1 - x0) * F(rng.randint(0, 16), 16)
                y = y0 + (y1 - y0) * F(rng.randint(0, 16), 16)
                assert turan_form(x, y) >= corner_min

    def test_integer_fast_path(self):
        # for integer windows [a, M] x [b, M] the form at the (M, M) corner
        # reduces to 4(M-a)(M-b)M^2 - (M^2-ab)^2 up to the shared square scale
        rng = random.Random(7)
        for _ in range(200):
            m = rng.randint(2, 50)
            a = rng.randint(1, m * m)
            b = rng.randint(1, m * m)
            x = F(a, m * m)
            y = F(b, m * m)
            exact = turan_form(x, y)
            fast = 4 * (m * m - a) * (m * m - b) * m**4 - (m**4 - a * b) ** 2
            assert (exact > 0) == (fast > 0)
            assert (exact < 0) == (fast < 0)


class TestExactRectangleLemma:
    """`corpus run`'s exact corner lemma: concave in each variable."""

    def test_holds_for_the_corner_form(self):
        r = checks.rectangle_lemma()
        assert (r.entry, r.check, r.ok) == ("(global)", "rectangle-minimum", True)

    @pytest.mark.parametrize(
        "form, problem",
        [
            (lambda x, y: turan_form(x, y) + x * x, "x^2 coefficient"),  # convex in x
            (lambda x, y: turan_form(x, y) + 2 * x * x * y * y, "x^2 coefficient"),  # +y^2
            (lambda x, y: turan_form(x, y) + y * y, "symmetric"),  # convex in y only
            (lambda x, y: turan_form(x, y) - x * y * y, "symmetric"),
        ],
    )
    def test_rejects_forms_without_the_concavity(self, monkeypatch, form, problem):
        monkeypatch.setattr(checks, "turan_form", form)
        r = checks.rectangle_lemma()
        assert not r.ok and problem in r.detail


def with_expected(name, key, value):
    """The corpus entry `name` with its expected `key` replaced by `value`."""
    e = get(name)
    return CorpusEntry(e.name, e.source, e.recurrence, e.scaling, {**e.expected, key: value})


class TestCoefficientChecks:
    """The u-series check and the ht-bounds check of an entry that does not
    certify compare coefficients in one loop, and name each that differs."""

    def test_u_series_names_each_wrong_coefficient(self):
        want = {F(1): F(-1, 2), F(3, 2): F(3, 4), F(2): F(13, 8)}
        e = with_expected("involutions", "u_series", {"coeffs": want})
        (r,) = checks._check_u_series(e, TermTable(e.recurrence))
        assert (r.check, r.ok) == ("u-series", False)
        assert r.detail == (
            "n^-3/2: RatFunc([Fraction(-1, 1)], [Fraction(4, 1)]) != 3/4; "
            "n^-2: RatFunc([Fraction(5, 1)], [Fraction(8, 1)]) != 13/8"
        )

    def test_uncertified_ht_bounds_compare_the_expansion(self):
        e = get("bn")
        (r,) = checks._check_ht_bounds(e, TermTable(e.recurrence))
        assert (r.ok, r.detail) == (True, "window constants only (certification needs a rational growth constant)")
        bounds = {**e.expected["ht_bounds"], "d": {F(2): F(5, 2), F(3): F(1)}}
        e = with_expected("bn", "ht_bounds", bounds)
        (r,) = checks._check_ht_bounds(e, TermTable(e.recurrence))
        field = "mod [Fraction(1, 1), Fraction(-6, 1), Fraction(1, 1)])], [Fraction(1, 1)])"
        assert (r.check, r.ok) == ("ht-bounds", False)
        assert r.detail == (
            f"n^-2: RatFunc([NFElem([Fraction(3, 2), Fraction(0, 1)] {field} != 5/2; "
            f"n^-3: RatFunc([NFElem([Fraction(-165, 32), Fraction(39, 32)] {field} != 1"
        )


class TestResidualCheck:
    @pytest.mark.parametrize("name", ["motzkin", "fine", "bn", "inverse-catalan"])
    def test_matches_fraction_residual(self, name):
        entry = get(name)
        rec, d = entry.recurrence, entry.recurrence.order
        table = TermTable(rec)
        assert checks._check_residual(entry, table)[0].ok
        table._vals[50] += F(1, 3)  # one wrong term breaks the d+1 residuals that read it
        vals = table.values(0, 300 + d)
        want = [n for n in range(300) if rec.residual(vals[n:n + d + 1], n) != 0]
        assert want == list(range(50 - d, 51))
        (r,) = checks._check_residual(entry, table)
        assert not r.ok and r.detail == f"nonzero at {want[:3]}"
