"""Verdict logic for the cubic Turan form and iterated log-concavity."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from turancert.algebra import AlgebraicReal, NumberField, Poly, RatFunc
from turancert.asymptotics import (
    AsymSeries,
    ratio_expansion,
    u_expansion,
    u_power,
    u_power_log,
)
from turancert import cli, criteria
from turancert.corpus import ENTRIES
from turancert.criteria import (
    LogSeries,
    _settled,
    llc_level_coefficients,
    llc_threshold,
    llogconcave_asymptotic,
    llogconcave_verdict,
    turan3_asymptotic,
    turan3_verdict,
)
from turancert.sequences import Recurrence, TermTable, phi_values

from oracles import get, phi_u_expansion


def S(*terms, err=None):
    return AsymSeries([(F(e), c) for e, c in terms], None if err is None else F(err))


def L_func(num, den=(1,)):
    return RatFunc(Poly([F(c) for c in num]), Poly([F(c) for c in den]))


def u_of(name, order=4, scaling="none"):
    rec = get(name).recurrence
    return u_expansion(ratio_expansion(rec, order), scaling=scaling)


def exact_level(r):
    """Oracle: the critical level map 2r + 2 + (log r)'' - (log r)' on a RatFunc."""
    lr = r.derivative() / r
    return 2 * r + lr.derivative() - lr + 2


def coef(s, k):
    """Coefficient of x^k, x = 1/log n, in a LogSeries."""
    i = k - s.val
    return s.coeffs[i] if 0 <= i < len(s.coeffs) else F(0)


def same_prefix(level, r) -> bool:
    """The level agrees with the expansion of r(log n) wherever it is known."""
    exact = LogSeries.from_ratfunc(r, 64)
    if level.order is None:
        return exact.order is None and level.coeffs == exact.coeffs
    assert level.coeffs and level.order < exact.order
    lo = min(level.val, exact.val)
    return all(coef(level, k) == coef(exact, k) for k in range(lo, level.order))


def exact_chain(r1, ell):
    levels = [r1]
    for _ in range(ell - 1):
        levels.append(exact_level(levels[-1]))
    return levels


class TestUnForm:
    """The form 1 + sum_i r_i(log n)/n^alpha_i of u_n, read off its series."""

    def test_split_ic(self):
        u = u_of("inverse-catalan")
        assert [(e, r.constant_value()) for e, r in criteria._corrections(u)] == [
            (2, F(-3, 2)),
            (3, F(9, 4)),
            (4, F(-21, 8)),
        ]
        assert u.error_order == 5

    def test_leading_must_be_one(self):
        # a leading 2, no constant term, a growing term, the zero series
        for u in (S((0, 2), (2, -1), err=3), S((1, 1), err=3), S((-1, 1), (0, 1)), S()):
            with pytest.raises(ValueError, match="leading term must equal 1"):
                turan3_asymptotic(u)
            for ell in (1, 3):
                with pytest.raises(ValueError, match="leading term must equal 1"):
                    llogconcave_asymptotic(u, ell)
            with pytest.raises(ValueError, match="leading term must equal 1"):
                llc_level_coefficients(u, 2)

    def test_degenerate(self):
        assert criteria._corrections(S((0, 1))) == ()
        assert criteria._corrections(S((0, 1), err=3)) == ()
        with pytest.raises(ValueError, match="no correction term"):
            llc_level_coefficients(S((0, 1)), 2)


# sha256 of json.dumps(llogconcave_asymptotic(FORM, ell).to_dict()) on the
# model forms n^3 and n^2 log n, recorded before the criteria read the
# u-series directly
LEVEL_SHA256 = {
    ("n3", 1): "503d9ff41890dac0c19bd24ba82185caed688f6e90596d969213f063305de3d0",
    ("n3", 2): "b361e4a45f2f059be25287348d341f5e1849a744c2c2150fa98a87f246e49be2",
    ("n3", 3): "3569e8d295a23efa7af4a1277d0d8a61675483f62af75c72cc75890b08a541e8",
    ("n3", 4): "5e4f0217fd60d4b7d391d5d4a5c19fa296d1d52eeb17cac4f6a2dd0794e4deff",
    ("n3", 5): "d86e7997ef5517dc823546bcf6a2131499cd8eabb6ae33e5fc422344d99c4f63",
    ("n3", 6): "8086f73ea26fb519ca294435ddb525c80cb95bd1bdc91cab8b98b55a8fe60095",
    ("n2logn", 1): "fa5d66adabf3a0f2de0985903385ff940b20c7dfc6ff69cd82fadad63a46a03b",
    ("n2logn", 2): "0c2cc6d4fe6fe3f24aa2b079beb888fbf4e0ab4cc24b734aa88c0f87630569e0",
    ("n2logn", 3): "009f67a468974b6de2fdf99158fdb12f844bfc12f957f27f857e4fb251fbf71c",
    ("n2logn", 4): "a4400d1e616be6e425d82ed3b70170746bd764f2d5810a0bfe37272f81513f37",
    ("n2logn", 5): "be9aebb210d9a1daadd66616245282f6b7940b5d0e65943f16bbc3a949747cc6",
}
LEVEL_FORMS = {"n3": lambda: u_power(3, None), "n2logn": lambda: u_power_log(2, 1, F(14))}

# sha256 of series_view of the model forms' u-series: every exponent and
# every num/den coefficient of its RatFunc coefficients with its scalar
# type, recorded while products of rational polynomials still ran on
# Fractions.  The verdict pins above read only the levels derived from these.
SERIES_SHA256 = {
    "n2logn": "32b3845ec93ee46845f3cac331bfeabe41ff72284360670af7379425c68abccf",
    "n3": "c868b9b318b2107e07ac3323c0c6564705c60ad62a7300b2f327ae57528d72cd",
    "n5/2": "4c3123aaa979d9aaa6a2bc6cd65ba2eca2e2786c2a41b6043f6efc16ba2db9ab",
}
SERIES_FORMS = {
    "n2logn": lambda: u_power_log(2, 1, 14),
    "n3": lambda: u_power(3, None),
    "n5/2": lambda: u_power(F(5, 2), 14),
}


def series_view(s) -> str:
    def cs(p):
        return [[type(c).__name__, str(c)] for c in p.coeffs]

    return json.dumps([[str(e), cs(r.num), cs(r.den)] for e, r in s.terms] + [str(s.error_order)])


class TestTuran3:
    def test_inverse_catalan_holds(self):
        v = turan3_asymptotic(u_of("inverse-catalan"))
        assert (v.result, v.rule) == ("holds", "turan3.critical.limit")
        assert any("alpha_1 = 2" in line for line in v.trace)

    def test_involutions_holds(self):
        v = turan3_asymptotic(u_of("involutions"))
        assert (v.result, v.rule) == ("holds", "turan3.subcritical")

    def test_motzkin_scaled_holds(self):
        v = turan3_verdict(TermTable(get("motzkin").recurrence), scaling="factorial")
        assert (v.result, v.rule) == ("holds", "turan3.subcritical")

    def test_franel3_scaled_holds(self):
        v = turan3_verdict(TermTable(get("franel3").recurrence), scaling="factorial")
        assert (v.result, v.rule) == ("holds", "turan3.subcritical")

    def test_narrow_span_truncated_is_retryable(self):
        # u = 1 - 1/n + 1/n^(4/3) + o(n^-3/2): the second term sits closer
        # than one power of n, so the tail may hide non-smooth terms that
        # survive the shift analysis at full size.
        u = S((0, 1), (1, -1), (F(4, 3), 1), err=F(3, 2))
        v = turan3_asymptotic(u)
        assert (v.result, v.rule) == ("inconclusive", "turan3.insufficient-order")
        assert v.retryable

    def test_narrow_span_exact_decides(self):
        # the same terms known exactly leave nothing hidden; the leading
        # -4 r_1^3 / n^3 of the form settles the sign
        u = S((0, 1), (1, -1), (F(4, 3), 1))
        v = turan3_asymptotic(u)
        assert (v.result, v.rule) == ("holds", "turan3.subcritical")

    def test_power_sqrt_fails(self):
        # a_n = n^(1/2): r_1 = -1/2 stays above -1 in the critical regime.
        v = turan3_asymptotic(u_power(F(1, 2), F(7)))
        assert (v.result, v.rule) == ("fails", "turan3.critical.limit")

    def test_power_closed_forms_hold(self):
        assert turan3_asymptotic(u_power(2, None)).result == "holds"
        assert turan3_asymptotic(u_power(3, None)).result == "holds"
        assert turan3_asymptotic(u_power_log(1, 1, F(8))).result == "holds"
        assert turan3_asymptotic(u_power_log(2, 1, F(8))).result == "holds"

    def test_log_convex_fails_before_span_gate(self):
        # r_1 > 0 decides failure even when the visible span is short.
        u = S((0, 1), (1, 1), err=F(3, 2))
        v = turan3_asymptotic(u)
        assert (v.result, v.rule) == ("fails", "turan3.log-convex")

    def test_boundary_r1_equals_minus_one(self):
        u = S((0, 1), (2, -1), (4, 1), err=5)
        v = turan3_asymptotic(u)
        assert (v.result, v.rule) == ("inconclusive", "turan3.boundary")

    def test_deficit_decides_at_limit_minus_one(self):
        below = S((0, 1), (2, L_func([-1, -1], [0, 1])), (3, 1), err=F(9, 2))
        v = turan3_asymptotic(below)
        assert (v.result, v.rule) == ("holds", "turan3.critical.deficit")
        above = S((0, 1), (2, L_func([1, -1], [0, 1])), (3, 1), err=F(9, 2))
        v = turan3_asymptotic(above)
        assert (v.result, v.rule) == ("fails", "turan3.critical.deficit")

    def test_exact_one_is_equality_case(self):
        v = turan3_asymptotic(S((0, 1)))
        assert (v.result, v.rule) == ("holds", "turan3.equality")

    def test_bare_one_truncated_is_retryable(self):
        v = turan3_asymptotic(S((0, 1), err=3))
        assert (v.result, v.rule) == ("inconclusive", "turan3.insufficient-order")
        assert v.retryable

    def test_supercritical_inconclusive(self):
        u = S((0, 1), (3, -1), (5, 1), err=7)
        v = turan3_asymptotic(u)
        assert (v.result, v.rule) == ("inconclusive", "turan3.supercritical")

    def test_short_error_order_is_retryable(self):
        # alpha_1 = 2 needs the n^-6 coefficient, hence error order above 4.
        u = S((0, 1), (2, -3), (3, 1), err=4)
        v = turan3_asymptotic(u)
        assert (v.result, v.rule) == ("inconclusive", "turan3.insufficient-order")
        assert v.retryable


class TestLogConcavityLevels:
    def test_threshold_table(self):
        assert [llc_threshold(k) for k in (1, 2, 3, 4)] == [
            F(0),
            F(-1),
            F(-3, 2),
            F(-7, 4),
        ]
        with pytest.raises(ValueError):
            llc_threshold(0)

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            llogconcave_asymptotic(u_of("inverse-catalan"), 0)

    def test_inverse_catalan_level_lattice(self):
        u = u_of("inverse-catalan")
        assert llogconcave_asymptotic(u, 1).rule == "llc.level1"
        v2 = llogconcave_asymptotic(u, 2)
        assert (v2.result, v2.rule) == ("holds", "llc.critical.threshold")
        # order 4 leaves level 3 beyond the certified horizon
        v3 = llogconcave_asymptotic(u, 3)
        assert (v3.result, v3.rule) == ("inconclusive", "llc.insufficient-order")

    def test_inverse_catalan_level3_is_boundary_after_retry(self):
        v = llogconcave_verdict(TermTable(get("inverse-catalan").recurrence), 3)
        assert (v.result, v.rule) == ("inconclusive", "llc.boundary")

    def test_level_coefficients_inverse_catalan(self):
        levels = llc_level_coefficients(u_of("inverse-catalan"), 3)
        assert [r.constant_value() for r in levels] == [F(-3, 2), F(-1), F(0)]
        assert levels[2].is_zero() and levels[2].sign() == 0
        with pytest.raises(ValueError):
            llc_level_coefficients(u_of("inverse-catalan"), 4)

    def test_level_map_matches_phi_iteration(self):
        u = u_of("inverse-catalan", order=8)
        levels = llc_level_coefficients(u, 3)
        p1 = phi_u_expansion(u)
        assert same_prefix(levels[1], p1.coefficient(F(2)))
        p2 = phi_u_expansion(p1)
        assert p2.coefficient(F(2)).is_zero()

    def test_level_map_matches_phi_subcritical(self):
        u = u_of("motzkin", order=8, scaling="factorial")
        levels = llc_level_coefficients(u, 2)
        assert same_prefix(levels[1], phi_u_expansion(u).coefficient(F(1)))

    def test_level_map_matches_phi_with_log_terms(self):
        u = u_power_log(2, 1, F(10))
        levels = llc_level_coefficients(u, 2)
        assert levels[1].order is not None  # not a constant
        assert same_prefix(levels[1], phi_u_expansion(u).coefficient(F(2)))

    def test_motzkin_scaled_levels_subcritical(self):
        rec = get("motzkin").recurrence
        for ell in (1, 2, 5):
            v = llogconcave_verdict(TermTable(rec), ell, scaling="factorial")
            assert v.result == "holds"
        assert llogconcave_verdict(TermTable(rec), 5, scaling="factorial").rule == "llc.subcritical"

    def test_square_power_holds_every_level(self):
        u = u_power(2, None)
        for ell in (1, 6, 40):
            assert llogconcave_asymptotic(u, ell).result == "holds"

    def test_cube_power_levels(self):
        u = u_power(3, None)
        v = llogconcave_asymptotic(u, 6)
        assert (v.result, v.rule) == ("holds", "llc.critical.threshold")
        levels = llc_level_coefficients(u, 6)
        assert [r.constant_value() for r in levels] == [
            F(-3),
            F(-4),
            F(-6),
            F(-10),
            F(-18),
            F(-34),
        ]

    def test_square_log_power_level6(self):
        u = u_power_log(2, 1, F(14))
        v = llogconcave_asymptotic(u, 6)
        assert (v.result, v.rule) == ("holds", "llc.critical.threshold")
        for r in llc_level_coefficients(u, 6):
            assert r.sign() < 0

    @pytest.mark.parametrize("form, ell", sorted(LEVEL_SHA256))
    def test_model_form_verdict_bytes(self, form, ell):
        blob = json.dumps(llogconcave_asymptotic(LEVEL_FORMS[form](), ell).to_dict())
        assert hashlib.sha256(blob.encode()).hexdigest() == LEVEL_SHA256[form, ell]

    @pytest.mark.parametrize("form", sorted(SERIES_SHA256))
    def test_model_form_series_bytes(self, form):
        view = series_view(SERIES_FORMS[form]())
        assert hashlib.sha256(view.encode()).hexdigest() == SERIES_SHA256[form]

    def test_grant_by_deficit_at_threshold_limit(self):
        # r_1 -> -1 from below: level 2 is granted although the limit sits
        # exactly on the threshold.
        u = S((0, 1), (2, L_func([-1, -1], [0, 1])), (3, 1), err=F(9, 2))
        v = llogconcave_asymptotic(u, 2)
        assert (v.result, v.rule) == ("holds", "llc.critical.threshold")

    def test_threshold_not_met_is_inconclusive(self):
        # -3/4 is negative but above the level-2 threshold -1: the criterion
        # grants nothing beyond level 1 and must not claim failure either.
        u = S((0, 1), (2, L_func([F(-3, 4)])), (3, 1), err=F(9, 2))
        v = llogconcave_asymptotic(u, 2)
        assert (v.result, v.rule) == ("inconclusive", "llc.threshold")

    def test_log_convex_fails(self):
        u = S((0, 1), (1, 1), err=F(3, 2))
        v = llogconcave_asymptotic(u, 3)
        assert (v.result, v.rule) == ("fails", "llc.log-convex")

    def test_equality_case(self):
        assert llogconcave_asymptotic(S((0, 1)), 4).rule == "llc.equality"
        v = llogconcave_asymptotic(S((0, 1), err=3), 4)
        assert v.retryable

    def test_exact_levels_match_sign_predictions(self):
        # phi^2 of the inverse Catalan numbers is eventually positive, as the
        # level-2 grant predicts.
        table = TermTable(get("inverse-catalan").recurrence)
        vals = phi_values(table, 2, 100, 160)
        assert all(v > 0 for v in vals)


class TestLevelSeries:
    """The level chain in x = 1/log n against the exact RatFunc level map."""

    def test_prefixes_match_exact_chain_n2logn(self):
        r1 = criteria._corrections(u_power_log(2, 1, F(14)))[0][1]
        levels = llc_level_coefficients(u_power_log(2, 1, F(14)), 5)
        for level, r in zip(levels, exact_chain(r1, 5)):
            assert level.val == 0 and level.sign() == -1
            assert same_prefix(level, r)

    def test_laurent_r1_tends_to_minus_infinity(self):
        r1 = L_func([-3, -1])  # -log n - 3
        u = S((0, 1), (2, r1))
        levels = llc_level_coefficients(u, 4)
        for level, r in zip(levels, exact_chain(r1, 4)):
            assert (level.val, level.sign()) == (-1, -1)
            assert same_prefix(level, r)
        v = llogconcave_asymptotic(u, 4)
        assert (v.result, v.rule) == ("holds", "llc.critical.threshold")

    def test_valuation_rise_is_followed(self, monkeypatch):
        # r_1 = -1 + 1/log n: level 2 = 2/log n + ... tends to 0 from above
        r1 = L_func([1, -1], [0, 1])
        u = S((0, 1), (2, r1))
        levels = llc_level_coefficients(u, 3)
        assert [(lv.val, lv.sign()) for lv in levels] == [(0, -1), (1, 1), (0, 1)]
        for level, r in zip(levels, exact_chain(r1, 3)):
            assert same_prefix(level, r)
        # from a single term of r_1 the chain must raise its precision
        monkeypatch.setattr(criteria, "START_TERMS", 1)
        short = llc_level_coefficients(u, 3)
        assert [(lv.val, lv.sign()) for lv in short] == [(0, -1), (1, 1), (0, 1)]
        for level, r in zip(short, exact_chain(r1, 3)):
            assert same_prefix(level, r)

    def test_number_field_coefficients(self):
        nf = NumberField(AlgebraicReal(Poly([-2, 0, 1]), F(1), F(2)))
        r1 = RatFunc(Poly([F(-1), -2 * nf.generator()]), Poly([0, 1]))  # -2 sqrt2 - 1/log n
        levels = llc_level_coefficients(S((0, 1), (2, r1)), 3)
        for level, r in zip(levels, exact_chain(r1, 3)):
            assert level.sign() == -1
            assert same_prefix(level, r)

    def test_exactly_zero_level_raises(self):
        levels = llc_level_coefficients(u_of("inverse-catalan"), 3)
        assert levels[2].is_zero()
        with pytest.raises(ValueError, match="leading coefficient vanishes"):
            llc_level_coefficients(u_of("inverse-catalan"), 4)

    def test_zero_is_proved_only_past_the_degree_bound(self):
        known_zero = LogSeries(0, [F(0)] * 3, 3)
        assert _settled(known_zero, 3) is None
        assert _settled(known_zero, 2).is_zero()
        decided = LogSeries(0, [F(0), F(-1)], 2)
        assert _settled(decided, 5) is decided and decided.val == 1

    def test_trace_prints_leading_terms(self):
        v = llogconcave_asymptotic(u_power_log(2, 1, F(14)), 5)
        assert (
            "level 5: r_1 = -2 - 16/log(n) + 22/log(n)^3 + O(1/log(n)^4) (map 2r + t),"
            " sign at infinity -1"
        ) in v.trace
        v = llogconcave_asymptotic(u_of("inverse-catalan"), 2)
        assert "level 2: r_1 = -1 (map 2r + t), sign at infinity -1" in v.trace


class TestDrivers:
    def test_factorial_ancestor_is_log_convex(self):
        # a(n+1) = (n+1) a(n), a(0) = 1: the factorials themselves.
        rec = Recurrence([Poly([1]), Poly([1, 1])], [1], name="factorial")
        v = turan3_verdict(TermTable(rec))
        assert (v.result, v.rule) == ("fails", "turan3.log-convex")
        v = llogconcave_verdict(TermTable(rec), 2)
        assert (v.result, v.rule) == ("fails", "llc.log-convex")

    def test_driver_stops_at_cap(self):
        v = llogconcave_verdict(TermTable(get("inverse-catalan").recurrence), 5, max_order=8)
        assert (v.result, v.rule) == ("inconclusive", "llc.insufficient-order")
        assert v.retryable

    def test_driver_can_reach_deeper_levels(self):
        v = llogconcave_verdict(TermTable(get("inverse-catalan").recurrence), 4, max_order=16)
        assert v.rule in ("llc.threshold", "llc.boundary", "llc.critical.threshold")

    def test_verdict_serializes(self):
        v = turan3_verdict(TermTable(get("inverse-catalan").recurrence))
        blob = json.dumps(v.to_dict())
        back = json.loads(blob)
        assert back["result"] == "holds"
        assert back["rule"] == v.rule
        assert isinstance(back["trace"], list)

    def test_default_traces_are_fresh_lists(self):
        a, b = criteria.Verdict("holds", "r", "x"), criteria.Verdict("holds", "r", "x")
        a.trace.append("note")
        assert a.trace == ["note"] and b.trace == [] and a.trace is not b.trace

    def test_to_dict_copies_the_trace_in_field_order(self):
        trace = ["one", "two"]
        d = criteria.Verdict("fails", "rule", "why", trace).to_dict()
        assert list(d) == ["result", "rule", "reason", "trace"]
        assert d["trace"] == trace and d["trace"] is not trace


# Verdict.to_dict() of every corpus entry under its default scaling, as
# written when Verdict was a dataclass serialised by dataclasses.asdict.
VERDICT_DICTS = json.loads((Path(__file__).parent / "verdict_dicts.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_verdict_dicts_match_the_recorded_ones(name):
    rec, scaling = cli.load_source(name, False)
    got = {
        "check-turan3": turan3_verdict(TermTable(rec), scaling=scaling).to_dict(),
        "check-llc --ell 1": llogconcave_verdict(TermTable(rec), 1, scaling=scaling).to_dict(),
        "check-llc --ell 2": llogconcave_verdict(TermTable(rec), 2, scaling=scaling).to_dict(),
    }
    assert got == VERDICT_DICTS[name]
    assert all(list(d) == ["result", "rule", "reason", "trace"] for d in got.values())
