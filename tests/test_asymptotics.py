"""Series arithmetic, shift expansions, growth branches, u- and phi-expansions."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from turancert.algebra import NFElem, NumberField, Poly, RatFunc, isolate_real_roots
from turancert.asymptotics import (
    AsymSeries,
    ExpansionError,
    binomial_power,
    compose_coef_shift,
    dominant_edge,
    edge_polynomial,
    gen_binomial,
    ratio_expansion,
    series_inv,
    series_pow_binomial,
    shift_series,
    u_expansion,
    u_power,
    u_power_log,
)
from turancert.asymptotics import ratio as ratio_module
from turancert.asymptotics.ratio import (
    RatioExpansion,
    _branch,
    _positive_roots_desc,
    _residual_slots,
    _Resonance,
    _solve_stages,
    _Stages,
    u_grid,
)
from turancert.corpus import ENTRIES
from turancert.parser import parse_recurrence
from turancert.render import growth_record
from turancert.sequences import Recurrence, TermTable, phi_values, u_value

import oracles
from oracles import eval_exact, get, phi_u_expansion, series_residual, series_u_expansion
from test_random_inputs import random_input

L = RatFunc.variable()


def S(*terms, err=None) -> AsymSeries:
    return AsymSeries([(F(e), c) for e, c in terms], error_order=err)


class TestSeriesCore:
    def test_merge_and_zero_drop(self):
        s = S((1, 2), (1, -2), (0, 1))
        assert s.terms == ((F(0), RatFunc.one()),)
        assert s.is_exact()

    def test_strict_truncation_boundary(self):
        s = S((0, 1), (2, 5), err=2)
        assert s.coefficient(2).is_zero()
        assert s.error_order == 2

    def test_mul_error_rule(self):
        a = S((0, 1), (1, 1), err=2)
        b = S((0, 1), (1, -1), err=2)
        p = a * b
        # the exact -1/n^2 cross term is not sharper than the o(n^-2) error
        assert p == S((0, 1), err=2)

    def test_mul_exact_stays_exact(self):
        a = S((0, 1), (2, -1))
        assert (a * a).is_exact()
        assert (a * a).coefficient(2) == RatFunc.const(-2)

    def test_error_against_constant_term(self):
        big = S((0, 3), err=4)
        small = S((5, 1), err=9)
        # o(n^-4) times an order-one factor cannot beat n^-4
        assert (big * small).error_order == 9
        assert (small * big).coefficient(5) == RatFunc.const(3)
        assert (big * S((0, 1))).error_order == 4

    def test_shift_exponents_moves_error(self):
        s = S((1, 1), err=3).shift_exponents(F(-1, 2))
        assert s.terms[0][0] == F(1, 2)
        assert s.error_order == F(5, 2)

    def test_inv_geometric(self):
        a = S((0, 1), (1, -1), err=4)
        assert series_inv(a) == S((0, 1), (1, 1), (2, 1), (3, 1), err=4)

    def test_inv_requires_unit_leading(self):
        with pytest.raises(ValueError):
            series_inv(S((0, 2), (1, 1), err=3))

    def test_inv_exact_needs_order(self):
        with pytest.raises(ValueError):
            series_inv(S((0, 1), (1, 1)))
        got = series_inv(S((0, 1), (1, 1)), order=3)
        assert got == S((0, 1), (1, -1), (2, 1), err=3)

    def test_pow_binomial_sqrt(self):
        a = S((0, 1), (2, -1))
        got = series_pow_binomial(a, F(1, 2), order=6)
        assert got == S((0, 1), (2, F(-1, 2)), (4, F(-1, 8)), err=6)

    def test_pow_binomial_integer_exact(self):
        a = S((0, 1), (2, -1))
        assert series_pow_binomial(a, 3) == u_power(3, None)

    def test_eval_exact(self):
        s = S((1, F(1, 2)), (F(3, 2), 5))
        assert eval_exact(s, 4) == F(1, 8) + F(5, 8)
        with pytest.raises(ValueError):
            eval_exact(s, 5)
        with pytest.raises(ValueError):
            eval_exact(AsymSeries([(F(1), L)]), 4)

    def test_shift_series_golden(self):
        rec = shift_series(S((1, 1)), 1, order=4)
        assert rec == S((1, 1), (2, -1), (3, 1), err=4)

    # 1 + o(n^-3): asking for more order than the input has cannot sharpen it
    def test_inv_keeps_input_error(self):
        assert series_inv(S((0, 1), err=3), 6) == S((0, 1), err=3)

    def test_pow_binomial_keeps_input_error(self):
        assert series_pow_binomial(S((0, 1), err=3), F(1, 2), 6) == S((0, 1), err=3)
        assert series_pow_binomial(S((0, 1), err=3), 2, 6) == S((0, 1), err=3)


def _power_sum(a: AsymSeries, alpha, order) -> AsymSeries:
    """Reference for a^alpha: sum_k C(alpha, k) x^k over truncated powers of
    x = a - 1, the loop the coefficient recurrence replaced."""
    x = AsymSeries(a.terms[1:], a.error_order).truncate(order)
    out = AsymSeries.one().truncate(x.error_order)
    power = AsymSeries.one()
    for k in range(1, int(F(order) / x.terms[0][0]) + 2):
        power = (power * x).truncate(order)
        if not power.terms:
            break
        out = out + power.scale(gen_binomial(alpha, k))
    return out


def _sqrt3_coef(rng: random.Random):
    field = NumberField(isolate_real_roots(Poly([-3, 0, 1]))[-1])
    return lambda: NFElem(field, (F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(1, 4))))


COEF_DOMAINS = {
    "rational": lambda rng: lambda: F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4)),
    "sqrt3": _sqrt3_coef,
    "ratfunc-of-L": lambda rng: lambda: _random_ratfunc(rng),
}


class TestBinomialKernel:
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("domain", sorted(COEF_DOMAINS))
    def test_matches_power_sum(self, domain, q):
        rng = random.Random(f"{domain}/{q}")
        coef = COEF_DOMAINS[domain](rng)
        order = F(3)
        for err in (None, order - F(1, q)):
            exps = rng.sample(range(1, 3 * q), 2)
            a = AsymSeries([(F(0), 1)] + [(F(e, q), coef()) for e in exps], err)
            for alpha in (-1, F(1, 2), F(-3, 2), F(2, 3), 1, 2, 3):
                want = _power_sum(a, alpha, order)
                assert series_pow_binomial(a, alpha, order).truncate(order) == want
                if alpha == -1:
                    assert series_inv(a, order) == want


def _random_ratfunc(rng: random.Random) -> RatFunc:
    def poly() -> Poly:
        deg = rng.randint(0, 3)
        cs = [F(rng.randint(-5, 5)) for _ in range(deg)]
        cs.append(F(rng.choice([1, 2, 3, -1, -2])))
        return Poly(cs)

    return RatFunc(poly(), poly())


def shift_coefficients(r: RatFunc, direction: int, K: int) -> list:
    """r_1..r_K with r(log(n+dir)) - r(log n) = sum r_i(log n)/n^i + o(n^-K)."""
    s = compose_coef_shift(r, direction, K + 1)
    return [s.coefficient(i) for i in range(1, K + 1)]


class TestShiftExpand:
    def test_forward_golden(self):
        assert shift_coefficients(L, 1, 3) == [
            RatFunc.one(),
            RatFunc.const(F(-1, 2)),
            RatFunc.const(F(1, 3)),
        ]

    def test_backward_golden(self):
        assert shift_coefficients(L * L, -1, 2) == [-2 * L, RatFunc.one() - L]

    def test_constant_has_no_shift(self):
        assert shift_coefficients(RatFunc.const(F(7, 3)), 1, 4) == [RatFunc.zero()] * 4

    @pytest.mark.parametrize("seed", range(20))
    def test_derivative_identities(self, seed):
        rng = random.Random(1000 + seed)
        r = _random_ratfunc(rng)
        d1 = r.derivative()
        d2 = d1.derivative()
        plus = shift_coefficients(r, 1, 2)
        minus = shift_coefficients(r, -1, 2)
        assert plus[0] == d1
        assert minus[0] == -d1
        # the n^-2 coefficient agrees for both directions
        assert plus[1] == (d2 - d1) / 2
        assert minus[1] == (d2 - d1) / 2


class TestModelSequenceForms:
    """Second-order structure of a_n = r(log n) / n^alpha."""

    @pytest.mark.parametrize("seed", range(20))
    def test_u_form_second_order(self, seed):
        rng = random.Random(2000 + seed)
        r = _random_ratfunc(rng)
        alpha = F(rng.randint(-6, 6), rng.choice([1, 2]))
        a = AsymSeries([(alpha, r)])
        beta = alpha + 4
        q = shift_series(a, 1, beta) * shift_series(a, -1, beta)
        u = q.shift_exponents(-2 * alpha).scale(r ** (-2))
        # a = r/n^alpha decays, so a = n^s corresponds to alpha = -s
        lr = r.derivative() / r
        expected = RatFunc.const(alpha) + lr.derivative() - lr
        assert u.coefficient(0) == RatFunc.one()
        assert u.coefficient(1).is_zero()
        assert u.coefficient(2) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_centered_difference_leading(self, seed):
        rng = random.Random(3000 + seed)
        r = _random_ratfunc(rng)
        alpha = F(rng.randint(-6, 6), rng.choice([1, 2]))
        a = AsymSeries([(alpha, r)])
        beta = alpha + 3
        css = shift_series(a, 1, beta) + shift_series(a, -1, beta) - a
        assert css.coefficient(alpha) == r  # (a+ + a-) - 2a leaves one copy here
        css = css - a
        assert css.coefficient(alpha).is_zero()
        assert css.coefficient(alpha + 1).is_zero()
        d1 = r.derivative()
        expected = alpha * (alpha + 1) * r - (2 * alpha + 1) * d1 + d1.derivative()
        assert css.coefficient(alpha + 2) == expected


class TestNewtonPolygon:
    def test_involutions_edge(self):
        rec = get("involutions").recurrence
        mu, e0, on_edge = dominant_edge(rec)
        assert (mu, e0, on_edge) == (F(-1, 2), F(0), [0, 2])
        assert edge_polynomial(rec, mu, on_edge) == Poly([-1, 0, 1])

    def test_motzkin_edge(self):
        rec = get("motzkin").recurrence
        mu, e0, on_edge = dominant_edge(rec)
        assert (mu, on_edge) == (F(0), [0, 1, 2])
        assert edge_polynomial(rec, mu, on_edge) == Poly([-3, -2, 1])

    def test_fine_edge(self):
        rec = get("fine").recurrence
        mu, _, on_edge = dominant_edge(rec)
        assert edge_polynomial(rec, mu, on_edge) == Poly([-4, -7, 2])

    def test_apery_edge(self):
        rec = get("apery").recurrence
        mu, _, on_edge = dominant_edge(rec)
        assert mu == 0
        assert edge_polynomial(rec, mu, on_edge) == Poly([1, -34, 1])

    def test_no_positive_branch(self):
        rec = Recurrence([Poly([1]), Poly([-2])], [F(1)])
        with pytest.raises(ExpansionError, match="no positive real root"):
            ratio_expansion(rec, 3)


RATIO_CASES = {
    "inverse-catalan": (F(1, 4), F(0), 1),
    "motzkin": (F(3), F(0), 1),
    "franel3": (F(8), F(0), 1),
    "binomial4": (F(16), F(0), 1),
    "fine": (F(4), F(0), 1),
    "domb": (F(16), F(0), 1),
    "involutions": (F(1), F(-1, 2), 2),
}


DOUBLE_ROOT = "(n+2)^2*a(n+2) - 4*(n+1)^2*a(n+1) + 4*n^2*a(n) = 0 ; a(0)=1, a(1)=2"


class TestRatioExpansion:
    @pytest.mark.parametrize("name", sorted(RATIO_CASES))
    def test_rational_growth(self, name):
        lam, mu, rho = RATIO_CASES[name]
        rx = ratio_expansion(get(name).recurrence, 3)
        assert rx.lam_poly is None
        assert (rx.lam, rx.mu, rx.rho) == (lam, mu, rho)

    @pytest.mark.parametrize(
        "name,minpoly,approx",
        [("apery", [1, -34, 1], 33.9705627), ("bn", [1, -6, 1], 5.8284271)],
    )
    def test_algebraic_growth(self, name, minpoly, approx):
        rx = ratio_expansion(get(name).recurrence, 3)
        assert list(rx.lam_poly.coeffs) == [F(c) for c in minpoly]
        assert float(rx.lam) == pytest.approx(approx)
        rec = growth_record(rx)
        assert rec["lambdaMinimalPolynomial"] == [str(c) for c in minpoly]

    def test_inverse_catalan_corrections(self):
        rx = ratio_expansion(get("inverse-catalan").recurrence, 4)
        assert rx.coeffs == [F(3, 2), F(-3, 4), F(3, 8), F(-3, 16)]

    def test_reciprocal_factorial_corrections(self):
        rec = Recurrence([Poly([1, 1]), Poly([1])], [F(1)])
        rx = ratio_expansion(rec, 4)
        assert (rx.lam, rx.mu) == (F(1), F(-1))
        assert rx.coeffs == [F(-1), F(1), F(-1), F(1)]

    def test_ratio_residual_decay(self):
        rx = ratio_expansion(get("motzkin").recurrence, 5)
        t = TermTable(get("motzkin").recurrence)
        def residual(n: int) -> F:
            pred = rx.lam * eval_exact(rx.v, n)
            return abs(t.value(n + 1) / t.value(n) - pred)
        bound = residual(100) * F(100) ** 6 * F(3, 2)
        for n in (400, 1600):
            assert residual(n) * F(n) ** 6 <= bound

    def test_involutions_residual_decay_on_squares(self):
        rx = ratio_expansion(get("involutions").recurrence, 4)
        t = TermTable(get("involutions").recurrence)
        def residual(n: int, root: int) -> F:
            pred = eval_exact(rx.v, n) / root  # lam=1, mu=-1/2
            return abs(t.value(n + 1) / t.value(n) - pred)
        bound = residual(121, 11) * F(121) ** F(9, 2) * 2
        for n, root in ((400, 20), (2500, 50)):
            assert residual(n, root) * F(n) ** F(9, 2) <= bound

    def test_oscillating_sequence_rejected(self):
        rec = Recurrence([Poly([1]), Poly(), Poly([16])], [F(2), F(0)])
        with pytest.raises(ExpansionError):
            ratio_expansion(rec, 3)  # a(n) = 4^n + (-4)^n vanishes at odd n

    def test_double_root_ambiguity(self):
        coeffs = [Poly([1]), Poly([2]), Poly([-1])]
        growing = Recurrence(coeffs, [F(0), F(1)])  # a(n) = n
        with pytest.raises(ExpansionError):
            ratio_expansion(growing, 3)
        flat = Recurrence(coeffs, [F(1), F(1)])  # a(n) = 1
        rx = ratio_expansion(flat, 3)
        assert (rx.lam, rx.mu) == (F(1), F(0))
        assert rx.coeffs == [F(0)] * 3

    def test_rho_override_too_coarse(self):
        with pytest.raises(ExpansionError):
            ratio_expansion(get("involutions").recurrence, 3, rho=1)

    def test_stretched_exponential_note(self):
        rx = ratio_expansion(get("involutions").recurrence, 3)
        note = growth_record(rx)["stretchedExponential"]
        assert note == {"form": "exp(c*sqrt(n))", "c": "1"}

    @pytest.mark.parametrize(
        "name,orders",
        [("bn", (4, 8, 4)), ("involutions", (3, 4)), ("inverse-catalan", (4, 5))],
    )
    def test_shared_table_matches_fresh_calls(self, name, orders):
        rec = get(name).recurrence
        shared = TermTable(rec)
        for K in orders:
            got = ratio_expansion(rec, K, table=shared)
            want = ratio_expansion(rec, K, table=TermTable(rec))
            assert _expansion_view(got) == _expansion_view(want)
            assert got.diagnostics == want.diagnostics
        assert len(shared.expansions) == 1

    def test_shared_table_replays_resonance(self):
        # a double root of the edge polynomial resonates at stage rho for every rho try
        coeffs = [Poly([1, 1]), Poly([2, 2]), Poly([0, -1])]
        rec = Recurrence(coeffs, [F(1), F(2)])
        shared = TermTable(rec)
        for K in (1, 3, 2):
            with pytest.raises(ExpansionError) as got:
                ratio_expansion(rec, K, table=shared)
            with pytest.raises(ExpansionError) as want:
                ratio_expansion(rec, K, table=TermTable(rec))
            assert got.value.details == want.value.details
            assert "resonance at stage 4 with rho=4" in str(got.value.details)

    @pytest.mark.parametrize("source", sorted(ENTRIES) + [DOUBLE_ROOT])
    def test_stage_slope_matches_two_residual_builds(self, source):
        # slot i of the rebuilt residual, at c_i = 1 and at c_i = 0, differs by the edge slope
        rec = get(source).recurrence if source in ENTRIES else parse_recurrence(source)
        table = TermTable(rec)
        try:
            ratio_expansion(rec, 4, table=table)
        except ExpansionError:
            pass
        mu, e0, _, roots = table.expansions[(rec, None)]
        tried = 0
        for lam, _, _, _, slope, tries in roots:
            for rho, st in tries.items():
                for i in range(1, len(st.cs) + 2):
                    cs = st.cs[:i - 1]
                    b = _residual_slots(rec, lam, mu, e0, rho, grid_of(lam, cs + [F(0)]))[i]
                    a1 = _residual_slots(rec, lam, mu, e0, rho, grid_of(lam, cs + [F(1)]))[i]
                    assert a1 - b == slope
                    tried += 1
        assert tried
        if source == DOUBLE_ROOT:
            assert all(not root[4] for root in roots)

    def test_shared_table_keeps_rho_choice(self):
        # stage solves stored for one rho argument do not leak into another
        rec = get("involutions").recurrence
        shared = TermTable(rec)
        ratio_expansion(rec, 3, table=shared)
        with pytest.raises(ExpansionError):
            ratio_expansion(rec, 3, rho=1, table=shared)
        assert ratio_expansion(rec, 2, table=shared).rho == 2


def _scalar_view(x):
    if isinstance(x, F):
        return x
    return tuple(x.coeffs), tuple(x.field.modulus.coeffs)


def _series_view(u: AsymSeries) -> tuple:
    """A series' terms with their scalar types, field elements as tuples."""
    return [
        (e, [_scalar_view(x) for x in c.num.coeffs], [_scalar_view(x) for x in c.den.coeffs])
        for e, c in u.terms
    ], u.error_order


def _expansion_view(rx) -> tuple:
    """Everything a RatioExpansion says, with field elements as plain tuples
    (elements of two separately built fields cannot be compared directly)."""
    return (
        _scalar_view(rx.lam), rx.lam_poly, rx.mu, rx.rho,
        [_scalar_view(c) for c in rx.coeffs], *_series_view(rx.v),
    )


def _stage_expansion(lam, mu, rho, cs) -> RatioExpansion:
    """A RatioExpansion from solved stages, without the exact-term check."""
    return RatioExpansion(lam=lam, lam_poly=None, mu=mu, rho=rho, coeffs=cs)


def grid_of(lam, cs: list) -> tuple:
    """The solver's integer grid array of [1, c_1..c_T]."""
    return ratio_module._to_grid([1] + cs, getattr(lam, "field", None))


def _slot_value(f: AsymSeries, exp: F):
    c = f.coefficient(exp)
    assert c.is_constant()
    return c.constant_value()


def per_stage_solve(rec, lam, mu, e0, rho, T, slope) -> tuple:
    """Oracle: (c_1.., resonant stage or None) by one residual rebuild per
    stage.  Slot i of the residual built from c_1..c_{i-1} is b, and
    c_i = -b/slope; at slope 0 a zero b gives c_i = 0 and any other b
    resonates."""
    cs = []
    for i in range(1, T + 1):
        b = _slot_value(series_residual(rec, lam, mu, rho, cs, F(i + 1, rho)), -e0 + F(i, rho))
        if not slope:
            if b:
                return cs, i
            cs.append(F(0))
            continue
        cs.append(-(b / slope))
    return cs, None


def _exact_view(cs: list) -> list:
    """Coefficients with their types, field elements as coefficient tuples."""
    return [(type(c).__name__, _scalar_view(c)) for c in cs]


def _edge_roots(rec: Recurrence) -> tuple:
    """(mu, e0, [(lam, slope)] per positive edge root) without the term table."""
    mu, e0, on_edge = dominant_edge(rec)
    roots = _positive_roots_desc(edge_polynomial(rec, mu, on_edge))
    branches = [_branch(r, rec, on_edge) for r in roots]
    return mu, e0, [(b[0], b[4]) for b in branches]


def random_recurrence(seed: int):
    """A recurrence of order 1 + seed % 3 with random rational coefficients,
    or None when it has fewer than two nonzero coefficients."""
    rng = random.Random(seed)
    d = 1 + seed % 3
    coeffs = [
        Poly([F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))])
        for _ in range(d + 1)
    ]
    if coeffs[0].is_zero() or sum(not c.is_zero() for c in coeffs) < 2:
        return None
    return Recurrence(coeffs, [F(1)] * d)


# a(n) = 1: a double edge root at lam = 1 whose every stage slot is 0
FLAT = Recurrence([Poly([1]), Poly([2]), Poly([-1])], [F(1), F(1)])
# a double edge root at lam = 1 that resonates at stage rho
RESONANT = Recurrence([Poly([1, 1]), Poly([2, 2]), Poly([0, -1])], [F(1), F(2)])

_ORACLE: dict = {}


def _oracle(name: str, index: int, rho: int) -> tuple:
    """Per-stage oracle for a corpus entry's edge root `index`, to K = 12."""
    key = name, index, rho
    if key not in _ORACLE:
        rec = get(name).recurrence
        mu, e0, roots = _edge_roots(rec)
        lam, slope = roots[index]
        _ORACLE[key] = per_stage_solve(rec, lam, mu, e0, rho, 12 * rho, slope)
    return _ORACLE[key]


class TestRecords:
    def test_stages_share_no_list(self):
        a, b = _Stages(), _Stages()
        a.cs.append(F(1))
        a.floats.append(1.0)
        assert (b.cs, b.floats, b.resonance) == ([], [], None)
        assert a.cs is not b.cs and a.floats is not b.floats

    def test_default_diagnostics_share_no_dict(self):
        a, b = (RatioExpansion(lam=F(4), lam_poly=None, mu=F(0), rho=1, coeffs=[]) for _ in range(2))
        a.diagnostics["k"] = 1
        assert b.diagnostics == {} and a.diagnostics is not b.diagnostics


class TestOnlineStages:
    @pytest.mark.parametrize("K", [4, 8, 12])
    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_corpus_matches_per_stage_residuals(self, name, K):
        rec = get(name).recurrence
        table = TermTable(rec)
        ratio_expansion(rec, K, table=table)
        compared = 0
        for index, (_, _, _, _, _, tries) in enumerate(table.expansions[(rec, None)][3]):
            for rho, st in tries.items():
                want, resonance = _oracle(name, index, rho)
                T = K * rho
                if resonance is not None and resonance <= T:
                    assert (st.cs, st.resonance) == ([], resonance)
                else:
                    assert _exact_view(st.cs) == _exact_view(want[:T])
                    assert st.resonance is None
                compared += 1
        assert compared

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_random_recurrences_match_per_stage_residuals(self, order):
        compared, algebraic = 0, 0
        for seed in range(order - 1, 48, 3):
            rec = random_recurrence(seed)
            if rec is None:
                continue
            try:
                mu, e0, roots = _edge_roots(rec)
            except ExpansionError:
                continue
            for lam, slope in roots:
                algebraic += not isinstance(lam, F)
                for rho in (1, 2, 4):
                    T = 3 * rho
                    want, resonance = per_stage_solve(rec, lam, mu, e0, rho, T, slope)
                    assert resonance is None
                    got = _solve_stages(rec, lam, mu, e0, rho, T, slope, _Stages())
                    assert _exact_view(got) == _exact_view(want)
                    compared += 1
        assert compared >= 6
        if order > 1:
            assert algebraic

    def test_double_root_resonance_matches_per_stage_residuals(self):
        mu, e0, [(lam, slope)] = _edge_roots(RESONANT)
        assert not slope
        for rho in (1, 2, 4):
            want, resonance = per_stage_solve(RESONANT, lam, mu, e0, rho, 3 * rho, slope)
            assert (want, resonance) == ([F(0)] * (rho - 1), rho)
            st = _Stages()
            with pytest.raises(_Resonance) as got:
                _solve_stages(RESONANT, lam, mu, e0, rho, 3 * rho, slope, st)
            assert got.value.stage == st.resonance == resonance
            assert st.cs == []
        with pytest.raises(ExpansionError) as err:
            ratio_expansion(RESONANT, 3)
        assert err.value.details == {
            "newtonPoints": [(2, 1), (1, 1), (0, 1)],
            "mu": "0",
            "edgePolynomial": ["1", "-2", "1"],
            "branches": [{"lambdaApprox": 1.0, "status": "resonance at stage 4 with rho=4"}],
        }
        rec = parse_recurrence(DOUBLE_ROOT)
        with pytest.raises(ExpansionError) as err:
            ratio_expansion(rec, 3)
        assert err.value.details["branches"] == [
            {"lambdaApprox": 2.0, "status": "resonance at stage 8 with rho=4"}
        ]

    def test_double_root_zero_slots_match_per_stage_residuals(self):
        mu, e0, [(lam, slope)] = _edge_roots(FLAT)
        assert not slope
        for rho in (1, 2, 4):
            want, resonance = per_stage_solve(FLAT, lam, mu, e0, rho, 3 * rho, slope)
            assert resonance is None
            got = _solve_stages(FLAT, lam, mu, e0, rho, 3 * rho, slope, _Stages())
            assert _exact_view(got) == _exact_view(want) == _exact_view([F(0)] * (3 * rho))

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_resume_equals_fresh_solve(self, name):
        rec = get(name).recurrence
        shared = TermTable(rec)
        ratio_expansion(rec, 4, table=shared)
        got = ratio_expansion(rec, 12, table=shared)
        fresh = TermTable(rec)
        want = ratio_expansion(rec, 12, table=fresh)
        assert _expansion_view(got) == _expansion_view(want)
        assert got.diagnostics == want.diagnostics
        views = []
        for tbl in (shared, fresh):
            roots = tbl.expansions[(rec, None)][3]
            views.append([
                {rho: (_exact_view(st.cs), st.floats, st.resonance) for rho, st in root[5].items()}
                for root in roots
            ])
        assert views[0] == views[1]

    @pytest.mark.parametrize("name,stage", [("motzkin", 3), ("apery", 1), ("involutions", 7)])
    def test_residual_check_catches_a_wrong_stage(self, monkeypatch, name, stage):
        solve = ratio_module._online_stages

        def perturbed(*args):
            planes, den = solve(*args)
            planes[0][stage] += den  # c_stage + 1
            return planes, den

        monkeypatch.setattr(ratio_module, "_online_stages", perturbed)
        with pytest.raises(ExpansionError, match=f"internal: residual slot {stage} does not vanish"):
            ratio_expansion(get(name).recurrence, 4)

    @pytest.mark.parametrize("K", [1, 4, 8, 12])
    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_rebuilt_slots_match_series_residual(self, name, K):
        # the closing check's grid slots against the AsymSeries residual,
        # on the solved stages and on stages moved off the solution
        rec = get(name).recurrence
        table = TermTable(rec)
        ratio_expansion(rec, K, table=table)
        mu, e0, _, roots = table.expansions[(rec, None)]
        compared, nonzero = 0, 0
        for lam, _, _, _, _, tries in roots:
            for rho, st in tries.items():
                moved = [c + F(i, 3) for i, c in enumerate(st.cs, start=1)]
                for cs in (st.cs, moved):
                    T = len(cs)
                    res = series_residual(rec, lam, mu, rho, cs, F(T + 1, rho))
                    want = [_slot_value(res, -e0 + F(i, rho)) for i in range(T + 1)]
                    got = _residual_slots(rec, lam, mu, e0, rho, grid_of(lam, cs))
                    assert len(got) == T + 1
                    assert all(g == w for g, w in zip(got, want))
                    compared += 1
                    nonzero += sum(bool(w) for w in want)
        assert compared and nonzero

    @pytest.mark.parametrize("name", ["involutions", "apery"])
    def test_prefix_stability(self, name):
        rec = get(name).recurrence
        short = ratio_expansion(rec, 12)
        long = ratio_expansion(rec, 24)
        assert short.rho == long.rho
        assert _exact_view(long.coeffs[: len(short.coeffs)]) == _exact_view(short.coeffs)

    def test_one_residual_build_per_solve_that_adds_stages(self, monkeypatch):
        builds, adding = [], []
        residual, solve = ratio_module._residual_slots, ratio_module._solve_stages

        def counted_residual(*args):
            builds.append(len(args[5][0][0]) - 1)  # T, the last stage
            return residual(*args)

        def counted_solve(*args):
            st = args[-1]
            before = len(st.cs)
            try:
                return solve(*args)
            finally:
                adding.append(len(st.cs) > before)

        monkeypatch.setattr(ratio_module, "_residual_slots", counted_residual)
        monkeypatch.setattr(ratio_module, "_solve_stages", counted_solve)
        rec = get("involutions").recurrence
        shared = TermTable(rec)
        ratio_expansion(rec, 12, table=shared)
        assert builds == [24] and adding == [True]
        ratio_expansion(rec, 8, table=shared)
        assert len(builds) == 1 and adding[1:] == [False]
        ratio_expansion(rec, 16, table=shared)
        assert builds[1:] == [32]
        for name in ("bn", "apery", "fine"):
            rec = get(name).recurrence
            shared = TermTable(rec)
            for K in (4, 12, 8, 12, 16):
                ratio_expansion(rec, K, table=shared)
        with pytest.raises(ExpansionError):
            ratio_expansion(RESONANT, 3)
        assert len(builds) == sum(adding)
        assert len(adding) > sum(adding)

    @pytest.mark.parametrize("name", ["bn", "apery", "involutions", "motzkin"])
    def test_each_binomial_row_is_built_once_per_solve(self, monkeypatch, name):
        built = []
        row = ratio_module._binomial_row

        def counted(j, alpha, rho, T):
            built.append((j, alpha, rho))
            return row(j, alpha, rho, T)

        monkeypatch.setattr(ratio_module, "_binomial_row", counted)
        rec = get(name).recurrence
        ratio_expansion(rec, 12)
        assert built and len(built) == len(set(built))
        # the rows are the solve's own: a fresh table builds them all again
        first, built[:] = list(built), []
        ratio_expansion(rec, 12)
        assert built == first


U_GOLDENS = {
    "inverse-catalan": {F(2): F(-3, 2), F(3): F(9, 4), F(4): F(-21, 8)},
    "involutions": {F(1): F(-1, 2), F(3, 2): F(-1, 4), F(2): F(5, 8)},
}


class TestUExpansion:
    @pytest.mark.parametrize("scaling", ["none", "factorial"])
    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_matches_series_oracle_on_corpus(self, name, scaling):
        rec = get(name).recurrence
        table = TermTable(rec)
        for K in (1, 2, 4, 8, 12):
            rx = ratio_expansion(rec, K, table=table)
            assert _series_view(u_expansion(rx, scaling)) == _series_view(series_u_expansion(rx, scaling))

    def test_matches_series_oracle_on_random_recurrences(self):
        compared, algebraic = 0, 0
        for seed in range(30):
            rec = random_recurrence(seed)
            if rec is None:
                continue
            try:
                mu, e0, roots = _edge_roots(rec)
            except ExpansionError:
                continue
            for lam, slope in roots:
                algebraic += not isinstance(lam, F)
                for rho in (mu.denominator, 2 * mu.denominator):
                    cs = _solve_stages(rec, lam, mu, e0, rho, 4 * rho, slope, _Stages())
                    rx = _stage_expansion(lam, mu, rho, cs)
                    for scaling in ("none", "factorial"):
                        assert _series_view(u_expansion(rx, scaling)) == _series_view(series_u_expansion(rx, scaling))
                        compared += 1
        assert compared >= 20 and algebraic

    @pytest.mark.parametrize("name", sorted(U_GOLDENS))
    def test_goldens(self, name):
        rx = ratio_expansion(get(name).recurrence, 4)
        u = u_expansion(rx, get(name).scaling)
        for exp, coef in U_GOLDENS[name].items():
            assert u.coefficient(exp) == RatFunc.const(coef)

    def test_reciprocal_factorial_alternates(self):
        rec = Recurrence([Poly([1, 1]), Poly([1])], [F(1)])
        u = u_expansion(ratio_expansion(rec, 4))
        assert [(e, c.constant_value()) for e, c in u.terms] == [
            (F(0), F(1)), (F(1), F(-1)), (F(2), F(1)), (F(3), F(-1)), (F(4), F(1)),
        ]

    @pytest.mark.parametrize(
        "name,d2",
        [("motzkin", F(3, 2)), ("franel3", F(1)), ("binomial4", F(3, 2))],
    )
    def test_unscaled_second_order(self, name, d2):
        u = u_expansion(ratio_expansion(get(name).recurrence, 3))
        assert u.coefficient(1).is_zero()
        assert u.coefficient(2) == RatFunc.const(d2)

    @pytest.mark.parametrize("name", ["apery", "bn"])
    def test_algebraic_cases_have_rational_d2(self, name):
        u = u_expansion(ratio_expansion(get(name).recurrence, 3))
        c2 = u.coefficient(2).constant_value()
        assert c2.to_fraction() == F(3, 2)

    def test_factorial_scaling_factor(self):
        rx = ratio_expansion(get("motzkin").recurrence, 3)
        raw = u_expansion(rx)
        scaled = u_expansion(rx, "factorial")
        beta = raw.error_order
        assert scaled == (raw * binomial_power(1, -1, beta)).truncate(beta)
        assert scaled.coefficient(1) == RatFunc.const(-1)
        assert scaled.coefficient(2) == RatFunc.const(F(5, 2))

    def test_u_residual_decay(self):
        rx = ratio_expansion(get("motzkin").recurrence, 4)
        u = u_expansion(rx, "factorial")
        t = TermTable(get("motzkin").recurrence)
        def residual(n: int) -> F:
            return abs(u_value(t, n) * F(n, n + 1) - eval_exact(u, n))
        bound = residual(100) * F(100) ** 5 * F(3, 2)
        for n in (500, 1000, 2000, 5000):
            assert residual(n) * F(n) ** 5 <= bound

    def test_u_residual_decay_half_grid(self):
        rx = ratio_expansion(get("involutions").recurrence, 4)
        u = u_expansion(rx)
        t = TermTable(get("involutions").recurrence)
        def residual(n: int) -> F:
            return abs(u_value(t, n) - eval_exact(u, n))
        bound = residual(121) * F(121) ** F(9, 2) * 2
        for n in (400, 1600, 2500):
            assert residual(n) * F(n) ** F(9, 2) <= bound


class TestPhiUExpansion:
    def test_inverse_catalan_level2(self):
        u = u_expansion(ratio_expansion(get("inverse-catalan").recurrence, 4))
        ph = phi_u_expansion(u)
        assert ph.coefficient(2) == RatFunc.const(-1)
        assert ph.error_order == 3

    def test_motzkin_doubling_below_two(self):
        # alpha1 = 1 < 2: the leading correction doubles level to level
        u = u_expansion(ratio_expansion(get("motzkin").recurrence, 4), "factorial")
        ph = phi_u_expansion(u)
        assert ph.coefficient(1) == RatFunc.const(-2)

    def test_power_form_golden(self):
        ph = phi_u_expansion(u_power(3, 8), order=6)
        assert ph == S((0, 1), (2, -4), err=6)

    def test_power_log_form(self):
        ph = phi_u_expansion(u_power_log(2, 1, 8), order=4)
        c2 = ph.coefficient(2)
        # 2*r1 + (2 + (log r1)'' - (log r1)') for r1 = -(2 + 1/L + 1/L^2)
        r1 = -(RatFunc.const(2) + L ** (-1) + (L * L) ** (-1))
        lr = r1.derivative() / r1
        assert c2 == 2 * r1 + RatFunc.const(2) + lr.derivative() - lr

    def test_exact_identity_against_terms(self):
        rx = ratio_expansion(get("motzkin").recurrence, 4)
        u = u_expansion(rx, "factorial")
        ph = phi_u_expansion(u)
        t = TermTable(get("motzkin").recurrence)
        b = phi_values(t, 1, 0, 1700, "factorial")
        def residual(n: int) -> F:
            exact = b[n - 2] * b[n] / b[n - 1] ** 2
            return abs(exact - eval_exact(ph, n))
        bound = residual(50) * F(50) ** 4 * F(3, 2)
        for n in (100, 400, 1600):
            assert residual(n) * F(n) ** 4 <= bound

    def test_exact_identity_for_power_form(self):
        ph = phi_u_expansion(u_power(3, 8), order=6)
        def b(m: int) -> F:
            return 3 * F(m) ** 4 - 3 * F(m) ** 2 + 1  # m^6 - (m^2-1)^3
        for n in (100, 400):
            exact = b(n - 1) * b(n + 1) / b(n) ** 2
            assert abs(exact - eval_exact(ph, n)) * F(n) ** 6 <= 7

    def test_preconditions(self):
        with pytest.raises(ValueError):
            phi_u_expansion(AsymSeries.one())  # exact, no order
        with pytest.raises(ValueError):
            phi_u_expansion(AsymSeries.one(), order=4)  # u == 1 identically
        with pytest.raises(ValueError):
            phi_u_expansion(S((0, 2), (2, 1), err=4))  # leading not 1


# -- integer grid kernels against the Fraction-list reference ------------------------

# ROADMAP 8(b): lambda = 2 + sqrt 3 in a degree-4 field whose modulus
# (x^2 + 1)(x^2 - 4x + 1) is reducible
QUARTIC = "a(n+4) - 4*a(n+3) + 2*a(n+2) - 4*a(n+1) + a(n) = 0 ; 1, 4, 15, 56"


def _grid_cases() -> dict:
    from test_certify import HIGHER_ORDER_VALID_FROM, POWER_GROWTH

    cases = {name: get(name).recurrence for name in sorted(ENTRIES)}
    cases.update({text: parse_recurrence(text) for text in HIGHER_ORDER_VALID_FROM})
    cases.update(POWER_GROWTH)
    cases["quartic"] = parse_recurrence(QUARTIC)
    return cases


GRID_CASES = _grid_cases()


def _same(x, y) -> bool:
    """One scalar type and one value; an element of another field built on
    the same root is compared inside x's field."""
    if isinstance(x, NFElem) and isinstance(y, NFElem):
        return x.field.is_zero(x - x.field.element(y.coeffs))
    return type(x) is type(y) and x == y


def _all_same(xs: list, ys: list) -> bool:
    return len(xs) == len(ys) and all(_same(x, y) for x, y in zip(xs, ys))


def _expand(rec, K: int, table):
    try:
        return ratio_expansion(rec, K, table=table)
    except ExpansionError as err:
        return err.details


class TestGridKernels:
    @pytest.mark.parametrize("name", sorted(GRID_CASES))
    def test_expansions_match_fraction_reference(self, monkeypatch, name):
        # the solver and u_grid against per-stage Fraction-list residual
        # rebuilds, at K = 1..12 on one table each, every (root, rho) tried
        rec = GRID_CASES[name]
        new, ref = TermTable(rec), TermTable(rec)
        for K in range(1, 13):
            got = _expand(rec, K, new)
            with monkeypatch.context() as m:
                m.setattr(ratio_module, "_solve_stages", oracles.reference_solve_stages)
                want = _expand(rec, K, ref)
            if isinstance(want, dict):
                assert got == want
                continue
            assert (got.mu, got.rho, got.diagnostics) == (want.mu, want.rho, want.diagnostics)
            assert _all_same(got.coeffs, want.coeffs)
            for scaling in ("none", "factorial"):
                assert _all_same(u_grid(got, scaling), oracles.u_grid(got, scaling))
        mu, e0 = new.expansions[(rec, None)][:2]
        tries = 0
        for got, want in zip(new.expansions[(rec, None)][3], ref.expansions[(rec, None)][3]):
            lam = got[0]
            assert got[5].keys() == want[5].keys()
            for rho, st in got[5].items():
                other = want[5][rho]
                assert _all_same(st.cs, other.cs)
                assert (st.floats, st.resonance) == (other.floats, other.resonance)
                moved = [c + F(i, 3) for i, c in enumerate(st.cs, start=1)]
                for cs in (st.cs, moved):
                    slots = _residual_slots(rec, lam, mu, e0, rho, grid_of(lam, cs))
                    assert slots == oracles._residual_slots(rec, lam, mu, e0, rho, cs)
                tries += 1
        assert tries

    def test_cases_cover_fields_orders_and_powers(self):
        kinds = set()
        for rec in GRID_CASES.values():
            rx = _expand(rec, 2, TermTable(rec))
            if isinstance(rx, dict):
                continue
            field = getattr(rx.lam, "field", None)
            kinds.add(("order", rec.order))
            kinds.add(("mu", rx.mu))
            if field is not None:
                kinds.add(("irreducible", field.known_irreducible, field.degree))
        assert {("order", 3), ("order", 4), ("mu", 1), ("mu", -1), ("mu", 2), ("mu", F(-1, 2))} <= kinds
        assert ("irreducible", True, 2) in kinds and ("irreducible", False, 4) in kinds

    def test_field_operation_count(self, monkeypatch):
        # the stages and u_grid run on integers: field + and * are left only
        # where the branch is set up (the slope, lam's powers, slot coefficients);
        # a power squares its base only while a higher bit of the exponent remains
        counts = dict.fromkeys(("_add", "__mul__"), 0)

        def counting(name, method):
            def counted(*args):
                counts[name] += 1
                return method(*args)
            return counted

        monkeypatch.setattr(NFElem, "_add", counting("_add", NFElem._add))
        mul = counting("__mul__", NFElem.__mul__)
        monkeypatch.setattr(NFElem, "__mul__", mul)
        monkeypatch.setattr(NFElem, "__rmul__", mul)
        for name in ("apery", "bn"):
            u_grid(ratio_expansion(get(name).recurrence, 12))
        assert counts == {"_add": 14, "__mul__": 72}

    @pytest.mark.parametrize("domain", ["rational", "sqrt3"])
    def test_kernels_match_on_random_arrays(self, domain):
        rng = random.Random(f"grid/{domain}")
        coef = COEF_DOMAINS[domain](rng)
        lam = F(3, 2) if domain == "rational" else coef().field.generator()
        K = getattr(lam, "field", None)

        def array(n: int) -> list:
            # zeros, and in a field also rational entries, which stay Fractions
            return [rng.choice([coef(), coef(), F(rng.randint(-3, 3), 2), F(0)]) for _ in range(n)]

        for _ in range(40):
            T, rho, j = rng.randint(0, 9), rng.choice((1, 2, 3)), rng.choice((-1, 0, 1, 2))
            alpha = F(rng.randint(-7, 7), rng.choice((1, 2, 3)))
            a, b, cs = array(T + 1), array(T + 1), array(T)
            grid_a, grid_b = (ratio_module._to_grid(x, K) for x in (a, b))
            got = {
                "row": ratio_module._values(ratio_module._binomial_row(j, alpha, rho, T), None),
                "mul": ratio_module._values(ratio_module._mul(grid_a, grid_b, K), K),
                "inv": ratio_module._values(ratio_module._inv(grid_of(lam, a[1:]), K), K),
                "shift": ratio_module._values(ratio_module._shifted(grid_of(lam, cs), rho, j, {}, K), K),
            }
            want = {
                "row": oracles._binomial_row(j, alpha, rho, T),
                "mul": oracles._mul(a, b),
                "inv": oracles._inv([F(1)] + a[1:]),
                "shift": oracles._shifted(cs, rho, j, T, {}),
            }
            assert got == want
            rx = RatioExpansion(lam=lam, lam_poly=None, mu=alpha, rho=rho, coeffs=cs)
            for scaling in ("none", "factorial"):
                assert _all_same(u_grid(rx, scaling), oracles.u_grid(rx, scaling))


# -- the expansion oracle at large n -----------------------------------------------

# Inputs whose accepted branch does not describe the sequence: A hides a
# 3^n term of weight 10^-40 behind 2^n (n+1)(n+2), B adds (-2)^n to it, C
# has three edge roots of one modulus, and D's and the seeds' edge roots
# are +-lambda.
WRONG_BRANCH = {
    "A": "(n^4+n^3-23*n^2-69*n-54)*a(n+2) + (-5*n^4-6*n^3+95*n^2+300*n+252)*a(n+1)"
         " + (6*n^4+12*n^3-102*n^2-324*n-216)*a(n) = 0 ; a(0)=2+1/10^40, a(1)=12+3/(2*10^40)",
    "B": "(n+2)^2*a(n+2) - 2*(2*n+5)*a(n+1) - 4*(n+3)^2*a(n) = 0 ; a(0)=3, a(1)=10",
    "C": "(n^2+6*n+9)*a(n+3) + (3-7*n)*a(n+2) + (2*n-1)*a(n+1) - (7*n+10)*a(n) = 0 ; a(0)=6, a(1)=7, a(2)=3",
    "D": "(4*n^2+20*n+16)*a(n+3) - (12*n+10)*a(n+2) + (3-3*n-6*n^2)*a(n+1) + 12*a(n) = 0 ; a(0)=1, a(1)=5, a(2)=3",
    **{f"seed-{seed}": random_input(seed) for seed in (664, 739, 1039, 1104, 1346, 1430)},
}


class TestExpansionOracle:
    """The oracle's power, not the package's correctness: it accepts every
    corpus branch and flags the wrong branches that `ratio_expansion`
    accepts at K = 4."""

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_accepts_the_corpus(self, name):
        rec = get(name).recurrence
        table = TermTable(rec)
        for K in (4, 8):
            rx = ratio_expansion(rec, K, table=table)
            for scaling in ("none", "factorial"):
                assert oracles.expansion_agrees(rec, rx, scaling), (K, scaling)

    @pytest.mark.parametrize("name", sorted(WRONG_BRANCH))
    def test_flags_a_wrong_branch(self, name):
        rec = parse_recurrence(WRONG_BRANCH[name])
        assert not oracles.expansion_agrees(rec, ratio_expansion(rec, 4))

    def test_terms_match_the_table(self):
        rec = parse_recurrence(WRONG_BRANCH["seed-1430"])
        got = oracles.exact_terms_at(rec, (0, 1, 2, 57, 200, 201))
        table = TermTable(rec)
        assert all(x * table.value(n).denominator == D * table.value(n).numerator for n, (x, D) in got.items())
