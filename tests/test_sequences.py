"""Exact term generation, caching, and derived neighbor quantities."""

from __future__ import annotations

import hashlib
import math
import os
import random
import stat
import subprocess
import sys
from fractions import Fraction as F

import pytest

import turancert
from turancert import corpus, sequences
from turancert.algebra import Poly
from turancert.algebra.poly import _integer_window
from turancert.parser import parse_recurrence
from turancert.render import frac_str
from turancert.sequences import (
    CACHE_MAGIC,
    PREC,
    CacheError,
    Recurrence,
    SingularRecurrenceError,
    TermTable,
    check_inequality_range,
    logconcave_sign,
    phi_values,
    turan3_sign,
    u_value,
    windows,
    _encode_int,
    _form_sign,
    _logconcave_form,
    _reduced,
    _turan3_form,
)

from oracles import get, random_deltas, random_truncation

C = math.comb


# independent direct-summation oracles (no recurrences involved)


def catalan(n):
    return C(2 * n, n) // (n + 1)


ORACLES = {
    "inverse-catalan": lambda n: F(1, catalan(n)),
    "apery": lambda n: sum(C(n, k) ** 2 * C(n + k, k) ** 2 for k in range(n + 1)),
    "motzkin": lambda n: sum(C(n, 2 * k) * catalan(k) for k in range(n // 2 + 1)),
    "franel3": lambda n: sum(C(n, k) ** 3 for k in range(n + 1)),
    "binomial4": lambda n: sum(C(n, k) ** 4 for k in range(n + 1)),
    "bn": lambda n: sum(
        F(C(n, k) * C(n + k, k), 2 * k - 1) for k in range(n + 1)
    ),
    "domb": lambda n: sum(
        C(n, k) ** 2 * C(2 * k, k) * C(2 * (n - k), n - k) for k in range(n + 1)
    ),
}


def involutions_oracle(n):
    # t(n) = t(n-1) + (n-1) t(n-2), divided by n!
    t0, t1 = 1, 1
    for k in range(2, n + 1):
        t0, t1 = t1, t1 + (k - 1) * t0
    return F(t1 if n else t0, math.factorial(n))


def fine_oracle(n):
    # Catalan convolution: catalan(n) = 2 f(n) + f(n-1), f(0) = 1, f(1) = 0
    f_prev, f_cur = None, F(1)
    for k in range(1, n + 1):
        f_prev, f_cur = f_cur, (catalan(k) - f_cur) / 2
    return f_cur


ORACLES["involutions"] = involutions_oracle
ORACLES["fine"] = fine_oracle


@pytest.mark.parametrize("name", sorted(corpus.ENTRIES))
def test_corpus_terms_match_oracles(name):
    entry = get(name)
    table = TermTable(entry.recurrence)
    expected = entry.expected["terms"]["values"]
    got = table.values(0, len(expected) - 1)
    assert got == expected
    oracle = ORACLES[name]
    for n in range(25):
        assert table.value(n) == oracle(n), (name, n)


@pytest.mark.parametrize("name", sorted(corpus.ENTRIES))
def test_recurrence_residual_vanishes(name):
    rec = get(name).recurrence
    table = TermTable(rec)
    d = rec.order
    for n in range(0, 40):
        window = table.values(n, n + d)
        assert rec.residual(window, n) == 0


def square_table():
    # a(n) = n^2 via n^2 a(n+1) = (n+1)^2 a(n) with two seed values
    rec = Recurrence([Poly([0, 0, 1]), Poly([1, 2, 1])], [F(0), F(1)])
    return TermTable(rec)


def reciprocal_factorial_table():
    rec = Recurrence([Poly([1, 1]), Poly([1])], [F(1)])
    return TermTable(rec)


def test_extra_initials_shift_recurrence_start():
    table = square_table()
    assert table.values(0, 8) == [F(k * k) for k in range(9)]


def test_leading_coefficient_zero_is_reported():
    rec = Recurrence([Poly([0, 0, 1]), Poly([1, 2, 1])], [F(0)])
    table = TermTable(rec)
    with pytest.raises(ZeroDivisionError):
        table.value(1)


def test_ratio_and_u_values():
    table = reciprocal_factorial_table()
    assert table.value(4) == F(1, 24)
    assert u_value(table, 3) == F(3, 4)  # (1/2)(1/24)/(1/6)^2
    cat = TermTable(get("inverse-catalan").recurrence)
    assert u_value(cat, 1) == F(1, 2)


def test_factorial_scaling_matches_explicit_division():
    entry = get("motzkin")
    table = TermTable(entry.recurrence)
    for n in range(1, 12):
        lhs = u_value(table, n) * F(n, n + 1)
        scaled = [table.value(k) / math.factorial(k) for k in (n - 1, n, n + 1)]
        assert lhs == scaled[0] * scaled[2] / scaled[1] ** 2
        assert turan3_sign(table, n, scaling="factorial") == _t3_sign_direct(table, n)


def _t3_sign_direct(table, n):
    a = [table.value(k) / math.factorial(k) for k in range(n - 1, n + 3)]
    v = 4 * (a[1] ** 2 - a[0] * a[2]) * (a[2] ** 2 - a[1] * a[3]) - (
        a[1] * a[2] - a[0] * a[3]
    ) ** 2
    return (v > 0) - (v < 0)


def test_turan3_motzkin_initial_violation():
    table = TermTable(get("motzkin").recurrence)
    bad = check_inequality_range(table, "turan3", 1, 60, scaling="factorial")
    assert bad == [1]


def test_turan3_bn_clean_from_start():
    table = TermTable(get("bn").recurrence)
    assert check_inequality_range(table, "turan3", 1, 60, scaling="factorial") == []


def test_logconcave_violations_of_unscaled_motzkin():
    # raw Motzkin numbers are log-convex, so the log-concavity sign is negative
    table = TermTable(get("motzkin").recurrence)
    assert logconcave_sign(table, 5) == -1
    assert check_inequality_range(table, "log-concave", 2, 10) == list(range(2, 11))


def test_phi_values_square_sequence():
    table = square_table()
    # phi{a}_n = a_{n+1}^2 - a_n a_{n+2} on a_n = n^2
    assert phi_values(table, 1, 2, 4) == [
        F(81 - 4 * 16),
        F(256 - 9 * 25),
        F(625 - 16 * 36),
    ]
    assert phi_values(table, 0, 3, 5) == [F(9), F(16), F(25)]


def test_phi_values_level2_matches_manual_iteration():
    table = TermTable(get("motzkin").recurrence)
    lvl1 = phi_values(table, 1, 0, 8, scaling="factorial")
    manual = [lvl1[i + 1] ** 2 - lvl1[i] * lvl1[i + 2] for i in range(5)]
    assert phi_values(table, 2, 0, 4, scaling="factorial") == manual


def test_values_rejects_negative_start():
    table = TermTable(get("motzkin").recurrence)
    with pytest.raises(IndexError):
        table.values(-3, 12)  # used to slice from the end and start at a(10)
    assert table.values(0, 3) == [F(1), F(1), F(2), F(4)]


def test_values_is_empty_when_hi_is_below_lo():
    table = TermTable(get("motzkin").recurrence)
    table.ensure(10)
    assert table.values(2, -3) == []  # used to slice from the end: a(2..8)
    assert table.values(2, -1) == []
    assert table.values(5, 4) == []
    assert table.values(0, -1) == []
    assert len(table) == 11  # an empty range fills nothing
    assert table.values(2, 2) == [F(2)]


def test_inequality_scan_rejects_window_below_zero():
    table = TermTable(get("motzkin").recurrence)
    with pytest.raises(ValueError, match="needs a\\(-1\\)"):
        check_inequality_range(table, "turan3", 0, 10)
    with pytest.raises(ValueError):
        check_inequality_range(table, "log-concave", -2, 10)
    assert check_inequality_range(table, "log-concave", 1, 3) == [1, 2, 3]


def test_phi_values_rejects_negative_start():
    table = square_table()
    with pytest.raises(ValueError, match="need a\\(-1\\)"):
        phi_values(table, 1, -1, 3)
    assert phi_values(table, 1, 0, 0) == [F(1 - 0)]


def test_u_value_zero_term_raises():
    table = TermTable(get("fine").recurrence)
    assert table.value(1) == 0
    with pytest.raises(ZeroDivisionError):
        u_value(table, 1)  # a(1) = 0 in the middle of the window


def test_recurrence_validation():
    with pytest.raises(ValueError):
        Recurrence([Poly(), Poly([1])], [F(1)])  # vanishing leading polynomial
    with pytest.raises(ValueError):
        Recurrence([Poly([1])], [])  # no trailing polynomials
    with pytest.raises(ValueError):
        Recurrence([Poly([1, 1]), Poly([1])], [])  # too few initial values


# -- integer stepping against the Fraction stepping loop ----------------------------


def fraction_terms(rec, n):
    """a(0..n) stepped in normalised Fraction arithmetic, as the table once did."""
    d = rec.order
    vals = list(rec.initials)
    while len(vals) <= n:
        m = len(vals) - d
        p0 = rec.coeffs[0].eval(m)
        if p0 == 0:
            raise SingularRecurrenceError(f"leading coefficient vanishes at n={m}; cannot advance")
        acc = F(0)
        for k in range(1, d + 1):
            acc += rec.coeffs[k].eval(m) * vals[m + d - k]
        vals.append(acc / p0)
    return vals


def _pairs(vals):
    return [(v.numerator, v.denominator, hash(v)) for v in vals]


# order 1 with rational terms: c q = p1(m) p0(m) vanishes, is negative, or
# meets the window only from the last of several initial values
ORDER1_RECS = {
    # p1 = 3n - 12 vanishes at n = 4 while D > 1: a(5) = 0, and so is every later term
    "order1-vanishing-p1": parse_recurrence("(2*n+3)*a(n+1) - (3*n-12)*a(n) = 0; a(0) = 5/7"),
    # p0 = 2n - 7 < 0 up to n = 3
    "order1-negative-p0": parse_recurrence("(2*n-7)*a(n+1) - (3*n+1)*a(n) = 0; a(0) = 5/3"),
    # three initial values, the last of them reduced against p0 = 2n + 3
    "order1-extra-initials": Recurrence(
        [Poly([3, 2]), Poly([-5, 4])], [F(1, 2), F(-3, 5), F(7, 4)]
    ),
}


STEPPING_RECS = {
    **{name: get(name).recurrence for name in sorted(corpus.ENTRIES)},
    "square-ratio": parse_recurrence("a(n+1) - (n+2)^2/(n+1)^2*a(n) = 0; a(0) = 1"),
    # p0 has fractional coefficients and changes sign at n = 2
    "fractional-coeffs": Recurrence(
        [Poly([F(-5, 2), F(1, 1)]), Poly([F(1, 3), F(2, 7)]), Poly([F(-3, 4)])],
        [F(2), F(-1, 5)],
    ),
    "rational-order2": Recurrence(
        [Poly([3, 4, 1]), Poly([1, 2]), Poly([-5, -1])], [F(1, 3), F(2, 7)]
    ),
    # the initial denominators bring primes that p0 = n + 2 supplies only later
    "involutions-sevenths": Recurrence(
        get("involutions").recurrence.coeffs, [F(1, 7), F(1, 11)]
    ),
    # p0 = 4: the primes 7 and 11 of the initials appear in no p0 value
    "power-of-two-p0": parse_recurrence(
        "4*a(n+2) - (n+1)*a(n+1) - 3*a(n) = 0; a(0) = 1/7, a(1) = 1/11"
    ),
    # p0 = 8 (n+2)^3 (n+5): S often shares more of a prime power with D than
    # K holds, so 17 terms up to n = 150 take two reduction passes
    "cubed-p0": Recurrence(
        [Poly([8]) * Poly([2, 1]) ** 3 * Poly([5, 1]), Poly([]), Poly([-3, -6]), Poly([5])],
        [F(0), F(3), F(-4, 3)],
    ),
    # p0 = (n + 1)(2n - 7) is negative up to n = 3 and positive after
    "sign-changing-p0": Recurrence(
        [Poly([-7, 2]) * Poly([1, 1]), Poly([3, 1]), Poly([-1, 3])], [F(1, 2), F(-1, 3)]
    ),
    # integer terms 2^n (2n - 11): p0 = 2n - 11 is negative up to n = 5 and
    # divides every step exactly, negative quotients included
    "negative-p0-exact": parse_recurrence("(2*n-11)*a(n+1) - 2*(2*n-9)*a(n) = 0; a(0) = -11"),
    # integer terms (n - 3) 2^n with a zero at n = 3, stepped through p0 = n + 2
    "zero-integer-term": parse_recurrence(
        "(n+2)*a(n+2) - 4*(n+2)*a(n+1) + 4*(n+2)*a(n) = 0; a(0) = -3, a(1) = -4"
    ),
    # 3 * 2^n / n!: integer while p0 = n + 1 divides, up to a(4) = 2; a(5) = 4/5
    "integer-until-n5": parse_recurrence("(n+1)*a(n+1) - 2*a(n) = 0; a(0) = 3"),
    # the harmonic numbers: K stays about D's size
    "harmonic": parse_recurrence(
        "(n+2)*a(n+2) - (2*n+3)*a(n+1) + (n+1)*a(n) = 0; a(0) = 0, a(1) = 1"
    ),
    # p0 = n^2 + 1 brings a new prime at most steps, so K grows with D
    "n2-plus-1-p0": parse_recurrence(
        "(n^2+1)*a(n+2) - (n+1)*a(n+1) - a(n) = 0; a(0) = 1, a(1) = 1"
    ),
    "rational-order3": parse_recurrence(
        "(n+3)*(2*n+1)*a(n+3) - (n+1)*a(n+2) + 2*a(n+1) - (n+2)*a(n) = 0;"
        " a(0) = 1/2, a(1) = -1/3, a(2) = 2/5"
    ),
    # S = 0 at n = 100, long after D > 1: g = p0(100), and a(102) = 0
    "zero-step-sum": parse_recurrence(
        "(n+2)*a(n+2) - (n-100)*a(n+1) - (n-100)*a(n) = 0; a(0) = 1/3, a(1) = 2/7"
    ),
    **ORDER1_RECS,
}


@pytest.mark.parametrize("name", sorted(STEPPING_RECS))
def test_integer_stepping_matches_fraction_oracle(name):
    rec = STEPPING_RECS[name]
    n = 400 if name in corpus.ENTRIES else 150
    assert _pairs(TermTable(rec).values(0, n)) == _pairs(fraction_terms(rec, n))


def random_recurrence(rng, orders=(2, 3)):
    """Order in `orders`; p0 a signed product of linear factors, some
    repeated and some negative at small n, that vanishes at no n >= 0;
    rational initials."""
    d = rng.choice(orders)
    p0 = Poly([rng.choice((-1, 1)) * rng.randint(1, 6)])
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.7:
            factor = Poly([rng.randint(1, 5), rng.randint(1, 3)])
        else:  # 2n - (2j + 1): negative for n <= j, never zero
            factor = Poly([-2 * rng.randint(0, 4) - 1, 2])
        p0 = p0 * factor ** rng.choice((1, 1, 2, 3))
    ps = [
        Poly([F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(rng.randint(1, 3))])
        for _ in range(d)
    ]
    if ps[-1].is_zero():
        ps[-1] = Poly([1])
    initials = [F(rng.randint(-20, 20), rng.randint(1, 30)) for _ in range(d)]
    return Recurrence([p0, *ps], initials)


@pytest.mark.parametrize("seed", range(40))
def test_random_recurrences_match_fraction_oracle(seed):
    rec = random_recurrence(random.Random(1500 + seed))
    assert _pairs(TermTable(rec).values(0, 120)) == _pairs(fraction_terms(rec, 120))


@pytest.mark.parametrize("batch", range(10))
def test_random_recurrences_of_orders_1_to_3_match_fraction_oracle(batch, tmp_path):
    """300 seeds in 10 batches: the terms filled at once, one index at a
    time and past a cache loaded at n = 39, and their decimal strings."""
    for seed in range(30 * batch, 30 * batch + 30):
        rec = random_recurrence(random.Random(7000 + seed), orders=(1, 2, 3))
        want = _pairs(fraction_terms(rec, 120))
        assert _pairs(TermTable(rec).values(0, 120)) == want, seed
        lazy = TermTable(rec)
        assert _pairs([lazy.value(i) for i in range(121)]) == want, seed
        cached = TermTable(rec, cache_dir=str(tmp_path))
        cached.ensure(39)
        cached.flush()
        assert _pairs(TermTable(rec, cache_dir=str(tmp_path)).values(0, 120)) == want, seed
        strings = [frac_str(F(num, den)) for num, den, _ in want]
        assert TermTable(rec).decimal_strings(120) == strings, seed


def test_involutions_match_fraction_oracle_to_1500():
    rec = get("involutions").recurrence
    assert _pairs(TermTable(rec).values(0, 1500)) == _pairs(fraction_terms(rec, 1500))


# -- decimal rendering: the oracle is frac_str on the table's terms


def _rendered(rec, n):
    """(table.decimal_strings(n), frac_str of each of a(0..n))."""
    table = TermTable(rec)
    vals = table.values(0, n)
    return table.decimal_strings(n), [frac_str(v) for v in vals]


@pytest.mark.parametrize("name", sorted(corpus.ENTRIES))
def test_decimal_strings_match_frac_str_on_the_corpus(name):
    got, want = _rendered(get(name).recurrence, 1500)
    assert got == want


DECIMAL_RECS = {
    # integer terms, but p0(m) = m + 2 divides the step sum only as a whole
    "catalan": parse_recurrence("(n+2)*a(n+1) - (4*n+2)*a(n) = 0 ; a(0)=1"),
    # order 1 with three initial values: stepping starts at n = 2
    "extra-initials": Recurrence([Poly([1, 1]), Poly([1, 1]) * Poly([-5, 2])], [4, -9, 2]),
    "both-signs": parse_recurrence("a(n+2) + (n+1)*a(n+1) - 3*a(n) = 0 ; a(0)=2, a(1)=-1"),
    # the harmonic numbers: a(n)'s denominator is lcm(1..n), far below the
    # stepped D, so each term cancels a large H
    "harmonic": parse_recurrence(
        "(n+2)*a(n+2) - (2*n+3)*a(n+1) + (n+1)*a(n) = 0 ; a(0)=0, a(1)=1"
    ),
    # p0 < 0 and both steps vanish at n = 2: a(4) = 0 is a decimal -0, and
    # a(5) = -a(3)/9 is not 0 again
    "zero-term": Recurrence(
        [Poly([-3, -2]), Poly([-2, 1]), Poly([-2, 1])], [F(-1, 3), F(5, 7)]
    ),
    **ORDER1_RECS,
}


@pytest.mark.parametrize("name", sorted(DECIMAL_RECS))
def test_decimal_strings_match_frac_str(name):
    got, want = _rendered(DECIMAL_RECS[name], 300)
    assert got == want
    if name == "both-signs":
        assert any(t.startswith("-") for t in got) and any(t[0] not in "-0" for t in got)
    if name == "zero-term":
        assert got[4] == "0" and got[5] != "0"


def _fresh_rendered(rec, n):
    """(a fresh table, its decimal_strings(n), frac_str of each of a(0..n)
    from a second table)."""
    table = TermTable(rec)
    got = table.decimal_strings(n)
    return table, got, [frac_str(v) for v in TermTable(rec).values(0, n)]


def _at_initial_values(table):
    """The table holds its initial values only, and no stepper."""
    return table._vals == list(table.rec.initials) and table._stepper is None


@pytest.mark.parametrize("name", sorted(corpus.ENTRIES))
def test_decimal_strings_step_a_fresh_table_on_the_corpus(name):
    rec = get(name).recurrence
    table, got, want = _fresh_rendered(rec, 1500)
    assert got == want
    # every step is decimal, integer quotients and reduced terms alike
    assert _at_initial_values(table)


@pytest.mark.parametrize("name", sorted(DECIMAL_RECS))
def test_decimal_strings_step_a_fresh_table(name):
    _, got, want = _fresh_rendered(DECIMAL_RECS[name], 300)
    assert got == want


def test_decimal_strings_step_no_term_past_the_digit_limit(monkeypatch):
    rec = get("involutions").recurrence
    vals = TermTable(rec).values(0, 600)
    first_over = next(
        i for i, v in enumerate(vals) if len(str(max(v.numerator, v.denominator))) > 640
    )
    table = TermTable(rec)
    stepped = []

    def counted(*args):
        for step in steps(*args):
            stepped.append(step)
            yield step

    steps = sequences._steps
    monkeypatch.setattr(sequences, "_steps", counted)
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        got = table.decimal_strings(first_over - 1)
        with pytest.raises(ValueError):
            table.decimal_strings(600)
    finally:
        sys.set_int_max_str_digits(old)
    assert 0 < first_over < 600 and got == [frac_str(v) for v in vals[:first_over]]
    assert _at_initial_values(table)
    # the second call steps up to a(first_over), and no further
    assert len(stepped) == 2 * first_over + 1 - 2 * len(rec.initials)


@pytest.mark.parametrize("seed", range(40))
def test_random_rational_recurrences_render_as_frac_str(seed):
    rec = random_recurrence(random.Random(2500 + seed), orders=(1, 2, 3))
    got, want = _rendered(rec, 150)
    assert got == want


def test_random_rational_recurrences_cover_the_cases():
    """The seeds of the test above reach every order, a negative p0 and
    rational initials of both signs."""
    recs = [random_recurrence(random.Random(2500 + seed), orders=(1, 2, 3)) for seed in range(40)]
    assert {rec.order for rec in recs} == {1, 2, 3}
    assert any(rec.coeffs[0].eval(0) < 0 for rec in recs)
    initials = [v for rec in recs for v in rec.initials if v.denominator > 1]
    assert min(initials) < 0 < max(initials)


def random_integer_recurrence(rng):
    """Order 1 or 2 with integer terms: each pk is p0 times an integer
    polynomial, p0 a signed product of linear factors that vanishes at no
    n >= 0, all scaled by one rational; integer initials."""
    d = rng.choice((1, 2))
    p0 = Poly([rng.choice((-1, 1)) * rng.randint(1, 6)])
    for _ in range(rng.randint(0, 2)):
        p0 = p0 * Poly([rng.choice((rng.randint(1, 5), -2 * rng.randint(0, 4) - 1)), 2])
    scale = F(1, rng.randint(1, 4))
    ps = [p0 * Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]) for _ in range(d)]
    if ps[-1].is_zero():
        ps[-1] = p0
    initials = [rng.randint(-20, 20) for _ in range(d + rng.randint(0, 1))]
    return Recurrence([c * Poly([scale]) for c in (p0, *ps)], initials)


@pytest.mark.parametrize("seed", range(30))
def test_random_integer_recurrences_render_as_frac_str(seed):
    got, want = _rendered(random_integer_recurrence(random.Random(2000 + seed)), 150)
    assert got == want


def test_decimal_zero_renders_unsigned_under_negative_p0():
    # -a(n+1) = n*a(n): a(1) = 0 / -1, a decimal -0, and every later term is 0
    rec = Recurrence([Poly([-1]), Poly([0, 1])], [3])
    got, want = _rendered(rec, 8)
    assert got == want == ["3"] + ["0"] * 8


def test_decimal_strings_stop_before_the_first_term_over_the_digit_limit():
    rec = get("apery").recurrence
    table = TermTable(rec)
    want = [str(v.numerator) for v in table.values(0, 600)]
    first_over = next(i for i, t in enumerate(want) if len(t) > 640)
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        got = table.decimal_strings(first_over - 1)
        with pytest.raises(ValueError) as over:
            frac_str(table.value(first_over))
        with pytest.raises(ValueError) as raised:
            table.decimal_strings(600)
    finally:
        sys.set_int_max_str_digits(old)
    assert 0 < first_over < 600 and got == want[:first_over]
    assert str(raised.value) == str(over.value)


@pytest.mark.parametrize("rec, n, crosses", [
    # a(n) = I(n)/n!: the denominator crosses the limit first
    (get("involutions").recurrence, 600, "denominator"),
    # a(n) = 3^n/(n+1): the numerator crosses the limit first
    (parse_recurrence("(n+2)*a(n+1) - 3*(n+1)*a(n) = 0 ; a(0)=1"), 1500, "numerator"),
], ids=["involutions", "numerator-first"])
def test_rational_decimal_strings_stop_before_the_first_term_over_the_digit_limit(rec, n, crosses):
    table = TermTable(rec)
    vals = table.values(0, n)
    want = [frac_str(v) for v in vals]
    digits = [{"numerator": len(str(abs(v.numerator))), "denominator": len(str(v.denominator))}
              for v in vals]
    first_over = next(i for i, ds in enumerate(digits) if max(ds.values()) > 640)
    over = {part for part, k in digits[first_over].items() if k > 640}
    assert 0 < first_over < n and over == {crosses}
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        got = table.decimal_strings(first_over - 1)
        with pytest.raises(ValueError) as over:
            frac_str(vals[first_over])
        with pytest.raises(ValueError) as raised:
            table.decimal_strings(n)
    finally:
        sys.set_int_max_str_digits(old)
    assert got == want[:first_over]
    assert str(raised.value) == str(over.value)


class _TracedMath:
    """The math module with gcd wrapped to record the bit lengths of its
    operands, smallest first, on every call."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(math, name)

    def gcd(self, *args):
        self.sizes.append(sorted(abs(x).bit_length() for x in args))
        return math.gcd(*args)


def test_stepping_gcds_stay_far_below_the_common_denominator(monkeypatch, tmp_path):
    """Involutions carries D of about 29.5k bits at n = 3000 and numerators
    S of about 14.5k bits.  A reduction that passed S itself to a gcd with
    the kernel K would work on S's size; with S carried modulo K, no gcd
    has an operand other than its largest above K's size, about 4.2k bits,
    from an empty table, from a cache loaded at n = 999, and in the decimal
    steps of `decimal_strings`."""
    rec = get("involutions").recurrence
    cached = TermTable(rec, cache_dir=str(tmp_path))
    cached.ensure(999)
    cached.flush()
    traced = _TracedMath()
    monkeypatch.setattr(sequences, "math", traced)
    kernels = []
    for table in (TermTable(rec), TermTable(rec, cache_dir=str(tmp_path))):
        traced.sizes.clear()
        table.ensure(3000)
        den_bits = max(v.denominator.bit_length() for v in table.values(2990, 3000))
        ker_bits = table._stepper.gi_frame.f_locals["ker"].bit_length()  # the live stepper's K
        kernels.append(ker_bits)
        assert den_bits > 29000 and ker_bits < den_bits // 4
        assert traced.sizes and max(max(sizes[:-1]) for sizes in traced.sizes) <= ker_bits
    traced.sizes.clear()
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        TermTable(rec).decimal_strings(3000)
    finally:
        sys.set_int_max_str_digits(old)
    # the decimal steps build K as the empty table's steps do
    assert traced.sizes and max(max(sizes[:-1]) for sizes in traced.sizes) <= kernels[0]


@pytest.mark.parametrize("name", [
    "inverse-catalan", "integer-until-n5", "order1-negative-p0", "order1-extra-initials",
])
def test_order1_gcds_stay_at_the_size_of_c_q(monkeypatch, tmp_path, name):
    """An order-1 step reduces c x / (D q) by one gcd on residues mod
    |c q|, for c = p1(m) and q = p0(m), so no gcd operand has more bits
    than the largest |c q| up to n = 1500, while D has thousands, from an
    empty table, from a cache loaded at n = 499, and in decimal steps."""
    rec = STEPPING_RECS[name]
    n = 1500
    p0, p1 = sequences._integer_coeffs(rec.coeffs)
    cq_bits = max(abs(sequences._horner(p0, m) * sequences._horner(p1, m)).bit_length()
                  for m in range(n))
    cached = TermTable(rec, cache_dir=str(tmp_path))
    cached.ensure(499)
    cached.flush()
    traced = _TracedMath()
    monkeypatch.setattr(sequences, "math", traced)
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        for fill in (lambda: TermTable(rec).ensure(n),
                     lambda: TermTable(rec, cache_dir=str(tmp_path)).ensure(n),
                     lambda: TermTable(rec).decimal_strings(n)):
            traced.sizes.clear()
            fill()
            assert traced.sizes and max(max(sizes) for sizes in traced.sizes) <= cq_bits
    finally:
        sys.set_int_max_str_digits(old)
    assert TermTable(rec).value(n).denominator.bit_length() > 20 * cq_bits


def test_stepping_oracle_covers_zero_and_negative_terms():
    assert TermTable(get("fine").recurrence).value(1) == 0
    assert min(TermTable(get("bn").recurrence).values(0, 5)) < 0
    assert TermTable(STEPPING_RECS["negative-p0-exact"]).values(0, 7) == [2**n * (2 * n - 11) for n in range(8)]
    assert TermTable(STEPPING_RECS["zero-integer-term"]).values(2, 4) == [-4, 0, 16]
    assert TermTable(STEPPING_RECS["integer-until-n5"]).values(3, 5) == [4, 2, F(4, 5)]
    assert TermTable(STEPPING_RECS["zero-step-sum"]).value(102) == 0
    vals = TermTable(STEPPING_RECS["rational-order2"]).values(0, 60)
    assert any(v < 0 for v in vals) and len({v.denominator for v in vals}) > 10


@pytest.mark.parametrize("name", [
    "inverse-catalan", "involutions", "bn", "fine", "rational-order2",
    "harmonic", "n2-plus-1-p0", "rational-order3", "zero-step-sum", *ORDER1_RECS,
])
def test_many_small_ensures_match_one_fill(name):
    rec = STEPPING_RECS[name]
    rng = random.Random(9)
    lazy = TermTable(rec)
    n = 0
    while n < 300:
        n += rng.choice((1, 1, 1, 2, 3, 17))
        lazy.ensure(n)
    assert _pairs(lazy.values(0, n)) == _pairs(TermTable(rec).values(0, n))


def _counted_steppers(monkeypatch):
    """A list that gets one entry per `_steps` generator created from now on."""
    made = []
    steps = sequences._steps

    def counted(*args):
        made.append(args[1])
        return steps(*args)

    monkeypatch.setattr(sequences, "_steps", counted)
    return made


@pytest.mark.parametrize("name", ["involutions", "harmonic", "rational-order3", *ORDER1_RECS])
def test_one_index_at_a_time_resumes_one_stepper(monkeypatch, tmp_path, name):
    """Filling one index at a time to 300, directly or by a scan's windows,
    creates one `_steps` generator, on a fresh table and past a loaded cache."""
    rec = STEPPING_RECS[name]
    first = TermTable(rec, cache_dir=str(tmp_path))
    first.ensure(49)
    first.flush()
    want = _pairs(TermTable(rec).values(0, 300))
    made = _counted_steppers(monkeypatch)
    for table in (TermTable(rec), TermTable(rec, cache_dir=str(tmp_path))):
        made.clear()
        start = len(table) - rec.order  # the first m the stepper steps
        for n in range(301):
            table.ensure(n)
        assert made == [start]
        assert _pairs(table.values(0, 300)) == want
    scanned = TermTable(rec)
    made.clear()
    check_inequality_range(scanned, "log-concave", 1, 299)
    assert len(made) == 1 and len(scanned) == 301


def test_vanishing_p0_is_raised_by_every_later_call(tmp_path):
    """p0 vanishes at n = 5, so a(7) has no value.  A raise closes the
    suspended stepper; each later `ensure` or `value` past a(6) raises
    the same error again, and the table keeps a(0..6), fresh or loaded."""
    rec = parse_recurrence("(n-5)*a(n+2) - a(n+1) - a(n) = 0 ; a(0)=1, a(1)=2")
    fresh = TermTable(rec, cache_dir=str(tmp_path))
    with pytest.raises(SingularRecurrenceError, match="vanishes at n=5"):
        fresh.ensure(7)
    fresh.flush()
    loaded = TermTable(rec, cache_dir=str(tmp_path))
    assert len(loaded) == 7
    for table in (fresh, loaded):
        for call in (table.ensure, table.value, table.ensure, table.value):
            with pytest.raises(SingularRecurrenceError, match="vanishes at n=5"):
                call(9)
            assert len(table) == 7
        assert _pairs(table.values(0, 6)) == _pairs(fraction_terms(rec, 6))


@pytest.mark.parametrize(
    "name, cached, to",
    [
        pytest.param(name, 50, 250, id=name)
        for name in [
            "involutions", "bn", "rational-order2", "square-ratio", "cubed-p0",
            "harmonic", "n2-plus-1-p0", "rational-order3", "zero-step-sum", *ORDER1_RECS,
        ]
    ]
    + [pytest.param("involutions", 1000, 1500, id="involutions-from-1000")],
)
def test_extending_a_loaded_table_matches_oracle(name, cached, to, tmp_path):
    rec = STEPPING_RECS[name]
    first = TermTable(rec, cache_dir=str(tmp_path))
    first.ensure(cached - 1)
    first.flush()
    loaded = TermTable(rec, cache_dir=str(tmp_path))
    assert len(loaded) == cached
    assert _pairs(loaded.values(0, to)) == _pairs(fraction_terms(rec, to))


def test_singular_recurrence_raises_where_the_oracle_does():
    rec = parse_recurrence("(n-3)*a(n+1) - a(n) = 0; a(0) = 1")
    with pytest.raises(SingularRecurrenceError) as want:
        fraction_terms(rec, 10)
    table = TermTable(rec)
    for _ in range(2):
        with pytest.raises(SingularRecurrenceError) as got:
            table.ensure(10)
        assert str(got.value) == str(want.value) == (
            "leading coefficient vanishes at n=3; cannot advance"
        )
    assert _pairs(table.values(0, 3)) == _pairs(fraction_terms(rec, 3))


def test_loaded_terms_past_a_vanishing_p0_raise_on_extension(tmp_path):
    """p0 vanishes at n = 5, so a(7) has no value; a cache file can still
    hold terms past it.  Extending such a table rebuilds its kernel over
    p0(5) = 0 and must raise as a stepped table does."""
    rec = parse_recurrence(
        "(n-5)*(n+2)*a(n+2) - (n+1)*a(n+1) - 3*a(n) = 0; a(0) = 1/3, a(1) = 2/7"
    )
    table = TermTable(rec)
    with pytest.raises(SingularRecurrenceError):
        table.ensure(7)
    terms = table.values(0, 6) + [F(k, 11) for k in range(7, 13)]
    _write_cache(tmp_path / f"{rec.cache_key()}.terms", [(v.numerator, v.denominator) for v in terms])
    loaded = TermTable(rec, cache_dir=str(tmp_path))
    assert len(loaded) == 13
    with pytest.raises(SingularRecurrenceError, match="vanishes at n=5"):
        loaded.ensure(13)


def test_reduced_fraction_equals_normalised_fraction():
    rng = random.Random(10)
    cases = [(0, 1), (5, 1), (-7, 1), (3, 2**61 - 1), (-(2**200 + 1), 2**61 - 1)]
    while len(cases) < 300:
        num = rng.getrandbits(rng.choice((8, 70, 900))) * rng.choice((1, -1))
        den = rng.getrandbits(rng.choice((3, 64, 700))) + 1
        g = math.gcd(num, den)
        cases.append((num // g, den // g))
    for num, den in cases:
        v, want = _reduced(num, den), F(num, den)
        assert type(v) is F
        assert (v.numerator, v.denominator) == (num, den)
        assert v == want and hash(v) == hash(want) and {v: 1}[want] == 1


# -- iterated phi on integer windows against the Fraction iteration -------------


def fraction_phi_values(table, level, lo, hi, scaling="none"):
    """phi_values iterated in normalised Fraction arithmetic, as it once was."""
    base = table.values(lo, hi + 2 * level)
    if scaling == "factorial":
        f = math.factorial(lo)
        scaled = []
        for i, v in enumerate(base):
            scaled.append(v / f)
            f *= lo + i + 1
        base = scaled
    cur = base
    for _ in range(level):
        cur = [cur[i + 1] * cur[i + 1] - cur[i] * cur[i + 2] for i in range(len(cur) - 2)]
    return cur


PHI_RECS = {
    **STEPPING_RECS,
    # phi of a geometric sequence is 0 at every level >= 1
    "geometric": parse_recurrence("3*a(n+1) - 2*a(n) = 0; a(0) = 5/7"),
}


# (lo, hi) inputs: empty and 41-index ranges near 0, and one far from 0, where
# a den that is no multiple of the last restarts the carried kernel and power
# among windows that carry them (harmonic, inverse-catalan, sign-changing-p0,
# zero-step-sum and order1-* at levels 1-3)
PHI_RANGES = [(lo, hi) for lo in (0, 1, 5) for hi in (lo - 1, lo + 40)] + [(120, 160)]


@pytest.mark.parametrize("name", sorted(PHI_RECS))
def test_phi_values_match_fraction_oracle(name):
    table = TermTable(PHI_RECS[name])
    for level in range(4):
        for scaling in ("none", "factorial"):
            for lo, hi in PHI_RANGES:
                got = phi_values(table, level, lo, hi, scaling)
                want = fraction_phi_values(table, level, lo, hi, scaling)
                assert len(got) == max(hi - lo + 1, 0)
                assert _pairs(got) == _pairs(want), (level, scaling, lo, hi)
                for v in got:
                    assert type(v) is F
                    assert v.denominator > 0
                    assert math.gcd(v.numerator, v.denominator) == 1


@pytest.mark.parametrize("name", ["motzkin", "involutions"])
def test_phi_values_match_fraction_oracle_on_long_windows(name):
    entry = get(name)
    table = TermTable(entry.recurrence)
    for level in (1, 2):
        got = phi_values(table, level, 250, 300, entry.scaling)
        assert _pairs(got) == _pairs(fraction_phi_values(table, level, 250, 300, entry.scaling))


@pytest.mark.parametrize("name", ["motzkin", "involutions"])
def test_phi_gcds_stay_at_the_size_of_the_kernel(monkeypatch, name):
    """The level-2 value at n = 600 stands over (den f)^4, with den f of
    about 4.6k bits.  A reduction by gcd(N, den f) works at den f's size;
    with a kernel of den f's primes carried across windows, no gcd operand
    has more than a quarter of den f's bits on [0, 600]."""
    entry = get(name)
    table = TermTable(entry.recurrence)
    table.ensure(604)  # the terms are filled untraced
    den = _integer_window(table.values(600, 604))[1]
    if entry.scaling == "factorial":
        den *= math.factorial(604)
    traced = _TracedMath()
    monkeypatch.setattr(sequences, "math", traced)
    got = phi_values(table, 2, 0, 600, entry.scaling)
    monkeypatch.undo()
    assert den.bit_length() > 4000 and traced.sizes
    assert max(max(sizes) for sizes in traced.sizes) <= den.bit_length() // 4
    assert _pairs(got[-5:]) == _pairs(fraction_phi_values(table, 2, 596, 600, entry.scaling))


def test_phi_values_oracle_cases_cover_zeros_and_signs():
    fine = TermTable(get("fine").recurrence)
    zero = phi_values(fine, 0, 1, 1, "factorial")[0]
    assert type(zero) is F and (zero.numerator, zero.denominator) == (0, 1)
    assert TermTable(get("bn").recurrence).value(0) == -1
    geometric = TermTable(PHI_RECS["geometric"])
    for level in (1, 2, 3):
        assert _pairs(phi_values(geometric, level, 0, 5)) == _pairs([F(0)] * 6)
    assert phi_values(geometric, 1, 0, 3, "factorial")[0].denominator > 1
    signs = {v > 0 for v in phi_values(TermTable(STEPPING_RECS["rational-order2"]), 2, 0, 40)}
    assert signs == {True, False}


# -- cache --------------------------------------------------------------------


def _write_cache(path, pairs, magic=CACHE_MAGIC, digest=True):
    payload = b"".join(_encode_int(x) for pair in pairs for x in pair)
    tail = hashlib.sha256(payload).digest() if digest else b""
    path.write_bytes(magic + payload + tail)


def test_cache_digest_rejects_flipped_term_byte(tmp_path):
    rec = get("motzkin").recurrence
    t = TermTable(rec, cache_dir=str(tmp_path))
    t.ensure(40)
    t.flush()
    assert t.value(30) == 1697385471211
    path = next(tmp_path.iterdir())
    blob = bytearray(path.read_bytes())
    pos = len(CACHE_MAGIC)
    for v in t.values(0, 29):
        pos += len(_encode_int(v.numerator)) + len(_encode_int(v.denominator))
    raw = _encode_int(t.value(30).numerator)
    assert blob[pos : pos + len(raw)] == raw
    blob[pos + len(raw) - 1] ^= 1  # a(30) would read 1697385471210
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError, match="digest"):
        TermTable(rec, cache_dir=str(tmp_path))


@pytest.mark.parametrize("den", [0, -1])
def test_cache_rejects_nonpositive_denominator(tmp_path, den):
    rec = get("motzkin").recurrence
    path = tmp_path / f"{rec.cache_key()}.terms"
    _write_cache(path, [(1, 1), (1, 1), (2, den)])
    with pytest.raises(CacheError, match="denominator"):
        TermTable(rec, cache_dir=str(tmp_path))


def test_old_format_cache_is_a_miss_and_rewritten(tmp_path):
    rec = get("motzkin").recurrence
    path = tmp_path / f"{rec.cache_key()}.terms"
    _write_cache(path, [(1, 1), (1, 1), (2, 1), (4, 1)], magic=b"TCTERMS1", digest=False)
    t = TermTable(rec, cache_dir=str(tmp_path))
    assert len(t) == len(rec.initials)
    t.flush()
    assert path.read_bytes().startswith(CACHE_MAGIC)
    reloaded = TermTable(rec, cache_dir=str(tmp_path))
    assert reloaded.values(0, len(t) - 1) == t.values(0, len(t) - 1)
    path.write_bytes(b"TCTERMS9" + path.read_bytes()[8:])
    with pytest.raises(CacheError, match="header"):
        TermTable(rec, cache_dir=str(tmp_path))


def test_cache_file_mode_follows_umask(tmp_path):
    rec = get("motzkin").recurrence
    old = os.umask(0o022)
    try:
        t = TermTable(rec, cache_dir=str(tmp_path))
        t.ensure(10)
        t.flush()
    finally:
        os.umask(old)
    (path,) = tmp_path.iterdir()
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_cache_roundtrip(tmp_path):
    rec = get("apery").recurrence
    t1 = TermTable(rec, cache_dir=str(tmp_path))
    t1.ensure(60)
    t1.flush()
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    t2 = TermTable(rec, cache_dir=str(tmp_path))
    assert len(t2) >= 61
    assert t2.values(0, 60) == t1.values(0, 60)


def test_cache_appends_incrementally(tmp_path):
    rec = get("motzkin").recurrence
    t1 = TermTable(rec, cache_dir=str(tmp_path))
    t1.ensure(10)
    t1.flush()
    size1 = next(tmp_path.iterdir()).stat().st_size
    t2 = TermTable(rec, cache_dir=str(tmp_path))
    t2.ensure(20)
    t2.flush()
    size2 = next(tmp_path.iterdir()).stat().st_size
    assert size2 > size1
    t3 = TermTable(rec, cache_dir=str(tmp_path))
    assert t3.values(0, 20) == TermTable(rec).values(0, 20)


def test_cache_detects_corruption(tmp_path):
    rec = get("motzkin").recurrence
    t1 = TermTable(rec, cache_dir=str(tmp_path))
    t1.ensure(10)
    t1.flush()
    path = next(tmp_path.iterdir())
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])  # truncate mid-entry
    with pytest.raises(CacheError):
        TermTable(rec, cache_dir=str(tmp_path))
    path.write_bytes(b"junkhead" + blob[8:])
    with pytest.raises(CacheError):
        TermTable(rec, cache_dir=str(tmp_path))


def test_cache_rejects_initials_mismatch(tmp_path):
    rec = get("motzkin").recurrence
    t = TermTable(rec, cache_dir=str(tmp_path))
    t.ensure(5)
    t.flush()
    path = next(tmp_path.iterdir())
    blob = bytearray(path.read_bytes())
    blob[12] = 2  # first stored numerator byte: a(0) becomes 2, not 1
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError):
        TermTable(rec, cache_dir=str(tmp_path))


def test_cache_key_covers_initials(tmp_path):
    rec = get("motzkin").recurrence
    other = Recurrence(rec.coeffs, [F(1), F(2)], name=rec.name)
    assert other.cache_key() != rec.cache_key()
    TermTable(rec, cache_dir=str(tmp_path)).flush()
    t_other = TermTable(other, cache_dir=str(tmp_path))
    t_other.ensure(3)
    t_other.flush()
    assert t_other.value(1) == 2
    assert len(list(tmp_path.iterdir())) == 2


def test_cache_keys_differ():
    a = get("motzkin").recurrence
    b = get("franel3").recurrence
    assert a.cache_key() != b.cache_key()
    assert a.cache_key() == get("motzkin").recurrence.cache_key()


def test_two_tables_from_empty_cache_do_not_duplicate_terms(tmp_path):
    # both tables start before either writes; each then flushes its 81 terms
    rec = get("motzkin").recurrence
    t1 = TermTable(rec, cache_dir=str(tmp_path))
    t2 = TermTable(rec, cache_dir=str(tmp_path))
    for t in (t1, t2):
        t.ensure(80)
        t.flush()
    assert [p.name for p in tmp_path.iterdir()] == [f"{rec.cache_key()}.terms"]
    reloaded = TermTable(rec, cache_dir=str(tmp_path))
    assert len(reloaded) == 81
    assert reloaded.value(81) == 865461205861621792586606565768282577
    assert reloaded.values(0, 90) == TermTable(rec).values(0, 90)


def test_concurrent_fill_is_consistent(tmp_path):
    # two processes share one cache directory, as two CLI runs would
    rec = get("franel3").recurrence
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(turancert.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "turancert.cli", "terms", "franel3", "--to", "80",
            "--cache-dir", str(tmp_path)]
    procs = [subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL) for _ in range(2)]
    assert [p.wait() for p in procs] == [0, 0]
    fresh = TermTable(rec, cache_dir=str(tmp_path))
    assert len(fresh) == 81
    assert fresh.values(0, 80) == TermTable(rec).values(0, 80)


# -- filtered form signs -----------------------------------------------------------


def _t3_direct(w):
    w = [F(v) for v in w]
    v = 4 * (w[1] ** 2 - w[0] * w[2]) * (w[2] ** 2 - w[1] * w[3]) - (w[1] * w[2] - w[0] * w[3]) ** 2
    return (v > 0) - (v < 0)


def _lc_direct(w):
    w = [F(v) for v in w]
    v = w[1] ** 2 - w[0] * w[2]
    return (v > 0) - (v < 0)


FORMS = [(_turan3_form, _t3_direct, 4), (_logconcave_form, _lc_direct, 3)]


def _geometric(a, r, k):
    return [a * r**i for i in range(k)]


def _filtered(form, window):
    """`form` that records each call as on the PREC-bit truncation of
    `window` or on its exact integers; a call on anything else fails."""
    xs = _integer_window([F(v) for v in window])[0]
    s = max(x.bit_length() for x in xs) - PREC
    seen = []

    def traced(w):
        w = list(w)
        if w == xs:
            seen.append("exact")
        else:
            assert s > 0 and w == [x >> s for x in xs], w
            seen.append("truncated")
        return form(w)

    return traced, seen


@pytest.mark.parametrize("form, direct, k", FORMS)
def test_form_sign_geometric_window_is_zero_by_fallback(form, direct, k):
    for a, r in ((3**7000, 7**1000), (-(5**4400), 11**900), (2**10001 + 1, -(3**2000))):
        w = _geometric(a, r, k)
        assert max(abs(x).bit_length() for x in w) > 10000
        traced, seen = _filtered(form, w)
        assert _form_sign(traced, w) == 0 == direct(w)
        assert seen == ["truncated", "exact"]


@pytest.mark.parametrize("form, direct, k", FORMS)
def test_form_sign_last_bit_perturbations(form, direct, k):
    # F moves by about 2^-20000 of its scale: far inside the radius, so the
    # exact fallback must decide every one of these
    w = _geometric(3**7000, 7**1000, k)
    for slot in range(k):
        for delta in (1, -1):
            v = list(w)
            v[slot] += delta
            traced, seen = _filtered(form, v)
            assert _form_sign(traced, v) == direct(v) != 0, (slot, delta)
            assert seen == ["truncated", "exact"]


@pytest.mark.parametrize("form, direct, k", FORMS)
def test_form_sign_negative_entries(form, direct, k):
    rng = random.Random(6)
    for _ in range(60):
        bits = rng.choice((64, 200, 3000, 12000))
        base = rng.getrandbits(bits) | (1 << (bits - 1))
        w = [base + rng.randrange(-(1 << (bits // 2)), 1 << (bits // 2)) for _ in range(k)]
        w = [x * rng.choice((1, -1)) for x in w]
        assert _form_sign(form, w) == direct(w)
        neg = [-x for x in w]
        assert _form_sign(form, neg) == direct(neg)
    alt = _geometric(2**5000 + 3, -(3**700), k)
    alt[1] -= 1
    assert _form_sign(form, alt) == direct(alt)


def test_form_sign_floors_negative_entries():
    # After the shift by s = 173 the window reads (-1/2, 2^63 - 1, -2^127),
    # so F = (2^63 - 1)^2 - 2^126 < 0.  The floor box of -1/2 is [-1, 0] and
    # straddles 0; a box [0, 1] rounded toward 0 would wrongly prove F > 0.
    s = 301 - PREC
    w = [-(2 ** (s - 1)), (2**63 - 1) << s, -(2**300)]
    assert _form_sign(_logconcave_form, w) == _lc_direct(w) == -1


@pytest.mark.parametrize("form, direct, k", FORMS)
def test_form_sign_mixed_denominators(form, direct, k):
    w = _geometric(F(3**5000, 7**40), F(-(5**300), 11**250), k)
    assert len({x.denominator for x in w}) == k
    assert _form_sign(form, _integer_window(w)[0]) == direct(w) == 0
    for slot in range(k):
        v = list(w)
        v[slot] += F(1, 13**slot * 2**900)
        assert _form_sign(form, _integer_window(v)[0]) == direct(v)
    rng = random.Random(7)
    for _ in range(40):
        v = [F(rng.getrandbits(4000) - (1 << 3999), rng.getrandbits(300) + 1) for _ in range(k)]
        assert _form_sign(form, _integer_window(v)[0]) == direct(v)


@pytest.mark.parametrize("form, direct, k", FORMS)
def test_form_sign_short_windows_are_exact(form, direct, k):
    rng = random.Random(8)
    for _ in range(200):
        w = [rng.randrange(-(1 << 60), 1 << 60) for _ in range(k)]
        traced, seen = _filtered(form, w)
        assert _form_sign(traced, w) == direct(w)
        assert seen == ["exact"]
    assert max(x.bit_length() for x in _geometric(2**60, 2**20, k)) < PREC
    assert _form_sign(form, _geometric(2**60, 2**20, k)) == 0
    assert _form_sign(form, [0] * k) == 0


def test_form_sign_filter_decides_term_windows():
    table = TermTable(get("apery").recurrence)
    w = table.values(399, 402)
    traced, seen = _filtered(_turan3_form, w)
    assert _form_sign(traced, _integer_window(w)[0]) == _t3_direct(w)
    assert seen == ["truncated"]


@pytest.mark.parametrize("form, direct, k", FORMS)
def test_form_radius_bounds_every_move(form, direct, k):
    rng = random.Random(21)
    for i in range(400):
        t = random_truncation(rng, k)
        if i % 4 == 0:  # near-geometric: the form's factors cancel at t
            t = [x + rng.randrange(-8, 9) for x in _geometric(rng.getrandbits(40) + 1, 3, k)]
        value, radius = form(t)
        assert value == form([F(x) for x in t])[0]
        for _ in range(5):
            moved = form([x + d for x, d in zip(t, random_deltas(rng, k))])[0]
            assert abs(moved - value) <= radius, (t, moved - value, radius)


@pytest.mark.parametrize("form, direct, k", FORMS)
def test_form_sign_value_within_radius_is_exact(form, direct, k):
    # windows built so that the truncation cannot decide them
    rng = random.Random(22)
    undecided = 0
    for _ in range(300):
        bits = rng.choice((200, 1000, 5000))
        w = _geometric(rng.getrandbits(bits) | 1 << (bits - 1), rng.choice((2, -3, 5)), k)
        w = [x + rng.randrange(-(1 << (bits // 2)), 1 << (bits // 2)) for x in w]
        s = max(x.bit_length() for x in w) - PREC
        value, radius = form([x >> s for x in w])
        traced, seen = _filtered(form, w)
        assert _form_sign(traced, w) == direct(w)
        if abs(value) <= radius:
            undecided += 1
            assert seen == ["truncated", "exact"]
        else:
            assert seen == ["truncated"] and (value > 0) - (value < 0) == direct(w)
    assert undecided > 50


def test_turan3_scans_need_no_exact_fallback(monkeypatch):
    """Every window of the long scans is decided on its truncation: a
    window whose form runs on more than PREC bits fell back to the exact
    integers, and makes two calls for one window."""
    k, form = sequences.FORMS["turan3"]
    calls = []

    def counted(w):
        calls.append(max(x.bit_length() for x in w) > PREC)
        return form(w)

    monkeypatch.setitem(sequences.FORMS, "turan3", (k, counted))
    geometric = Recurrence([Poly([1]), Poly([3])], [3**200])  # F = 0 exactly
    scans = [(geometric, "none", 100)]
    scans += [(get(name).recurrence, "factorial", 2998) for name in ("motzkin", "domb", "apery")]
    scans += [(get("involutions").recurrence, scaling, 2998) for scaling in ("none", "factorial")]
    for rec, scaling, hi in scans:
        calls.clear()
        check_inequality_range(TermTable(rec), "turan3", 1, hi, scaling)
        fallbacks = hi if rec is geometric else 0
        assert (sum(calls), len(calls)) == (fallbacks, hi + fallbacks), (rec, scaling)


@pytest.mark.parametrize("name", ["motzkin", "domb", "apery"])
def test_turan3_range_matches_direct_form(name):
    table = TermTable(get(name).recurrence)
    bad = check_inequality_range(table, "turan3", 1, 400, scaling="factorial")
    assert bad == [n for n in range(1, 401) if _t3_sign_direct(table, n) <= 0]


# -- term windows and every scan against Fraction oracles -------------------------


def scaled_terms(table, hi, scaling):
    """a(0..hi), divided by k! under `factorial`, in Fraction arithmetic."""
    vals = table.values(0, hi)
    if scaling == "factorial":
        return [v / math.factorial(k) for k, v in enumerate(vals)]
    return vals


@pytest.mark.parametrize("scaling", ["none", "factorial"])
@pytest.mark.parametrize("name", sorted(corpus.ENTRIES))
def test_scans_match_fraction_oracle(name, scaling):
    table = TermTable(get(name).recurrence)
    terms = scaled_terms(table, 302, scaling)
    for predicate, single, direct, k in (
        ("turan3", turan3_sign, _t3_direct, 4),
        ("log-concave", logconcave_sign, _lc_direct, 3),
    ):
        signs = [direct(terms[n - 1 : n - 1 + k]) for n in range(1, 301)]
        got = check_inequality_range(table, predicate, 1, 300, scaling)
        assert got == [n for n, v in enumerate(signs, 1) if v <= 0], predicate
        for n in (1, 2, 3, 50, 300):
            assert single(table, n, scaling) == signs[n - 1], (predicate, n)


# denominators 6, 6, 3, 1, 1, ...: a(n) = n!/6, whose window lcm shrinks
SHRINKING = Recurrence([Poly([1]), Poly([1, 1])], [F(1, 6)])


@pytest.mark.parametrize("scaling", ["none", "factorial"])
@pytest.mark.parametrize("name", sorted(corpus.ENTRIES) + ["shrinking"])
def test_windows_are_the_scaled_terms(name, scaling):
    # every window is the scaled terms over the lcm of its denominators,
    # whether it slid from the last one or was cleared afresh, from any start
    table = TermTable(SHRINKING if name == "shrinking" else get(name).recurrence)
    terms = scaled_terms(table, 330, scaling)
    rng = random.Random(name)
    cases = [(0, 40, 1), (0, 30, 3), (7, 75, 4), (20, 19, 5)]
    cases += [(lo, lo + 65, k) for k in (1, 2, 3, 4, 5) for lo in (0, 1, rng.randrange(2, 260))]
    for lo, hi, k in cases:
        got = list(windows(table, lo, hi, k, scaling))
        assert len(got) == max(hi - lo + 1, 0)
        for i, (xs, den) in enumerate(got, lo):
            assert all(type(x) is int for x in xs)
            assert den == math.lcm(*(v.denominator for v in table.values(i, i + k - 1)))
            f = math.factorial(i + k - 1) if scaling == "factorial" else 1
            assert [F(x, den * f) for x in xs] == terms[i : i + k], (lo, k, i)


def test_windows_fill_terms_one_window_at_a_time():
    table = TermTable(get("motzkin").recurrence)
    scan = windows(table, 10, 2000, 4, "factorial")
    for _ in range(5):
        next(scan)
    assert len(table) == 18  # a(0..17): the fifth window is a(14..17)
    for name in ("motzkin", "involutions", "inverse-catalan", "fine"):
        rec = get(name).recurrence
        for k, lo, scaling in ((3, 10, "none"), (4, 0, "factorial"), (5, 37, "none")):
            t = TermTable(rec)
            scan = windows(t, lo, 2000, k, scaling)
            for j in range(1, 9):
                next(scan)
                assert len(t) == max(lo + j - 1 + k, len(rec.initials)), (name, k, j)
    with pytest.raises(ValueError, match="unknown scaling"):
        list(windows(table, 1, 0, 3, "geometric"))
    with pytest.raises(IndexError):
        next(windows(table, -1, 3, 3))
