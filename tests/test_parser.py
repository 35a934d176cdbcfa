"""Recurrence text forms: grammar, normalization, printing, operator import."""

from __future__ import annotations

import math
import random
import re
import signal
import time
from fractions import Fraction as F

import pytest

from turancert.algebra import AlgebraicReal, NumberField, Poly, RatFunc
from turancert.algebra.poly import _int_gcd as int_gcd
from turancert import cli
from turancert import parser as parser_module
from turancert.parser import MAX_POWER_BITS, MAX_POWER_DEGREE, ParseError, parse_operator, parse_recurrence
from turancert.render import poly_text, ratfunc_text

from turancert.corpus import ENTRIES

from oracles import clearing_reference, get, poly_text_reference


class TestGrammar:
    def test_order_one(self):
        r = parse_recurrence("(4*n+2)*a(n+1) - (n+2)*a(n) = 0 ; a(0)=1")
        assert r == get("inverse-catalan").recurrence

    def test_negative_shifts_normalize(self):
        r = parse_recurrence("n*a(n) - a(n-1) - a(n-2) = 0 ; a(0)=1, a(1)=1")
        assert r.order == 2
        assert r.coeffs[0] == Poly([2, 1])
        assert r.coeffs[1] == Poly([1])
        assert r.coeffs[2] == Poly([1])

    def test_juxtaposition_and_pasted_minus(self):
        r = parse_recurrence(
            "(n+4)*a(n+2) − (2n+5)*a(n+1) − 3(n+1)*a(n) = 0 ; a(0)=1, a(1)=1"
        )
        assert r == get("motzkin").recurrence

    def test_rational_coefficients_clear(self):
        r = parse_recurrence("a(n+1) - 1/2*a(n) = 0 ; a(0)=1")
        assert r.coeffs[0] == Poly([2])
        assert r.coeffs[1] == Poly([1])

    def test_denominators_clear(self):
        r = parse_recurrence("a(n+2)/(n+1) = a(n)/(n+2) ; a(0)=1, a(1)=1")
        assert r.coeffs[0] == Poly([2, 1])
        assert r.coeffs[1] == Poly([])
        assert r.coeffs[2] == Poly([1, 1])

    def test_common_factor_removed(self):
        r = parse_recurrence("2*a(n+1) - 2*a(n) = 0 ; a(0)=1")
        assert r.coeffs[0] == Poly([1])

    def test_leading_sign_normalized(self):
        r = parse_recurrence("-a(n+1) + a(n) = 0 ; a(0)=1")
        assert r.coeffs[0] == Poly([1])
        assert r.coeffs[1] == Poly([1])

    def test_powers_and_nesting(self):
        r = parse_recurrence("(n+2)^2*a(n+2) - ((n+1)^2 + (n+1))*a(n) = 0 ; 1, 1")
        assert r.coeffs[0] == Poly([4, 4, 1])
        assert r.coeffs[2] == Poly([2, 3, 1])

    @pytest.mark.parametrize("exponent, plain", [
        ("(-1)", "(n+1)*a(n+1) - a(n) = 0 ; 1"),
        ("(--2)", "a(n+1) - (n+1)^2*a(n) = 0 ; 1"),
    ])
    def test_parenthesized_exponent(self, exponent, plain):
        got = parse_recurrence(f"a(n+1) - (n+1)^{exponent}*a(n) = 0 ; 1")
        assert got == parse_recurrence(plain)

    def test_bare_initials(self):
        r = parse_recurrence("(4*n+2)*a(n+1) - (n+2)*a(n) = 0 ; 1")
        assert r.initials == (F(1),)

    def test_fractional_initials(self):
        r = parse_recurrence("a(n+1) - a(n) = 0 ; a(0)=-3/2")
        assert r.initials == (F(-3, 2),)


def fraction_clearing(coeffs: list) -> list:
    """The former clearing of a relation: scale every coefficient by the lcm
    of the denominators over the gcd of the scaled numerators in Fractions,
    then negate all when p0 has a negative lead."""
    scalars = [F(c) for p in coeffs for c in p.coeffs if c]
    m = math.lcm(*(c.denominator for c in scalars))
    g = math.gcd(*(c.numerator * (m // c.denominator) for c in scalars))
    coeffs = [p.scale(F(m, g)) for p in coeffs]
    if coeffs[0].leading() < 0:
        coeffs = [-p for p in coeffs]
    return coeffs


def random_rational_poly(rng) -> Poly:
    """A nonzero polynomial of degree 0-2 with fractional coefficients of either sign."""
    p = Poly()
    while p.is_zero():
        p = Poly([F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(1, 3))])
    return p


DENOMINATOR_FACTORS = (Poly([1, 1]), Poly([2, 1]), Poly([3, 2]), Poly([-1, 3]), Poly([1, 0, 1]), Poly([1, 1, 1]))


def random_denominator_relation(seed: int) -> tuple:
    """(text, coefficients): a relation of order 1-3 whose coefficients are
    random_rational_poly over c times powers (1-3) of up to three of
    DENOMINATOR_FACTORS, so that two denominators share some factors and
    not others; a middle shift is absent with probability 1/4, and one
    relation in eight starts with 0*a(n+k), k up to d+1, which keeps a zero
    coefficient at k unless a later term adds to it.  The coefficients are
    canonical `RatFunc`s keyed by shift, as the parser sees them."""
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    coeffs, parts = {}, []
    if rng.random() < 1 / 8:
        k = rng.randint(0, d + 1)
        coeffs[k] = RatFunc.zero()
        parts.append(f"0*a(n+{k})")
    for k in range(d + 1):
        if 0 < k < d and rng.random() < 1 / 4:
            continue
        num, c = random_rational_poly(rng), rng.randint(1, 3)
        factors = [(f, rng.randint(1, 3)) for f in rng.sample(DENOMINATOR_FACTORS, rng.randint(0, 3))]
        den = Poly([c])
        for f, e in factors:
            den = den * f ** e
        coeffs[k] = RatFunc(num, den)
        den_text = "*".join([str(c)] + [f"({poly_text(f)})^{e}" for f, e in factors])
        parts.append(f"({poly_text(num)})/({den_text})*a(n+{k})")
    return " + ".join(parts) + " = 0 ; " + ", ".join(["1"] * d), coeffs


class TestClearing:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_fraction_clearing(self, seed):
        # fractional coefficients and negative leads, the terms written in
        # either order around '='
        rng = random.Random(8700 + seed)
        for _ in range(40):
            ps = [random_rational_poly(rng) for _ in range(3)]
            want = fraction_clearing(ps)
            t0, t1, t2 = (f"({poly_text(p)})" for p in ps)
            neg1, neg2 = (f"({poly_text(-p)})" for p in ps[1:])
            for text in (
                f"{t0}*a(n+2) = {t1}*a(n+1) + {t2}*a(n) ; 1, 1",
                f"{neg2}*a(n) + {neg1}*a(n+1) + {t0}*a(n+2) = 0 ; 1, 1",
            ):
                got = parse_recurrence(text)
                assert list(got.coeffs) == want, text
                assert got.coeffs[0].leading() > 0
                assert all(type(c) is F for p in got.coeffs for c in p.coeffs)

    def test_matches_the_fraction_lcm(self):
        # the integer-list lcm against the lcm of Fraction Polys with an
        # exact gcd for every new denominator
        for seed in range(300):
            text, coeffs = random_denominator_relation(seed)
            try:
                want = clearing_reference(coeffs, MAX_POWER_DEGREE)
            except ValueError as exc:
                with pytest.raises(ParseError, match=re.escape(str(exc))):
                    parse_recurrence(text)
            else:
                assert list(parse_recurrence(text).coeffs) == want, text

    def test_negative_lead_and_fractions(self):
        r = parse_recurrence("-(2/3*n + 1/2)*a(n+1) = (3/4*n - 5/6)*a(n) ; 1")
        assert list(r.coeffs) == [Poly([6, 8]), Poly([10, -9])]
        assert list(r.coeffs) == fraction_clearing([Poly([F(-1, 2), F(-2, 3)]), Poly([F(-5, 6), F(3, 4)])])


class TestGrammarErrors:
    def test_degenerate(self):
        with pytest.raises(ParseError, match="degenerate"):
            parse_recurrence("a(n) = a(n)")

    def test_single_shift(self):
        with pytest.raises(ParseError, match="single shift"):
            parse_recurrence("n*a(n+1) = 0 ; 1")

    def test_nonlinear(self):
        with pytest.raises(ParseError, match="linear"):
            parse_recurrence("a(n)*a(n+1) = 1 ; 1")

    def test_inhomogeneous(self):
        with pytest.raises(ParseError, match="inhomogeneous"):
            parse_recurrence("a(n+1) - a(n) = 1 ; 1")

    def test_sequence_power(self):
        with pytest.raises(ParseError, match="power"):
            parse_recurrence("a(n)^2 - a(n+1) = 0 ; 1")

    def test_divide_by_sequence(self):
        with pytest.raises(ParseError, match="divide"):
            parse_recurrence("a(n+1)/a(n) = 2 ; 1")

    def test_bad_shift_argument(self):
        with pytest.raises(ParseError, match="integer shift"):
            parse_recurrence("a(2*n) - a(n) = 0 ; 1")

    def test_missing_initials(self):
        with pytest.raises(ParseError, match="missing initials"):
            parse_recurrence("a(n+2) - a(n) = 0")

    def test_initials_gap(self):
        with pytest.raises(ParseError, match="without gaps"):
            parse_recurrence("a(n+2) - a(n) = 0 ; a(0)=1, a(2)=1")

    def test_initials_duplicate(self):
        with pytest.raises(ParseError, match="twice"):
            parse_recurrence("a(n+2) - a(n) = 0 ; a(0)=1, a(0)=2")

    def test_initials_mixed_forms(self):
        with pytest.raises(ParseError, match="mixed"):
            parse_recurrence("a(n+2) - a(n) = 0 ; a(0)=1, 2")

    def test_initials_bare_then_assigned(self):
        with pytest.raises(ParseError) as err:
            parse_recurrence("a(n+2) - a(n) = 0 ; 1, a(1)=2")
        assert str(err.value) == "mixed bare and a(i)= initial values (at position 23)"

    @pytest.mark.parametrize("parse, text, message", [
        (parse_recurrence, "a(n+1) - a(n)/0 = 0 ; 1", "division by zero (at position 13)"),
        (parse_operator, "N/(n+1) - 1 ; 1",
         "dividing a shift operator by a function of n is ambiguous; clear the denominator by hand (at position 1)"),
    ])
    def test_refused_quotients(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_recurrence("a(n+1) @ a(n) = 0 ; 1")
        assert err.value.pos == 7
        assert "position 7" in str(err.value)

    def test_unknown_symbol(self):
        with pytest.raises(ParseError, match="unknown symbol"):
            parse_recurrence("a(n+1) - x*a(n) = 0 ; 1")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="'='"):
            parse_recurrence("a(n+1) - a(n) ; 1")

    def test_trailing_junk(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_recurrence("a(n+1) - a(n) = 0 ; 1 ; 2")

    def test_non_integer_power(self):
        with pytest.raises(ParseError):
            parse_recurrence("n^(1/2)*a(n+1) - a(n) = 0 ; 1")

    @pytest.mark.parametrize("text, pos", [("²*a(n+1) - a(n) = 0 ; 1", 0), ("3²*a(n+1) - a(n) = 0 ; 1", 1)])
    def test_non_decimal_digit_is_an_unexpected_character(self, text, pos):
        # "²" is a digit to str.isdigit but no literal int() can read
        with pytest.raises(ParseError) as err:
            parse_recurrence(text)
        assert (str(err.value), err.value.pos) == (f"unexpected character '²' (at position {pos})", pos)


def no_exact_gcd_of_powers(monkeypatch):
    """Make the parser's exact gcd fail on two nonconstant polynomials."""
    def exact_gcd(a, b):
        assert min(len(a), len(b)) == 1, "the exact gcd of the two powers was taken"
        return int_gcd(a, b)

    monkeypatch.setattr(parser_module, "_int_gcd", exact_gcd)


class TestPowerLimits:
    """A power past MAX_POWER_DEGREE or MAX_POWER_BITS is refused at its '^'
    before it is expanded; one at the limit parses."""

    def test_limits_sit_far_above_every_corpus_relation(self):
        assert (MAX_POWER_DEGREE, MAX_POWER_BITS) == (1000, 100_000)
        for e in ENTRIES.values():
            coeffs = e.recurrence.coeffs
            assert 100 * max(p.degree for p in coeffs) <= MAX_POWER_DEGREE
            assert 100 * max(abs(c.numerator).bit_length() for p in coeffs for c in p.coeffs) <= MAX_POWER_BITS

    @pytest.mark.parametrize("parse, text, shape", [
        (parse_recurrence, "(n+1)^1000*a(n+1) - a(n) = 0 ; 1", (1, 1000, 0)),
        (parse_recurrence, "a(n+1) - (n+1)^-1000*a(n) = 0 ; 1", (1, 1000, 0)),
        (parse_recurrence, "2^100000*a(n+1) - 3^-50000*a(n) = 0 ; 1", (1, 0, 0)),
        (parse_recurrence, "(n^2+1)^500*a(n+1) - a(n) = 0 ; 1", (1, 1000, 0)),
        (parse_operator, "N^1000 - 1 ; " + ", ".join(["1"] * 1000), (1000, 0, 0)),
        (parse_operator, "(n*N)^31 - 1 ; " + ", ".join(["1"] * 31), (31, 31, 0)),
    ])
    def test_powers_at_the_limits_parse(self, parse, text, shape):
        r = parse(text)
        assert (r.order, r.coeffs[0].degree, r.coeffs[-1].degree) == shape

    @pytest.mark.parametrize("parse, text, pos, limit", [
        (parse_recurrence, "(n+1)^1001*a(n+1) - a(n) = 0 ; 1", 5, "MAX_POWER_DEGREE = 1000"),
        (parse_recurrence, "a(n+1) - (n+1)^-1001*a(n) = 0 ; 1", 14, "MAX_POWER_DEGREE = 1000"),
        (parse_recurrence, "(n^2+1)^501*a(n+1) - a(n) = 0 ; 1", 7, "MAX_POWER_DEGREE = 1000"),
        (parse_recurrence, "((n+1)^1000)^2*a(n+1) - a(n) = 0 ; 1", 12, "MAX_POWER_DEGREE = 1000"),
        (parse_recurrence, "(n+1)^100000*a(n+1) - a(n) = 0 ; 1", 5, "MAX_POWER_DEGREE = 1000"),
        (parse_recurrence, "2^100001*a(n+1) - a(n) = 0 ; 1", 1, "MAX_POWER_BITS = 100000 bits"),
        (parse_recurrence, "a(n+1) - 1/2^-100001*a(n) = 0 ; 1", 12, "MAX_POWER_BITS = 100000 bits"),
        (parse_recurrence, "(10^200*n+1)^600*a(n+1) - a(n) = 0 ; 1", 12, "MAX_POWER_BITS = 100000 bits"),
        (parse_operator, "N^1001 - 1 ; 1", 1, "MAX_POWER_DEGREE = 1000"),
        (parse_operator, "(n*N)^32 - 1 ; 1", 5, "MAX_POWER_DEGREE = 1000"),
        (parse_operator, "N^312123/4 ; 1", 1, "MAX_POWER_DEGREE = 1000"),
    ])
    def test_powers_past_the_limits_are_refused_at_the_caret(self, parse, text, pos, limit):
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse(text)
        assert time.perf_counter() - start < 1.0
        assert text[pos] == "^" and err.value.pos == pos
        assert str(err.value).startswith("power too large: ") and limit in str(err.value)

    def test_a_product_of_powers_at_the_limit_parses(self):
        r = parse_recurrence("(n+1)^500*(n+1)^500*a(n+1) - a(n) = 0 ; 1")
        assert (r.order, r.coeffs[0].degree, r.coeffs[1].degree) == (1, 1000, 0)

    @pytest.mark.parametrize("parse, text, pos", [
        (parse_recurrence, "(n+1)^500*(n+1)^501*a(n+1) - a(n) = 0 ; 1", 9),
        (parse_recurrence, "(n+1)^1000*(n+1)^1000*(n+1)^1000*a(n+1) - a(n) = 0 ; 1", 10),
        (parse_recurrence, "(n+1)^1000*" * 8 + "a(n+1) - a(n) = 0 ; 1", 10),
        (parse_recurrence, "(n+1)^1000 (n+2)*a(n+1) - a(n) = 0 ; 1", 11),
        (parse_recurrence, "a(n+1)/(n+1)^600/(n+2)^600 - a(n) = 0 ; 1", 16),
        (parse_recurrence, "1/(n+1)^600 + 1/(n+2)^600 = a(n+1) - a(n) ; 1", 12),
        (parse_recurrence, "a(n+1) - a(n) = 1/(n+1)^600 - 1/(n+2)^600 ; 1", 28),
        (parse_recurrence, "a(n+1)/(n+1)^600 - (n+2)^600*a(n+1) - a(n) = 0 ; 1", 17),
        (parse_operator, "(n+1)^600*(N*(n+1)^600) - 1 ; 1", 9),
        (parse_operator, "N*(n+1)^600*(n+2)^600 - 1 ; 1", 11),
    ])
    def test_products_and_sums_past_the_degree_limit_are_refused(self, parse, text, pos):
        # each power passes its own limits; the scalar its operator would
        # form does not, and is refused before a coefficient is convolved,
        # at the operator or, for adjacent factors, at the second one
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse(text)
        assert time.perf_counter() - start < 1.0
        assert text[pos] in "*/+-(" and err.value.pos == pos
        assert str(err.value) == (
            f"expression too large: its degree would exceed MAX_POWER_DEGREE = 1000 (at position {pos})")

    def test_check_turan3_refuses_a_runaway_product_at_once(self, capsys):
        start = time.perf_counter()
        code = cli.main(["check-turan3", "(n+1)^1000*" * 8 + "a(n+1) - a(n) = 0 ; 1"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: expression too large: its degree would exceed MAX_POWER_DEGREE = 1000 (at position 10)"
        ]
        assert elapsed < 1.0

    def test_check_turan3_refuses_a_runaway_cleared_denominator(self, capsys):
        # each coefficient passes; clearing both denominators would form
        # a degree-2000 lcm, which is refused before it is multiplied out
        start = time.perf_counter()
        code = cli.main(["check-turan3", "a(n)/(n+1)^1000 + a(n+1)/(n+2)^1000 = 0 ; 1"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: relation too large: its cleared denominator's degree would exceed"
            " MAX_POWER_DEGREE = 1000"
        ]
        assert elapsed < 5.0

    def test_a_runaway_cleared_denominator_is_refused_without_the_exact_gcd(self, monkeypatch):
        # modulo 10^9+7 the first remainder of (n+1)^1000 and (n+2)^1000 has
        # degree 999, which bounds their gcd's: the lcm's degree is then at
        # least 1001, so the relation is refused before their exact gcd
        no_exact_gcd_of_powers(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_recurrence("a(n)/(n+1)^1000 + a(n+1)/(n+2)^1000 = 0 ; 1")
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == (
            "relation too large: its cleared denominator's degree would exceed MAX_POWER_DEGREE = 1000")

    def test_coprime_cleared_denominators_take_no_exact_gcd(self, monkeypatch):
        # the remainders of (n+1)^500 and (n+2)^500 modulo 10^9+7 end in a
        # constant, which proves the two coprime: the lcm is their product
        no_exact_gcd_of_powers(monkeypatch)
        rec = parse_recurrence("a(n)/(n+1)^500 + a(n+1)/(n+2)^500 = 0 ; 1")
        assert rec.coeffs == (Poly([1, 1]) ** 500, -Poly([2, 1]) ** 500)

    def test_cleared_denominator_degree_counts_the_common_factor_once(self):
        # deg lcm = 601 + 601 - 600 = 602: the common (n+1)^600 cancels
        rec = parse_recurrence("a(n)/((n+1)^600*(n+3)) + a(n+1)/((n+1)^600*(n+2)) = 0 ; 1")
        assert rec.coeffs == (Poly([3, 1]), Poly([-2, -1]))

    @pytest.mark.parametrize("parse, text, message", [
        (parse_recurrence, "0^-100000*a(n) = 0 ; 1", "zero raised to a negative power"),
        (parse_recurrence, "a(n)^100000 - a(n+1) = 0 ; 1", "sequence terms cannot be raised to a power"),
        (parse_operator, "N^-100000 ; 1", "shift operators cannot have negative powers"),
    ])
    def test_structural_errors_come_before_the_limits(self, parse, text, message):
        with pytest.raises(ParseError, match=message):
            parse(text)

    def test_check_turan3_refuses_a_runaway_power_at_once(self, capsys):
        start = time.perf_counter()
        code = cli.main(["check-turan3", "(n+1)^100000*a(n+1) - a(n) = 0 ; a(0)=1"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: power too large: its degree would exceed MAX_POWER_DEGREE = 1000 (at position 5)"
        ]
        assert elapsed < 1.0


# -- fuzz gate ------------------------------------------------------------------

FUZZ_PIECES = (
    "n", "a(n)", "a(n+1)", "a(n-1)", "a(n+1/2)", "N", "(", ")", "+", "-", "*", "/", "^",
    "=", ";", ",", "0", "1", "2", "7", "12", "3/4", "^-1", "0.5", "a(0)=1",
)
FUZZ_SECONDS_PER_CALL = 1.0


def fuzz_texts(seed: int, count: int) -> list:
    """`count` strings of 1-14 pieces of the grammar's alphabet."""
    rng = random.Random(seed)
    return ["".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(1, 14))) for _ in range(count)]


def mutated_sources(seed: int, count: int) -> list:
    """`count` corpus sources, each with one piece inserted at, or one
    character replaced by a piece at, a random place: text near a valid
    relation, so that many of them parse."""
    rng = random.Random(seed)
    sources = [e.source for e in ENTRIES.values()]
    out = []
    for _ in range(count):
        text = rng.choice(sources)
        i = rng.randrange(len(text) + 1)
        out.append(text[:i] + rng.choice(FUZZ_PIECES) + text[i + rng.randint(0, 1):])
    return out


class _Overrun(BaseException):
    """Raised by the timer; a BaseException, so no handler in the parser takes it."""


def _on_timer(signum, frame):
    raise _Overrun(f"a parse ran past {FUZZ_SECONDS_PER_CALL} s")


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
def test_fuzzed_text_raises_only_parse_errors():
    escaped, messages, parsed = [], set(), 0
    old = signal.signal(signal.SIGALRM, _on_timer)
    try:
        for text in fuzz_texts(38, 3000) + mutated_sources(38, 600):
            for parse in (parse_recurrence, parse_operator):
                signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS_PER_CALL)
                try:
                    parse(text)
                    parsed += 1
                except ParseError as exc:
                    messages.add(str(exc).split(" (at position")[0])
                except BaseException as exc:
                    escaped.append((parse.__name__, text, repr(exc)))
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert escaped == []
    # the strings reach most of the grammar's refusals, not one early error,
    # and the mutated sources also reach the end of a parse
    assert len({m for m in messages if not m.startswith(("unknown symbol", "expected", "unexpected"))}) >= 12
    assert parsed >= 50


class TestOperatorImport:
    def test_apery_operator(self):
        r = parse_operator(
            "(n+2)^3 N^2 - (2n+3)(17n^2+51n+39) N + (n+1)^3 ; a(0)=1, a(1)=5"
        )
        assert r == get("apery").recurrence

    def test_explicit_equals_zero(self):
        a = parse_operator("N^2 - N - 1 = 0 ; a(0)=0, a(1)=1")
        b = parse_operator("N^2 - N - 1 ; a(0)=0, a(1)=1")
        assert a == b
        assert a.coeffs[0] == Poly([1])

    def test_ore_commutation(self):
        # N*n = (n+1)*N exactly, so the difference annihilates everything
        with pytest.raises(ParseError, match="degenerate"):
            parse_operator("N*n - (n+1)*N ; 1")

    def test_ore_power(self):
        a = parse_operator("(n*N)^2 - 1 ; a(0)=1, a(1)=1")
        b = parse_operator("n*(n+1)*N^2 - 1 ; a(0)=1, a(1)=1")
        assert a == b

    def test_shift_of_coefficients(self):
        a = parse_operator("N^2*n - N ; a(0)=1, a(1)=1")
        b = parse_operator("(n+2)*N^2 - N ; a(0)=1, a(1)=1")
        assert a == b

    def test_scalar_part_cancels_the_n0_coefficient(self):
        # (N + 1)(N - 1) has N^0 coefficient -1, which the plain 1 cancels
        a = parse_operator("(N + 1)*(N - 1) + 1 - N ; a(0)=1, a(1)=2")
        b = parse_operator("N^2 - N ; a(0)=1, a(1)=2")
        assert a == b
        assert a.order == 1 and a.initials == (1, 2)

    def test_n_symbol_rejected_in_relation_mode(self):
        with pytest.raises(ParseError, match="unknown symbol"):
            parse_recurrence("N^2 - N - 1 = 0 ; 1, 1")


class TestPrinting:
    def test_poly_text(self):
        assert poly_text(Poly([F(1, 2), 0, -3])) == "-3*n^2 + 1/2"
        assert poly_text(Poly([])) == "0"
        assert poly_text(Poly([0, 1]), "x") == "x"

    @pytest.mark.parametrize("var", ["n", "x", "log(n)"])
    def test_poly_text_matches_reference(self, var):
        rng = random.Random(f"poly_text {var}")
        pool = [F(0), F(1), F(-1), F(2), F(-7), F(1, 2), F(-3, 4), F(22, 7)]
        for _ in range(1000):
            p = Poly([rng.choice(pool) for _ in range(rng.randint(0, 7))])
            assert poly_text(p, var) == poly_text_reference(p, var), p.coeffs

    def test_number_field_coefficients_print_approximately(self):
        K = NumberField(AlgebraicReal(Poly([-2, 0, 1]), 1, 2))
        r2 = K.element([0, 1])
        assert poly_text(Poly([r2, K.element([1]), -r2])) == "~-1.414213562*n^2 + n + ~1.414213562"
        assert poly_text(Poly([3, -r2]), "x") == "~-1.414213562*x + 3"
        r = RatFunc(Poly([r2, 1]), Poly([1, 0, 2]))
        assert ratfunc_text(r) == "(1/2*n + ~0.7071067812) / (n^2 + 1/2)"
        assert ratfunc_text(RatFunc(Poly([1, r2]))) == "~1.414213562*n + 1"
