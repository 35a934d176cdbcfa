"""Exact algebra kernel: polynomials, rational functions, roots, fields."""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turancert.algebra import (
    AlgebraicReal,
    NFElem,
    NumberField,
    Poly,
    RatFunc,
    cauchy_root_bound,
    eventual_positivity_threshold,
    isolate_real_roots,
    limit_at_infinity,
    no_roots_above,
    poly_gcd,
    rational_roots_small,
    rationalize,
    sign_at_infinity,
    squarefree_part,
    sturm_chain,
)

from turancert.algebra import roots as roots_module
from turancert.algebra.numberfield import ROUND_DEN
from turancert.algebra.poly import _GCD_PRIMES, _convolve, _gcd_degree_bound, _int_gcd, _primitive_ints as ints
from turancert.asymptotics import AsymSeries
from turancert.parser import _expanded

from oracles import (
    bisect_reference, count_roots_halfopen, loop_product, loop_shift, nf_add, nf_approx_interval, nf_div, nf_is_zero,
    nf_mul, nf_neg, nf_pow, nf_sign, nf_sub, nf_to_fraction, product_chain_threshold,
)

X = Poly([0, 1])

small_rats = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


def polys(max_deg=5):
    return st.lists(small_rats, min_size=0, max_size=max_deg + 1).map(Poly)


# -- polynomials -------------------------------------------------------------


def test_poly_trims_trailing_zeros():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([0, 0]).is_zero()
    assert Poly([0]).degree == -1
    assert Poly([5]).degree == 0


def test_poly_arithmetic_basics():
    p = (X + 1) * (X - 1)
    assert p == X**2 - 1
    assert p.eval(F(3)) == 8
    assert (X**3).derivative() == 3 * X**2
    assert (2 * X + 3) - (X + 3) == X


def _power_cases(kind: str) -> list:
    """(base, one, product) triples of one type, for the power property."""
    if kind == "poly":
        return [(b, Poly([1]), operator.mul) for b in (Poly([]), Poly([F(-2, 3)]), X - 1, 2 * X**3 - X + F(1, 2))]
    if kind == "series":
        L = RatFunc.variable()
        return [(AsymSeries([(F(e), c) for e, c in terms], error_order=err), AsymSeries.one(), operator.mul)
                for terms, err in [([], None), ([(0, 1), (1, L)], F(7, 2)), ([(F(1, 2), 2), (2, -1)], None),
                                   ([(-1, F(1, 3))], F(4))]]
    if kind == "nfelem":
        s = sqrt_field(2).generator()
        return [(b, s.field.from_rational(1), operator.mul) for b in (s, 3 - 2 * s / 5, s * s - 2, s + F(1, 7))]
    return [(cs, (1,), lambda x, y: tuple(_convolve(x, y))) for cs in ((), (1,), (3, -1), (2, 0, -5, 1))]


@pytest.mark.parametrize("kind", ["poly", "series", "nfelem", "int-list"])
def test_power_is_repeated_multiplication(kind):
    """Poly, AsymSeries and NFElem powers and the parser's integer-list
    powers share one square-and-multiply; each agrees with k-fold products
    for k = 0..9 (so () gives (1,) at k = 0 and () after)."""
    power = _expanded if kind == "int-list" else operator.pow
    for base, one, mul in _power_cases(kind):
        want = one
        for k in range(10):
            assert power(base, k) == want, (base, k)
            want = mul(want, base)


def test_compose_shift():
    p = X**2
    assert p.compose_shift(1) == X**2 + 2 * X + 1
    assert p.compose_shift(-1) == X**2 - 2 * X + 1
    q = 3 * X**3 - X + 7
    n = F(11)
    assert q.compose_shift(F(5, 2)).eval(n) == q.eval(n + F(5, 2))


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_divmod_reconstructs(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(polys(3), polys(3), polys(2))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(a, b, c):
    a, b = a * c, b * c
    g = poly_gcd(a, b)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    if not a.is_zero():
        assert (a % g).is_zero()
    if not b.is_zero():
        assert (b % g).is_zero()
    if not c.is_zero() and not (a.is_zero() and b.is_zero()):
        assert g.degree >= c.degree


def test_squarefree_part_drops_multiplicity():
    p = (X - 1) ** 3 * (X + 2) ** 2 * (X**2 + 1)
    expected = ints((X - 1) * (X + 2) * (X**2 + 1))
    assert squarefree_part(ints(p)) == squarefree_part(ints(-F(3, 7) * p)) == expected


# -- rational functions -------------------------------------------------------


def test_ratfunc_canonical_integer_pair():
    r = RatFunc(Poly([F(1, 2), F(1, 2)]), Poly([F(1, 4), 0, F(1, 4)]))
    # (n+1)/2 over (n^2+1)/4 clears to 2(n+1)/(n^2+1)
    assert list(r.num.coeffs) == [2, 2]
    assert list(r.den.coeffs) == [1, 0, 1]


def test_ratfunc_cancels_common_factor():
    r = RatFunc((X - 1) * (X + 2), (X - 1) * X)
    assert r == RatFunc(X + 2, X)
    assert list(r.den.coeffs) == [0, 1]


def test_ratfunc_denominator_sign_normalized():
    r = RatFunc(Poly([1]), Poly([0, -1]))
    assert r.den.leading() > 0
    assert r.num.leading() < 0


@given(polys(3), polys(3), polys(3))
@settings(max_examples=40, deadline=None)
def test_ratfunc_field_laws(a, b, c):
    if c.is_zero():
        return
    ra, rb = RatFunc(a, c), RatFunc(b, c)
    assert ra + rb == RatFunc(a + b, c)
    assert ra * rb == RatFunc(a * b, c * c)
    assert ra - ra == RatFunc.zero()
    if not b.is_zero():
        assert (ra / RatFunc(b, c)) * RatFunc(b, c) == ra


def test_ratfunc_shift_and_eval():
    r = RatFunc(X, X + 1)  # n/(n+1)
    assert r.eval(F(3)) == F(3, 4)
    assert r.shift(1) == RatFunc(X + 1, X + 2)


def test_ratfunc_laurent_is_the_sum_of_its_monomials():
    n = RatFunc.variable()
    rng = random.Random(14)
    for _ in range(40):
        terms = [
            (rng.randrange(-5, 4), F(rng.randrange(-9, 10), rng.randrange(1, 5)))
            for _ in range(rng.randrange(1, 6))
        ]
        want = RatFunc.zero()
        for e, c in terms:
            want = want + c * n**e
        got = RatFunc.laurent(terms)
        assert got == want
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
    assert RatFunc.laurent([(0, 1), (-2, F(1, 2)), (-2, F(-1, 2))]) == RatFunc.one()
    assert RatFunc.laurent([(-3, 2)]).den == Poly([0, 0, 0, 1])


def test_ratfunc_negation_is_the_normal_form_of_the_negated_pair():
    rng = random.Random(19)

    def rand_poly(deg):
        return Poly([F(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(deg + 1)])

    g = sqrt_field(2).generator()
    cases = [RatFunc.zero(), RatFunc.const(0), RatFunc.const(5), RatFunc.const(F(-3, 7)),
             RatFunc.const(g), RatFunc(Poly([g, 1]), Poly([1, 0, g]))]
    while len(cases) < 80:
        num, den = rand_poly(rng.randrange(4)), rand_poly(rng.randrange(4))
        if not den.is_zero():
            cases.append(RatFunc(num, den))
    for r in cases:
        got, want = -r, RatFunc(-r.num, r.den)
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs), r
        back = -got
        assert (back.num.coeffs, back.den.coeffs) == (r.num.coeffs, r.den.coeffs)


def test_sign_and_limit_at_infinity():
    assert sign_at_infinity(RatFunc(X - 10**9, X + 1)) == 1
    assert sign_at_infinity(RatFunc(-X**2, Poly([1]))) == -1
    assert limit_at_infinity(RatFunc(3 * X + 1, 2 * X)) == F(3, 2)
    assert limit_at_infinity(RatFunc(Poly([1]), X)) == F(0)
    assert limit_at_infinity(RatFunc(X**2, X)) == "+inf"
    assert limit_at_infinity(RatFunc(-(X**3), X + 5)) == "-inf"


# -- root machinery -----------------------------------------------------------


def test_sturm_counts_roots():
    p = (X - 1) * (X - 2) * (X - 3)
    ch = sturm_chain(ints(p))
    oracle = fraction_sturm_chain(p)
    assert ch == [ints(q) for q in oracle]
    for count in (roots_module._count_roots, lambda _, a, b: count_roots_halfopen(oracle, a, b)):
        assert count(ch, F(0), F(10)) == 3
        assert count(ch, F(0), F(5, 2)) == 2
        assert count(ch, F(3), F(10)) == 0  # half-open (3, 10]


def test_cauchy_bound_contains_roots():
    p = X**2 - 30 * X + 1
    b = cauchy_root_bound(ints(p))
    for r in isolate_real_roots(p):
        r.refine_below(F(1, 100))
        assert -b <= r.lo and r.hi <= b


def test_isolate_sqrt2():
    roots = isolate_real_roots(X**2 - 2)
    assert len(roots) == 2
    neg, pos = roots
    assert abs(pos.approx() - 2**0.5) < 1e-9
    assert abs(neg.approx() + 2**0.5) < 1e-9
    assert not pos.is_rational()


def test_refine_matches_fraction_bisection():
    # the roots of the edge polynomials of apery and bn, three irrational
    # roots of a cubic, and a root of a polynomial with non-integer
    # coefficients
    roots = []
    for p in (X**2 - 34 * X + 1, X**3 - 7 * X**2 + 7 * X - 1, X**3 - 3 * X + 1):
        roots += isolate_real_roots(p)
    roots.append(AlgebraicReal(F(1, 3) * X**2 - F(2, 3), 1, 2))
    assert sum(not r.is_rational() for r in roots) == 8
    for r in roots:
        lo, hi = r.lo, r.hi
        for _ in range(80):
            r.refine()
            lo, hi = bisect_reference(r.poly, lo, hi)
            assert (r.lo, r.hi) == (lo, hi)


def test_isolate_includes_rational_roots():
    p = (X - F(1, 3)) * (X**2 - 3)
    roots = isolate_real_roots(p)
    assert len(roots) == 3
    rationals = [r.as_fraction() for r in roots if r.is_rational()]
    assert rationals == [F(1, 3)]


def test_rational_roots_small():
    p = (3 * X - 2) * (X + 5) * (X**2 + 1)
    assert rational_roots_small(ints(p)) == [F(-5), F(2, 3)]
    assert rational_roots_small(ints(X**2 + 1)) == []


def test_no_roots_above_is_safe():
    p = (X - 7) * (X - 3)
    top = no_roots_above(p)
    assert top >= 7
    ch = sturm_chain(ints(p))
    assert ch == [ints(q) for q in fraction_sturm_chain(p)]
    assert roots_module._count_roots(ch, F(top), F(top + 10**6)) == 0
    assert count_roots_halfopen(fraction_sturm_chain(p), F(top), F(top + 10**6)) == 0


# thresholds for hand-checked sign windows; each value is minimal


def test_eventual_positivity_threshold_goldens():
    n = X
    cases = [
        (RatFunc(4 * n**2 - 21 * n - 9), 5),
        (RatFunc(Poly([4]), (n + 1) * (n + 2) ** 2), 0),
        (RatFunc(4 * n**3 - 8 * n**2 - 20 * n - 12, (n + 1) ** 4 * (n + 2) ** 2), 3),
        (RatFunc(4 * n**2 - 12 * n - 4, n**2 * (n + 1) * (n + 2) ** 2), 3),
        (
            RatFunc(
                4 * n**5 - 24 * n**4 + 36 * n**3 + 16 * n**2 - 48 * n - 144,
                n**2 * (n + 1) ** 4 * (n + 2) ** 2,
            ),
            3,
        ),
    ]
    for r, expected in cases:
        got = eventual_positivity_threshold(r)
        assert got == expected, (r, got, expected)
        # minimality: positive strictly beyond, not positive at the threshold
        for k in range(got + 1, got + 8):
            assert r.num.eval(F(k)) / r.den.eval(F(k)) > 0
        if got > 0:
            dv = r.den.eval(F(got))
            assert dv == 0 or r.num.eval(F(got)) / dv <= 0


def test_eventual_positivity_rejects_negative():
    with pytest.raises(ValueError):
        eventual_positivity_threshold(RatFunc(Poly([1]) - X))


def test_threshold_skips_denominator_zero():
    # positive for all n > 4, but the denominator vanishes at n = 4
    r = RatFunc(Poly([1]), X - 4)
    assert eventual_positivity_threshold(r) == 4


# -- number fields ------------------------------------------------------------


def sqrt_field(d: int) -> NumberField:
    return NumberField(isolate_real_roots(X**2 - d)[-1])


def test_nf_sqrt2_identity():
    K = sqrt_field(2)
    s = K.generator()
    # 3(17+12s) / (2(3+2s)^2) collapses to the rational 3/2
    val = (3 * (17 + 12 * s)) / (2 * (3 + 2 * s) ** 2)
    assert val.to_fraction() == F(3, 2)


def test_nf_arithmetic_and_sign():
    K = sqrt_field(2)
    s = K.generator()
    assert (s * s).to_fraction() == 2
    assert (s - 1).sign() == 1
    assert (s - F(3, 2)).sign() == -1
    assert ((s + 1) * (s - 1) - 1).sign() == 0
    assert (1 / s) * s == 1
    lo, hi = (3 + 2 * s).approx_interval(F(1, 10**6))
    assert lo <= F(58284271, 10**7) <= hi


def test_nf_reducible_modulus_splits():
    # (x^2-2)(x^2-3) is not irreducible; track sqrt(3) and force splitting
    p = (X**2 - 2) * (X**2 - 3)
    root = isolate_real_roots(p)[-1]
    K = NumberField(root)
    s = K.generator()
    assert (s * s - 3).sign() == 0
    assert (s * s - 2).to_fraction() == 1  # forces modulus shrink to x^2-3
    assert K.degree == 2


def test_nf_division_by_zero_element():
    K = sqrt_field(5)
    s = K.generator()
    with pytest.raises(ZeroDivisionError):
        _ = 1 / (s * s - 5)


def test_rationalize_directions():
    K = sqrt_field(2)
    s = K.generator()
    up = rationalize(s, "up")
    down = rationalize(s, "down")
    assert ROUND_DEN % up.denominator == 0 and ROUND_DEN % down.denominator == 0
    assert down < up
    assert (s - down).sign() >= 0 and (up - s).sign() >= 0
    assert up - down <= F(4, ROUND_DEN)
    # rationals pass through untouched, even with a denominator above ROUND_DEN
    assert rationalize(F(22, 7 * ROUND_DEN + 1), "up") == F(22, 7 * ROUND_DEN + 1)
    assert rationalize(7, "down") == 7


def test_rationalize_exact_nf_rational():
    K = sqrt_field(2)
    s = K.generator()
    v = (3 * (17 + 12 * s)) / (2 * (3 + 2 * s) ** 2)
    assert rationalize(v, "up") == F(3, 2)
    assert rationalize(v, "down") == F(3, 2)


def test_sturm_layer_rejects_nf_scalars():
    # every entry of the root layer that takes a Poly clears it to integers
    # once and refuses any other scalar.  poly_gcd and RatFunc keep a number-field
    # path that no command reaches; it is kept for algebraic growth constants
    # in certificates (ROADMAP item 5)
    K = sqrt_field(2)
    s = K.generator()
    p = Poly([s - 3, K.from_rational(1)])  # n + (sqrt2 - 3), root ~ 1.586
    for fn, arg in (
        (no_roots_above, p),
        (eventual_positivity_threshold, RatFunc(p)),
        (isolate_real_roots, p),
        (lambda q: AlgebraicReal(q, 1, 2), p),
    ):
        with pytest.raises(TypeError):
            fn(arg)
    assert poly_gcd(p * (X + 1), p * (X - 2)) == p
    assert RatFunc(p * (X + 1), p * (X - 2)) == RatFunc(X + 1, X - 2)


# -- the integer normal form against the Fraction normalisation ------------------
#
# The Fraction normalisation that RatFunc, Poly.primitive and the parser ran
# before the integer normal form, kept as self-contained oracles: content and
# primitive part by a Fraction lcm/gcd loop, and RatFunc's cancel-then-scale.


def fraction_content_and_primitive(p: Poly) -> tuple:
    """p = content * primitive part, the primitive part coprime integers with
    positive lead (the content takes the sign of p's lead)."""
    den_lcm = 1
    for c in p.coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    nums = [int(c * den_lcm) for c in p.coeffs]
    g = 0
    for v in nums:
        g = math.gcd(g, abs(v))
    if nums[-1] < 0:
        g = -g
    return F(g, den_lcm), Poly([v // g for v in nums])


def fraction_primitive(p: Poly) -> Poly:
    return p if p.is_zero() else fraction_content_and_primitive(p)[1]


def fraction_form(num: Poly, den: Poly) -> tuple:
    """(num, den) coefficient tuples of num/den for rational coefficients:
    cancel the Fraction gcd, then scale the two primitive parts by the
    numerator and denominator of the quotient of their contents."""
    if num.is_zero():
        return (), (F(1),)
    g = fraction_poly_gcd(num, den)
    if g.degree > 0:
        num, den = num.exact_div(g), den.exact_div(g)
    cn, pn = fraction_content_and_primitive(num)
    cd, pd = fraction_content_and_primitive(den)
    c = cn / cd
    return pn.scale(F(c.numerator)).coeffs, pd.scale(F(c.denominator)).coeffs


def _reference_form(num: Poly, den: Poly) -> tuple:
    """(num, den) coefficient tuples of num/den by the general normalisation:
    the Fraction form (rational coefficients), or the gcd cancelled and the
    denominator made monic (field coefficients)."""
    if num.is_rational() and den.is_rational():
        return fraction_form(num, den)
    g = poly_gcd(num, den)
    if g.degree > 0:
        num, den = num.exact_div(g), den.exact_div(g)
    lead = den.leading()
    inv = 1 / lead if isinstance(lead, F) else lead ** (-1)
    return num.scale(inv).coeffs, den.scale(inv).coeffs


def _reference_ops(a: RatFunc, b: RatFunc) -> dict:
    """a op b for op in + - * /, built from Poly products and normalised."""
    out = {
        "+": _reference_form(a.num * b.den + b.num * a.den, a.den * b.den),
        "-": _reference_form(a.num * b.den - b.num * a.den, a.den * b.den),
        "*": _reference_form(a.num * b.num, a.den * b.den),
    }
    if not b.is_zero():
        out["/"] = _reference_form(a.num * b.den, a.den * b.num)
    return out


def _ops(a: RatFunc, b: RatFunc) -> dict:
    out = {"+": a + b, "-": a - b, "*": a * b}
    if not b.is_zero():
        out["/"] = a / b
    return {k: (r.num.coeffs, r.den.coeffs) for k, r in out.items()}


def _bn_lambda_field() -> NumberField:
    # growth constant of bn: the largest root of its edge polynomial x^3 - 7x^2 + 7x - 1
    return NumberField(isolate_real_roots(Poly([-1, 7, -7, 1]))[-1])


FIELDS = [sqrt_field(3), _bn_lambda_field(), NumberField(isolate_real_roots(X**3 - 2)[-1])]


def field_elements():
    return st.tuples(
        st.sampled_from(FIELDS), st.lists(small_rats, min_size=1, max_size=3)
    ).map(lambda t: t[0].element(t[1]))


@given(small_rats, small_rats, small_rats)
@settings(max_examples=150, deadline=None)
def test_constant_ratfunc_matches_general_normalisation(x, y, d):
    d = d or F(1)
    a, b = RatFunc(Poly([x]), Poly([d])), RatFunc.const(y)
    assert (a.num.coeffs, a.den.coeffs) == _reference_form(Poly([x]), Poly([d]))
    assert _ops(a, b) == _reference_ops(a, b)
    assert _ops(b, a) == _reference_ops(b, a)


@given(field_elements(), st.lists(small_rats, min_size=1, max_size=3), small_rats)
@settings(max_examples=60, deadline=None)
def test_constant_ratfunc_over_number_field_matches(x, ycoeffs, q):
    y = x.field.element(ycoeffs)
    for num, den in ((x, F(1)), (x, q or F(2)), (q, x), (x, y)):
        if isinstance(den, F) or den:
            r = RatFunc(Poly([num]), Poly([den]))
            assert (r.num.coeffs, r.den.coeffs) == _reference_form(Poly([num]), Poly([den]))
    for a, b in ((RatFunc.const(x), RatFunc.const(y)), (RatFunc.const(x), RatFunc.const(q)),
                 (RatFunc.const(q), RatFunc.const(x))):
        assert _ops(a, b) == _reference_ops(a, b)


@given(field_elements(), small_rats, st.integers(-5, 5))
@settings(max_examples=100, deadline=None)
def test_nf_mixed_with_rationals_matches_lifted(x, q, k):
    K = x.field
    for s in (q, k):
        lifted = K.from_rational(s)
        assert (x + s).coeffs == (x + lifted).coeffs == (s + x).coeffs
        assert (x - s).coeffs == (x - lifted).coeffs
        assert (s - x).coeffs == (lifted - x).coeffs
        assert (x * s).coeffs == (x * lifted).coeffs == (s * x).coeffs
        assert all(isinstance(c, F) for c in (x * s).coeffs + (s - x).coeffs)


# -- integer kernels against the Fraction oracles ------------------------------
#
# The rational paths of the Fraction Euclid gcd and of the Sturm chain and
# Cauchy-bisection threshold search that the integer kernels replaced, kept
# as oracles.


def fraction_poly_gcd(a: Poly, b: Poly) -> Poly:
    a, b = Poly(a.coeffs), Poly(b.coeffs)
    while not b.is_zero():
        a, b = b, fraction_primitive(a % b)
    return fraction_primitive(a)


def fraction_squarefree_part(p: Poly) -> Poly:
    if p.degree <= 0:
        return p
    g = fraction_poly_gcd(p, p.derivative())
    return fraction_primitive(p if g.degree <= 0 else p.exact_div(g))


def fraction_sturm_chain(p: Poly) -> list:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = -(chain[-2] % chain[-1])
        if rem.is_zero():
            break
        prim = fraction_primitive(rem)
        chain.append(-prim if rem.leading() < 0 else prim)
    if chain[-1].is_zero():
        chain.pop()
    return chain


def fraction_no_roots_above(p: Poly) -> int:
    if p.degree <= 0:
        return 0
    q = fraction_squarefree_part(p)
    chain = fraction_sturm_chain(q)
    bound = 1 + max(abs(c) for c in q.coeffs[:-1]) / abs(q.leading())  # Cauchy
    lo, hi = 0, int(bound) + 1
    if count_roots_halfopen(chain, F(lo), F(hi)) == 0:
        return 0
    while hi - lo > 1:
        mid = (hi + lo) // 2
        if count_roots_halfopen(chain, F(mid), F(hi)) == 0:
            hi = mid
        else:
            lo = mid
    return hi if count_roots_halfopen(chain, F(lo), F(hi)) else lo


def fraction_threshold(r: RatFunc) -> int:
    for n in range(fraction_no_roots_above(r.num * r.den), 0, -1):
        dv = r.den.eval(F(n))
        if dv == 0 or r.num.eval(F(n)) / dv <= 0:
            return n
    return 0


def random_factor(rng) -> Poly:
    """A linear factor with an integer root (the search probes integers up
    to 128), a rational root, a quadratic with two real roots or none, or a
    dense random polynomial of degree 0-3."""
    kind = rng.randrange(4)
    if kind == 0:
        return X - rng.choice([0, 1, 2, 3, 4, 8, 16, 24, 32, 48, 64, 67, 96, 128, -1, -7])
    if kind == 1:
        return X - F(rng.randint(-300, 300), rng.randint(1, 12))
    if kind == 2:
        return X**2 + F(rng.randint(-200, 200), rng.randint(1, 5)) * X + F(rng.randint(-999, 999), rng.randint(1, 10))
    return Poly([F(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))])


def random_poly(rng, factors: int = 3) -> Poly:
    """A product of random factors, some repeated, times a rational constant
    of either sign; zero factors give a constant."""
    p = Poly([F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 30))])
    for _ in range(rng.randint(0, factors)):
        f = random_factor(rng)
        p = p * f ** rng.choice([1, 1, 2, 3])
    return p


@pytest.mark.parametrize("seed", range(4))
def test_sturm_layer_matches_fraction_oracle(seed):
    rng = random.Random(8100 + seed)
    # chain members compared content-free with their signs kept
    for _ in range(150):
        p = random_poly(rng)
        sq = squarefree_part(ints(p))
        assert sq == ints(fraction_primitive(fraction_squarefree_part(p))), p
        assert all(type(c) is int for c in sq)
        assert sturm_chain(sq) == [ints(q) for q in fraction_sturm_chain(Poly(sq[::-1]))], p
        assert sturm_chain(ints(p)) == [ints(q) for q in fraction_sturm_chain(p)], p
        assert no_roots_above(p) == fraction_no_roots_above(p), p


def test_no_roots_above_on_probe_points():
    # roots exactly at the galloping probes 0, 1, 2, 4, ..., between them,
    # and at the bisection midpoints; simple, repeated, and with a negative lead
    for root in (0, 1, 2, 3, 4, 5, 8, 12, 16, 31, 32, 33, 64, 67, 127, 128, 129):
        for mult in (1, 2, 3):
            for lead in (1, -F(3, 7)):
                p = lead * (X - root) ** mult * (X + 5) * (X**2 + 1)
                assert no_roots_above(p) == fraction_no_roots_above(p) == root
                # the integer form, at any positive or negative scale
                assert no_roots_above(ints(p)) == no_roots_above([-6 * c for c in ints(p)]) == root
    assert no_roots_above(X - F(1, 3)) == 1
    assert no_roots_above(-3 * X + 1000) == 334
    assert no_roots_above(Poly([7])) == no_roots_above(X**2 + 1) == no_roots_above(X + 2) == 0


@pytest.mark.parametrize("seed", range(4))
def test_gcd_and_ratfunc_match_fraction_oracle(seed):
    rng = random.Random(8200 + seed)
    for _ in range(120):
        shared = random_poly(rng, 2)
        a, b = random_poly(rng, 2) * shared, random_poly(rng, 2) * shared
        if rng.random() < 0.1:
            a = Poly()
        if rng.random() < 0.1:
            b = Poly()
        got = poly_gcd(a, b)
        assert got == fraction_poly_gcd(a, b), (a, b)
        assert all(type(c) is F for c in got.coeffs)
        if not b.is_zero():
            r = RatFunc(a, b)
            assert (r.num.coeffs, r.den.coeffs) == fraction_form(a, b), (a, b)


def test_modular_gcd_degree_bounds_the_exact_one():
    """`_gcd_degree_bound` never falls below the exact gcd's degree: with
    floor -1 it is the gcd's degree mod p (equal to the exact one here, as
    no random pair is unlucky), and with a floor it stops at the first
    remainder of degree at most the floor, or ends at the gcd mod p."""
    rng = random.Random(8300)
    for _ in range(200):
        shared = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 5)]
        x, y = (ints(random_poly(rng, 3) * Poly(shared)) for _ in range(2))
        if not x or not y:
            continue
        exact = len(_int_gcd(x, y)) - 1
        assert _gcd_degree_bound(x, y) == exact, (x, y)
        floor = rng.randint(-1, 6)
        got = _gcd_degree_bound(x, y, floor)
        assert got >= exact and (got <= floor or got == exact), (x, y, floor)
    # a lead divisible by every prime of the bound leaves the smaller degree
    lead = math.prod(_GCD_PRIMES)
    assert _gcd_degree_bound([lead, 1], [lead, 0, 3]) == 1
    # (x+1)^50 and (x+2)^50: the first remainder stops a floor of 49
    x1, x2 = (ints((X + c) ** 50) for c in (1, 2))
    assert _gcd_degree_bound(x1, x2, 49) <= 49 and _gcd_degree_bound(x1, x2) == 0


@pytest.mark.parametrize("seed", range(2))
def test_threshold_matches_fraction_oracle(seed):
    rng = random.Random(8300 + seed)
    for _ in range(120):
        r = RatFunc(random_poly(rng, 2), random_poly(rng, 2))
        if r.is_zero():
            continue
        if sign_at_infinity(r) < 0:
            r = -r
        assert eventual_positivity_threshold(r) == fraction_threshold(r), r


@pytest.mark.parametrize("seed", range(2))
def test_split_chain_threshold_matches_product_chain(seed):
    # denominators with a positive integer root above or below the
    # numerator's largest root, repeated roots on either side, constant
    # denominators; the threshold is minimal
    rng = random.Random(8310 + seed)
    cases = 0
    while cases < 150:
        num = random_poly(rng, 2) * (X - rng.randint(0, 40)) ** rng.randint(0, 3)
        top = no_roots_above(num)
        kind = rng.randrange(4)
        if kind == 0:
            den = random_constant(rng)
        elif kind == 1:
            den = random_poly(rng, 1) * (X - (top + rng.randint(1, 9))) ** rng.randint(1, 3)
        elif kind == 2:
            den = random_poly(rng, 1) * (X - rng.randint(0, max(top - 1, 0))) ** rng.randint(1, 3)
        else:
            den = random_poly(rng, 2) ** 2
        r = RatFunc(num, den)
        if r.is_zero():
            continue
        if sign_at_infinity(r) < 0:
            r = -r
        n0 = eventual_positivity_threshold(r)
        assert n0 == product_chain_threshold(r), r
        assert n0 == 0 or r.den.eval(n0) == 0 or r.eval(n0) <= 0, r
        cases += 1


def test_sturm_counts_match_fraction_evaluation():
    # the integer chain's counts by homogeneous Horner against Fraction
    # evaluation of the oracle's Poly chain, at rational points and at roots
    rng = random.Random(8320)
    for _ in range(60):
        sq = squarefree_part(ints(random_poly(rng, 3)))
        if len(sq) <= 1:
            continue
        p = Poly(sq[::-1])
        ch, oracle = sturm_chain(sq), fraction_sturm_chain(p)
        assert ch == [ints(q) for q in oracle], p
        points = [F(rng.randint(-400, 400), rng.randint(1, 12)) for _ in range(6)]
        points += [r.lo for r in isolate_real_roots(p) if r.is_rational()]
        for a in points:
            for b in points:
                if a < b:
                    assert roots_module._count_roots(ch, a, b) == count_roots_halfopen(oracle, a, b), (p, a, b)


def random_constant(rng) -> Poly:
    return Poly([F(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 12))])


@pytest.mark.parametrize("seed", range(4))
def test_ratfunc_matches_fraction_normal_form(seed):
    # shared factors of multiplicity 1-3, leads of either sign and fractional
    # coefficients on both sides (random_poly), constants against
    # non-constants, and zero numerators
    rng = random.Random(8400 + seed)
    for _ in range(150):
        shared = Poly()
        while shared.degree < 1:
            shared = random_factor(rng)
        shared = shared ** rng.randint(1, 3)
        a, b = random_poly(rng, 2) * shared, random_poly(rng, 2) * shared
        kind = rng.randrange(5)
        if kind == 0:
            a = Poly()
        elif kind == 1:
            a = random_constant(rng)
        elif kind == 2:
            b = random_constant(rng)
        if b.is_zero():
            continue
        r = RatFunc(a, b)
        assert (r.num.coeffs, r.den.coeffs) == fraction_form(a, b), (a, b)
        assert all(type(c) is F for c in r.num.coeffs + r.den.coeffs)


def test_ratfunc_normal_form_signs_and_contents():
    # the sign comes from the denominator's lead; the joint content is 1 even
    # when each side alone has a content above 1
    cases = [
        ((-2 * X - 4, -6 * X), ((2, 1), (0, 3))),
        ((6 * X + 6, -4 * X**2 - 4 * X), ((-3,), (0, 2))),
        ((F(3, 4) * X - F(1, 2), Poly([F(-9, 2)])), ((2, -3), (18,))),
        ((Poly([F(-5, 7)]), F(10, 3) * (X - 1) ** 2), ((-3,), (14, -28, 14))),
        ((Poly(), -3 * X), ((), (1,))),
    ]
    for (num, den), want in cases:
        r = RatFunc(num, den)
        assert (r.num.coeffs, r.den.coeffs) == want == fraction_form(num, den), (num, den)


def test_primitive_on_zero_and_negative_lead():
    assert Poly().primitive() == Poly()
    assert Poly([F(-3, 2), 0, F(-9, 4)]).primitive().coeffs == (2, 0, 3)
    assert (-6 * X + 4).primitive().coeffs == (-2, 3)
    assert Poly([F(-7, 3)]).primitive().coeffs == (1,)
    rng = random.Random(8500)
    for _ in range(200):
        p = random_poly(rng, 3)
        assert p.primitive() == fraction_primitive(p), p
    with pytest.raises(TypeError):
        Poly([sqrt_field(2).generator()]).primitive()


def fraction_rational_roots(p: Poly) -> list:
    """Divisor search on the Fraction primitive part, evaluated in Fractions."""
    prim = fraction_primitive(p)
    coeffs = [int(c) for c in prim.coeffs]
    k = 0
    while coeffs[k] == 0:
        k += 1
    a0, ad = abs(coeffs[k]), abs(coeffs[-1])
    found = {F(0)} if k else set()
    if a0 > 10**6 or ad > 10**6:
        return sorted(found)
    nums, dens = (
        {d for x in range(1, math.isqrt(n) + 1) if n % x == 0 for d in (x, n // x)}
        for n in (a0, ad)
    )
    for pnum in nums:
        for pden in dens:
            found.update(c for c in (F(pnum, pden), F(-pnum, pden)) if prim.eval(c) == 0)
    return sorted(found)


@pytest.mark.parametrize("seed", range(2))
def test_isolate_splits_rational_roots_off_the_primitive_factor(seed):
    # rational roots come back as exact points on their primitive linear
    # factor; the other roots carry the primitive cofactor with positive lead
    rng = random.Random(8600 + seed)
    for _ in range(40):
        p = random_poly(rng, 2) * (X - F(rng.randint(-20, 20), rng.randint(1, 6))) ** rng.randint(1, 2)
        if rng.random() < 0.5:
            p = p * (X**2 - rng.choice([2, 3, 5, 7]))
        sq = fraction_squarefree_part(p)
        rational = fraction_rational_roots(sq)
        assert rational_roots_small(ints(sq)) == rational, p
        cofactor = sq
        for rv in rational:
            cofactor = cofactor.exact_div(X - rv)
        roots = isolate_real_roots(p)
        assert [(r.lo, r.hi) for r in roots] == sorted((r.lo, r.hi) for r in roots)
        assert [r.lo for r in roots if r.is_rational()] == rational, p
        for r in roots:
            if r.is_rational():
                assert r.poly == fraction_primitive(X - r.lo), p
            else:
                assert r.poly == fraction_primitive(cofactor), p
                assert all(type(c) is F for c in r.poly.coeffs)
                assert r.poly.eval(r.lo) * r.poly.eval(r.hi) < 0


# -- integer and reduced-tuple kernels against loop oracles ---------------------


def random_rational_poly(rng) -> Poly:
    """Zero, a constant, an integral polynomial (the RatFunc normal form) or
    one with fractional coefficients; leads of either sign."""
    kind = rng.randrange(4)
    if kind == 0:
        return Poly()
    if kind == 1:
        return random_constant(rng)
    dens = [1] if kind == 2 else [1, 2, 3, 7, 12, 35]
    cs = [F(rng.randint(-60, 60), rng.choice(dens)) for _ in range(rng.randint(1, 6))]
    return Poly(cs + [F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.choice(dens))])


def typed(p: Poly) -> list:
    return [(type(c), c) for c in p.coeffs]


@pytest.mark.parametrize("seed", range(3))
def test_rational_products_match_loop_oracle(seed):
    rng = random.Random(8700 + seed)
    for _ in range(150):
        a, b = random_rational_poly(rng), random_rational_poly(rng)
        assert typed(a * b) == typed(loop_product(a, b)), (a, b)
        k = rng.randint(0, 4)
        want = Poly([1])
        for _ in range(k):
            want = loop_product(want, a)
        assert typed(a**k) == typed(want), (a, k)
        shift = rng.choice([0, 1, -1, 3, F(-5, 3), F(7, 2)])
        assert typed(a.compose_shift(shift)) == typed(loop_shift(a, F(shift))), (a, shift)
        if b:
            r = RatFunc(a, b)
            assert (r.num.coeffs, r.den.coeffs) == fraction_form(a, b), (a, b)
            assert all(type(c) is F for c in r.num.coeffs + r.den.coeffs)


def test_poly_over_number_field_multiplies_on_the_generic_path():
    K = sqrt_field(2)
    s = K.generator()
    p = Poly([s + 1, K.from_rational(F(-3, 2)), 2 * s])
    q = Poly([F(1, 3), s - 5])  # a rational and a field coefficient
    for a, b in ((p, q), (q, p), (p, X - F(2, 3)), (X**2 + 1, q), (p, p)):
        got, want = a * b, loop_product(a, b)
        assert len(got.coeffs) == len(want.coeffs)
        assert all(x == y for x, y in zip(got.coeffs, want.coeffs)), (a, b)
        assert any(isinstance(c, NFElem) for c in got.coeffs)
    assert all(x == y for x, y in zip((p**2).coeffs, loop_product(p, p).coeffs))
    assert all(x == y for x, y in zip(p.compose_shift(1).coeffs, loop_shift(p, F(1)).coeffs))


# x^3 - 2x with the root sqrt 2: the first inverse of theta meets the factor
# x, which does not vanish at the root, and shrinks the modulus to x^2 - 2;
# every tuple built before that is left long.
NF_ROOTS = {
    "quadratic": lambda: AlgebraicReal(X**2 - 34 * X + 1, 33, 34),
    "cubic": lambda: AlgebraicReal(2 * X**3 - 5, 1, 2),
    "shrinking": lambda: AlgebraicReal(X**3 - 2 * X, 1, 2),
}


WIDTH = F(1, 10**12)


def nf_run(root, seed: int, kernel: bool) -> list:
    """A seeded sequence of + - * / on a pool of field elements, with ints
    and Fractions on either side, negations and powers -2..3 among them and
    an inverse of theta at step 20.  It logs every result's coefficient
    tuple with types, its zero test, sign, rational value and enclosure to
    WIDTH, and the modulus, or the error of an inverse of zero.  Each
    kernel result must be stored in normal form: a reduced integer tuple
    over a positive denominator, their gcd 1.  kernel=False runs the
    reduce-based oracles on the same script."""
    rng = random.Random(seed)
    K = NumberField(root)
    if kernel:
        binary, neg, power = (operator.add, operator.sub, operator.mul, operator.truediv), operator.neg, operator.pow
        preds = (bool, NFElem.sign, NFElem.to_fraction, lambda x: x.approx_interval(WIDTH))
    else:
        binary, neg, power = (nf_add, nf_sub, nf_mul, nf_div), nf_neg, nf_pow
        preds = (lambda x: not nf_is_zero(x), nf_sign, nf_to_fraction, lambda x: nf_approx_interval(x, WIDTH))
    pool = [K.generator(), K.element([-2, 0, 1])]
    pool += [K.element([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]) for _ in range(3)]
    log = []
    for step in range(80):
        if step == 20:
            pool.append(K.inv(pool[0]))
        x, kind, op = rng.choice(pool), step % 4, rng.randrange(4)
        # the other operand: an element, an int or a Fraction; kind 3 is unary
        y = [rng.choice(pool), rng.randint(-3, 3), F(rng.randint(-7, 7), rng.randint(1, 4)), rng.randint(-2, 3)][kind]
        try:
            if kind == 3:
                z = neg(x) if op == 0 else power(x, y)
            elif kind and rng.random() < 0.5:  # the rational on the left
                z = binary[op](y, x) if kernel else binary[op](K.from_rational(y), x)
            else:
                z = binary[op](x, y)
        except ZeroDivisionError:
            log.append(("ZeroDivisionError", K.modulus.coeffs))
            continue
        if kernel:
            assert (len(z.num), math.gcd(z.den, *z.num)) == (K.degree, 1) and z.den > 0
            assert all(type(c) is int for c in z.num) and type(z.den) is int
        log.append(([(type(c), c) for c in z.coeffs], [f(z) for f in preds], K.modulus.coeffs))
        if max(abs(c.numerator) + c.denominator for c in z.coeffs) < 10**40:
            pool.append(z)
    return log


@pytest.mark.parametrize("field", sorted(NF_ROOTS))
@pytest.mark.parametrize("seed", range(3))
def test_nf_kernels_match_reduce_oracle(field, seed):
    got = nf_run(NF_ROOTS[field](), 8800 + seed, kernel=True)
    want = nf_run(NF_ROOTS[field](), 8800 + seed, kernel=False)
    assert got == want
    if field == "shrinking":
        assert got[-1][-1] == (-2, 0, 1)


def test_sign_of_a_missed_zero_raises(monkeypatch):
    K = NumberField(AlgebraicReal(X**2 - 2, 1, 2))
    theta = K.generator()
    zero, tiny = theta * theta - 2, (theta - 1) ** 30  # (sqrt 2 - 1)^30 ~ 3e-12
    monkeypatch.setattr(NumberField, "is_zero", lambda self, e: False)
    with pytest.raises(ArithmeticError, match=r"internal: NFElem\(\[Fraction\(0, 1\), Fraction\(0, 1\)\] .* is zero"):
        K.sign(zero)
    assert (K.sign(tiny), K.sign(-tiny)) == (1, -1)


@pytest.mark.parametrize("modulus,coeffs", [
    (X**2 - 2, [-1, 1]),
    (2 * X**3 - 5, [F(1, 3), -2, 1]),
    # (x^2 + 1)(x^2 - 4x + 1): x^2 + 1 vanishes at two other roots only
    (X**4 - 4 * X**3 + 2 * X**2 - 4 * X + 1, [1, 0, 1]),
])
def test_sign_floor_is_below_the_value(modulus, coeffs):
    root = next(r for r in isolate_real_roots(modulus) if r.hi > 1)
    K = NumberField(root)
    e = K.element(coeffs) ** 7
    lo, hi = K.approx_interval(e, F(1, 10**30))
    assert 0 < K._floor(e) <= min(abs(lo), abs(hi))
