"""Dense univariate polynomials over an exact field.

Coefficients are ``fractions.Fraction`` or any exact field scalar that
supports ``+ - * /``, truthiness as a zero test, and (where signs are
needed) a ``sign()`` method.  The zero polynomial has an empty
coefficient tuple and degree -1.

Rational polynomials have one integer normal form, and this module is the
only place that clears them to it: `_integer_coeffs` scales a group of
them by one positive integer, the lcm of their denominators, and lists
their coefficients highest degree first; `_integer_window` does the same
for a window of rationals, and `_common_scale` gives the lcm of two
denominators.  A positive scale keeps every sign and zero, so the term
stepper, the certificate bounds on term windows and the corpus residual
check run on these lists by `_horner`; a number-field element (`NFElem`)
stores its coefficients as such a list.
`_primitive_ints` clears one polynomial and divides out its content; the
root layer (`algebra.roots`) clears each input there, once, and its
square-free parts (`squarefree_part`), derivatives and pseudo-remainders
(`_prem`) take and return integer lists.  Products of rational polynomials
convolve the cleared lists and divide by the two scales once; `_int_shift`
is the integer Taylor shift.  `_jointly_primitive` divides several lists
by their joint content with a chosen sign (`RatFunc`'s canonical pair, the
parser's cleared recurrence).  Gcds of rational polynomials are taken on
integer lists (`_int_gcd`), and by Gauss's lemma a primitive divisor
leaves an integer quotient (`_exact_quotient`).  `poly_gcd`'s path for
field-valued coefficients is reached by no command: it is kept for
`RatFunc` over Q(lambda), which certificates with an algebraic growth
constant will need (ROADMAP item 5).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence


def coerce_scalar(x):
    """Map ints to Fraction; leave exact field scalars untouched."""
    if isinstance(x, int):
        return Fraction(x)
    return x


def scalar_sign(x) -> int:
    """Sign (-1, 0, 1) of an exact scalar."""
    if isinstance(x, Fraction):
        return (x > 0) - (x < 0)
    return x.sign()


class Poly:
    """Polynomial sum(c[i] * x**i), immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [coerce_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple = tuple(cs)

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def leading(self):
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def constant(self):
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[0]

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        if self.is_rational() and other.is_rational():
            (x, s), (y, t) = _integer_window(a), _integer_window(b)
            return _over(_convolve(x, y), s * t)
        return Poly(_convolve(a, b))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = coerce_scalar(c)
        return Poly([a * c for a in self.coeffs])

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return pow_by_squaring(self, k, Poly([1]))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        inv_lead = _scalar_inv(other.leading())
        quot = [Fraction(0)] * (dq + 1)
        ob = other.coeffs
        for k in range(dq, -1, -1):
            top = rem[k + len(ob) - 1]
            if not top:
                continue
            q = top * inv_lead
            quot[k] = q
            for i, c in enumerate(ob):
                rem[k + i] = rem[k + i] - q * c
        return Poly(quot), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(_as_poly(other))[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("exact_div with nonzero remainder")
        return q

    # -- calculus and evaluation ------------------------------------------

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        x = coerce_scalar(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_shift(self, a) -> "Poly":
        """p(x + a) by Horner in the polynomial ring."""
        a = coerce_scalar(a)
        acc = Poly()
        xa = Poly([a, 1])
        for c in reversed(self.coeffs):
            acc = acc * xa + Poly([c])
        return acc

    # -- normal forms ------------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = _scalar_inv(self.leading())
        return Poly([c * inv for c in self.coeffs])

    def primitive(self) -> "Poly":
        """self over its content, with positive lead (rational coefficients only)."""
        return _poly_of(_primitive_ints(self))

    def is_rational(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coeffs)


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly([x])


def _scalar_inv(c):
    if isinstance(c, Fraction):
        return Fraction(1) / c
    return c ** (-1)


def _integer_coeffs(polys: Sequence[Poly]) -> list[tuple[int, ...]]:
    """The rational polynomials times the lcm of all their coefficient
    denominators, as integer coefficients, highest degree first, for
    integer Horner evaluation."""
    scale = math.lcm(*(c.denominator for p in polys for c in p.coeffs))
    return [
        tuple(c.numerator * (scale // c.denominator) for c in reversed(p.coeffs))
        for p in polys
    ]


def _integer_window(window: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers x and den > 0, the lcm of the denominators, with window[i] = x[i] / den."""
    den = math.lcm(*(v.denominator for v in window))
    return [v.numerator * (den // v.denominator) for v in window], den


def _common_scale(a: int, b: int) -> tuple[int, int, int]:
    """For positive denominators a and b: L = lcm(a, b), L // a and L // b."""
    L = math.lcm(a, b)
    return L, L // a, L // b


def _jointly_primitive(lists: Sequence[Sequence[int]], sign: int) -> list[Poly]:
    """The integer lists (highest first) over their joint content, negated
    when sign < 0, as Polys: the normal form of a group scaled together."""
    g = math.gcd(*(c for cs in lists for c in cs))
    if sign < 0:
        g = -g
    return [_over([c // g for c in reversed(cs)], 1) for cs in lists]


def pow_by_squaring(x, k: int, one, mul=operator.mul):
    """`one` times x^k, for an int k >= 0, by square-and-multiply under the
    product `mul`; x is squared only while a higher bit of k remains."""
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


def _convolve(x: Sequence, y: Sequence) -> list:
    """The product of two coefficient lists (integers, or any exact scalars),
    in the order given; an entry no pair reaches stays the int 0."""
    out = [0] * (len(x) + len(y) - 1)
    for i, c in enumerate(x):
        if c:
            for j, d in enumerate(y, i):
                out[j] += c * d
    return out


def _over(cs: Sequence[int], scale: int) -> Poly:
    """The Poly of cs[i] / scale, lowest degree first; cs is empty or ends nonzero."""
    p = object.__new__(Poly)
    p.coeffs = tuple(map(Fraction, cs)) if scale == 1 else tuple(Fraction(c, scale) for c in cs)
    return p


def _horner(cs: Sequence[int], m: int) -> int:
    acc = 0
    for c in cs:
        acc = acc * m + c
    return acc


def _int_shift(cs: Sequence[int], a: int) -> list[int]:
    """p(x + a) for the integers cs of p (highest first) and an int a, by
    repeated synthetic division: the Taylor shift, with no scalar leaving Z."""
    out = list(cs)
    for i in range(len(out) - 1):
        for k in range(1, len(out) - i):
            out[k] += a * out[k - 1]
    return out


def _primitive_ints(p: Poly) -> list[int]:
    """p as coprime integers, highest degree first, with the sign of p kept."""
    if not p.is_rational():
        raise TypeError("integer kernels need rational coefficients")
    return _content_free(list(_integer_coeffs((p,))[0]))


def _content_free(a: list[int]) -> list[int]:
    """a without leading zeros, divided by its positive content."""
    while a and not a[0]:
        a = a[1:]
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of a mod b, content-free; [] when b divides a.

    Each step cancels a's lead as a <- m a - t x^k b with m = |lc(b)| / g
    and t = sign(lc(b)) lc(a) / g, where g = gcd(lc(a), |lc(b)|).
    """
    lb, nb = b[0], len(b)
    c = abs(lb)
    while len(a) >= nb:
        top = a[0]
        if top:
            g = math.gcd(top, c)
            m, t = c // g, (top if lb > 0 else -top) // g
            head = [m * x - t * y for x, y in zip(a[1:nb], b[1:])]
            a = head + ([m * x for x in a[nb:]] if m != 1 else a[nb:])
        else:
            a = a[1:]
    return _content_free(a)


def _poly_of(a: list[int]) -> Poly:
    """The Poly of integers a (highest first), negated to a positive lead."""
    return Poly(reversed(a) if not a or a[0] > 0 else [-c for c in reversed(a)])


def _int_gcd(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """A content-free gcd of integer lists (highest first, not both empty),
    of either sign: the primitive pseudo-remainder sequence."""
    x, y = list(x), list(y)
    while y:
        x, y = y, _prem(x, y)
    return _content_free(x)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd (primitive with positive lead when rational)."""
    if a.is_rational() and b.is_rational():
        if a.is_zero() and b.is_zero():
            return Poly()
        return _poly_of(_int_gcd(_primitive_ints(a), _primitive_ints(b)))
    a, b = Poly(a.coeffs), Poly(b.coeffs)
    while not b.is_zero():
        a, b = b, a % b
        if not b.is_zero() and b.is_rational():
            b = b.primitive()
    if a.is_zero():
        return a
    if a.is_rational():
        return a.primitive()
    return a.monic()


# primes below 2^30 for `_gcd_degree_bound`, so that residues stay one-digit ints
_GCD_PRIMES = (1000000007, 998244353, 1000000009)


def _gcd_degree_bound(x: Sequence[int], y: Sequence[int], floor: int = -1) -> int:
    """An upper bound on the degree of gcd(x, y) over Q, for nonzero integer
    lists (highest first), from their Euclidean remainders modulo a prime p
    that divides neither leading coefficient: the degree of the first one at
    most `floor`, or else of the last nonzero one (the gcd mod p).

    The primitive gcd g over Z divides x and y in Z[x] (Gauss's lemma), so
    lc(g) divides lc(x), which p does not divide: g mod p keeps g's degree
    and divides every remainder mod p.  Without such a p among
    `_GCD_PRIMES`, the bound is the smaller degree."""
    p = next((q for q in _GCD_PRIMES if x[0] % q and y[0] % q), None)
    if p is None:
        return min(len(x), len(y)) - 1
    a, b = sorted(([c % p for c in x], [c % p for c in y]), key=len, reverse=True)
    while b and len(b) - 1 > floor:
        inv, nb = pow(b[0], -1, p), len(b)
        while len(a) >= nb:
            c = a[0] * inv % p
            a = [(u - c * v) % p for u, v in zip(a[1:nb], b[1:])] + a[nb:] if c else a[1:]
        while a and not a[0]:
            a = a[1:]
        a, b = b, a
    return len(b) - 1 if b else len(a) - 1


def squarefree_part(cs: Sequence[int]) -> list[int]:
    """The integers cs (highest first) with repeated roots collapsed to
    simple ones, content-free with positive lead."""
    q = _content_free(list(cs))
    g = _int_gcd(q, _derivative(q))
    if len(g) > 1:
        q = _exact_quotient(q, g)
    return [-c for c in q] if q and q[0] < 0 else q


def _derivative(cs: Sequence[int]) -> list[int]:
    """The derivative of the integers cs (highest first), content-free."""
    return _content_free([c * k for c, k in zip(cs, range(len(cs) - 1, 0, -1))])


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer lists, highest first, where b divides a over Z."""
    a, out = list(a), []
    for k in range(len(a) - len(b) + 1):
        out.append(a[k] // b[0])
        for i, c in enumerate(b[1:], k + 1):
            a[i] -= out[-1] * c
    return out
