"""Reading recurrences from text (`render` writes every text form).

The main grammar accepts relations written with explicit sequence terms,

    (n+4)*a(n+2) - (2*n+5)*a(n+1) - 3*(n+1)*a(n) = 0 ; a(0)=1, a(1)=1

with integer and rational literals, n, + - * / ^, parentheses, and either
a(i)=value assignments or bare comma-separated values after the semicolon.
Adjacent factors multiply, so pasted text like (2n+3)(n+1) works.  Shifts
are normalized so the lowest index is a(n); coefficients are cleared to
integer polynomials.

`parse_operator` imports the shift-operator notation instead: a polynomial
in n and N with N*f(n) = f(n+1)*N, e.g. (n+2)^3*N^2 - (2n+3)*(17n^2+51n+39)*N
+ (n+1)^3, annihilating the sequence.

A power is refused, by a ParseError at its '^' and before it is expanded,
when its expansion would pass a limit.  A base of degree d in n raised to
+-k needs d*k <= MAX_POWER_DEGREE (1000), and with largest integer
coefficient c it needs k*ceil(log2 |c|) <= MAX_POWER_BITS (100000): 10^200
and 2^100000 pass, 2^100001 does not.  A shift-operator base of degree e in
N needs e*k * max(1, d*k) <= MAX_POWER_DEGREE.  So does, at its operator,
a product, quotient or sum whose scalar would pass MAX_POWER_DEGREE, and
so does the lcm of the coefficients' denominators that clears the relation.
That lcm is formed on integer lists.  Each new denominator's gcd with it
has its degree bounded modulo a prime first: a bound that puts the lcm
past the limit refuses, and a bound of 0 proves the two coprime, so their
lcm is their product and no exact gcd is taken.

Scalars are `_Frac`s while parsing: unnormalised fractions whose sums and
products take no gcd.  A scalar is normalised only where a decision needs
its canonical form: a constant test, a power's limits, and once per
coefficient of the finished relation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import RatFunc
from .algebra.poly import _convolve, _exact_quotient, _gcd_degree_bound, _int_gcd, _integer_coeffs, _jointly_primitive, pow_by_squaring
from .algebra.ratfunc import _Frac
from .sequences import Recurrence


class ParseError(ValueError):
    """Syntax or structural error in a recurrence text, with a position."""

    def __init__(self, message: str, pos: Optional[int] = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


# -- tokens ---------------------------------------------------------------------

_PUNCT = "()+-*/^=,;"
_MINUS_ALIASES = {"−", "–", "—"}  # pasted dashes read as minus


class _Tok:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind  # "num", "name", one of _PUNCT, or "end"
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Tok]:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _MINUS_ALIASES:
            out.append(_Tok("-", "-", i))
            i += 1
            continue
        if c.isdecimal():  # the digits int() reads; "²" is a digit but not decimal
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(_Tok("num", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Tok("name", text[i:j], i))
            i = j
            continue
        if c in _PUNCT:
            out.append(_Tok(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    out.append(_Tok("end", None, n))
    return out


# -- linear values ----------------------------------------------------------------

MAX_POWER_DEGREE = 1000
MAX_POWER_BITS = 100_000

_ZERO = _Frac((), {})
_ONE = _Frac((1,), {})
_N = _Frac((1, 0), {})


class _Lin:
    """Scalar fraction plus a combination of a(n+k) terms.

    In operator mode the combination is a polynomial in the shift N instead,
    with the scalar slot fused into the N^0 coefficient at the end.
    """

    __slots__ = ("scalar", "terms")

    def __init__(self, scalar: _Frac = _ZERO, terms: Optional[dict] = None):
        self.scalar = scalar
        self.terms = terms or {}

    @property
    def is_scalar(self) -> bool:
        return not self.terms

    def map_terms(self, fn) -> "_Lin":
        return _Lin(fn(self.scalar), {k: fn(v) for k, v in self.terms.items()})


def _den_degree(den: dict) -> int:
    return sum((len(f) - 1) * m for f, m in den.items())


def _bounded(op: str, a: _Frac, b: _Frac, pos: int) -> _Frac:
    """a + b, a * b or a / b (b nonzero) for op "+", "*" or "/", where a
    zero operand gives the other or `_ZERO`.  A result whose numerator or
    expanded denominator would pass degree MAX_POWER_DEGREE is refused at
    `pos` before anything is convolved: a product adds the operands'
    degrees (a quotient crosswise), a sum lifts both to their common den."""
    if not (a.num and b.num):
        return (a if a.num else b) if op == "+" else _ZERO
    an, ad, bn, bd = len(a.num) - 1, _den_degree(a.den), len(b.num) - 1, _den_degree(b.den)
    if op == "+":
        den = _den_degree({**b.den, **{f: max(m, b.den.get(f, 0)) for f, m in a.den.items()}})
        num = max(an - ad, bn - bd) + den
    else:
        num, den = (an + bn, ad + bd) if op == "*" else (an + bd, ad + bn)
    if max(num, den) > MAX_POWER_DEGREE:
        raise ParseError(f"expression too large: its degree would exceed MAX_POWER_DEGREE = {MAX_POWER_DEGREE}", pos)
    return a + b if op == "+" else a * b if op == "*" else a / b


def _add_into(terms: dict, k: int, v: _Frac, pos: int) -> None:
    """terms[k] += v, bounded, with a coefficient that cancels removed."""
    w = _bounded("+", terms.get(k, _ZERO), v, pos)
    if w.num:
        terms[k] = w
    else:
        terms.pop(k, None)


def _lin_add(a: _Lin, b: _Lin, sign: int, pos: int) -> _Lin:
    terms = dict(a.terms)
    for k, v in b.terms.items():
        _add_into(terms, k, v if sign > 0 else -v, pos)
    return _Lin(_bounded("+", a.scalar, b.scalar if sign > 0 else -b.scalar, pos), terms)


def _operator_terms(a: _Lin, pos: int) -> dict:
    """The N-polynomial of an operator-mode value: its scalar part is the
    N^0 coefficient."""
    terms = dict(a.terms)
    _add_into(terms, 0, a.scalar, pos)
    return terms


class _Parser:
    def __init__(self, text: str, operator_mode: bool):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.op_mode = operator_mode

    # token plumbing

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {self._show(t)}", t.pos)
        return self.next()

    def _show(self, t: _Tok) -> str:
        return "end of input" if t.kind == "end" else repr(str(t.value))

    # expression grammar

    def expr(self) -> _Lin:
        acc = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            acc = _lin_add(acc, self.term(), 1 if op.kind == "+" else -1, op.pos)
        return acc

    def term(self) -> _Lin:
        acc = self.factor()
        while True:
            t = self.peek()
            if t.kind in ("*", "/"):
                self.next()
                acc = self._combine(acc, self.factor(), t.kind, t.pos)
            elif t.kind in ("num", "name", "("):
                # adjacency is multiplication
                acc = self._combine(acc, self.factor(), "*", t.pos)
            else:
                return acc

    def factor(self) -> _Lin:
        sign = 1
        while self.peek().kind in ("+", "-"):
            if self.next().kind == "-":
                sign = -sign
        base = self.power()
        return base if sign > 0 else base.map_terms(lambda r: -r)

    def power(self) -> _Lin:
        base = self.atom()
        if self.peek().kind != "^":
            return base
        t = self.next()
        exp = self._int_exponent()
        if base.is_scalar:
            r = base.scalar.normal()
            if exp < 0 and r.is_zero():
                raise ParseError("zero raised to a negative power", t.pos)
            _check_power([r], 0, abs(exp), t.pos)
            return _Lin(_power(r, exp))
        if not self.op_mode:
            raise ParseError("sequence terms cannot be raised to a power", t.pos)
        if exp < 0:
            raise ParseError("shift operators cannot have negative powers", t.pos)
        terms = _operator_terms(base, t.pos)
        _check_power([r.normal() for r in terms.values()], max(terms), exp, t.pos)
        acc = _Lin(_ONE)
        for _ in range(exp):
            acc = self._combine(acc, base, "*", t.pos)
        return acc

    def _int_exponent(self) -> int:
        sign = 1
        if self.peek().kind == "(":
            self.next()
            while self.peek().kind == "-":
                self.next()
                sign = -sign
            v = self.expect("num").value
            self.expect(")")
            return sign * v
        while self.peek().kind == "-":
            self.next()
            sign = -sign
        return sign * self.expect("num").value

    def atom(self) -> _Lin:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return _Lin(_Frac((t.value,) if t.value else (), {}))
        if t.kind == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        if t.kind == "name":
            self.next()
            if t.value == "n":
                return _Lin(_N)
            if t.value == "a" and not self.op_mode:
                return self._seq_term(t.pos)
            if t.value == "N" and self.op_mode:
                return _Lin(terms={1: _ONE})
            raise ParseError(f"unknown symbol {t.value!r}", t.pos)
        raise ParseError(f"expected a value, found {self._show(t)}", t.pos)

    def _seq_term(self, pos: int) -> _Lin:
        self.expect("(")
        arg = self.expr()
        self.expect(")")
        if not arg.is_scalar:
            raise ParseError("nested sequence terms are not supported", pos)
        shift = (arg.scalar - _N).normal()
        if not shift.is_constant():
            raise ParseError("sequence argument must be n plus an integer shift", pos)
        off = shift.constant_value()
        off = Fraction(off)
        if off.denominator != 1:
            raise ParseError("sequence shift must be an integer", pos)
        return _Lin(terms={int(off): _ONE})

    # products, with the Ore rule N*f(n) = f(n+1)*N in operator mode

    def _combine(self, a: _Lin, b: _Lin, op: str, pos: int) -> _Lin:
        if op == "/":
            if not b.is_scalar:
                what = "shift operators" if self.op_mode else "sequence terms"
                raise ParseError(f"cannot divide by {what}", pos)
            if not b.scalar.num:
                raise ParseError("division by zero", pos)
            if self.op_mode and not a.is_scalar and not b.scalar.normal().is_constant():
                raise ParseError(
                    "dividing a shift operator by a function of n is ambiguous; "
                    "clear the denominator by hand",
                    pos,
                )
            return a.map_terms(lambda r: _bounded("/", r, b.scalar, pos))
        if a.is_scalar:
            return b.map_terms(lambda r: _bounded("*", a.scalar, r, pos))
        # in operator mode a non-constant b is an N^0 operator for the Ore product
        if b.is_scalar and (not self.op_mode or b.scalar.normal().is_constant()):
            return a.map_terms(lambda r: _bounded("*", r, b.scalar, pos))
        if not self.op_mode:
            raise ParseError(
                "products of sequence terms are not supported; "
                "the relation must be linear",
                pos,
            )
        out: dict[int, _Frac] = {}
        b_terms = _operator_terms(b, pos)
        for k, q in _operator_terms(a, pos).items():
            for j, r in b_terms.items():
                _add_into(out, k + j, _bounded("*", q, r.shift(k), pos), pos)
        return _Lin(terms=out)

    # initial values

    def initials(self) -> list[Fraction]:
        if self.peek().kind == "end":
            return []
        assigned: dict[int, Fraction] = {}
        bare: list[Fraction] = []
        while True:
            t = self.peek()
            if t.kind == "name" and t.value == "a":
                self.next()
                self.expect("(")
                idx = self.expect("num").value
                self.expect(")")
                self.expect("=")
                if bare:
                    raise ParseError("mixed bare and a(i)= initial values", t.pos)
                if idx in assigned:
                    raise ParseError(f"initial value a({idx}) given twice", t.pos)
                assigned[idx] = self._const_value(t.pos)
            else:
                if assigned:
                    raise ParseError("mixed bare and a(i)= initial values", t.pos)
                bare.append(self._const_value(t.pos))
            if self.peek().kind != ",":
                break
            self.next()
        if assigned:
            want = list(range(len(assigned)))
            if sorted(assigned) != want:
                raise ParseError(
                    "initial values must cover a(0)..a(m) without gaps"
                )
            return [assigned[i] for i in want]
        return bare

    def _const_value(self, pos: int) -> Fraction:
        v = self.expr()
        r = v.scalar.normal() if v.is_scalar else None
        if r is None or not r.is_constant():
            raise ParseError("initial values must be constants", pos)
        return Fraction(r.constant_value())


# -- powers -----------------------------------------------------------------------


def _check_power(coeffs: list, shifts: int, k: int, pos: int) -> None:
    """Refuse base^k past the module's limits, before it is expanded: the
    base has the canonical coefficients `coeffs` (one for a scalar base)
    and degree `shifts` in N."""
    degree = max(max(r.num.degree, r.den.degree) for r in coeffs)
    size = shifts * k * max(1, degree * k) if shifts else degree * k
    if size > MAX_POWER_DEGREE:
        raise ParseError(f"power too large: its degree would exceed MAX_POWER_DEGREE = {MAX_POWER_DEGREE}", pos)
    top = max(abs(c.numerator) for r in coeffs for c in (*r.num.coeffs, *r.den.coeffs))
    if (top - 1).bit_length() * k > MAX_POWER_BITS:
        raise ParseError(f"power too large: its coefficients would exceed MAX_POWER_BITS = {MAX_POWER_BITS} bits", pos)


def _power(r: RatFunc, k: int) -> _Frac:
    """r^k for a canonical rational r and an int k (r nonzero if k < 0)."""
    num, den = _integer_coeffs((r.num, r.den))
    if k < 0:
        num, den, k = den, num, -k
    return _Frac(_expanded(num, k), {} if den == (1,) else {_expanded(den, k): 1})


def _expanded(cs: tuple, k: int) -> tuple:
    """The integer list cs (highest first) to the power k >= 0."""
    return pow_by_squaring(cs, k, (1,), lambda x, y: tuple(_convolve(x, y)))


# -- normalization ----------------------------------------------------------------


def _relation_to_recurrence(
    lin: _Lin, initials: list[Fraction], name: str
) -> Recurrence:
    if not lin.terms:
        raise ParseError("degenerate relation: no sequence terms remain")
    if lin.scalar.num:
        raise ParseError(
            "inhomogeneous relation: constant part "
            "does not cancel and is not supported"
        )
    kmin = min(lin.terms)
    shifted = {k - kmin: (r.shift(-kmin) if kmin else r).normal() for k, r in lin.terms.items()}
    d = max(shifted)
    if d == 0:
        raise ParseError("degenerate relation: only a single shift appears")
    pairs = {k: _integer_coeffs((r.num, r.den)) for k, r in shifted.items()}  # scale 1 on canonical pairs
    den = (1,)
    for _, b in pairs.values():
        if b != den:  # den = lcm(den, b), refused before it is multiplied out
            # the lcm's degree passes the limit when its gcd's degree is below
            # `excess`: a modular bound on that degree below it refuses, and a
            # bound of 0 proves the two coprime, so no exact gcd is taken
            excess = len(den) + len(b) - 2 - MAX_POWER_DEGREE
            bound = _gcd_degree_bound(den, b, max(excess - 1, 0))
            g = _int_gcd(den, b) if bound >= max(excess, 1) else [1]
            if len(g) - 1 < excess:
                raise ParseError(f"relation too large: its cleared denominator's degree would exceed MAX_POWER_DEGREE = {MAX_POWER_DEGREE}")
            den = tuple(_convolve(den, _exact_quotient(b, g) if len(g) > 1 else b))
    polys = {k: a if b == den or not a else _convolve(a, _exact_quotient(den, b)) for k, (a, b) in pairs.items()}
    # p0*a(n+d) on the left, +p_k*a(n+d-k) on the right
    ints = [polys.get(d, [])] + [[-c for c in polys.get(d - k, [])] for k in range(1, d + 1)]
    if not ints[0]:
        raise ParseError("degenerate relation: the highest shift cancels")
    coeffs = _jointly_primitive(ints, ints[0][0])
    try:
        return Recurrence(coeffs, initials, name=name)
    except ValueError as exc:
        raise ParseError(f"missing initials: {exc}") from exc


def _parse(text: str, name: str, operator_mode: bool) -> Recurrence:
    p = _Parser(text, operator_mode)
    lhs = p.expr()
    if p.peek().kind == "=":
        eq = p.next()
        rhs = p.expr()
        lin = _lin_add(lhs, rhs, -1, eq.pos)
    elif operator_mode:
        lin = lhs
    else:
        raise ParseError("expected '=' in the relation", p.peek().pos)
    if operator_mode:  # an N^0 coefficient too large is refused at the relation's end
        lin = _Lin(terms=_operator_terms(lin, p.peek().pos))
    inits: list[Fraction] = []
    if p.peek().kind == ";":
        p.next()
        inits = p.initials()
    tail = p.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {p._show(tail)}", tail.pos)
    return _relation_to_recurrence(lin, inits, name)


def parse_recurrence(text: str, name: str = "") -> Recurrence:
    """Parse a relation in a(n+k) form, with optional initial values."""
    return _parse(text, name, operator_mode=False)


def parse_operator(text: str, name: str = "") -> Recurrence:
    """Import a shift-operator polynomial in n and N annihilating the sequence."""
    return _parse(text, name, operator_mode=True)
