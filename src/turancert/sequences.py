"""P-recursive sequences: exact terms, derived values, range checks.

A recurrence of order d is stored with cleared denominators as

    p0(n) * a(n+d) = p1(n) * a(n+d-1) + ... + pd(n) * a(n),   n >= 0,

with integer-coefficient polynomials and rational initial values
a(0..m), m >= d-1.  Terms are exact, and every stored term is a canonical
`Fraction` (coprime, positive denominator), equal and hash-equal to what
`Fraction` arithmetic gives.

`TermTable.ensure` and `TermTable.decimal_strings` drive one stepper,
`_steps`, on `int` and on `decimal.Decimal` alike: it takes only `+`, `*`,
`divmod`, `%` and exact `//` of the window, and hands `math.gcd` only ints.
When the table is built, the coefficients of p0..pd are scaled by one
common positive integer, which leaves the recurrence unchanged, and each
pk(m) is then an integer Horner sum.  The last d terms are carried as x
over one positive common denominator D.  A step computes
S = p1(m) x(m+d-1) + ... + pd(m) x(m), so a(m+d) = S / (D q), q = p0(m).
While D is 1 it first divides S by q with remainder, and a zero remainder
makes the quotient the term, exactly and whatever the sign of q, with no
gcd at all: an integer sequence keeps D = 1 and one division per term.
Order 1 carries the reduced term x/D itself, and a prime common to p1(m) x
and D q divides p1(m) (if it divides D, since x/D is reduced) or q (if
not), so the term is reduced by one gcd on residues mod |p1(m) q|.  Order
d >= 2 divides S and q by g = gcd(S mod q, q), with the sign of q so that
D stays positive, and, when q/g is not 1, scales the window and D by it.
The term S/D is then reduced against a kernel K: a divisor of D that every
prime of D divides, carried beside D.  When a step scales D by q, K gains
t, the part of q coprime to K.  The reduction sets h = gcd(S, K), and while
h > 1 divides the numerator and D by h and sets h = gcd(num mod h, h), then
gcd(D mod h, h) while that is still above 1; a prime they still share
divides every h so far, so the loop ends with them coprime.  K grows like
the product of the primes of the p0 values (about 4.2k bits for
involutions at n = 3000), while D grows like the product of the values
themselves (about 29.5k bits) and S like the terms' numerators (about
14.5k bits).  So the window's residues x mod K are carried too, and every
gcd operand has K's size: S mod K is the small-coefficient sum of those
residues, and gcd(S, K) = gcd(S mod K, K).  The new residue (S / g) mod K
cannot come through an inverse of g, whose primes may divide K, so it is
S mod gK divided by g, where S mod gK joins by CRT S mod g K_g, for K_g
the part of K over g's primes, taken as one division of S by a small
modulus, with (S mod K) mod (K / K_g).  When K gains t, a scaled x q is 0
mod t, so its residue mod Kt is t (x (q/t) mod K), and the new residue
joins S mod t by CRT.  While D is 1, K is 1 and every residue is 0.  That
state lives only in the suspended `_steps` generator the table keeps, so
filling one index at a time resumes it.  `ensure` builds it from the last
d stored terms at the first step, past the initial values or a loaded
cache; K is then the gcd with D of a product built, as the steps build K,
from the initial state's denominator and |p0(m)| over every stepped m,
since each prime of a stored denominator comes from one or the other.  A
vanishing p0(m) among them, which only a cache file can hold terms past,
is a `SingularRecurrenceError`, as it is to a stepped table, and each
later `ensure` raises it again.  `decimal_strings`, which `terms` renders,
feeds the stepper decimal copies of the initial state, in `_EXACT_DECIMAL`,
whose precision and exponent range are the largest there are and which
traps `Inexact` and `Rounded`, and it reads and fills no binary term.  The
decimals stay integers with exponent 0, so `str` writes them exactly as
`str(int)` does, but in time linear in the digit count rather than
quadratic, as `str(int)` takes on CPython 3.11; a zero is normalised to
`Decimal(0)`, since a decimal zero carries a sign and would print as "-0".
At the first term whose numerator or denominator has more digits than
`sys.get_int_max_str_digits()` allows, it raises the `ValueError` of
`str(int)` on the numerator, then on the denominator, as `frac_str` of the
term would, and steps no term past it.

The disk cache (`CACHE_MAGIC` "TCTERMS2") holds every known term as
length-prefixed big-endian signed numerator and denominator, followed by
the SHA-256 of those entries.  It is rewritten whole and swapped in with
`os.replace`.  A load checks the digest and then builds each pair as an
already reduced `Fraction` without another gcd; a digest mismatch, a
truncated entry or a denominator <= 0 is a `CacheError`.  A file in the
older "TCTERMS1" format, which has no digest, is read as a cache miss and
rewritten by the next flush.

Every finite check on the terms is the sign of a homogeneous form on a
window of consecutive terms, taken on a(n) or on a(n)/n!.  Only `windows`
makes those windows: integers, scaled on integers, yielded with the
positive denominator they stand over, and built in one loop that reads
one term per index and slides the window whenever the entering
denominator is a multiple of the last lcm, as it always is for integer
terms.  Only `phi_values` reads that denominator, and only it needs the
factorial the `factorial` scaling divides by, which it steps itself; it
reduces each iterated value against a kernel of the primes of that
denominator times the factorial, carried across windows beside the power
the value stands over.
`FORMS` names each scanned form with its window length;
`check_inequality_range` scans one, `turan3_sign` and `logconcave_sign`
are one-window scans, `phi_values` iterates phi on the windows, and
`_escape` compares a quotient of terms with bounds p/q on them for
`certify`: u_n by the form q a(n-1)a(n+1) - p a(n)^2 (`first_escape`),
and a(n)/a(n-1) by q a(n-1)a(n) - p a(n-1)^2 over the base window of the
ratio induction.  Both read a(n), as containment is scale-free: a(n)/n!
multiplies the quotient by F(n) = n/(n+1) (1/n for the ratio), positive
with no zero or pole at n >= 1, so it lies in [g F, f F] exactly when it
lies in [g, f], and g F has a pole where g has.  No other module reads `PREC` or calls `windows`.  For
an order-1 recurrence, a(n+1) = R(n) a(n), u_n is the rational function
R(n)/R(n-1) of n, so `first_escape` scans windows only up to a threshold
H from root counts and decides every later index by the sign of that
function against the bounds.

A homogeneous form keeps its sign when the window is multiplied by a
positive number, so a sign needs no denominator.  `_form_sign` takes the
integer window x from `windows` and divides it by 2^s, where s is the
largest bit length minus `PREC`.
Since `>>` floors (negative x included), x / 2^s = t + delta with
t = x >> s and each delta in [0, 1).  Each `FORMS` function returns the
form's value at t and an integer radius bounding |F(t + delta) - F(t)|
for every such delta, built from the form's factors: a bound summed over
its expanded monomials sends over half of involutions' factorial-scaled
windows to the exact path.  When |F(t)| exceeds the radius, F(x / 2^s),
which has the sign of F(x), has the sign of F(t): one evaluation on
`PREC`-bit operands instead of tens of thousands of bits.  Otherwise, and
for windows shorter than `PREC` bits, the form is evaluated exactly on x.
No floats are involved, so the answer never depends on the truncation.
"""

from __future__ import annotations

import decimal
import math
import os
import struct
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import chain, count, islice
from typing import Callable, Iterator, Optional, Sequence

from .algebra import Poly, RatFunc, eventual_positivity_threshold, no_roots_above, sign_at_infinity
from .algebra.poly import _horner, _integer_coeffs, _integer_window

CACHE_MAGIC = b"TCTERMS2"
_STALE_MAGIC = b"TCTERMS1"  # the format before the digest: a cache miss
_DIGEST_SIZE = 32  # sha256; hashlib loads only where a term cache is read or written
# exact integer arithmetic in decimal: any rounding raises
_EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.InvalidOperation,
        decimal.DivisionByZero,
        decimal.Overflow,
        decimal.Inexact,
        decimal.Rounded,
    ],
)


class CacheError(RuntimeError):
    """Raised when a term-cache file cannot be decoded."""


class SingularRecurrenceError(ZeroDivisionError):
    """The leading coefficient p0 vanishes where the recurrence must advance."""


class Recurrence:
    """Linear recurrence with polynomial coefficients and initial values."""

    __slots__ = ("coeffs", "initials", "name")

    def __init__(
        self,
        coeffs: Sequence[Poly],
        initials: Sequence,
        name: str = "",
    ):
        coeffs = tuple(c if isinstance(c, Poly) else Poly(c) for c in coeffs)
        if len(coeffs) < 2:
            raise ValueError("recurrence needs order >= 1 (p0 and at least p1)")
        if coeffs[0].is_zero():
            raise ValueError("leading coefficient p0 must be nonzero")
        for c in coeffs:
            if not c.is_rational():
                raise ValueError("recurrence coefficients must be rational polynomials")
        initials = tuple(Fraction(v) for v in initials)
        d = len(coeffs) - 1
        if len(initials) < d:
            raise ValueError(f"order {d} needs at least {d} initial values")
        self.coeffs = coeffs
        self.initials = initials
        self.name = name

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if isinstance(other, Recurrence):
            return self.coeffs == other.coeffs and self.initials == other.initials
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs, self.initials))

    def __repr__(self) -> str:
        return f"Recurrence(order={self.order}, name={self.name!r})"

    def cache_key(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for c in self.coeffs:
            h.update(repr([(q.numerator, q.denominator) for q in c.coeffs]).encode())
            h.update(b"|")
        h.update(repr([(q.numerator, q.denominator) for q in self.initials]).encode())
        return h.hexdigest()[:24]

    def residual(self, window: Sequence[Fraction], n: int) -> Fraction:
        """p0(n)a(n+d) - sum pk(n)a(n+d-k) for window = a(n)..a(n+d)."""
        d = self.order
        acc = self.coeffs[0].eval(n) * window[d]
        for k in range(1, d + 1):
            acc -= self.coeffs[k].eval(n) * window[d - k]
        return acc


def _singular(m: int) -> SingularRecurrenceError:
    return SingularRecurrenceError(f"leading coefficient vanishes at n={m}; cannot advance")


def _encode_int(v: int) -> bytes:
    raw = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
    return struct.pack(">I", len(raw)) + raw


def _reduced(num: int, den: int) -> Fraction:
    """The Fraction num/den for coprime num and den > 0, built without a gcd."""
    v = object.__new__(Fraction)
    v._numerator = num
    v._denominator = den
    return v


def _coprime_part(q: int, k: int) -> int:
    """The largest divisor of q > 0 that is coprime to k."""
    c = math.gcd(q, k)
    while c > 1:
        q //= c
        c = math.gcd(q, c)
    return q


def _steps(coeffs: tuple, m: int, xs: list, den, ker: int, rs: list[int]) -> Iterator[tuple]:
    """Yield (num, rd) for a(m+d), a(m+d+1), ...: each term num / rd,
    reduced with rd > 0, stepped from the window a(m..m+d-1) = xs / den
    and, for order d >= 2, the kernel ker of den with the residues
    rs = xs mod ker (see the module docstring); order 1 reads neither.  xs
    and den are ints, or `Decimal`s under `_EXACT_DECIMAL`, and num and rd
    keep their type; ker, rs and every gcd operand are ints.

    Order 1 carries the reduced term x/D = a(m), and a(m+1) = c x / (D q)
    for c = p1(m), q = p0(m) != 0.  Lemma: gcd(c x, D q) divides c q.
    Proof: take a prime p and e = v_p(gcd(c x, D q)).  If p divides D, it
    does not divide x, since x/D is reduced, so e <= v_p(c x) = v_p(c).
    Otherwise e <= v_p(D q) = v_p(q).  Either way e <= v_p(c q).  So
    h = gcd(c x, D q) = gcd(c x mod |c q|, D q mod |c q|, |c q|), and the
    term is (c x / h) / (D q / h) with h taking the sign of q; when c q = 0,
    c = 0 and the term is 0.
    """
    p0, ps = coeffs  # ps = pd .. p1, against the window
    d = len(ps)
    integral = den == 1  # while D is 1, try the exact quotient first
    for m in count(m):
        q = _horner(p0, m)
        if q == 0:
            raise _singular(m)
        s = 0
        for pk, x in zip(ps, xs):
            s += _horner(pk, m) * x
        if integral:
            t, r = divmod(s, q)
            if not r:  # an exact quotient, whatever the sign of q
                xs = xs[1:]
                xs.append(t)
                yield t, den
                continue
        if d == 1:
            cq = abs(_horner(ps[0], m) * q)
            if not cq:
                num, rd = s, s + 1  # s = 0, and rd = 1 in den's type
            else:
                h = math.gcd(int(s % cq), int(den % cq) * q % cq, cq)
                if q < 0:
                    h = -h
                num, rd = s // h, den * q // h
            xs, den = [num], rd
            integral = rd == 1
            yield num, rd
            continue
        # a(m+d) = s / (den * q); keep den > 0 by dividing with q's sign
        integral = False
        g = math.gcd(int(s % q), q)
        r = 0
        for pk, x in zip(ps, rs):
            r += _horner(pk, m) * x
        if g > 1:
            # s mod gK by CRT on g K_g, for K_g the part of K over g's
            # primes, and rest = K / K_g; then (s / g) mod K
            rest = _coprime_part(ker, g)
            mg = ker // rest * g
            r %= rest
            r = (r + rest * ((int(s % mg) - r) * pow(rest, -1, mg) % mg)) // g
        r = (-r if q < 0 else r) % ker
        if q < 0:
            g = -g
        s //= g
        q //= g
        t = 1
        if q == 1:
            xs, rs = xs[1:], rs[1:]
        else:
            xs = [x * q for x in xs[1:]]
            den *= q
            t = _coprime_part(q, ker)  # K gains t, the part of q coprime to it
            # x q mod Kt is t (x (q / t) mod K)
            rs = [t * (x * (q // t) % ker) for x in rs[1:]]
        xs.append(s)
        # s mod Kt by CRT
        rs.append(r + ker * ((int(s % t) - r) * pow(ker, -1, t) % t) if t > 1 else r)
        ker *= t
        # a prime that num and rd still share divides every h so far
        num, rd, h = s, den, math.gcd(rs[-1], ker)
        while h > 1:
            num //= h
            rd //= h
            h = math.gcd(int(num % h), h)
            if h > 1:
                h = math.gcd(int(rd % h), h)
        yield num, rd


class TermTable:
    """Exact terms of a recurrence with optional disk persistence."""

    def __init__(self, rec: Recurrence, cache_dir: Optional[str] = None):
        self.rec = rec
        self.cache_dir = cache_dir
        self._vals: list[Fraction] = list(rec.initials)
        self._persisted = 0
        p0, *ps = _integer_coeffs(rec.coeffs)
        self._coeffs = (p0, ps[::-1])  # p0, then pd .. p1 against the window
        # the suspended `_steps` that yields the next term, or None
        self._stepper: Optional[Iterator[tuple]] = None
        self.expansions: dict = {}  # (recurrence, rho) -> state kept by ratio_expansion
        self.u_bounds: dict = {}  # order -> (rb, ub) kept by certify_u_bounds
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
            self._load()

    # -- cache ----------------------------------------------------------

    def _path(self) -> str:
        return os.path.join(self.cache_dir, f"{self.rec.cache_key()}.terms")

    def _load(self) -> None:
        path = self._path()
        if not os.path.exists(path):
            return
        with open(path, "rb") as fh:
            blob = fh.read()
        head = blob[: len(CACHE_MAGIC)]
        if head == _STALE_MAGIC:
            return
        if head != CACHE_MAGIC:
            raise CacheError(f"bad cache header in {path}")
        import hashlib

        end = len(blob) - _DIGEST_SIZE
        view = memoryview(blob)
        if end < len(CACHE_MAGIC) or (
            hashlib.sha256(view[len(CACHE_MAGIC) : end]).digest() != blob[end:]
        ):
            raise CacheError(f"cache digest mismatch in {path}")
        vals: list[Fraction] = []
        pos = len(CACHE_MAGIC)
        try:
            while pos < end:
                nums = []
                for _ in range(2):
                    (ln,) = struct.unpack_from(">I", view, pos)
                    pos += 4
                    if ln == 0 or pos + ln > end:
                        raise CacheError(f"truncated cache entry in {path}")
                    nums.append(int.from_bytes(view[pos : pos + ln], "big", signed=True))
                    pos += ln
                if nums[1] <= 0:
                    raise CacheError(f"denominator {nums[1]} at index {len(vals)} in {path}")
                vals.append(_reduced(nums[0], nums[1]))
        except struct.error as exc:
            raise CacheError(f"corrupt cache file {path}: {exc}") from None
        # sanity: cached prefix must agree with the declared initial values
        for i, v in enumerate(self.rec.initials):
            if i < len(vals) and vals[i] != v:
                raise CacheError(f"cache/initials mismatch at index {i} in {path}")
        if len(vals) > len(self._vals):
            self._vals = vals
        self._persisted = len(vals)

    def flush(self) -> None:
        """Rewrite the cache file with every known term, if any are new.

        The table goes to a temporary file in the cache directory that then
        replaces the cache file in one `os.replace`, so a reader sees the old
        file or the new one, and two writers never interleave entries.  The
        temporary file is created with mode 0o666 under the umask, as `open`
        would create the cache file itself."""
        if not self.cache_dir or len(self._vals) <= self._persisted:
            return
        import hashlib

        path = self._path()
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0)
        fd = os.open(tmp, flags, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(CACHE_MAGIC)
                digest = hashlib.sha256()
                for v in self._vals:
                    for x in (v.numerator, v.denominator):
                        raw = _encode_int(x)
                        digest.update(raw)
                        fh.write(raw)
                fh.write(digest.digest())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        self._persisted = len(self._vals)

    # -- terms -----------------------------------------------------------

    def _window_state(self, vals: Sequence[Fraction]) -> tuple:
        """(xs, D, K, xs mod K) for the last d of `vals`, the first terms of
        the table, with K rebuilt from the initial denominator and the
        stepped p0(m) as the module docstring says."""
        p0 = self._coeffs[0]
        d = self.rec.order
        xs, den = _integer_window(vals[-d:])
        ker = den
        if d > 1 and den > 1:
            # den's primes divide the initial denominator or a p0(m); K | D
            ker = _integer_window(self.rec.initials[-d:])[1]
            for m in range(len(self.rec.initials) - d, len(vals) - d):
                q = _horner(p0, m)
                if q == 0:  # a loaded table can hold terms past it
                    raise _singular(m)
                ker *= _coprime_part(abs(q), ker)
            ker = math.gcd(ker, den)
        return xs, den, ker, [x % ker for x in xs]

    def ensure(self, n: int) -> None:
        vals = self._vals
        if len(vals) > n:
            return
        # _vals grows only by `_load`, from __init__ before any step, and
        # here, so a live stepper always yields a(len(_vals)) next
        if self._stepper is None:
            self._stepper = _steps(self._coeffs, len(vals) - self.rec.order, *self._window_state(vals))
        try:
            for num, rd in islice(self._stepper, n + 1 - len(vals)):
                vals.append(_reduced(num, rd))
        except BaseException:  # a raise closed the stepper: the next call rebuilds it
            self._stepper = None
            raise

    def decimal_strings(self, hi: int) -> list[str]:
        """`str` of a(0..hi), written from exact decimals that `_steps`
        gives from the initial values; the table is neither read nor filled.
        Raises the int-to-str `ValueError` at the first term whose numerator
        or denominator has more digits than the limit."""
        limit = sys.get_int_max_str_digits()
        initials = self.rec.initials
        xs, den, ker, rs = self._window_state(initials)
        out = []
        with decimal.localcontext(_EXACT_DECIMAL):
            heads = [(Decimal(v.numerator), Decimal(v.denominator)) for v in initials]
            steps = _steps(self._coeffs, len(initials) - self.rec.order,
                           [Decimal(x) for x in xs], Decimal(den), ker, rs)
            for num, rd in islice(chain(heads, steps), hi + 1):
                if not num:
                    num = Decimal(0)  # not -0
                # an integer decimal has adjusted() + 1 digits
                if limit and max(num.adjusted(), rd.adjusted()) >= limit:
                    str(int(num))  # raises the ValueError that frac_str would,
                    str(int(rd))  # on the numerator first
                out.append(str(num) if rd == 1 else f"{num}/{rd}")
        return out

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise IndexError("negative index")
        self.ensure(n)
        return self._vals[n]

    def values(self, lo: int, hi: int) -> list[Fraction]:
        if lo < 0:
            raise IndexError("negative index")
        if hi < lo:
            return []
        self.ensure(hi)
        return self._vals[lo : hi + 1]

    def __len__(self) -> int:
        return len(self._vals)


# -- derived values ---------------------------------------------------------

def check_scaling(scaling: str) -> None:
    if scaling not in ("none", "factorial"):
        raise ValueError(f"unknown scaling {scaling!r}; expected one of ('none', 'factorial')")


def u_value(table: TermTable, n: int) -> Fraction:
    """u_n = a(n-1)a(n+1)/a(n)^2 (for a(n)/n!, u_n n/(n+1))."""
    an = table.value(n)
    if an == 0:
        raise ZeroDivisionError(f"a({n}) = 0")
    return table.value(n - 1) * table.value(n + 1) / (an * an)


PREC = 128  # bits kept per window entry by the sign filter


def _turan3_form(w) -> tuple:
    """4AB - C^2 at w, for A = w1^2 - w0w2, B = w2^2 - w1w3, C = w1w2 - w0w3,
    and a radius bounding its move when each entry grows by some delta in
    [0, 1): A, B, C move by at most e_A, e_B, e_C, so 4AB by
    4(|A|e_B + |B|e_A + e_A e_B) and C^2 by (2|C| + e_C) e_C."""
    w0, w1, w2, w3 = w
    a, b, c = w1 * w1 - w0 * w2, w2 * w2 - w1 * w3, w1 * w2 - w0 * w3
    m0, m1, m2, m3 = abs(w0), abs(w1), abs(w2), abs(w3)
    ea, eb, ec = 2 * m1 + m0 + m2 + 2, 2 * m2 + m1 + m3 + 2, m0 + m1 + m2 + m3 + 2
    return 4 * a * b - c * c, 4 * (abs(a) * eb + abs(b) * ea + ea * eb) + (2 * abs(c) + ec) * ec


def _logconcave_form(w) -> tuple:
    """w1^2 - w0w2 at w, and e_A, which bounds its move as in `_turan3_form`."""
    w0, w1, w2 = w
    return w1 * w1 - w0 * w2, 2 * abs(w1) + abs(w0) + abs(w2) + 2


def _form_sign(form: Callable, xs: Sequence[int]) -> int:
    """Sign of the homogeneous `form` at the integer window `xs`, decided on
    the PREC-bit truncation when its value there is larger than its radius."""
    s = max(x.bit_length() for x in xs) - PREC
    if s > 0:
        val, radius = form([x >> s for x in xs])
        if abs(val) > radius:
            return 1 if val > 0 else -1
    val = form(xs)[0]
    return (val > 0) - (val < 0)


FACTORIAL_FACTOR = RatFunc(Poly([0, 1]), Poly([1, 1]))  # u_n of a_n/n! is u_n of a_n times this


def scale_window(g: RatFunc, f: RatFunc, scaling: str, undo: bool = False) -> tuple:
    """A u_n window (g, f) of a(n) as one of b(n) = a(n)/n! under `factorial`
    (both times `FACTORIAL_FACTOR`), or with `undo` one of b(n) as one of a(n)."""
    check_scaling(scaling)
    if scaling == "none":
        return g, f
    return (g / FACTORIAL_FACTOR, f / FACTORIAL_FACTOR) if undo else (g * FACTORIAL_FACTOR, f * FACTORIAL_FACTOR)


def first_escape(table: TermTable, g: RatFunc, f: RatFunc, lo: int, hi: int) -> Optional[int]:
    """First n in [lo, hi] with u_n outside [g(n), f(n)], or None (`_escape`
    with k = 3).  u_n is that of a(n), since containment is scale-free: a
    window on the u_n of a(n)/n! is divided by `FACTORIAL_FACTOR` first.

    An order-1 table runs `_escape` on [lo, min(hi, H)] only, for H from
    `_order1_tail_start`.  With a(n+1) = R(n) a(n), R = p1/p0, and L
    initial values, H >= L, H bounds the real roots of p0(n-1), p1(n-1),
    g.den and f.den, and H bounds the eventual positivity thresholds of
    Q - g and f - Q, for Q(n) = R(n)/R(n-1).  Take n > H.  a(n-1..n+1)
    come from the recurrence, and no p0(m) with m >= H vanishes, so no
    `SingularRecurrenceError` is skipped.  a(n) != 0: a(H) != 0 (the head
    checked it, or a(lo-1) != 0 when H < lo), and no p1(m) with m >= H
    vanishes.  Neither bound has a pole at n.  So u_n = Q(n), strictly
    inside [g(n), f(n)].  Every index is decided exactly, the head by the
    window kernel and the tail by root counts.
    """
    if table.rec.order == 1 and 1 <= lo <= hi:
        hi = min(hi, _order1_tail_start(table, g, f, lo, hi))
    return _escape(table, g, f, lo, hi, 3)


def _order1_tail_start(table: TermTable, g: RatFunc, f: RatFunc, lo: int, hi: int) -> int:
    """The H of `first_escape` for an order-1 table, or hi (the full scan)
    when p1 = 0, a(lo-1) = 0, or Q - g or f - Q is not positive at infinity."""
    p0, p1 = table.rec.coeffs
    if not p1 or not table.value(lo - 1):
        return hi
    p0s, p1s = p0.compose_shift(-1), p1.compose_shift(-1)  # p0(n-1), p1(n-1)
    q = RatFunc(p1 * p0s, p0 * p1s)
    diffs = (q - g, f - q)
    if any(sign_at_infinity(r) <= 0 for r in diffs):
        return hi
    return max(len(table.rec.initials), *map(eventual_positivity_threshold, diffs),
               *map(no_roots_above, (p0s, p1s, g.den, f.den)))


def _escape(table: TermTable, g: RatFunc, f: RatFunc, lo: int, hi: int, k: int) -> Optional[int]:
    """First n in [lo, hi] with Q_n = x[0] x[-1] / x[-2]^2 outside
    [g(n), f(n)], or None, for x the integer window of a(n-1..n+k-2) from
    `windows`, unscaled since containment is scale-free: Q_n is a(n)/a(n-1)
    for k = 2 (A = x0 x1, B = x0^2) and u_n for k = 3 (A = x0 x2,
    B = x1^2).  The window is closed and decided exactly: g and f become
    integer coefficients once, each bound is p/q at n by integer Horner
    with q > 0, and Q_n - p/q has the sign of q A - p B.  As in
    `_form_sign`, x / 2^s = t + delta for t = x >> s, each delta in [0, 1),
    so q A - p B at t moves by at most q(|t[0]| + |t[-1]| + 1) +
    |p|(2|t[-2]| + 1) (`_window_products`); a bound is decided on t when
    its value there exceeds that radius in size, and A, B are multiplied
    out exactly only when one is not.  A pole of g or f (q = 0), or
    x[-2] = 0, which leaves Q_n undefined, counts as an escape.  Terms are
    filled lazily: checking n needs a(n+k-2) and nothing beyond it, so an
    order-1 `first_escape` fills none past a(H+1).
    """
    (gp, gq), (fp, fq) = (_integer_coeffs((r.num, r.den)) for r in (g, f))
    for n, (xs, _) in enumerate(windows(table, lo - 1, hi - 1, k), lo):
        x0, x1, x2 = xs[0], xs[-2], xs[-1]
        lp, lq, up, uq = _horner(gp, n), _horner(gq, n), _horner(fp, n), _horner(fq, n)
        if not (x1 and lq and uq):
            return n
        if lq < 0:
            lp, lq = -lp, -lq
        if uq < 0:
            up, uq = -up, -uq
        s = max(x0.bit_length(), x1.bit_length(), x2.bit_length()) - PREC
        if s > 0:
            a, b, ea, eb = _window_products(x0 >> s, x1 >> s, x2 >> s)
            lv, lr = lq * a - lp * b, lq * ea + abs(lp) * eb
            uv, ur = uq * a - up * b, uq * ea + abs(up) * eb
            if lv < -lr or uv > ur:  # Q_n < g(n) or Q_n > f(n) on t alone
                return n
            if lv > lr and uv < -ur:
                continue
        a, b, _, _ = _window_products(x0, x1, x2)
        if lq * a < lp * b or uq * a > up * b:
            return n
    return None


def _window_products(w0: int, w1: int, w2: int) -> tuple:
    """A = w0 w2 and B = w1^2 for the entries x[0], x[-2], x[-1] of a
    window, each with a radius that bounds how far it moves when every
    entry grows by some delta in [0, 1); for k = 2, w0 and w1 are one entry."""
    return w0 * w2, w1 * w1, abs(w0) + abs(w2) + 1, 2 * abs(w1) + 1


def windows(
    table: TermTable, lo: int, hi: int, k: int, scaling: str = "none"
) -> Iterator[tuple[list[int], int]]:
    """Yield (xs, den) for each window a(i..i+k-1), i = lo..hi, scaled.

    xs are integers and den > 0, with the scaled term at i+j equal to
    xs[j] / (den f): a(i+j) itself with f = 1, or a(i+j)/(i+j)! under
    `factorial` with f = (i+k-1)!.  den is the lcm of the window's
    denominators.  Under `factorial` the cleared window is multiplied by
    (i+k-1)!/(i+j)!, a product of small ints; f itself is left to the
    caller, since a sign scan reads xs only.

    One loop reads a(j), j = lo .. hi+k-1, into the window of a(j-k+1..j)
    (from a(lo) while it fills) and yields it once it holds k terms.  When
    the entering denominator d is m den, or while the window fills, with
    m = d / gcd(den, d), the window slides to its new lcm den m: the oldest
    entry leaves a full window, the rest are multiplied by m (and by j under
    `factorial`), and the entering numerator is scaled to den m.  A full
    window is otherwise cleared afresh, since the leaving term may alone
    have held a factor of den.  Each yielded window is a new list, and a
    scan that stops early computes no term past its last window.
    """
    check_scaling(scaling)
    factorial = scaling == "factorial"
    xs, den = [], 1
    for j in range(lo, hi + k):
        v = table.value(j)
        m, r = divmod(v.denominator, den)
        if r and len(xs) == k:  # den may keep a factor of the leaving term alone
            i = j - k + 1
            xs, den = _integer_window(table.values(i, j))
            if factorial:
                m = 1  # j! / (i + t)!
                for t in range(k - 1, -1, -1):
                    xs[t] *= m
                    m *= i + t
        else:
            e = 1  # den m / d, the entering numerator's factor
            if r:  # a filling window holds every term read: its lcm is lcm(den, d)
                g = math.gcd(den, v.denominator)
                m, e = v.denominator // g, den // g
            den *= m
            if factorial:
                m *= j
            kept = xs[1:] if len(xs) == k else xs
            xs = [x * m for x in kept] if m > 1 else kept
            xs.append(v.numerator * e)
        if len(xs) == k:
            yield xs, den


# predicate -> (window length, form giving (value, radius)); the window at n
# starts at a(n-1)
FORMS: dict[str, tuple[int, Callable]] = {
    "turan3": (4, _turan3_form),
    "log-concave": (3, _logconcave_form),
}


def check_inequality_range(
    table: TermTable,
    predicate: str,
    lo: int,
    hi: int,
    scaling: str = "none",
) -> list[int]:
    """Indices in [lo, hi] where the named inequality fails, that is, where
    its form is not strictly positive.  The window at n starts at a(n-1),
    so lo must be at least 1."""
    if predicate not in FORMS:
        raise ValueError(f"unknown predicate {predicate!r}")
    if lo < 1:
        raise ValueError(f"the window at n = {lo} needs a({lo - 1}); scans start at n = 1")
    k, form = FORMS[predicate]
    scan = windows(table, lo - 1, hi - 1, k, scaling)
    return [n for n, (xs, _) in enumerate(scan, lo) if _form_sign(form, xs) <= 0]


def _sign_at(predicate: str, table: TermTable, n: int, scaling: str) -> int:
    k, form = FORMS[predicate]
    ((xs, _),) = windows(table, n - 1, n - 1, k, scaling)
    return _form_sign(form, xs)


def turan3_sign(table: TermTable, n: int, scaling: str = "none") -> int:
    """Sign of the degree-3 Turan form at n on the scaled sequence."""
    return _sign_at("turan3", table, n, scaling)


def logconcave_sign(table: TermTable, n: int, scaling: str = "none") -> int:
    """Sign of a_n^2 - a_{n-1} a_{n+1} on the scaled sequence."""
    return _sign_at("log-concave", table, n, scaling)


def phi_values(
    table: TermTable, level: int, lo: int, hi: int, scaling: str = "none"
) -> list[Fraction]:
    """Values of the k-fold iterate of phi{a}_n = a_{n+1}^2 - a_n a_{n+2}.

    Returns the exact level-`level` values on indices lo..hi as reduced
    Fractions; the `factorial` scaling divides a(n) by n! before the first
    level.  The value at n depends on the window a(n..n+2 level) only: phi
    is iterated on its integers xs from `windows`, without a gcd, and the
    result N / P, for P = (den f)^(2^level), with f = (n + 2 level)! under
    `factorial` and f = 1 otherwise, is reduced once at the end against a
    kernel K of den f, carried across windows with P.

    Every prime of den f divides K.  When `windows` yields a den that is a
    multiple m of the last, den f is the last one times m step, where step
    = n + 2 level under `factorial` and 1 otherwise, so K gains
    `_coprime_part(m step, K)` and P is multiplied by (m step)^(2^level);
    otherwise K and P restart from den f.  After a restart K is den f, and
    after a growth a prime of den f divides the last den f, so the last K,
    or m step, so it divides the new K either way.

    For N != 0, h = gcd(N mod K, K) = gcd(N, K) holds exactly the primes of
    den f that divide N.  The doubling h <- gcd(N mod h^2, h^2) keeps h | N
    and h's primes and never lowers h, so it stops; at its fixed point, for
    each prime p of h, min(v_p(N), 2 v_p(h)) = v_p(h), so v_p(h) = v_p(N):
    h is N's whole part over those primes.  Then c = gcd(P mod h, h) has
    v_p(c) = min(v_p(N), v_p(P)) at every prime of h, and v_p of
    gcd(N, P) is 0 at every other p, since p divides N and den f only if it
    divides h.  So c = gcd(N, P), and one division of N and P by c leaves
    them coprime, over P / c > 0.  A zero N gives 0/1.  Every gcd operand is
    then K, m step, h^2 or h, and none has a quarter of den f's bits on the
    motzkin and involutions windows of [0, 600].
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if lo < 0:
        raise ValueError(f"phi values from n = {lo} need a({lo}); indices start at 0")
    out = []
    k, e, f, step, last = 2 * level + 1, 1 << level, 1, 1, 0
    for n, (xs, den) in enumerate(windows(table, lo, hi, k, scaling), lo):
        if scaling == "factorial":  # f = (n + k - 1)!, one factor more per step
            step = n + k - 1
            f = f * step if n > lo else math.factorial(step)
        m, r = divmod(den, last) if last else (0, 1)
        last = den
        if r:  # restart from den f
            ker = den * f
            power = ker**e
        elif m * step > 1:  # den f grew by m step
            ker *= _coprime_part(m * step, ker)
            power *= (m * step) ** e
        for _ in range(level):
            xs = [xs[i + 1] * xs[i + 1] - xs[i] * xs[i + 2] for i in range(len(xs) - 2)]
        num = xs[0]
        if not num:
            out.append(_reduced(0, 1))
            continue
        h, g = 0, math.gcd(num % ker, ker)
        while g != h:  # N's whole part over the primes of gcd(N, K)
            h, hh = g, g * g
            g = math.gcd(num % hh, hh)
        c = math.gcd(power % h, h)
        out.append(_reduced(num // c, power // c) if c > 1 else _reduced(num, power))
    return out
