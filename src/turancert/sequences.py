"""P-recursive sequences: exact terms, derived values, range checks.

A recurrence of order d is stored with cleared denominators as

    p0(n) * a(n+d) = p1(n) * a(n+d-1) + ... + pd(n) * a(n),   n >= 0,

with integer-coefficient polynomials and rational initial values
a(0..m), m >= d-1.  Terms are exact Fractions; integer-valued sequences
stay integral automatically.  A disk cache (length-prefixed big
integers, rewritten whole and swapped in with `os.replace`) makes
repeated long runs cheap.

Three signs are exact but filtered: the Turan form, the log-concavity
form, and the comparison of u_n = a(n-1)a(n+1)/a(n)^2 with a rational
bound p/q (the form q a(n-1)a(n+1) - p a(n)^2).  Each form is a
homogeneous polynomial in the window a(n-1), a(n), ..., so its sign is
unchanged when the window is multiplied by a positive number.
`_form_sign` multiplies by the lcm of the denominators, which makes the
entries integers x, and then divides by 2^s, where s is the largest bit
length minus `PREC`.  Each x / 2^s lies in the integer interval
[x >> s, (x >> s) + 1], since `>>` floors (negative x included).  The
form evaluated on those intervals therefore encloses F(x / 2^s), whose
sign is the sign of F(x).  When the enclosure excludes 0 that sign is
returned; the operands have about `PREC` bits instead of tens of
thousands.  Otherwise, and for windows shorter than `PREC` bits, the form
is evaluated exactly on x.  No floats are involved, so the answer never
depends on the filter.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .algebra import Poly

CACHE_MAGIC = b"TCTERMS1"


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


def _encode_int(v: int) -> bytes:
    raw = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
    return struct.pack(">I", len(raw)) + raw


class TermTable:
    """Exact terms of a recurrence with optional disk persistence."""

    def __init__(self, rec: Recurrence, cache_dir: Optional[str] = None):
        self.rec = rec
        self.cache_dir = cache_dir
        self._vals: list[Fraction] = list(rec.initials)
        self._persisted = 0
        self.expansions: dict = {}  # (recurrence, rho) -> state kept by ratio_expansion
        self.u_bounds: dict = {}  # (recurrence, order) -> (rb, ub) kept by certify_u_bounds
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
        if len(blob) < len(CACHE_MAGIC) or blob[: len(CACHE_MAGIC)] != CACHE_MAGIC:
            raise CacheError(f"bad cache header in {path}")
        vals: list[Fraction] = []
        pos = len(CACHE_MAGIC)
        try:
            while pos < len(blob):
                nums = []
                for _ in range(2):
                    (ln,) = struct.unpack_from(">I", blob, pos)
                    pos += 4
                    if ln == 0 or pos + ln > len(blob):
                        raise CacheError(f"truncated cache entry in {path}")
                    nums.append(int.from_bytes(blob[pos : pos + ln], "big", signed=True))
                    pos += ln
                vals.append(Fraction(nums[0], nums[1]))
        except (struct.error, ValueError, ZeroDivisionError) as exc:
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
        file or the new one, and two writers never interleave entries."""
        if not self.cache_dir or len(self._vals) <= self._persisted:
            return
        path = self._path()
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(CACHE_MAGIC)
                for v in self._vals:
                    fh.write(_encode_int(v.numerator))
                    fh.write(_encode_int(v.denominator))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        self._persisted = len(self._vals)

    # -- terms -----------------------------------------------------------

    def ensure(self, n: int) -> None:
        d = self.rec.order
        coeffs = self.rec.coeffs
        vals = self._vals
        while len(vals) <= n:
            m = len(vals) - d  # recurrence index producing a(m+d)
            p0 = coeffs[0].eval(m)
            if p0 == 0:
                raise SingularRecurrenceError(
                    f"leading coefficient vanishes at n={m}; cannot advance"
                )
            acc = Fraction(0)
            for k in range(1, d + 1):
                acc += coeffs[k].eval(m) * vals[m + d - k]
            vals.append(acc / p0)

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise IndexError("negative index")
        self.ensure(n)
        return self._vals[n]

    def values(self, lo: int, hi: int) -> list[Fraction]:
        if lo < 0:
            raise IndexError("negative index")
        self.ensure(hi)
        return self._vals[lo : hi + 1]

    def __len__(self) -> int:
        return len(self._vals)


# -- derived values ---------------------------------------------------------

SCALINGS = ("none", "factorial")


def check_scaling(scaling: str) -> None:
    if scaling not in SCALINGS:
        raise ValueError(f"unknown scaling {scaling!r}; expected one of {SCALINGS}")


def u_value(table: TermTable, n: int, scaling: str = "none") -> Fraction:
    """u_n = a(n-1)a(n+1)/a(n)^2; the 1/n! scaling multiplies by n/(n+1)."""
    check_scaling(scaling)
    an = table.value(n)
    if an == 0:
        raise ZeroDivisionError(f"a({n}) = 0")
    u = table.value(n - 1) * table.value(n + 1) / (an * an)
    if scaling == "factorial":
        u = u * Fraction(n, n + 1)
    return u


def _scaled_window(table: TermTable, n: int, k: int, scaling: str) -> list:
    """Window a(n-1..n+k-2) rescaled by a positive constant.

    For the factorial scaling the window is multiplied by (n+k-2)!, which
    keeps entries integral when the base terms are integers; inequality
    checks only use signs of homogeneous forms, so the rescale is free.
    """
    vals = table.values(n - 1, n + k - 2)
    if scaling == "none":
        return vals
    out = []
    mult = 1
    for i in range(len(vals) - 1, -1, -1):
        out.append(vals[i] * mult)
        mult *= n - 1 + i  # next factor of (n+k-2)!/(index)!
    out.reverse()
    return out


PREC = 128  # bits kept per window entry by the sign filter


class _Box:
    """Closed integer interval [lo, hi] with the operations the forms use."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi

    def __sub__(self, other: "_Box") -> "_Box":
        return _Box(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "_Box") -> "_Box":
        p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _Box(min(p), max(p))

    def __rmul__(self, k: int) -> "_Box":
        return _Box(k * self.lo, k * self.hi) if k >= 0 else _Box(k * self.hi, k * self.lo)

    def __pow__(self, e: int) -> "_Box":
        if e != 2:
            raise ValueError("_Box supports only squares")
        lo, hi = self.lo, self.hi
        if lo >= 0:
            return _Box(lo * lo, hi * hi)
        if hi <= 0:
            return _Box(hi * hi, lo * lo)
        return _Box(0, max(lo * lo, hi * hi))


def _turan3_form(w):
    return 4 * (w[1] * w[1] - w[0] * w[2]) * (w[2] * w[2] - w[1] * w[3]) - (
        w[1] * w[2] - w[0] * w[3]
    ) ** 2


def _logconcave_form(w):
    return w[1] * w[1] - w[0] * w[2]


def _form_sign(form: Callable, window: Sequence) -> int:
    """Sign of the homogeneous `form` at `window`, filtered on PREC-bit boxes."""
    den = math.lcm(*(v.denominator for v in window))
    xs = [v.numerator * (den // v.denominator) for v in window]
    s = max(x.bit_length() for x in xs) - PREC
    if s > 0:
        box = form([_Box(x >> s, (x >> s) + 1) for x in xs])
        if box.lo > 0:
            return 1
        if box.hi < 0:
            return -1
    val = form(xs)
    return (val > 0) - (val < 0)


def turan3_sign(table: TermTable, n: int, scaling: str = "none") -> int:
    """Sign of the degree-3 Turan form at n (cheap: no normalization)."""
    check_scaling(scaling)
    return _form_sign(_turan3_form, _scaled_window(table, n, 4, scaling))


def logconcave_sign(table: TermTable, n: int, scaling: str = "none") -> int:
    """Sign of a_n^2 - a_{n-1} a_{n+1} on the scaled sequence."""
    check_scaling(scaling)
    return _form_sign(_logconcave_form, _scaled_window(table, n, 3, scaling))


def u_bound_sign(table: TermTable, n: int, p: int, q: int, scaling: str = "none") -> int:
    """Sign of u_n - p/q on the scaled sequence, for integers p and q.

    As a(n)^2 > 0, u_n - p/q has the sign of q a(n-1)a(n+1) - p a(n)^2
    times the sign of q.  The form is homogeneous of degree 2, so on the
    factorial-rescaled window it gives the sign for the scaled u_n.  Raises
    ZeroDivisionError when q = 0 or a(n) = 0, where the comparison is
    undefined.
    """
    check_scaling(scaling)
    if q == 0:
        raise ZeroDivisionError(f"bound has a pole at n={n}")
    window = _scaled_window(table, n, 3, scaling)
    if window[1] == 0:
        raise ZeroDivisionError(f"a({n}) = 0")
    s = _form_sign(lambda w: q * (w[0] * w[2]) - p * w[1] ** 2, window)
    return s if q > 0 else -s


def phi_values(
    table: TermTable, level: int, lo: int, hi: int, scaling: str = "none"
) -> list[Fraction]:
    """Values of the k-fold iterate of phi{a}_n = a_{n+1}^2 - a_n a_{n+2}.

    Returns the level-`level` sequence on indices lo..hi (base terms a
    optionally 1/n!-scaled first).
    """
    check_scaling(scaling)
    if level < 0:
        raise ValueError("level must be >= 0")
    if lo < 0:
        raise ValueError(f"phi values from n = {lo} need a({lo}); indices start at 0")
    need_hi = hi + 2 * level
    base = table.values(lo, need_hi)
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


PREDICATES: dict[str, Callable[[TermTable, int, str], int]] = {
    "turan3": turan3_sign,
    "log-concave": logconcave_sign,
}


def check_inequality_range(
    table: TermTable,
    predicate: str,
    lo: int,
    hi: int,
    scaling: str = "none",
    strict: bool = True,
) -> list[int]:
    """Indices in [lo, hi] where the named inequality fails.

    `strict` demands sign > 0; otherwise >= 0.  The window at n starts at
    a(n-1), so lo must be at least 1.  The table is filled to hi + 2 once,
    before the scan.
    """
    if predicate not in PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    if lo < 1:
        raise ValueError(f"the window at n = {lo} needs a({lo - 1}); scans start at n = 1")
    fn = PREDICATES[predicate]
    table.ensure(hi + 2)
    bad = []
    for n in range(lo, hi + 1):
        s = fn(table, n, scaling)
        if s < 0 or (strict and s == 0):
            bad.append(n)
    return bad
