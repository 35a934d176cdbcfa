"""Readable text and JSON forms for series and their scalars.

Text form: ``1 - 3/2*n^-2 + 9/4*n^-3 + o(n^-4)`` with fractional powers
parenthesized (``n^(-3/2)``) and log-dependent coefficients written in
``log(n)``.  JSON forms are exact, including algebraic scalars (carried
as modulus plus isolating interval).
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Poly, RatFunc, scalar_sign
from .asymptotics import AsymSeries


def frac_str(q) -> str:
    return str(Fraction(q))


def _scalar_str(x) -> str:
    if isinstance(x, (int, Fraction)):
        return frac_str(x)
    q = x.to_fraction()
    if q is not None:
        return frac_str(q)
    lo, hi = x.approx_interval(Fraction(1, 10**12))
    return f"~{float((lo + hi) / 2):.10g}"


def _join(parts: list) -> str:
    """Sum of signed terms: a part "-t" joins as " - t"."""
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


def _log_term(cs: str, k: int) -> str:
    """The term cs*log(n)^k for k >= 1, with a unit coefficient left out."""
    var = "log(n)" if k == 1 else f"log(n)^{k}"
    return var if cs == "1" else f"-{var}" if cs == "-1" else f"{cs}*{var}"


def poly_in_log_str(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if scalar_sign(c) == 0:
            continue
        cs = _scalar_str(c)
        parts.append(cs if k == 0 else _log_term(cs, k))
    return _join(parts)


def coef_str(c: RatFunc) -> str:
    if c.is_constant():
        return _scalar_str(c.constant_value())
    num = poly_in_log_str(c.num)
    if c.den.degree <= 0 and c.den.constant() == 1:
        return f"({num})"
    return f"(({num})/({poly_in_log_str(c.den)}))"


def _inv_log_term(cs: str, k: int) -> str:
    """The term cs*x^k in x = 1/log n."""
    if k == 0:
        return cs
    if k < 0:
        return _log_term(cs, -k)
    return f"{cs}/" + ("log(n)" if k == 1 else f"log(n)^{k}")


def inv_log_series_str(s) -> str:
    """Leading terms of a series in x = 1/log n with exact coefficients.

    `s` has `val`, `coeffs` (coefficient of x^(val+i) at i) and `order`
    (the error exponent, None when the series is an exact constant).  At
    most four exponents are shown, then the O-term: ``-2 - 16/log(n) +
    22/log(n)^3 + O(1/log(n)^4)``.
    """
    if s.order is None:
        return _scalar_str(s.coeffs[0]) if s.coeffs else "0"
    stop = min(s.val + 4, s.order)
    parts = [
        _inv_log_term(_scalar_str(c), k)
        for k, c in enumerate(s.coeffs[: stop - s.val], start=s.val)
        if scalar_sign(c) != 0
    ]
    return _join(parts + [f"O({_inv_log_term('1', stop)})"])


def power_str(e: Fraction) -> str:
    """n^{-e} for a series exponent e."""
    neg = -e
    if neg.denominator == 1:
        return f"n^{neg}"
    return f"n^({neg})"


def term_str(e: Fraction, c: RatFunc) -> str:
    cs = coef_str(c)
    if e == 0:
        return cs
    ps = power_str(e)
    if cs == "1":
        return ps
    if cs == "-1":
        return f"-{ps}"
    return f"{cs}*{ps}"


def series_to_text(s: AsymSeries) -> str:
    parts = [term_str(e, c) for e, c in s.terms]
    out = _join(parts) if parts else "0"
    if s.error_order is not None:
        out += f" + o({power_str(s.error_order)})"
    return out


# -- JSON encoding -------------------------------------------------------------


def scalar_to_json(x):
    if isinstance(x, (int, Fraction)):
        return frac_str(x)
    root = x.field.root
    return {
        "coeffs": [frac_str(c) for c in x.coeffs],
        "modulus": [frac_str(c) for c in x.field.modulus.coeffs],
        "rootInterval": [frac_str(root.lo), frac_str(root.hi)],
    }


def ratfunc_to_json(c: RatFunc) -> dict:
    return {
        "num": [scalar_to_json(x) for x in c.num.coeffs],
        "den": [scalar_to_json(x) for x in c.den.coeffs],
    }


def series_to_json(s: AsymSeries) -> dict:
    out: dict = {
        "terms": [
            {"exponent": frac_str(e), "coefficient": ratfunc_to_json(c)}
            for e, c in s.terms
        ]
    }
    out["errorOrder"] = None if s.error_order is None else frac_str(s.error_order)
    return out
