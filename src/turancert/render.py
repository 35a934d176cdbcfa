"""Readable text and JSON forms of everything a command prints: polynomials,
rational functions, series and their scalars, and the growth record of a
ratio expansion.  No other module of the package writes these forms.

Text form of a series: ``1 - 3/2*n^-2 + 9/4*n^-3 + O(n^-4)``, with the
remainder big-O at the error order (the series does not know the term
there), fractional powers parenthesized (``n^(-3/2)``) and log-dependent
coefficients written as polynomials in ``log(n)``.  An irrational scalar
prints as ``~`` and its value to 10 significant digits.  JSON forms are
exact, including algebraic scalars (carried as modulus plus isolating
interval).
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Poly, RatFunc, scalar_sign
from .asymptotics import AsymSeries, RatioExpansion


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


def _power_term(cs: str, var: str, k: int) -> str:
    """The term cs*var^k for k >= 1, with a unit coefficient left out."""
    power = var if k == 1 else f"{var}^{k}"
    return power if cs == "1" else f"-{power}" if cs == "-1" else f"{cs}*{power}"


def poly_text(p: Poly, var: str = "n") -> str:
    """Plain text of a polynomial in `var`, highest power first."""
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if scalar_sign(c) == 0:
            continue
        cs = _scalar_str(c)
        parts.append(cs if k == 0 else _power_term(cs, var, k))
    return _join(parts)


def ratfunc_text(r: RatFunc) -> str:
    """num, or (num) / (den) when the denominator is not 1, both in n."""
    num, den = poly_text(r.num), poly_text(r.den)
    return num if den == "1" else f"({num}) / ({den})"


def coef_str(c: RatFunc) -> str:
    if c.is_constant():
        return _scalar_str(c.constant_value())
    num = poly_text(c.num, "log(n)")
    if c.den.degree <= 0 and c.den.constant() == 1:
        return f"({num})"
    return f"(({num})/({poly_text(c.den, 'log(n)')}))"


def _inv_log_term(cs: str, k: int) -> str:
    """The term cs*x^k in x = 1/log n."""
    if k == 0:
        return cs
    if k < 0:
        return _power_term(cs, "log(n)", -k)
    return f"{cs}/" + _power_term("1", "log(n)", k)


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
        out += f" + O({power_str(s.error_order)})"
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


def growth_record(rx: RatioExpansion) -> dict:
    """The growth constants of a(n+1)/a(n) ~ lam * n^mu as JSON.

    A rational lam is written exactly.  An irrational lam is given by the
    polynomial it was isolated in, the square-free part of the edge
    polynomial with its rational roots divided out (`lambdaMinimalPolynomial`,
    constant term first), and an isolating interval.  That polynomial is
    not factored further over Q, so from degree 4 up it need not be lam's
    minimal polynomial.  With rho = 2, v = 1 + c1/sqrt(n) + ... lifts to a
    stretched-exponential factor exp(2*c1*sqrt(n)) in a(n) itself; an
    irrational c is written as its float repr.
    """
    rec: dict = {"lambdaApprox": float(rx.lam), "mu": str(rx.mu), "rho": rx.rho}
    if rx.lam_poly is None:
        rec["lambda"] = frac_str(rx.lam)
    else:
        rec["lambdaMinimalPolynomial"] = [frac_str(c) for c in rx.lam_poly.coeffs]
        root = rx.lam.field.root
        rec["lambdaInterval"] = [frac_str(root.lo), frac_str(root.hi)]
    if rx.rho == 2 and rx.coeffs and rx.coeffs[0]:
        c = 2 * rx.coeffs[0]
        q = c if isinstance(c, (int, Fraction)) else c.to_fraction()
        rec["stretchedExponential"] = {
            "form": "exp(c*sqrt(n))",
            "c": repr(float(c)) if q is None else frac_str(q),
        }
    return rec
