"""Built-in sequence corpus with golden expected artifacts.

Each entry carries a recurrence (text source plus constructed object), a
scaling tag, and expected values used by the test suite and `corpus run`.
Every expected artifact records an `origin` string naming the oracle that
produced it (direct summation, hand expansion, published threshold table).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import Poly
from .sequences import Recurrence

F = Fraction


def _poly(*coeffs) -> Poly:
    return Poly([F(c) for c in coeffs])


def corner_denominator(c: int, e0: int, e1: int, e2: int) -> Poly:
    """c * n^e0 * (n+1)^e1 * (n+2)^e2 as an expanded polynomial."""
    p = _poly(c)
    p = p * _poly(0, 1) ** e0
    p = p * _poly(1, 1) ** e1
    p = p * _poly(2, 1) ** e2
    return p


class CorpusEntry:
    """A named recurrence plus expected golden artifacts."""

    def __init__(
        self,
        name: str,
        source: str,
        recurrence: Recurrence,
        scaling: str = "none",
        expected: Optional[dict] = None,
    ):
        self.name = name
        self.source = source
        self.recurrence = recurrence
        self.scaling = scaling
        self.expected = expected or {}

    def __repr__(self) -> str:
        return f"CorpusEntry({self.name!r})"


def _corners(dens, nums, printed, minimal, window, origin):
    out = []
    for num, den, p, m in zip(nums, dens, printed, minimal):
        out.append(
            {
                "num": [F(c) for c in num],
                "den": den,
                "printed_threshold": p,
                "minimal_threshold": m,
            }
        )
    # window: deviations from 1 per exponent, before the scaling factor
    return {"corners": out, "window": window, "origin": origin}


_MOTZKIN_DEN = corner_denominator(16, 2, 4, 2)
_UNIT_DEN_012 = corner_denominator(1, 0, 1, 2)
_UNIT_DEN_042 = corner_denominator(1, 0, 4, 2)
_UNIT_DEN_212 = corner_denominator(1, 2, 1, 2)
_UNIT_DEN_242 = corner_denominator(1, 2, 4, 2)


ENTRIES: dict[str, CorpusEntry] = {}


def _add(entry: CorpusEntry) -> None:
    ENTRIES[entry.name] = entry


_add(
    CorpusEntry(
        "inverse-catalan",
        "(4*n+2)*a(n+1) - (n+2)*a(n) = 0 ; a(0)=1",
        Recurrence([_poly(2, 4), _poly(2, 1)], [1], name="inverse-catalan"),
        scaling="none",
        expected={
            "terms": {
                "values": [F(1), F(1), F(1, 2), F(1, 5), F(1, 14), F(1, 42), F(1, 132), F(1, 429)],
                "origin": "reciprocals of directly computed Catalan numbers",
            },
            "lam": {"value": F(1, 4), "mu": F(0), "rho": 1},
            "u_series": {
                "coeffs": {F(2): F(-3, 2), F(3): F(9, 4), F(4): F(-21, 8)},
                "origin": "series solve of the order-1 ratio, cross-checked numerically",
            },
            "turan3": "holds",
            "llc_level": 2,
        },
    )
)

_add(
    CorpusEntry(
        "involutions",
        "n*a(n) - a(n-1) - a(n-2) = 0 ; a(0)=1, a(1)=1",
        Recurrence([_poly(2, 1), _poly(1), _poly(1)], [1, 1], name="involutions"),
        scaling="none",  # the 1/n! scaling is already folded into the recurrence
        expected={
            "terms": {
                "values": [F(1), F(1), F(1), F(2, 3), F(5, 12), F(13, 60), F(19, 180), F(29, 630)],
                "origin": "involution counts 1,1,2,4,10,26,76,232 divided by n!",
            },
            "lam": {"value": F(1), "mu": F(-1, 2), "rho": 2},
            "u_series": {
                "coeffs": {F(1): F(-1, 2), F(3, 2): F(-1, 4), F(2): F(5, 8)},
                "origin": "series solve on the half-integer exponent grid",
            },
            "turan3": "holds",
        },
    )
)

_add(
    CorpusEntry(
        "apery",
        "(n+2)^3*a(n+2) - (34*n^3+153*n^2+231*n+117)*a(n+1) + (n+1)^3*a(n) = 0 ; "
        "a(0)=1, a(1)=5",
        Recurrence(
            [_poly(8, 12, 6, 1), _poly(117, 231, 153, 34), _poly(-1, -3, -3, -1)],
            [1, 5],
            name="apery",
        ),
        scaling="factorial",
        expected={
            "terms": {
                "values": [F(1), F(5), F(73), F(1445), F(33001), F(819005), F(21460825), F(584307365)],
                "origin": "direct summation of C(n,k)^2 C(n+k,k)^2",
            },
            "lam": {"minpoly": [1, -34, 1], "approx": 33.9706, "mu": F(0), "rho": 1},
            "turan3": "holds",
        },
    )
)

_add(
    CorpusEntry(
        "motzkin",
        "(n+4)*a(n+2) - (2*n+5)*a(n+1) - 3*(n+1)*a(n) = 0 ; a(0)=1, a(1)=1",
        Recurrence([_poly(4, 1), _poly(5, 2), _poly(3, 3)], [1, 1], name="motzkin"),
        scaling="factorial",
        expected={
            "terms": {
                "values": [F(1), F(1), F(2), F(4), F(9), F(21), F(51), F(127), F(323), F(835)],
                "origin": "direct summation of C(n,2k) * Catalan(k)",
            },
            "lam": {"value": F(3), "mu": F(0), "rho": 1},
            "ht_bounds": {
                "d": {F(2): F(3, 2)},
                "slack_exponent": F(2),
                "n_max": 200,
                "origin": "published window 1+1/(2n^2) < u < 1+5/(2n^2) for this sequence",
            },
            "corner_suite": _corners(
                [_MOTZKIN_DEN] * 4,
                [
                    [-9, -8, -24, 16, 96, 64],
                    [-49, 152, 24, -240, -224, 64],
                    [-225, -520, -680, -496, -96, 64],
                    [-1225, -360, 264, 272, -288, 64],
                ],
                [0, 4, 4, 3],
                [0, 4, 4, 3],
                {"g": {F(2): F(1, 2)}, "f": {F(2): F(5, 2)}},
                "hand-expanded corner identities for the printed bound pair",
            ),
            "turan3": "holds",
            "holds_from": 2,
        },
    )
)

_add(
    CorpusEntry(
        "franel3",
        "(n+2)^2*a(n+2) - (7*n^2+21*n+16)*a(n+1) - 8*(n+1)^2*a(n) = 0 ; a(0)=1, a(1)=2",
        Recurrence(
            [_poly(4, 4, 1), _poly(16, 21, 7), _poly(8, 16, 8)], [1, 2], name="franel3"
        ),
        scaling="factorial",
        expected={
            "terms": {
                "values": [F(1), F(2), F(10), F(56), F(346), F(2252), F(15184), F(104960)],
                "origin": "direct summation of C(n,k)^3",
            },
            "lam": {"value": F(8), "mu": F(0), "rho": 1},
            "ht_bounds": {
                "d": {F(2): F(1)},
                "slack_exponent": F(2),
                "n_max": 200,
                "origin": "published window 1 < u < 1+2/n^2 for this sequence",
            },
            "corner_suite": _corners(
                [_UNIT_DEN_012, _UNIT_DEN_042, _UNIT_DEN_212, _UNIT_DEN_242],
                [
                    [4],
                    [-12, -20, -8, 4],
                    [-4, -12, 4],
                    [-36, -8, 12, 4, -12, 4],
                ],
                [0, 3, 3, 2],
                [0, 3, 3, 2],
                {"g": {}, "f": {F(2): F(2)}},
                "hand-expanded corner identities for the printed bound pair",
            ),
            "turan3": "holds",
            "holds_from": 2,
        },
    )
)

_add(
    CorpusEntry(
        "binomial4",
        "(n+2)^3*a(n+2) - 2*(3*n^2+9*n+7)*(2*n+3)*a(n+1) - 4*(n+1)*(4*n+3)*(4*n+5)*a(n) = 0 ; "
        "a(0)=1, a(1)=2, a(2)=18",
        Recurrence(
            [_poly(8, 12, 6, 1), _poly(42, 82, 54, 12), _poly(60, 188, 192, 64)],
            [1, 2, 18],
            name="binomial4",
        ),
        scaling="none",
        expected={
            "terms": {
                "values": [F(1), F(2), F(18), F(164), F(1810), F(21252), F(263844), F(3395016)],
                "origin": "direct summation of C(n,k)^4",
            },
            "lam": {"value": F(16), "mu": F(0), "rho": 1},
            "ht_bounds": {
                "d": {F(2): F(3, 2)},
                "slack_exponent": F(2),
                "n_max": 200,
                "origin": "published window 1+1/(2n^2) < u < 1+5/(2n^2) for this sequence",
            },
            # the raw sequence is eventually log-convex (u > 1 + 1/(2n^2)),
            # so the cubic Turan inequality fails without scaling
            "turan3": "fails",
        },
    )
)

_add(
    CorpusEntry(
        "bn",
        "(n+3)*a(n+3) - (7*n+13)*a(n+2) + (7*n+15)*a(n+1) - (n+1)*a(n) = 0 ; "
        "a(0)=-1, a(1)=1, a(2)=7",
        Recurrence(
            [_poly(3, 1), _poly(13, 7), _poly(-15, -7), _poly(1, 1)],
            [-1, 1, 7],
            name="bn",
        ),
        scaling="factorial",
        expected={
            "terms": {
                "values": [F(-1), F(1), F(7), F(25), F(87), F(329), F(1359), F(6001)],
                "origin": "direct summation of C(n,k)C(n+k,k)/(2k-1)",
            },
            "lam": {"minpoly": [1, -6, 1], "approx": 5.8284, "mu": F(0), "rho": 1},
            "ht_bounds": {
                # the degree-2 coefficient is an algebraic expression that
                # simplifies to the exact rational 3/2
                "d": {F(2): F(3, 2)},
                "slack_exponent": F(2),
                "n_max": 200,
                "origin": "exact simplification of the algebraic window constant",
            },
            "corner_suite": _corners(
                [_UNIT_DEN_012, _UNIT_DEN_042, _UNIT_DEN_212, _UNIT_DEN_242],
                [
                    [4],
                    [-20, -36, -21, 4],
                    [-9, -21, 4],
                    [-144, -48, 16, 36, -24, 4],
                ],
                [0, 6, 5, 7],
                [0, 6, 5, 3],
                {"g": {}, "f": {F(2): F(3)}},
                "hand-expanded corner identities for the rounded bound pair "
                "g = n/(n+1), f = n/(n+1)(1+3/n^2); the last printed threshold "
                "is valid but not minimal",
            ),
            "turan3": "holds",
            "holds_from": 1,
        },
    )
)

_add(
    CorpusEntry(
        "fine",
        "2*(n+3)*a(n+2) - (7*n+9)*a(n+1) - 2*(2*n+3)*a(n) = 0 ; a(0)=1, a(1)=0",
        Recurrence([_poly(6, 2), _poly(9, 7), _poly(6, 4)], [1, 0], name="fine"),
        scaling="factorial",
        expected={
            "terms": {
                "values": [F(1), F(0), F(1), F(2), F(6), F(18), F(57), F(186), F(622), F(2120), F(7338), F(25724)],
                "origin": "Catalan convolution C_n = 2 F_n + F_{n-1}; recurrence fitted "
                "to these terms and verified on 58 further shifts",
            },
            "lam": {"value": F(4), "mu": F(0), "rho": 1},
            "first_u_index": 3,  # a(1) = 0 makes u undefined at n=1 and zero at n=2
        },
    )
)

_add(
    CorpusEntry(
        "domb",
        "(n+2)^3*a(n+2) - 2*(2*n+3)*(5*n^2+15*n+12)*a(n+1) + 64*(n+1)^3*a(n) = 0 ; "
        "a(0)=1, a(1)=4",
        Recurrence(
            [_poly(8, 12, 6, 1), _poly(72, 138, 90, 20), _poly(-64, -192, -192, -64)],
            [1, 4],
            name="domb",
        ),
        scaling="factorial",
        expected={
            "terms": {
                "values": [F(1), F(4), F(28), F(256), F(2716), F(31504), F(387136), F(4951552), F(65218204), F(878536624), F(12046924528), F(167595457792)],
                "origin": "direct summation of C(n,k)^2 C(2k,k) C(2n-2k,n-k)",
            },
            "lam": {"value": F(16), "mu": F(0), "rho": 1},
        },
    )
)
