"""Exact scalar, polynomial, rational-function and algebraic-number kernel."""

from .poly import Poly, poly_gcd, squarefree_part, scalar_sign
from .ratfunc import RatFunc, limit_at_infinity, sign_at_infinity
from .roots import (
    AlgebraicReal,
    cauchy_root_bound,
    eventual_positivity_threshold,
    isolate_real_roots,
    no_roots_above,
    rational_roots_small,
    sturm_chain,
)
from .numberfield import NFElem, NumberField, rationalize

__all__ = [
    "Poly",
    "poly_gcd",
    "squarefree_part",
    "scalar_sign",
    "RatFunc",
    "sign_at_infinity",
    "limit_at_infinity",
    "AlgebraicReal",
    "isolate_real_roots",
    "eventual_positivity_threshold",
    "no_roots_above",
    "rational_roots_small",
    "cauchy_root_bound",
    "sturm_chain",
    "NumberField",
    "NFElem",
    "rationalize",
]
