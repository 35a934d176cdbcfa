"""Exact truncated asymptotic expansions with explicit error orders."""

from .series import (
    AsymSeries,
    binomial_power,
    compose_coef_shift,
    delta_series,
    gen_binomial,
    series_inv,
    series_mul,
    series_pow_binomial,
    shift_series,
)
from .ratio import (
    ExpansionError,
    RatioExpansion,
    dominant_edge,
    edge_polynomial,
    newton_points,
    ratio_expansion,
    u_expansion,
)
from .forms import u_power, u_power_log

__all__ = [
    "AsymSeries",
    "binomial_power",
    "compose_coef_shift",
    "delta_series",
    "gen_binomial",
    "series_inv",
    "series_mul",
    "series_pow_binomial",
    "shift_series",
    "ExpansionError",
    "RatioExpansion",
    "dominant_edge",
    "edge_polynomial",
    "newton_points",
    "ratio_expansion",
    "u_expansion",
    "u_power",
    "u_power_log",
]
