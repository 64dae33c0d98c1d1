"""Shared utilities: deterministic RNG plumbing and ASCII reporting."""

from repro.utils.rng import derive_rng, make_rng
from repro.utils.tables import ascii_plot, format_series, format_table

__all__ = [
    "ascii_plot",
    "derive_rng",
    "format_series",
    "format_table",
    "make_rng",
]
