"""Shared helpers: the decimal and binary unit multipliers."""

from repro.utils.units import GIGA, GIBI

__all__ = [
    "GIGA",
    "GIBI",
]
