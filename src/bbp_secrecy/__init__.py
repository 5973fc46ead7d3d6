"""Secrecy-rate bounds and simulation for the binary beampointing wiretap channel."""

from .bounds import bound_point, prefix_probability_table
from .estimators import estimate_rates
from .model import ModelConfig
from .oracle import exact_enumeration, verify_against_closed_forms

__all__ = [
    "ModelConfig",
    "bound_point",
    "estimate_rates",
    "exact_enumeration",
    "prefix_probability_table",
    "verify_against_closed_forms",
]

__version__ = "0.1.0"
