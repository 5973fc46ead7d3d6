"""Secrecy-rate bounds and simulation for the binary beampointing wiretap channel."""

from .bounds import (
    BoundPoint,
    bound_point,
    inner_bound,
    leakage_rate,
    main_entropy_rate,
    outer_bound,
    prefix_probability_table,
)
from .channel import BeamSet, BlockTranscript, PolicyState, jcas_step, simulate_block
from .estimators import (
    RateEstimate,
    TranscriptStats,
    collect_stats,
    estimate_rates,
)
from .model import ExplorationSchedule, ModelConfig, binary_entropy, compute_schedule
from .oracle import (
    EnumerationResult,
    GuardRailError,
    VerificationReport,
    exact_enumeration,
    verify_against_closed_forms,
)

__all__ = [
    "BeamSet",
    "BlockTranscript",
    "BoundPoint",
    "EnumerationResult",
    "ExplorationSchedule",
    "GuardRailError",
    "ModelConfig",
    "PolicyState",
    "RateEstimate",
    "TranscriptStats",
    "VerificationReport",
    "binary_entropy",
    "bound_point",
    "collect_stats",
    "compute_schedule",
    "estimate_rates",
    "exact_enumeration",
    "inner_bound",
    "jcas_step",
    "leakage_rate",
    "main_entropy_rate",
    "outer_bound",
    "prefix_probability_table",
    "simulate_block",
    "verify_against_closed_forms",
]

__version__ = "0.1.0"
