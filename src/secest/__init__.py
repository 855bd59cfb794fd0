"""Packet-withholding secrecy for remote state estimation.

A sensor streams Kalman filter estimates of an unstable linear system to a
user over a lossy link while an eavesdropper overhears on its own lossy
link. Withholding each packet independently with probability 1 - p drives
the eavesdropper's expected estimation error unbounded while keeping the
user's bounded, provided p sits in the right interval. This package
computes those intervals, the two error bounds, the largest p meeting a
prescribed eavesdropper-error floor, and simulates the whole closed loop.
"""

from .bounds import (
    BoundValue,
    CriticalRates,
    SecrecyInterval,
    critical_rates,
    feasibility_check,
    p_lower,
    p_upper,
    secrecy_interval,
    solve_S,
    solve_V,
)
from .channel import ChannelParams, Mechanism, RngStream, effective_rates
from .designer import (
    DesignResult,
    TradeoffCurve,
    TradeoffPoint,
    design_p_star,
    sweep_tradeoff,
)
from .errors import ConfigError, InconclusiveError, NumericalError, ValidationError
from .kalman import batch_covariance_oracle, filter_errors, riccati_map
from .linmodel import (
    LinearSystem,
    ValidationReport,
    is_positive_definite,
    validate_system,
)
from .montecarlo import (
    ExpectedErrorCurve,
    SimulationTrace,
    collapse_events,
    expected_error_curve,
    meets_divergence_criterion,
    meets_plateau_criterion,
    simulate_trace,
    time_average_error,
)
from .scalar import ScalarSystem, scalar_S, scalar_V, scalar_critical, scalar_p_star

__version__ = "0.1.0"

__all__ = [
    "BoundValue",
    "ChannelParams",
    "ConfigError",
    "CriticalRates",
    "DesignResult",
    "ExpectedErrorCurve",
    "InconclusiveError",
    "LinearSystem",
    "Mechanism",
    "NumericalError",
    "RngStream",
    "ScalarSystem",
    "SecrecyInterval",
    "SimulationTrace",
    "TradeoffCurve",
    "TradeoffPoint",
    "ValidationError",
    "ValidationReport",
    "batch_covariance_oracle",
    "collapse_events",
    "critical_rates",
    "design_p_star",
    "effective_rates",
    "expected_error_curve",
    "feasibility_check",
    "filter_errors",
    "is_positive_definite",
    "meets_divergence_criterion",
    "meets_plateau_criterion",
    "p_lower",
    "p_upper",
    "riccati_map",
    "scalar_S",
    "scalar_V",
    "scalar_critical",
    "scalar_p_star",
    "secrecy_interval",
    "simulate_trace",
    "solve_S",
    "solve_V",
    "sweep_tradeoff",
    "time_average_error",
    "validate_system",
]
