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
from .errors import ConfigError, NumericalError, ValidationError
from .kalman import filter_errors, riccati_map
from .linmodel import LinearSystem, ValidationReport, validate_system
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
    "collapse_events",
    "critical_rates",
    "design_p_star",
    "effective_rates",
    "expected_error_curve",
    "filter_errors",
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
