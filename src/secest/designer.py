"""Choosing the withholding probability against a confusion target.

The design problem: pick the transmission probability p to keep the
intended receiver's error ceiling as small as possible while the
eavesdropper's error floor stays at or above a target M. The floor is
non-increasing in p, so the optimum is the largest p whose floor still
meets the target,

    p* = max { p in [0, 1] : Tr S(p) >= M },

found by bisection: if Tr S(1) >= M nothing needs to be withheld and
p* = 1; otherwise the feasible set is a left interval of [0, 1] whose right
endpoint the bisection brackets to width epsilon, returning the feasible
(lower) end. The iteration count is at most ceil(-log2(epsilon)) + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import (
    BoundValue,
    CriticalRates,
    SecrecyInterval,
    critical_rates,
    secrecy_interval,
    solve_S,
    solve_V,
)
from .channel import ChannelParams
from .errors import NumericalError, ValidationError
from .linmodel import LinearSystem

# Relative slack when enforcing curve monotonicity; bisection noise on p*
# propagates into the stored traces.
_CURVE_RTOL = 1e-8


@dataclass(frozen=True)
class DesignResult:
    """Outcome of one design: the probability, both bounds, and context."""

    p_star: float
    trS_at_p_star: float
    trV_at_p_star: float
    M: float
    epsilon: float
    rates: CriticalRates
    interval: SecrecyInterval
    iterations: int

    @property
    def trV_infinite(self) -> bool:
        return math.isinf(self.trV_at_p_star)


@dataclass(frozen=True)
class TradeoffPoint:
    M: float
    p_star: float
    trS: float
    trV: float


@dataclass(frozen=True)
class TradeoffCurve:
    """Design results across a grid of confusion targets."""

    points: tuple
    channel: ChannelParams


def design_p_star(sys: LinearSystem, ch: ChannelParams, M: float,
                  epsilon: float = 1e-6) -> DesignResult:
    """Bisection for the largest p whose eavesdropper floor meets M.

    Returns the feasible end of the final bracket, so the returned p always
    satisfies Tr S(p) >= M. The result also carries the receiver ceiling at
    the optimum (infinite, ``trV_infinite``, when meeting the target forces
    the effective rate below the receiver's own transition), the
    critical-rate bracket, and the secrecy interval.
    """
    if not M > 0.0:
        raise ValidationError(f"target M must be positive, got {M}")
    if not 0.0 < epsilon < 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1), got {epsilon}")

    def floor_trace(p: float) -> float:
        return solve_S(p, ch, sys).trace

    iterations = 0
    trS = floor_trace(1.0)
    if trS >= M:
        p_star = 1.0
    else:
        # floor_trace(0) is infinite, so lo is feasible; trS tracks floor_trace(lo)
        lo, hi, trS = 0.0, 1.0, math.inf
        while hi - lo >= epsilon:
            mid = 0.5 * (lo + hi)
            iterations += 1
            tr = floor_trace(mid)
            if tr < M:
                hi = mid
            else:
                lo, trS = mid, tr
        p_star = lo

    trV = solve_V(p_star, ch, sys).trace
    return DesignResult(
        p_star=p_star,
        trS_at_p_star=trS,
        trV_at_p_star=trV,
        M=M,
        epsilon=epsilon,
        rates=critical_rates(sys),
        interval=secrecy_interval(sys, ch),
        iterations=iterations,
    )


def sweep_tradeoff(sys: LinearSystem, ch: ChannelParams, M_grid,
                   epsilon: float = 1e-6) -> TradeoffCurve:
    """Evaluate the tradeoff across increasing targets.

    The grid must be strictly increasing and positive. Points are evaluated
    independently, in grid order. The resulting curve must be internally
    consistent: p* cannot increase with M, the receiver ceiling cannot
    decrease, and once it turns infinite it stays infinite; any violation
    raises :class:`NumericalError` rather than returning a misleading curve.

    On a correct floor solve the checks cannot fire, however fine the grid.
    Every design bisects [0, 1] from the same start, so two targets M < M'
    probe the same dyadic points until the first probe p where
    Tr S(p) >= M but Tr S(p) < M'; from there p*(M') < p <= p*(M). Thus p*
    is exactly non-increasing in M. Equal p* give bit-identical ceilings,
    and distinct p* lie more than epsilon / 2 apart, far beyond the ceiling
    solver's tolerance. A root finder would probe target-dependent points
    and lose this.
    """
    grid = [float(M) for M in M_grid]
    if len(grid) == 0:
        raise ValidationError("M_grid must be nonempty")
    if any(M <= 0.0 for M in grid):
        raise ValidationError("every target in M_grid must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("M_grid must be strictly increasing")

    def solve_one(M: float) -> TradeoffPoint:
        res = design_p_star(sys, ch, M, epsilon)
        return TradeoffPoint(M=M, p_star=res.p_star, trS=res.trS_at_p_star,
                             trV=res.trV_at_p_star)

    points = tuple(solve_one(M) for M in grid)

    for prev, cur in zip(points, points[1:]):
        if cur.p_star > prev.p_star + epsilon:
            raise NumericalError(
                f"inconsistent curve: p* rose from {prev.p_star:.9g} at "
                f"M={prev.M:.6g} to {cur.p_star:.9g} at M={cur.M:.6g}"
            )
        if math.isinf(prev.trV) and not math.isinf(cur.trV):
            raise NumericalError(
                f"inconsistent curve: receiver ceiling returned finite at "
                f"M={cur.M:.6g} after being infinite at M={prev.M:.6g}"
            )
        if not math.isinf(cur.trV):
            slack = _CURVE_RTOL * max(1.0, abs(prev.trV)) + 2.0 * epsilon * max(1.0, abs(prev.trV))
            if cur.trV < prev.trV - slack:
                raise NumericalError(
                    f"inconsistent curve: receiver ceiling fell from "
                    f"{prev.trV:.9g} at M={prev.M:.6g} to {cur.trV:.9g} at M={cur.M:.6g}"
                )
    return TradeoffCurve(points=points, channel=ch)
