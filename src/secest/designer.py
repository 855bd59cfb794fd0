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

Most probes are decided without a floor solve. With alpha = 1 - p p2 the
floor is a power series with nonnegative coefficients,

    Tr S(alpha) = sum_k alpha^k tr(A^k Q A'^k),

so log Tr S is a log-sum-exp of affine functions of s = log alpha, hence
convex in s. Every finite floor the bisection has solved is a point on that
convex curve: the chord through the nearest solved points on either side of
a probe bounds log Tr S there from above, and the line through two solved
points on one side, extended past them, bounds it from below. A probe whose
bound clears log M by ``_BOUND_MARGIN`` (which absorbs the floor solver's
roundoff) is decided from the bound; only the others are solved. The probes
and their verdicts are those of plain bisection, so p* and the iteration
count are unchanged.
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

# How far (in log Tr S) a secant bound must clear log M to decide a probe
# without a solve. It must exceed the floor solver's relative error at the
# probes, or a bound could overrule what the solve would have returned.
_BOUND_MARGIN = 1e-9


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


def _secant(a: tuple, b: tuple, s: float) -> float:
    """Value at s of the line through the points a and b, given as (s, f)."""
    (sa, fa), (sb, fb) = a, b
    return fa + (fb - fa) * (s - sa) / (sb - sa)


def _log_floor_bounds(solved: list, s: float) -> tuple:
    """Lower and upper bounds on log Tr S at s = log(1 - p p2).

    ``solved`` holds (s, log Tr S) of finite solved floors. By convexity the
    chord through the nearest solved points on either side of s lies above
    the curve, and a line through two solved points on one side lies below
    it beyond them; a bound with no points to build it from is infinite.
    """
    left = sorted(pt for pt in solved if pt[0] < s)
    right = sorted(pt for pt in solved if pt[0] > s)
    lower, upper = -math.inf, math.inf
    if left and right:
        upper = _secant(left[-1], right[0], s)
    if len(left) >= 2:
        lower = _secant(left[-2], left[-1], s)
    if len(right) >= 2:
        lower = max(lower, _secant(right[0], right[1], s))
    return lower, upper


def design_p_star(sys: LinearSystem, ch: ChannelParams, M: float,
                  epsilon: float = 1e-6) -> DesignResult:
    """Bisection for the largest p whose eavesdropper floor meets M.

    Returns the feasible end of the final bracket, so the returned p always
    satisfies Tr S(p) >= M. The result also carries the receiver ceiling at
    the optimum (infinite, ``trV_infinite``, when meeting the target forces
    the effective rate below the receiver's own transition), the
    critical-rate bracket, and the secrecy interval.

    The probes are the dyadic points of plain bisection, but a probe is
    solved only when the secant bounds from the floors solved so far (see
    the module docstring; log Tr S is convex in log(1 - p p2)) do not clear
    log M by ``_BOUND_MARGIN``. Each decision is the one the floor solve
    would give, so p* and ``iterations`` are those of plain bisection. When
    the last feasible probe was decided by a bound, the floor is solved once
    at p* for ``trS_at_p_star``; a value below M there raises
    :class:`NumericalError`, so an infeasible p* is never returned.
    """
    if not M > 0.0:
        raise ValidationError(f"target M must be positive, got {M}")
    if not 0.0 < epsilon < 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1), got {epsilon}")

    solved = []  # (log(1 - p p2), log Tr S(p)) of each finite solved floor

    def floor_trace(p: float) -> float:
        tr = solve_S(p, ch, sys).trace
        # alpha = 0 (p p2 = 1) has no log; a zero floor has no log either
        if p * ch.p2 < 1.0 and 0.0 < tr < math.inf:
            solved.append((math.log1p(-p * ch.p2), math.log(tr)))
        return tr

    iterations = 0
    trS = floor_trace(1.0)
    if trS >= M:
        p_star = 1.0
    else:
        # floor_trace(0) is infinite, so lo is feasible; trS tracks
        # floor_trace(lo), or is None when a bound decided lo
        log_M = math.log(M)
        lo, hi, trS = 0.0, 1.0, math.inf
        while hi - lo >= epsilon:
            mid = 0.5 * (lo + hi)
            iterations += 1
            lower, upper = _log_floor_bounds(solved, math.log1p(-mid * ch.p2))
            if upper < log_M - _BOUND_MARGIN:
                hi = mid
            elif lower > log_M + _BOUND_MARGIN:
                lo, trS = mid, None
            else:
                tr = floor_trace(mid)
                if tr < M:
                    hi = mid
                else:
                    lo, trS = mid, tr
        p_star = lo
        if trS is None:
            trS = floor_trace(p_star)
            if not trS >= M:
                raise NumericalError(
                    f"floor bound at p = {p_star:.9g} said Tr S >= M = {M:.6g}, "
                    f"but the solve gives {trS:.9g}"
                )

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
