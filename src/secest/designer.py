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

The solved floors live in one table per call (:class:`_FloorTable`).
:func:`design_p_star` fills one for its target; :func:`sweep_tradeoff`
shares one across its targets, so a probe that two targets reach is solved
once, and each target's solved floors tighten the bounds of the next. On
the held-sweep benchmark plants (n = 8-27, three targets per sweep) that
is 22-23 floor solves per sweep, about 7.5 per target, against 31-32 for
separate designs. Nothing outlives the call. The table reads each floor's
trace alone, by the formula :func:`~secest.bounds.solve_S` wraps
(``bounds._floor``), so its traces are solve_S's bit for bit, with no
:class:`~secest.bounds.BoundValue` built. A floor solve is one entrywise
division in the eigenbasis of the plant's Schur factor where that basis is
well conditioned, as on every held-sweep plant (4.8 / 6.7 us at
n = 8 / 27 on a 2-core Xeon, against 6.9 / 8.9 us through solve_S, after
the basis is formed once per plant), and one Cayley-transformed ``trsyl``
elsewhere; the bounds spare the solve and its Python call overhead alike.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

from .bounds import (
    CriticalRates,
    SecrecyInterval,
    _floor,
    critical_rates,
    secrecy_interval,
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


class _FloorTable:
    """The floors solved for one call of :func:`design_p_star` or
    :func:`sweep_tradeoff`, shared by all of that call's targets.

    ``traces`` maps each solved probe p to Tr S(p), so no probe is solved
    twice. ``points`` holds (log(1 - p p2), log Tr S) of each finite solved
    floor, kept sorted, for the secant bounds of :meth:`log_bounds`.
    """

    def __init__(self, sys: LinearSystem, ch: ChannelParams):
        self.sys, self.ch = sys, ch
        self.traces = {}
        self.points = []

    def trace(self, p: float) -> float:
        """Tr S(p), solved on the first request for p."""
        tr = self.traces.get(p)
        if tr is None:
            floor = _floor(self.sys, p * self.ch.p2)
            tr = self.traces[p] = math.inf if floor is None else floor[1]
            # alpha = 0 (p p2 = 1) has no log; a zero floor has no log either
            if p * self.ch.p2 < 1.0 and 0.0 < tr < math.inf:
                insort(self.points, (math.log1p(-p * self.ch.p2), math.log(tr)))
        return tr

    def log_bounds(self, p: float) -> tuple:
        """Lower and upper bounds on log Tr S(p).

        With s = log(1 - p p2), convexity puts the chord through the nearest
        solved points on either side of s above the curve, and a line
        through two solved points on one side below it beyond them; a bound
        with no points to build it from is infinite.
        """
        s, pts = math.log1p(-p * self.ch.p2), self.points
        # pts[:i] lie left of s and pts[i:] right of it: a solved probe is
        # read from ``traces``, and distinct probes have distinct s
        i = bisect_left(pts, (s,))
        lower, upper = -math.inf, math.inf
        if 0 < i < len(pts):
            upper = _secant(pts[i - 1], pts[i], s)
        if i >= 2:
            lower = _secant(pts[i - 2], pts[i - 1], s)
        if len(pts) - i >= 2:
            lower = max(lower, _secant(pts[i], pts[i + 1], s))
        return lower, upper


def _bisect(table: _FloorTable, M: float, epsilon: float) -> tuple:
    """(p*, Tr S(p*), iterations) of the design for target M, drawing every
    floor from ``table`` (see :func:`design_p_star`)."""
    if not M > 0.0:
        raise ValidationError(f"target M must be positive, got {M}")
    if not 0.0 < epsilon < 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1), got {epsilon}")

    trS = table.trace(1.0)
    if trS >= M:
        return 1.0, trS, 0
    # Tr S(0) is infinite, so lo is feasible; trS tracks Tr S(lo), or is
    # None when a bound decided lo
    log_M = math.log(M)
    lo, hi, trS, iterations = 0.0, 1.0, math.inf, 0
    while hi - lo >= epsilon:
        mid = 0.5 * (lo + hi)
        iterations += 1
        tr = table.traces.get(mid)
        if tr is None:
            lower, upper = table.log_bounds(mid)
            if upper < log_M - _BOUND_MARGIN:
                hi = mid
                continue
            if lower > log_M + _BOUND_MARGIN:
                lo, trS = mid, None
                continue
            tr = table.trace(mid)
        if tr < M:
            hi = mid
        else:
            lo, trS = mid, tr
    if trS is None:
        trS = table.trace(lo)
        if not trS >= M:
            raise NumericalError(
                f"floor bound at p = {lo:.9g} said Tr S >= M = {M:.6g}, "
                f"but the solve gives {trS:.9g}"
            )
    return lo, trS, iterations


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
    p_star, trS, iterations = _bisect(_FloorTable(sys, ch), M, epsilon)
    return DesignResult(
        p_star=p_star,
        trS_at_p_star=trS,
        trV_at_p_star=solve_V(p_star, ch, sys).trace,
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
    in grid order, each by the bisection of :func:`design_p_star` and equal
    to its result bit for bit, but all of them draw their floors from one
    table, so a probe is solved at most once per sweep. The resulting curve
    must be internally consistent: p* cannot increase with M, the receiver
    ceiling cannot decrease, and once it turns infinite it stays infinite;
    any violation raises :class:`NumericalError` rather than returning a
    misleading curve.

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

    table = _FloorTable(sys, ch)

    def solve_one(M: float) -> TradeoffPoint:
        p_star, trS, _ = _bisect(table, M, epsilon)
        return TradeoffPoint(M=M, p_star=p_star, trS=trS, trV=solve_V(p_star, ch, sys).trace)

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
