"""Asymptotic error bounds and critical reception rates.

For an unstable plant observed through Bernoulli receptions at rate lam,
boundedness of the expected prediction covariance has a phase transition at
a critical rate p_c. That rate is bracketed by two computable quantities:

* ``p_lower`` = 1 - 1/rho(A)^2, from the open-loop growth argument;
* ``p_upper`` = the smallest lam for which some X satisfies X >= g_lam(X),
  where g_lam is the averaged Riccati map from :mod:`secest.kalman`. The two
  coincide for scalar plants and whenever C is square and invertible.

On top of the bracket sit the two quantities the withholding designer
trades off, evaluated at the receivers' effective rates:

* the eavesdropper's error floor: the solution S of the discounted
  Lyapunov equation S = (1 - rate) A S A' + Q, infinite once
  rate <= p_lower (``solve_S``);
* the intended receiver's error ceiling: the fixed point V = g_rate(V),
  infinite once rate <= p_upper (``solve_V``).

Infinite bounds are represented explicitly by :class:`BoundValue` with
``finite=False`` and ``trace=inf``; no numeric sentinel is ever used.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .errors import InconclusiveError, NumericalError, ValidationError
from .kalman import riccati_map
from .linmodel import LinearSystem

# Spec'd iteration defaults: convergence is relative change below 1e-9, the
# divergence cutoff scales with the initial condition.
_FEAS_CONVERGENCE_RTOL = 1e-9
_FEAS_DEFAULT_MAX_ITERS = 100_000
_DIV_THRESHOLD_SCALE = 1e12

# Width of the final p_upper bisection bracket; critical_rates calls the
# bracket exact once it closes to within 10x this width.
_P_UPPER_TOL = 1e-6

# solve_V stops once an iteration moves no entry by more than this, relative
# to the iterate's largest entry, within the feasibility iteration budget.
_V_TOL = 1e-10

# Per-probe iteration budget inside the p_upper bisection. The witness
# certificate classifies feasible probes in a handful of steps, so a probe
# that burns the whole budget is treated as infeasible, which can only push
# the returned rate upward (the conservative direction).
_PROBE_MAX_ITERS = 3000


@dataclass(frozen=True)
class BoundValue:
    """A possibly-infinite covariance bound."""

    finite: bool
    matrix: np.ndarray | None
    trace: float

    @classmethod
    def from_matrix(cls, S: np.ndarray) -> "BoundValue":
        return cls(finite=True, matrix=S, trace=float(np.trace(S)))

    @classmethod
    def infinite(cls) -> "BoundValue":
        return cls(finite=False, matrix=None, trace=math.inf)


@dataclass(frozen=True)
class CriticalRates:
    """Bracket [p_lower, p_upper] for the critical reception rate."""

    p_lower: float
    p_upper: float
    exact: bool


@dataclass(frozen=True)
class SecrecyInterval:
    """Withholding probabilities p that keep the intended receiver bounded
    while driving the eavesdropper's expected error unbounded.

    The interval is (lower_exclusive, upper_inclusive]. When the critical
    rate is only known up to the bracket, the interval is built from the
    pessimistic ends and ``conservative`` is set. ``user_nominal_bounded``
    records whether the intended receiver is provably bounded with no
    withholding at all (p = 1).
    """

    lower_exclusive: float
    upper_inclusive: float
    empty: bool
    conservative: bool
    user_nominal_bounded: bool


def p_lower(sys: LinearSystem) -> float:
    """Open-loop divergence threshold 1 - 1/rho(A)^2, rho from the plant's Schur factor."""
    rho = sys.schur.rho
    if rho <= 1.0:
        raise ValidationError(
            f"rho(A) = {rho:.6g} <= 1: the reception-rate threshold is only "
            "defined for unstable plants"
        )
    return 1.0 - 1.0 / (rho * rho)


def solve_S(p: float, ch: ChannelParams, sys: LinearSystem) -> BoundValue:
    """Eavesdropper's asymptotic error floor at withholding probability p.

    Solves S = (1 - p*p2) A S A' + Q on the plant's cached Schur factor
    when the effective rate clears the open-loop threshold; otherwise the
    floor is infinite.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    rate = p * ch.p2
    if rate <= p_lower(sys):
        return BoundValue.infinite()
    try:
        S = sys.schur.discounted_lyapunov(1.0 - rate)
    except NumericalError:
        # Within solver resolution of the threshold; the floor is effectively
        # unbounded there.
        return BoundValue.infinite()
    return BoundValue.from_matrix(S)


def _certificate_holds(X: np.ndarray, sys: LinearSystem, lam: float) -> bool:
    # X is a witness iff X - g_lam(X) is PSD (up to scaled roundoff slack).
    gap = X - riccati_map(X, sys, lam)
    slack = _FEAS_CONVERGENCE_RTOL * (1.0 + float(np.max(np.abs(X))))
    return bool(np.linalg.eigvalsh(0.5 * (gap + gap.T))[0] >= -slack)


def feasibility_check(lam: float, sys: LinearSystem,
                      max_iters: int = _FEAS_DEFAULT_MAX_ITERS) -> bool:
    """Decide whether some X >= g_lam(X) exists, i.e. whether the averaged
    Riccati iteration admits a bounded fixed point at rate lam.

    Iterates X_{k+1} = g_lam(X_k) from Sigma0. Convergence of the iteration
    or an explicit witness certificate (a scaled iterate X with
    X >= g_lam(X), checked directly) proves feasibility; the trace crossing
    1e12 times Tr Sigma0 signals divergence. If the budget runs out with
    neither, an :class:`InconclusiveError` is raised so the caller can widen
    brackets conservatively.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lam must lie in [0, 1], got {lam}")
    div_threshold = _DIV_THRESHOLD_SCALE * float(np.trace(sys.Sigma0))
    # Closed-form witness ladder: whenever (1-lam) rho(A)^2 < 1 the
    # discounted Lyapunov solution exists, and large multiples of it satisfy
    # the certificate for every feasible lam when C has full column rank
    # (and sometimes beyond). Sufficient, never necessary, so failures just
    # fall through to the iteration.
    try:
        base = sys.schur.discounted_lyapunov(1.0 - lam)
    except NumericalError:
        base = None
    if base is not None:
        for t in (1e2, 1e5, 1e8, 1e11):
            if _certificate_holds(t * base, sys, lam):
                return True
    X = sys.Sigma0.copy()
    tr = float(np.trace(X))
    for it in range(int(max_iters)):
        Xn = riccati_map(X, sys, lam)
        if np.max(np.abs(Xn - X)) <= _FEAS_CONVERGENCE_RTOL * (1.0 + np.max(np.abs(X))):
            return True
        tr = float(np.trace(Xn))
        if tr > div_threshold:
            return False
        # Scale the fresh iterate up to the divergence cutoff and test it as
        # an explicit witness. Near the transition the fixed point is huge,
        # so convergence is slow, but the iterate's shape settles quickly and
        # the scaled copy certifies feasibility long before convergence.
        scale = div_threshold / max(tr, np.finfo(float).tiny)
        if scale > 1.0 and _certificate_holds(scale * Xn, sys, lam):
            return True
        X = Xn
    raise InconclusiveError(
        f"feasibility at rate {lam:.9g} undecided after {max_iters} iterations "
        f"(trace {tr:.6g} vs cutoff {div_threshold:.6g})",
        iterations=int(max_iters), last_trace=tr,
    )


def _probe_feasible(lam: float, sys: LinearSystem, max_iters: int) -> bool:
    # Unknown counts as infeasible: that can only widen the bracket upward.
    try:
        return feasibility_check(lam, sys, max_iters=max_iters)
    except InconclusiveError:
        return False


_p_upper_cache: "weakref.WeakKeyDictionary[LinearSystem, float]" = weakref.WeakKeyDictionary()


def p_upper(sys: LinearSystem) -> float:
    """Bisect for the smallest rate admitting a bounded fixed point.

    Runs on [p_lower(sys), 1] down to a bracket of width 1e-6 and returns
    its feasible end, so the result errs on the high (conservative) side
    and always satisfies result >= p_lower - 1e-6. Results are cached per
    system instance; the bracketing feasibility probes dominate the cost.
    """
    cached = _p_upper_cache.get(sys)
    if cached is not None:
        return cached

    lo = p_lower(sys)
    hi = 1.0
    if not _probe_feasible(hi, sys, _PROBE_MAX_ITERS):
        # The classical filter should admit a fixed point; escalate to the
        # full budget before giving up.
        try:
            top_ok = feasibility_check(hi, sys)
        except InconclusiveError as exc:
            raise NumericalError(
                f"feasibility undecided on the whole bracket [{lo:.9g}, 1]"
            ) from exc
        if not top_ok:
            raise NumericalError(
                "no bounded fixed point even at full reception; the system "
                "violates the solver's assumptions"
            )
    while hi - lo > _P_UPPER_TOL:
        mid = 0.5 * (lo + hi)
        if _probe_feasible(mid, sys, _PROBE_MAX_ITERS):
            hi = mid
        else:
            lo = mid
    _p_upper_cache[sys] = hi
    return hi


def solve_V(p: float, ch: ChannelParams, sys: LinearSystem) -> BoundValue:
    """Intended receiver's asymptotic error ceiling at withholding probability p.

    Iterates V <- g_{p*p1}(V) from Sigma0 to the fixed point when the
    effective rate clears ``p_upper``; otherwise the ceiling is infinite.
    The final iterate is polished with one geometric-tail extrapolation,
    which matters near the transition where plain iteration stalls.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    rate = p * ch.p1
    if rate <= p_upper(sys):
        return BoundValue.infinite()

    V = sys.Sigma0.copy()
    delta_prev = None
    for _ in range(_FEAS_DEFAULT_MAX_ITERS):
        Vn = riccati_map(V, sys, rate)
        D = Vn - V
        step = float(np.max(np.abs(D)))
        if step <= _V_TOL * (1.0 + np.max(np.abs(Vn))):
            candidate = Vn
            if delta_prev is not None and delta_prev > 0.0:
                ratio = float(np.linalg.norm(D)) / delta_prev
                if 0.0 < ratio < 1.0:
                    extrapolated = Vn + (ratio / (1.0 - ratio)) * D
                    res_plain = np.max(np.abs(Vn - riccati_map(Vn, sys, rate)))
                    res_extra = np.max(np.abs(extrapolated - riccati_map(extrapolated, sys, rate)))
                    if res_extra < res_plain:
                        candidate = extrapolated
            return BoundValue.from_matrix(0.5 * (candidate + candidate.T))
        delta_prev = float(np.linalg.norm(D))
        V = Vn
    raise NumericalError(
        f"fixed-point iteration did not converge in {_FEAS_DEFAULT_MAX_ITERS} iterations at "
        f"effective rate {rate:.9g} although a bounded fixed point was predicted"
    )


def critical_rates(sys: LinearSystem) -> CriticalRates:
    """Bracket the critical rate; flags the bracket as exact when it closes."""
    lo = p_lower(sys)
    hi = p_upper(sys)
    return CriticalRates(p_lower=lo, p_upper=hi, exact=bool(hi - lo <= 10.0 * _P_UPPER_TOL))


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0.0 else math.inf


def secrecy_interval(sys: LinearSystem, ch: ChannelParams) -> SecrecyInterval:
    """Range of withholding probabilities achieving secrecy.

    With the critical rate known exactly (closed bracket) the interval is
    (p_c/p1, min(p_c/p2, 1)]. With an open bracket the pessimistic ends are
    used instead: (p_upper/p1, min(p_lower/p2, 1)], flagged conservative.
    An empty interval means no single withholding probability can separate
    the two receivers, e.g. when p1 <= p2.
    """
    rates = critical_rates(sys)
    if rates.exact:
        pc = rates.p_lower
        lower = _safe_div(pc, ch.p1)
        upper = min(_safe_div(pc, ch.p2), 1.0)
        conservative = False
    else:
        lower = _safe_div(rates.p_upper, ch.p1)
        upper = min(_safe_div(rates.p_lower, ch.p2), 1.0)
        conservative = True
    return SecrecyInterval(
        lower_exclusive=lower,
        upper_inclusive=upper,
        empty=bool(not lower < upper),
        conservative=conservative,
        user_nominal_bounded=bool(ch.p1 > rates.p_upper),
    )
