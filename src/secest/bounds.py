"""Asymptotic error bounds and reception-rate thresholds.

For an unstable plant observed through Bernoulli receptions at rate lam,
boundedness of the expected prediction covariance has a phase transition at
a critical rate lambda_c, which lies in [p_lower, p_upper] (Mo & Sinopoli,
IEEE TAC 2012):

* ``p_lower`` = 1 - 1/rho(A)^2, from the open-loop growth argument;
* ``p_upper``, the threshold of the modified Riccati equation (MARE;
  Sinopoli et al., IEEE TAC 2004) to within 1e-6 above, bisected on a
  two-sided certificate on A's unstable Schur block (:func:`feasibility_check`).
  It meets ``p_lower`` whenever C sees the unstable subspace with full column
  rank, e.g. for scalar plants and square invertible C; for a single output
  it is 1 - 1/prod|lambda_u|^2 (Schenato et al., Proc. IEEE 2007).

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
import scipy.linalg as sla

from .channel import ChannelParams, _check_probability
from .errors import InconclusiveError, NumericalError, ValidationError
from .kalman import Coefficients, riccati_map
from .linmodel import LinearSystem, _describe_modes, prepare_stein

# Width of the final p_upper bisection bracket; critical_rates calls the
# bracket exact once it closes to within 10x this width.
_P_UPPER_TOL = 1e-6

# The one budget of the feasibility certificate loop. Probes a bisection
# bracket width from the threshold settle within a few hundred steps.
_CERT_MAX_ITERS = 10_000

# Weight of the previous iterate in the certificate loop; it damps the
# period-2 orbit a quarter-turn rotation sets up in the plain normalized map.
_CERT_DAMPING = 0.1

# solve_V stops once a step moves no entry by more than _V_TOL relative to
# the iterate's largest entry, or once a step below _V_FLOOR stops shrinking:
# the Stein solve amplifies roundoff by 1/(1 - (1 - rate) rho^2). A step
# costs 1.5-2.0 single-output riccati_map calls at n = 2 and n = 8; the
# budget reaches second_order down to about 1.1e-4 above p_upper and ends a
# failing call in about 0.64 s there and 0.71 s on a seeded n = 8 plant
# (2-core Xeon, one BLAS thread, where one riccati_map call takes 10 us).
_V_TOL = 1e-13
_V_FLOOR = 1e-9
_V_MAX_ITERS = 40_000


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
    _check_probability(p, "p")
    rate = p * ch.p2
    if rate <= p_lower(sys):
        return BoundValue.infinite()
    try:
        S = sys.schur.discounted_lyapunov(1.0 - rate)
    except NumericalError:
        # Within solver resolution of the threshold, or on a strongly
        # non-normal A a floor so large (measured: 1e22 x Q and up) that the
        # Cayley solve's Sylvester step loses its diagonal to roundoff; the
        # floor is effectively unbounded there.
        return BoundValue.infinite()
    return BoundValue.from_matrix(S)


def feasibility_check(lam: float, sys: LinearSystem) -> bool:
    """Decide whether the averaged Riccati iteration stays bounded at rate lam.

    The question only concerns A's unstable block: with the sorted Schur
    factor A = U T U^H, T_u = T[:k, :k] and W an orthonormal basis of the row
    space of C U[:, :k], let

        h(X) = T_u (X - lam X W^H (W X W^H)^-1 W X) T_u^H,

    the noise-free Riccati map of that block: :func:`~secest.kalman.riccati_map`
    on (T_u, W, 0, 0), in the factor's real or complex arithmetic. For any
    X > 0,

    * max eig(h(X), X) < 1 proves lam feasible: the gain X W^H (W X W^H)^-1
      makes the second-moment operator of the error a contraction;
    * min eig(h(X), X) > 1 proves lam infeasible: g_lam >= h and h is
      monotone and homogeneous, so the iterates grow without bound.

    Starting from the Stein solution of X = (1 - lam) T_u X T_u^H + I, the
    loop applies X <- h(X)/tr h(X) + 0.1 X/tr X until one of the two
    certificates holds. Without iterating, every rate is infeasible on a
    plant C does not detect (``sys.unseen_modes`` nonempty: an unseen mode
    with |lambda| >= 1 grows open loop), rates at or below ``p_lower`` are
    infeasible, and any rate is feasible on a plant without unstable modes.
    When C U[:, :k] has full column rank (scalar plants, square invertible
    C), W is unitary and h(X) = (1 - lam) T_u X T_u^H, so every rate above
    ``p_lower`` is feasible, also without iterating.
    An :class:`InconclusiveError` is raised if the start solve fails, an
    iterate turns singular or non-finite, or neither certificate holds
    within the budget, which happens at rates within roundoff of the
    threshold.
    """
    _check_probability(lam, "lam")
    if sys.unseen_modes:
        return False
    schur = sys.schur
    k = schur.k
    if k == 0:
        return True
    if lam <= p_lower(sys):
        return False
    Tu = schur.T[:k, :k]
    _, s, Vh = np.linalg.svd(sys.C @ schur.U[:, :k])
    W = Vh[:int(np.sum(s > max(sys.m, k) * np.finfo(float).eps * s[0]))]
    if len(W) == k:  # W unitary: h(X) = (1 - lam) T_u X T_u^H, a contraction above p_lower
        return True
    try:
        X = prepare_stein(Tu, 1.0 - lam, schur.sigma)(np.eye(k))
    except NumericalError as exc:  # lam within roundoff of p_lower, or T_u far from normal
        raise InconclusiveError(f"feasibility at rate {lam:.9g} undecided: {exc}",
                                iterations=0) from exc
    block = Coefficients(Tu, W, np.zeros((k, k)), np.zeros((len(W), len(W))))
    for it in range(1, _CERT_MAX_ITERS + 1):
        try:
            H = riccati_map(X, block, lam)
            mu = sla.eigh(H, X, eigvals_only=True)
        except (ValueError, NumericalError):  # X turned singular or non-finite
            break
        if mu[-1] < 1.0:
            return True
        if mu[0] > 1.0:
            return False
        X = H / np.trace(H).real + _CERT_DAMPING * X / np.trace(X).real
    raise InconclusiveError(f"feasibility at rate {lam:.9g} undecided after {it} iterations",
                            iterations=it)


_p_upper_cache: "weakref.WeakKeyDictionary[LinearSystem, float]" = weakref.WeakKeyDictionary()


def p_upper(sys: LinearSystem) -> float:
    """Bisect for the smallest rate at which the averaged Riccati iteration
    stays bounded, with :func:`feasibility_check` deciding each probe.

    Runs on [p_lower(sys), 1] down to a bracket of width 1e-6 and returns
    its feasible end, so the result lies within 1e-6 above the critical
    rate. An undecided probe counts as infeasible, which can only push the
    result upward. Raises :class:`NumericalError` when full reception is
    not certified feasible, at once and naming the modes when C does not
    see an eigenvalue of modulus at least one (``sys.unseen_modes``).
    Results are cached per system instance.
    """
    cached = _p_upper_cache.get(sys)
    if cached is not None:
        return cached

    def feasible(lam: float) -> bool:
        try:
            return feasibility_check(lam, sys)
        except InconclusiveError:
            return False

    lo = p_lower(sys)
    hi = 1.0
    if not feasible(hi):
        if sys.unseen_modes:
            reason = ("(A, C) is not detectable: C does not see the eigenvalue(s) "
                      + _describe_modes(sys.unseen_modes))
        else:
            reason = "the feasibility certificate is undecided there"
        raise NumericalError(f"no bounded fixed point certified even at full reception; {reason}")
    while hi - lo > _P_UPPER_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    _p_upper_cache[sys] = hi
    return hi


def solve_V(p: float, ch: ChannelParams, sys: LinearSystem) -> BoundValue:
    """Intended receiver's asymptotic error ceiling at withholding probability p.

    When the effective rate lam = p*p1 clears ``p_upper``, iterates the
    Stein split V <- X, X = (1-lam) A X A' + (1-lam) Q + lam g_1(V), from
    Sigma0 to g_lam's fixed point; otherwise the ceiling is infinite. The
    split converges at least as fast as V <- g_lam(V) (regular splitting;
    Varga, Matrix Iterative Analysis, ch. 3), and its solve absorbs the
    open-loop direction, the near-critical one when ``p_upper`` = ``p_lower``
    (scalar and invertible-C plants).

    The iterate lives in the coordinates of the plant's Schur factor
    A = U T U^H: W = U^H V U, with g_1 the one Riccati formula
    :func:`~secest.kalman.riccati_map` on (T, C U, U^H Q U, R), so a step is
    W <- Stein(alpha U^H Q U + lam g_1(W)), alpha = 1 - lam, in the factor's
    dtype. The Stein solve's Cayley factor depends on alpha alone and is
    formed once per call (:meth:`~secest.linmodel.SchurFactor.stein`). The
    stop rule, a step max|W_next - W| / max|W_next| of at most 1e-13, or one
    below 1e-9 that no longer shrinks, is read on W; the ceiling
    sym(Re(U W U^H)) is formed once, at the end.

    Elsewhere (e.g. one output), within about 1e-4 of ``p_upper`` the
    iteration still moves after its 40 000-step budget, and a
    :class:`NumericalError` naming the rate, ``p_upper`` and the budget is
    raised (the CLI exits 2).
    """
    _check_probability(p, "p")
    rate = p * ch.p1
    pu = p_upper(sys)
    if rate <= pu:
        return BoundValue.infinite()

    schur = sys.schur
    U, Uh = schur.U, schur.U.conj().T
    alpha = 1.0 - rate
    stein = schur.stein(alpha)
    coords, aQU = Coefficients(schur.T, sys.C @ U, schur.QU, sys.R), alpha * schur.QU
    W, prev = Uh @ sys.Sigma0 @ U, math.inf
    for _ in range(_V_MAX_ITERS):
        Wn = stein(aQU + rate * riccati_map(W, coords, 1.0))
        step = float(np.abs(Wn - W).max() / np.abs(Wn).max())
        if step <= _V_TOL or prev <= step <= _V_FLOOR:
            V = (U @ Wn @ Uh).real
            return BoundValue.from_matrix(0.5 * (V + V.T))
        prev, W = step, Wn
    raise NumericalError(
        f"fixed-point iteration did not converge in {_V_MAX_ITERS} iterations at "
        f"effective rate {rate:.9g}, {rate - pu:.3g} above p_upper = {pu:.9g}; "
        "the fixed point is bounded but too slow to reach there"
    )


def critical_rates(sys: LinearSystem) -> CriticalRates:
    """Bracket lambda_c by [p_lower, p_upper], p_upper the MARE (ceiling) threshold."""
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
