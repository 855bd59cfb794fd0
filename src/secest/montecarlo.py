"""Sample-path simulation and averaged error curves.

Two levels of fidelity:

* :func:`simulate_trace` runs the full closed loop once: true state, noisy
  measurement, the withholding coin, both erasure links, and the
  intermittent Kalman filter of both receivers, stepped together in one
  stacked pass over the shared noise. The state recursion, like the
  filter's error recursion, is linear and solved for all steps by one
  banded triangular solve. Draws are organized so that the same seed
  replays the identical noise and erasure sample while only the
  withholding probability changes.
* :func:`expected_error_curve` averages the covariance recursion
  P <- g_gamma(P) over many reception draws. The covariance never depends
  on the measurement values given the reception pattern, so no state needs
  to be simulated; each step applies the update map averaged across the
  replications' draws. That is the averaged-map (bound) recursion: it tends
  to the MARE iterate, not to the mean covariance E[P_k] of the paths. The
  draws are counted on the replications' raw Philox words against exact
  integer thresholds, which decide each reception as the stream's uniform
  would, in blocks of at most 64 replications, so the draws' memory does
  not grow with the number of runs; curves at several rates under one
  seed (both receivers', in ``secest montecarlo``) are counted from one
  pass over them.

Both recursions take the filter's covariance step, which is
:func:`~secest.kalman.riccati_map`'s. On a single-output plant with at
most five states both step in the filter's straight-line Python float
kernel, generated for its size, which is faster than the matrix products:
the trace's two receivers and the curves' rates are its rows. The kernel
records only the covariances; the filter reads its gains off them, and the
curve its traces. At n = 1 it gives their bits. From n = 2 the sums round
differently (see :mod:`secest.kalman`): on the seeded test plants the
results stay within 1e-12 of the matrix products, but on
``configs/second_order.json`` the traces ``trP`` move by up to 5e-11
relative and the errors ``err`` by up to 3e-10, at steps where the
covariance-form update cancels. Other plants step in numpy.

A curve is divergent when its mean trace at k = 300 exceeds 10 times the
value at k = 30, and plateaued when the value at k = 300 is at most 1.2
times the value at k = 150. A collapse event is an eavesdropper reception
after at least 10 consecutive misses, scored by the smallest trace within
the 3 steps that follow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    STREAM_EAVESDROPPER_ERASURE,
    STREAM_MC_RUN_BASE,
    STREAM_MEASUREMENT_NOISE,
    STREAM_MECHANISM,
    STREAM_PROCESS_NOISE,
    STREAM_USER_ERASURE,
    ChannelParams,
    Mechanism,
    RngStream,
    _check_probability,
    _index,
    _replication_counts,
)
from .errors import NumericalError, ValidationError
from .kalman import (_BAD_VARIANCE, _float_route, _linear_recursion, _prior, filter_errors,
                     riccati_map)
from .linmodel import LinearSystem

# Phase judgments on averaged curves: (k0, k1) windows and the factor
# bounding mean_trP[k1] / mean_trP[k0].
_DIVERGENCE_WINDOW, _DIVERGENCE_FACTOR = (30, 300), 10.0
_PLATEAU_WINDOW, _PLATEAU_FACTOR = (150, 300), 1.2

# Collapse events: the miss run an interception must follow, and how many
# steps after it to look for the smallest trace.
_COLLAPSE_MIN_MISSES, _COLLAPSE_WINDOW = 10, 3


@dataclass
class SimulationTrace:
    """One closed-loop run; every array covers steps k = 0..T.

    ``xhat1``/``xhat2`` hold the filtered estimates (measurement folded in
    when it arrived), ``trP1``/``trP2`` the prediction covariance traces,
    ``err1``/``err2`` the Euclidean estimation errors per step.
    """

    k: np.ndarray
    x: np.ndarray
    y: np.ndarray
    sent: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    xhat1: np.ndarray
    xhat2: np.ndarray
    trP1: np.ndarray
    trP2: np.ndarray
    err1: np.ndarray
    err2: np.ndarray
    seed: int
    p: float
    p1: float
    p2: float

    def __len__(self):
        return self.k.shape[0]


@dataclass
class ExpectedErrorCurve:
    """Mean prediction-covariance trace per step, averaged over runs."""

    k: np.ndarray
    mean_trP: np.ndarray
    runs: int


def simulate_trace(sys: LinearSystem, mech: Mechanism, ch: ChannelParams,
                   T: int, seed: int) -> SimulationTrace:
    """Run the closed loop for steps k = 0..T and record everything.

    Stream usage is fixed: the initial state consumes the first n draws of
    the process-noise stream, then each step consumes one row of process
    noise, one row of measurement noise, and one uniform from each of the
    coin and the two erasure streams. Erasure uniforms are drawn every step
    whether or not the packet was sent, so reception patterns at different
    withholding probabilities come from the same underlying sample.

    The state x(k+1) = A x(k) + w(k) is one banded triangular solve over
    all steps, and both receivers' filters are one :func:`filter_errors`
    call, whose error recursion is another; only the covariances are
    stepped in Python. A step whose covariance has overflowed records an
    infinite trace, also where the covariance holds NaN entries. The noise
    is drawn through the plant's Cholesky factors
    (:attr:`~secest.linmodel.LinearSystem.noise_factors`), so a Sigma0, Q
    or R that is not symmetric positive definite raises
    :class:`ValidationError`.
    """
    T = _index(T, "T")
    if T < 0:
        raise ValidationError(f"T must be nonnegative, got {T}")
    n, m = sys.n, sys.m
    steps = T + 1

    w_stream = RngStream(seed, STREAM_PROCESS_NOISE)
    v_stream = RngStream(seed, STREAM_MEASUREMENT_NOISE)
    coin = RngStream(seed, STREAM_MECHANISM).uniforms(steps)
    link1 = RngStream(seed, STREAM_USER_ERASURE).uniforms(steps)
    link2 = RngStream(seed, STREAM_EAVESDROPPER_ERASURE).uniforms(steps)

    L0, Lq, Lr = sys.noise_factors
    x0 = L0 @ w_stream.standard_normals(n)
    w = w_stream.standard_normals((steps, n)) @ Lq.T
    v = v_stream.standard_normals((steps, m)) @ Lr.T

    sent = coin < mech.p
    gamma1 = sent & (link1 < ch.p1)
    gamma2 = sent & (link2 < ch.p2)

    # x(k+1) = A x(k) + w(k), k < T, in one banded triangular solve
    x = _linear_recursion(sys.A, w[None, :T], x0)[0]
    # a stacked matrix-vector product rounds like C x(k) at each step, bit
    # for bit; x @ C' sums in another order and moves y by up to 1e-13
    # relative on seeded n = 8-27 plants
    y = (sys.C @ x[:, :, None])[..., 0] + v

    # The plant is unstable, so x and xhat both blow up exponentially while
    # their difference stays moderate; subtracting them in absolute
    # coordinates loses every significant digit once rho(A)^k ~ 1/eps.
    # The filter therefore runs on the estimation error, from
    # e(0) = xhat(0) - x(0) = -x(0), both receivers in one stacked pass over
    # the shared noise, and the recorded xhat is x + e_f.
    e_f, P = filter_errors(sys, np.stack([gamma1, gamma2]), -x0, w, v)
    xhat = x + e_f
    trP = np.trace(P[:, :steps], axis1=2, axis2=3)
    # an overflowed covariance can hold NaN entries (0 times infinity); its
    # trace is recorded as infinite, as on averaged curves
    trP[np.isnan(trP)] = np.inf
    # A stacked (1, n) @ (n, 1) dot per row rounds like norm(e) of each
    # row; norm(..., axis=-1), einsum and sum differ in the last bit. An
    # overflowed error reads inf, without a warning.
    with np.errstate(over="ignore"):
        err = np.sqrt((e_f[..., None, :] @ e_f[..., :, None])[..., 0, 0])

    return SimulationTrace(
        k=np.arange(steps), x=x, y=y, sent=sent,
        gamma1=gamma1, gamma2=gamma2,
        xhat1=xhat[0], xhat2=xhat[1],
        trP1=trP[0], trP2=trP[1],
        err1=err[0], err2=err[1],
        seed=w_stream.seed, p=mech.p, p1=ch.p1, p2=ch.p2,
    )


def expected_error_curve(sys: LinearSystem, mech: Mechanism, rate: float,
                         T: int, runs: int, seed: int) -> ExpectedErrorCurve:
    """Average the covariance recursion over independent reception draws.

    Each replication r draws its reception pattern from stream 5+r as
    Bernoulli with the composed probability mech.p * rate, where ``rate`` is
    the receiver's link probability. At every step the update map is
    averaged across the replications' draws before being applied, which
    collapses to one covariance recursion whose loss weight is the step's
    empirical reception fraction. Sample paths individually hit astronomical
    covariances only on vanishing-probability long miss runs, so a mean of
    per-path traces is a uselessly noisy estimate of the expected curve;
    averaging the map keeps the variance bounded and reproduces the MARE
    threshold ``p_upper`` exactly: the curve is the averaged-map (bound)
    recursion, :func:`~secest.kalman.riccati_map` chained over the
    fractions. Returns the trace at each step k = 0..T. A single-output
    plant with n <= 5 states steps it in the filter's float kernel
    (:func:`~secest.kalman._float_kernel`), on one row of fractions, bit
    for bit as riccati_map at n = 1, and reads the traces off the
    covariances the kernel records, with no gain or variance buffer; other
    plants call riccati_map itself.
    A step whose covariance has overflowed records an infinite trace on
    every route, also where the covariance holds NaN entries (a zero
    coefficient times infinity); a later step with a nonzero rate fails
    the map's variance check, and :class:`NumericalError` names the step
    and the effective rate.
    """
    return _expected_error_curves(sys, mech, (rate,), T, runs, seed)[0]


def _expected_error_curves(sys: LinearSystem, mech: Mechanism, rates, T: int, runs: int,
                           seed: int) -> list[ExpectedErrorCurve]:
    """The curves of :func:`expected_error_curve` at several link ``rates``
    under one seed, from one pass over the replications' draws: each curve
    is its one-rate call bit for bit. The rates' recursions step as the
    rows of one float kernel call, or one after another through
    riccati_map, in the order given, so the first that fails is the one
    named."""
    T, runs = _index(T, "T"), _index(runs, "runs")
    if T < 0 or runs <= 0:
        raise ValidationError("T must be nonnegative and runs positive")
    for rate in rates:
        _check_probability(rate, "rate")
    effective = [mech.p * rate for rate in rates]

    fractions = _replication_counts(seed, STREAM_MC_RUN_BASE, runs, T, effective) / runs

    rows, n = len(rates), sys.n
    kernel = _float_route(sys)
    curves = np.empty((rows, T + 1))
    try:
        if kernel is not None:
            P = np.empty((rows, T + 1, n, n))
            P[:, 0] = _prior(sys)
            failed = kernel(sys, fractions, P)
            if failed is not None:
                row, k = failed
                raise NumericalError(_BAD_VARIANCE)
            curves[:] = np.trace(P, axis1=2, axis2=3)
        else:
            # an overflowing covariance is reported once, by the variance
            # check, not as raw numpy warnings
            curves[:, 0] = np.trace(_prior(sys))
            with np.errstate(over="ignore", invalid="ignore"):
                for row, lams in enumerate(fractions.tolist()):
                    P = sys.Sigma0
                    for k, lam in enumerate(lams):
                        P = riccati_map(P, sys, lam)
                        curves[row, k + 1] = np.trace(P)
    except NumericalError as exc:
        raise NumericalError(f"averaged curve overflowed at step {k + 1} of {T} "
                             f"(effective rate {effective[row]:.6g}): {exc}") from None
    # an overflowed covariance can hold NaN entries (0 times infinity);
    # its trace is recorded as infinite on every route
    curves[np.isnan(curves)] = np.inf
    return [ExpectedErrorCurve(k=np.arange(T + 1), mean_trP=curve, runs=runs)
            for curve in curves]


def time_average_error(trace: SimulationTrace, receiver: str) -> float:
    """Mean estimation error over steps k >= 1 of one run."""
    errors = {"user": trace.err1, "eavesdropper": trace.err2}
    if receiver not in errors:
        raise ValidationError(f"receiver must be one of {tuple(errors)}, got {receiver!r}")
    err = errors[receiver]
    if err.shape[0] < 2:
        raise ValidationError("the trace needs at least one step past k = 0")
    return float(np.mean(err[1:]))


def meets_divergence_criterion(curve: ExpectedErrorCurve) -> bool:
    k0, k1 = _DIVERGENCE_WINDOW
    _require_coverage(curve, k1)
    return bool(curve.mean_trP[k1] > _DIVERGENCE_FACTOR * curve.mean_trP[k0])


def meets_plateau_criterion(curve: ExpectedErrorCurve) -> bool:
    k0, k1 = _PLATEAU_WINDOW
    _require_coverage(curve, k1)
    return bool(curve.mean_trP[k1] <= _PLATEAU_FACTOR * curve.mean_trP[k0])


def _require_coverage(curve: ExpectedErrorCurve, k: int):
    if curve.mean_trP.shape[0] <= k:
        raise ValidationError(
            f"curve covers only k < {curve.mean_trP.shape[0]}, need k = {k}"
        )


def collapse_events(trace: SimulationTrace) -> list:
    """Interceptions preceded by a long miss run, and how far trP2 fell.

    Returns one (k, trace_before, min_trace_after) triple per step k where
    the eavesdropper received following at least 10 consecutive misses;
    ``min_trace_after`` is the smallest trP2 within the 3 steps after k.
    """
    trP2 = trace.trP2
    last = len(trace) - 1
    received = np.flatnonzero(trace.gamma2)
    # the misses before each reception: the gap to the previous one, or to
    # k = -1 for the first (np.diff's prepend costs twice as much)
    misses = received - np.concatenate(([-1], received[:-1])) - 1
    events = received[(misses >= _COLLAPSE_MIN_MISSES) & (received < last)]
    return [(k, float(trP2[k]), float(trP2[k + 1:k + 1 + _COLLAPSE_WINDOW].min()))
            for k in events.tolist()]
