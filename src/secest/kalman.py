"""Kalman filtering with intermittently received measurements.

Each receiver runs a standard Kalman filter, except that at every step a
Bernoulli indicator gamma(k) decides whether the measurement actually
arrived. The one-step-ahead prediction covariance then obeys the random
Riccati recursion P(k+1) = g_{gamma(k)}(P(k)) with

    g_lam(X) = A X A' + Q - lam * A X C' (C X C' + R)^(-1) C X A',

so a reception applies the full measurement correction (lam = 1) and a miss
propagates open loop (lam = 0). Intermediate values of lam appear when the
recursion is averaged over the reception process, which is how the bound
solvers elsewhere in the package use this map.

:func:`filter_errors` is the one stepped filter: it propagates the
estimation error and the prediction covariance over a whole reception
sequence. :func:`batch_covariance_oracle` is an independent route to the
same covariances, kept for cross-checking.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

from .channel import _check_probability
from .errors import NumericalError, ValidationError
from .linmodel import LinearSystem

_posv = sla.get_lapack_funcs("posv", dtype=np.float64)


def _sym(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X + X.T)


def _innovation_solve(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """S^(-1) B for the innovation covariance S = C X C' + R, by a PD solve."""
    if S.shape == (1, 1):
        s = S[0, 0]
        if not s > 0.0:
            raise NumericalError("innovation variance is not positive")
        return B / s
    c, X, info = _posv(S, B)
    # a NaN anywhere in S's upper triangle reaches the factor's last pivot
    if info != 0 or not math.isfinite(c[-1, -1]):
        raise NumericalError("innovation covariance is not finite and positive definite "
                             f"(posv info {info})")
    return X


def riccati_map(X, sys: LinearSystem, lam: float) -> np.ndarray:
    """Apply g_lam once. Requires lam in [0, 1] and X symmetric PSD-ish.

    The inner inverse is never formed; the correction uses a positive
    definite solve against C X C' + R.
    """
    _check_probability(lam, "lam")
    X = _sym(np.asarray(X, dtype=float))
    A, C, Q, R = sys.A, sys.C, sys.Q, sys.R
    open_loop = A @ X @ A.T + Q
    if lam == 0.0:
        return _sym(open_loop)
    AXC = A @ X @ C.T
    corr = AXC @ _innovation_solve(C @ X @ C.T + R, AXC.T)
    return _sym(open_loop - lam * corr)


def kalman_gain(P, sys: LinearSystem) -> np.ndarray:
    """K = P C' (C P C' + R)^(-1), computed with a PD solve."""
    P = _sym(np.asarray(P, dtype=float))
    PC = P @ sys.C.T
    return _innovation_solve(sys.C @ PC + sys.R, PC.T).T


def filter_errors(sys: LinearSystem, gammas, e0, w, v):
    """Run the intermittent Kalman filter over a reception sequence, in error form.

    With e(k) the prediction error xhat(k|k-1) - x(k) and P(k) its
    covariance, step k applies

        e_f(k) = e(k) + gamma(k) K(k) (v(k) - C e(k)),   K(k) = kalman_gain(P(k)),
        e(k+1) = A e_f(k) - w(k),                        P(k+1) = g_gamma(k)(P(k)),

    from e(0) = e0 and P(0) = Sigma0. Returns the filtered errors e_f(k) for
    k = 0..N-1 as an (N, n) array and the prediction covariances P(k) for
    k = 0..N as an (N+1, n, n) array, N = len(gammas). ``w`` must broadcast
    to (N, n) and ``v`` to (N, m).

    The recursion is linear, so the same call runs the estimator in absolute
    coordinates: with e0 the prior mean, w = 0 and the measurements y in
    place of v, the returned rows are the filtered estimates xhat(k|k).
    """
    gammas = np.asarray(gammas, dtype=bool).reshape(-1)
    N, n = gammas.shape[0], sys.n
    e = np.asarray(e0, dtype=float).reshape(-1)
    if e.shape != (n,):
        raise ValidationError(f"e0 must have shape ({n},), got {np.shape(e0)}")
    try:
        w = np.broadcast_to(np.asarray(w, dtype=float), (N, n))
        v = np.broadcast_to(np.asarray(v, dtype=float), (N, sys.m))
    except ValueError as exc:
        raise ValidationError(f"w and v must cover {N} steps: {exc}") from exc
    A, C = sys.A, sys.C
    E = np.empty((N, n))
    P = np.empty((N + 1, n, n))
    P[0] = sys.Sigma0
    for k, got in enumerate(gammas):
        if got:
            e = e + kalman_gain(P[k], sys) @ (v[k] - C @ e)
        E[k] = e
        e = A @ e - w[k]
        P[k + 1] = riccati_map(P[k], sys, 1.0 if got else 0.0)
    return E, P


def batch_covariance_oracle(sys: LinearSystem, gammas) -> np.ndarray:
    """Reference covariance path for a given reception sequence.

    Textbook covariance-form filter, deliberately coded as a separate route
    from :func:`riccati_map`: explicit gain, Joseph-form measurement update,
    explicit inverse. Starts at P(0) = Sigma0 and returns the stack of
    prediction covariances P(1..T).
    """
    gammas = [bool(g) for g in np.asarray(gammas).reshape(-1)]
    A, C, Q, R = sys.A, sys.C, sys.Q, sys.R
    eye = np.eye(sys.n)
    P = sys.Sigma0.copy()
    out = np.empty((len(gammas), sys.n, sys.n))
    for t, g in enumerate(gammas):
        if g:
            K = P @ C.T @ np.linalg.inv(C @ P @ C.T + R)
            IKC = eye - K @ C
            P_f = IKC @ P @ IKC.T + K @ R @ K.T
        else:
            P_f = P
        P = A @ P_f @ A.T + Q
        P = 0.5 * (P + P.T)
        out[t] = P
    return out
