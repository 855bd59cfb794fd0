"""Kalman filtering with intermittently received measurements.

Each receiver runs a standard Kalman filter, except that at every step a
Bernoulli indicator gamma(k) decides whether the measurement actually
arrived. The one-step-ahead prediction covariance then obeys the random
Riccati recursion P(k+1) = g_{gamma(k)}(P(k)) with

    g_lam(X) = A X A' + Q - lam * A X C' (C X C' + R)^(-1) C X A',

so a reception applies the full measurement correction (lam = 1) and a miss
propagates open loop (lam = 0). Intermediate values of lam appear when the
recursion is averaged over the reception process (the averaged-map curve in
:mod:`secest.montecarlo`, the ceiling threshold ``p_upper``).

:func:`riccati_map` is that formula, the one route to it. It reads
(A, C, Q, R) off its second argument: the plant itself, or the plant in
other coordinates (:class:`Coefficients`). The user ceiling
(:func:`secest.bounds.solve_V`) applies it at lam = 1 inside its Stein
split, in the coordinates of the plant's Schur factor A = U T U^H, on
(T, C U, U^H Q U, R) and in that factor's real or complex arithmetic.

:func:`filter_errors` is the one stepped filter: it propagates the
estimation error and the prediction covariance over whole reception
sequences, several at once when they share the noise (both receivers of a
simulated trace), forming each step's gain once for both updates.
:func:`batch_covariance_oracle` is an independent route to the same
covariances, kept for cross-checking.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .channel import _check_probability
from .errors import NumericalError, ValidationError
from .linmodel import LinearSystem

# The positive definite solve for each innovation covariance dtype.
_POSV = {np.dtype(dtype): sla.get_lapack_funcs("posv", dtype=dtype)
         for dtype in (np.float64, np.complex128)}


def _sym(X: np.ndarray) -> np.ndarray:
    """Hermitian part of X; the symmetric part of a real X."""
    return 0.5 * (X + X.conj().T)


def _innovation_solve(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """S^(-1) B for the innovation covariance S = C X C^H + R, by a PD solve."""
    if S.shape == (1, 1):
        s = S[0, 0].real
        if not s > 0.0:
            raise NumericalError("innovation variance is not positive")
        return B / s
    c, X, info = _POSV[S.dtype](S, B)
    # a NaN anywhere in S's upper triangle reaches the factor's last pivot
    if info != 0 or not math.isfinite(c[-1, -1].real):
        raise NumericalError("innovation covariance is not finite and positive definite "
                             f"(posv info {info})")
    return X


class Coefficients(NamedTuple):
    """(A, C, Q, R) of a plant in some basis, as :func:`riccati_map` reads
    them; a :class:`~secest.linmodel.LinearSystem` serves as its own."""

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray


def riccati_map(X, sys: LinearSystem | Coefficients, lam: float) -> np.ndarray:
    """g_lam(X) = A X A^H + Q - lam A X C^H (C X C^H + R)^(-1) C X A^H.

    Requires lam in [0, 1] and X Hermitian PSD-ish; X is read through its
    Hermitian part. (A, C, Q, R) come from ``sys``, the plant or the plant
    in other coordinates, and the arithmetic is that of the arguments: a
    complex X stays complex, anything else is read as float64. So the same
    code runs the map on the plant and in the coordinates of its Schur
    factor, (U^H X U; T, C U, U^H Q U, R), where the user ceiling iterates.
    The inner inverse is never formed; the correction uses a positive
    definite solve against C X C^H + R (LAPACK ``dposv`` or ``zposv`` by
    dtype, a division for one output).
    """
    _check_probability(lam, "lam")
    X = np.asarray(X)
    X = _sym(X if X.dtype == np.complex128 else X.astype(float, copy=False))
    A, C, Q, R = sys.A, sys.C, sys.Q, sys.R
    AX = A @ X
    open_loop = AX @ A.conj().T + Q
    if lam == 0.0:
        return _sym(open_loop)
    AXC = AX @ C.conj().T
    corr = AXC @ _innovation_solve(C @ X @ C.conj().T + R, AXC.conj().T)
    return _sym(open_loop - lam * corr)


def _gains(XC: np.ndarray, S: np.ndarray, got: np.ndarray) -> np.ndarray:
    """Stacked gains K = XC S^(-1) of the rows that received, zero elsewhere.

    XC is (B, n, m) and S = C X C' + R is (B, m, m). Only receiving rows are
    checked and solved, so a row's gain never depends on its neighbours: for
    m = 1 by one division, for m >= 2 by the PD solve per receiving row.
    """
    if S.shape[-1] == 1:
        s = np.where(got, S[:, 0, 0], 1.0)
        if not (s > 0.0).all():
            raise NumericalError("innovation variance is not positive")
        return XC * (got / s)[:, None, None]
    K = np.zeros_like(XC)
    for r in np.flatnonzero(got):
        K[r] = _innovation_solve(S[r], XC[r].T).T
    return K


def filter_errors(sys: LinearSystem, gammas, e0, w, v):
    """Run the intermittent Kalman filter over reception sequences, in error form.

    With e(k) the prediction error xhat(k|k-1) - x(k) and P(k) its
    covariance, step k applies

        X C' = P(k) C',   K(k) = X C' (C X C' + R)^(-1),
        e_f(k) = e(k) + gamma(k) K(k) (v(k) - C e(k)),
        P_f(k) = P(k) - gamma(k) K(k) (X C')',
        e(k+1) = A e_f(k) - w(k),   P(k+1) = sym(A P_f(k) A' + Q),

    from e(0) = e0 and P(0) = Sigma0, so P(k+1) = g_gamma(k)(P(k)). The gain
    is formed once per step and serves both updates; a step at which no row
    receives forms none. A receiving row whose innovation covariance
    C X C' + R is not finite and positive definite raises
    :class:`NumericalError`.

    ``gammas`` of shape (N,) returns the filtered errors e_f(k), k = 0..N-1,
    as an (N, n) array and the prediction covariances P(k), k = 0..N, as an
    (N+1, n, n) array. B stacked reception sequences, shape (B, N), are
    stepped together and return (B, N, n) and (B, N+1, n, n). A row that
    misses a step gets a zero gain there, so while the covariances stay
    finite row b equals the (N,) call on ``gammas[b]`` bit for bit. ``e0``
    has shape (n,), ``w`` must broadcast to (N, n) and ``v`` to (N, m); all
    rows share them.

    The recursion is linear, so the same call runs the estimator in absolute
    coordinates: with e0 the prior mean, w = 0 and the measurements y in
    place of v, the returned rows are the filtered estimates xhat(k|k).
    """
    gammas = np.asarray(gammas, dtype=bool)
    single = gammas.ndim <= 1
    G = gammas.reshape(1, -1) if single else gammas
    if G.ndim != 2:
        raise ValidationError(f"gammas must have shape (N,) or (B, N), got {gammas.shape}")
    rows, N = G.shape
    n = sys.n
    e = np.asarray(e0, dtype=float).reshape(-1)
    if e.shape != (n,):
        raise ValidationError(f"e0 must have shape ({n},), got {np.shape(e0)}")
    try:
        w = np.broadcast_to(np.asarray(w, dtype=float), (N, n))[..., None]
        v = np.broadcast_to(np.asarray(v, dtype=float), (N, sys.m))[..., None]
    except ValueError as exc:
        raise ValidationError(f"w and v must cover {N} steps: {exc}") from exc
    A, C, Q, R = sys.A, sys.C, sys.Q, sys.R
    At, Ct = A.T, C.T
    E = np.empty((rows, N, n))
    P = np.empty((rows, N + 1, n, n))
    P[:, 0] = sys.Sigma0
    # errors are stacked column vectors, (B, n, 1)
    e = np.repeat(e[None, :, None], rows, axis=0)
    for k, (got, some) in enumerate(zip(G.T, G.any(axis=0).tolist())):
        X = P[:, k]
        if some:
            XC = X @ Ct
            K = _gains(XC, C @ XC + R, got)
            e = e + K @ (v[k] - C @ e)
            X = X - K @ XC.transpose(0, 2, 1)
        E[:, k] = e[..., 0]
        e = A @ e - w[k]
        X = A @ X @ At + Q
        X += X.transpose(0, 2, 1)
        np.multiply(X, 0.5, out=P[:, k + 1])
    if single:
        return E[0], P[0]
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
