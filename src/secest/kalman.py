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

:func:`riccati_map` is that formula, the one definition of it, written as
the filter steps it: the measurement update X_f = X - K (X C')' with the
gain K = lam X C' (C X C' + R)^(-1) (:func:`_gains`), then the prediction
sym(A X_f A' + Q). It reads (A, C, Q, R) off its second argument: the
plant itself, or the plant in other coordinates (:class:`Coefficients`).
The user ceiling (:func:`secest.bounds.solve_V`) steps its Stein split in
the eigenbasis of the plant's Schur factor, or in the Cayley coordinates
of its Stein solve where that eigenbasis is ill-conditioned; a step is the
measurement update alone, in the Cholesky-factored Gram form X - G^H G
(:func:`_factored_update`), and one entrywise multiply-add or one
triangular Sylvester solve. The update goes through C, or, for an output
matrix of full column rank with at least two outputs, takes the
information form X - X (X + Rt)^-1 X, Rt = (C^H R^-1 C)^-1 formed once
per plant, which needs no product with C. It applies :func:`riccati_map`
at its rate to the iterate wherever its stop rule fires, in the
coordinates of the Schur factor A = U T U^H, on (T, C U, U^H Q U, R) and
in that factor's real or complex arithmetic, and reports the fixed
point's residual. The threshold certificate
(:func:`secest.bounds.feasibility_check`) applies it noise-free on the
unstable block, on (T_u, W, 0, 0).

:func:`filter_errors` is the one stepped filter: it propagates the
estimation error and the prediction covariance over whole reception
sequences, several at once when they share the noise (both receivers of a
simulated trace). Its one step in Python is :func:`riccati_map` on the
stacked rows at lam = gamma(k); the gains depend on P(k) alone and are
read off it after the loop, and given them the error recursion is linear,
solved for every step at once by one LAPACK banded triangular solve
(:func:`_linear_recursion`, which also carries the simulated state).

On a small single-output plant (m = 1, n <= 5) numpy's per-call overhead,
not the arithmetic, would dominate the covariance recursion, so it steps
in straight-line Python float code generated for each n
(:func:`_float_kernel`), over the n(n+1)/2 entries of the symmetric
covariance: the filter's rows with weights gamma(k), and the averaged
curve's with each step's reception fraction. The kernel records only the
covariances; the filter reads its gains off them after the loop, in one
:func:`_gains` call, with X C' and C X C' + r summed as the kernel sums
them, left to right over entrywise products, so the gains are the
kernel's whatever C is. Each statement mirrors an entry of
:func:`riccati_map`'s products, so at n = 1 the kernel gives its bits, and
from n = 2 they differ only in how the sums round (BLAS fuses
multiply-adds). On a 2-core Xeon the two-row filter call of a simulated
trace beats numpy up to n = 5 (:data:`_FLOAT_MAX_N`); plants with more
states or more outputs, and the ceiling and the certificate, stay on numpy.
:func:`batch_covariance_oracle` is an independent route to the same
covariances, kept for cross-checking.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg as sla

from .channel import _check_probability
from .errors import NumericalError, ValidationError
from .linmodel import LinearSystem, _sym

_BAD_VARIANCE = "innovation variance is not finite and positive"

# The positive definite solve for each innovation covariance dtype.
_POSV = {np.dtype(dtype): sla.get_lapack_funcs("posv", dtype=dtype)
         for dtype in (np.float64, np.complex128)}


def _innovation_solve(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """S^(-1) B for the innovation covariance S = C X C^H + R, by a PD solve."""
    c, X, info = _POSV[S.dtype](S, B)
    # a NaN anywhere in S's upper triangle reaches the factor's last pivot
    if info != 0 or not math.isfinite(c[-1, -1].real):
        raise NumericalError("innovation covariance is not finite and positive definite "
                             f"(posv info {info})")
    return X


# The Cholesky factor of an innovation covariance and the triangular solve
# against it, for each iterate dtype.
_POTRF = {np.dtype(dtype): sla.get_lapack_funcs("potrf", dtype=dtype)
          for dtype in (np.float64, np.complex128)}
_TRSM = {np.dtype(dtype): sla.get_blas_funcs("trsm", dtype=dtype)
         for dtype in (np.float64, np.complex128)}


def _factored_update(X: np.ndarray, C: np.ndarray | None, R: np.ndarray) -> np.ndarray:
    """The measurement update X - H^H S^-1 H as the Gram update X - G^H G
    (Bierman 1977; Verhaegen & Van Dooren, IEEE TAC 1986).

    Through the output matrix C, H = C X and S = H C^H + R, the innovation
    covariance. With C None it is the information form of an output matrix
    of full column rank (Anderson & Moore, Optimal Filtering, 1979): R is
    then its output noise Rt = (C^H R^-1 C)^-1, formed once per plant,
    H = X and S = X + Rt, and the update (X^-1 + Rt^-1)^-1 =
    X - X (X + Rt)^-1 X needs no product with C.

    S^T is S in Fortran order, so ``potrf`` factors it in place as U^H U,
    with S = L L^H for L = U^T, and G^T = H^T U^-1 by one right-side
    ``trsm``, in H's buffer when H is a product; for one output,
    G = H / sqrt(s). numpy forms G^T G of a real G on one buffer (``syrk``),
    so on a Hermitian real X the result is exactly symmetric. An S that is
    not positive definite or holds a NaN raises :class:`NumericalError`; an
    infinite pivot may pass (``potrf`` zeroes the multipliers below it), but
    X - G^H G keeps X's non-finite entries: a non-finite X never comes back
    finite.
    """
    if C is None:
        H, S = X, X + R
    else:
        H = np.dot(C, X)
        S = np.dot(H, C.conj().T) + R
    if len(S) == 1:
        s = S[0, 0].real
        if not 0.0 < s < math.inf:
            raise NumericalError(_BAD_VARIANCE)
        G = H / math.sqrt(s)
    else:
        # the flags go by position, which f2py parses faster than keywords:
        # potrf(a, lower=0, clean=0, overwrite_a=1), U^H U = S^T
        U, info = _POTRF[S.dtype](S.T, 0, 0, 1)
        # a NaN anywhere in the upper triangle of S^T reaches the last pivot
        if info != 0 or not math.isfinite(U[-1, -1].real):
            raise NumericalError("innovation covariance is not finite and positive definite "
                                 f"(potrf info {info})")
        # G^T = H^T U^-1, in H's buffer unless H is X: trsm(alpha, a, b,
        # side=1, lower=0, trans_a=0, diag=0, overwrite_b)
        G = _TRSM[S.dtype](1.0, U, H.T, 1, 0, 0, 0, C is not None).T
    return X - G.conj().T @ G


class Coefficients(NamedTuple):
    """(A, C, Q, R) of a plant in some basis, as :func:`riccati_map` reads
    them; a :class:`~secest.linmodel.LinearSystem` serves as its own."""

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray


def riccati_map(X, sys: LinearSystem | Coefficients, lam: float | np.ndarray) -> np.ndarray:
    """g_lam(X) = A X A^H + Q - lam A X C^H (C X C^H + R)^(-1) C X A^H, in
    the filter's form: the measurement update weighed by lam, then the
    prediction.

    With the gain K = lam X C^H (C X C^H + R)^(-1) (:func:`_gains`, the
    filter's gain routine) it forms X_f = X - K (X C^H)^H and returns the
    Hermitian part of (A X_f) A^H + Q; at lam = 0, X_f = X. So a step of
    :func:`filter_errors` is this map on its stacked rows (..., n, n) at
    lam = gamma(k), one weight per row, each its one-matrix call bit for bit;
    a row of weight zero keeps even an overflowed X, and no warning escapes.
    Requires lam in [0, 1] and X Hermitian PSD-ish; X is read through its
    Hermitian part. (A, C, Q, R) come from ``sys``, the plant or the plant
    in other coordinates, and the arithmetic is that of the arguments: a
    complex X stays complex, anything else is read as float64. So the same
    code runs the map on the plant and in the coordinates of its Schur
    factor, (U^H X U; T, C U, U^H Q U, R), where the user ceiling checks
    its fixed point.
    The inner inverse is never formed: the gain is X C^H (lam / s) for one
    output, s the innovation variance, and lam times a positive definite
    solve against C X C^H + R (LAPACK ``dposv`` or ``zposv`` by dtype) for
    more. An innovation covariance that is not finite and positive
    definite raises :class:`NumericalError`.
    """
    X = np.asarray(X)
    X = X if X.dtype == np.complex128 else X.astype(float, copy=False)
    A, C, Q, R = sys.A, sys.C, sys.Q, sys.R
    if X.ndim > 2:
        lam = np.asarray(lam)
        if lam.shape != X.shape[:-2] or not all(0.0 <= w <= 1.0 for w in lam.ravel().tolist()):
            raise ValidationError(f"lam must hold one weight in [0, 1] per row of X, got {lam}")
        got = (lam != 0.0)[..., None, None]
        # no warning escapes; a row of weight zero keeps X (0 times inf is NaN)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            X = _sym(X)
            XC = X @ C.conj().T
            S = C @ XC + R
            if S.shape[-1] == 1 and not all(0.0 < s < math.inf for s in S[got].real.flat):
                raise NumericalError(_BAD_VARIANCE)
            X = np.where(got, X - _gains(XC, S, lam) @ XC.conj().swapaxes(-1, -2), X)
            return _sym(A @ X @ A.conj().T + Q)
    _check_probability(lam, "lam")
    X = _sym(X)
    if lam != 0.0:
        XC = X @ C.conj().T
        S = C @ XC + R
        if S.shape == (1, 1) and not 0.0 < S[0, 0].real < math.inf:
            raise NumericalError(_BAD_VARIANCE)
        X = X - _gains(XC, S, lam) @ XC.conj().T
    return _sym(A @ X @ A.conj().T + Q)


def _gains(XC: np.ndarray, S: np.ndarray, lam) -> np.ndarray:
    """Gains K = lam XC S^(-1), of one matrix or of stacked rows.

    XC = X C^H is (..., n, m), S = C X C^H + R is (..., m, m), and lam, a
    float for one matrix or an array of the rows' shape, weighs each gain:
    the rate in :func:`riccati_map`, the reception indicator in
    :func:`filter_errors`. A row's gain never depends on its neighbours,
    and a row of weight zero gets an exact zero gain, even when its
    covariance has overflowed. For m = 1 the gain is XC (lam / s), s the
    real part of S, so a weight of one gives XC (1 / s); this route checks
    nothing, and its callers check the variance. For m >= 2 each row of
    nonzero weight is solved by the PD solve, which raises on a bad
    covariance, and then weighed.
    """
    lam = np.asarray(lam)
    if S.shape[-1] == 1:
        w = lam[..., None, None]
        return np.where(w != 0.0, XC * (w / S.real), 0.0)
    if lam.ndim == 0 and lam:
        # one matrix of nonzero weight, as riccati_map calls it
        return lam * _innovation_solve(S, XC.conj().T).conj().T
    K = np.zeros_like(XC)
    for r in np.ndindex(lam.shape):
        if lam[r]:
            K[r] = lam[r] * _innovation_solve(S[r], XC[r].conj().T).conj().T
    return K


# Single-output plants with at most this many states step their covariance
# recursions, the filter's and the averaged curve's, in generated float
# code (:func:`_float_kernel`); plants with more states or outputs step
# them in numpy. The cutoff follows the calls that exist: simulate_trace's
# filter_errors call, which always stacks two rows, and the curves, one row
# per rate. Measured on a 2-core Xeon with one BLAS thread, N = 300 steps,
# numpy's time over the kernel's (median of 7, four runs): the two-row
# filter 3.8-4.5x at n = 3, 2.3-2.8x at 4, 1.5-1.8x at 5, 1.0-1.2x at 6 and
# 0.7-0.8x at 7. n = 5 is the largest size at which the filter still wins.
_FLOAT_MAX_N = 5

# The kernel, with the n-dependent statements left as fields. UPPER is
# np.triu_indices(n), the order in which the state x{i}_{j}, i <= j, packs
# the symmetric covariance; xs, the kernel's one record, holds each step's
# full matrix, row by row, as P lays it out.
_FLOAT_SOURCE = '''\
def covariances(sys, G, P):
    {coefficients}
    for row, lams in enumerate(G.tolist()):
        {state}, = P[row, 0][UPPER].tolist()
        {symmetrize}
        xs = P[row, 0].ravel().tolist()
        for lam in lams:
            if lam:
                {innovation}
                if not 0.0 < s < inf:
                    return row, len(xs) // {nn} - 1
                {filter_update}
            {predict}
            {record_state}
        P[row].flat = xs
'''


def _float_route(sys: LinearSystem) -> Callable | None:
    """The float kernel for ``sys``, or None when its recursions step in numpy."""
    return _float_kernel(sys.n) if sys.m == 1 and sys.n <= _FLOAT_MAX_N else None


@functools.cache
def _float_kernel(n: int) -> Callable:
    """:func:`riccati_map` chained over rows of weights, for plants with n
    states and one output, as straight-line Python float code built by
    ``exec``: the covariance loop of :func:`filter_errors` (weights 0 and
    1) and of the averaged curve (each step's reception fraction).

    The state is the n(n+1)/2 upper entries x{i}_{j} of the symmetric
    covariance, and each statement is one entry of a numpy route product,
    with the same expression tree: X C' and C (X C') + r, the gain as
    (X C') (lam / s), X - K (X C')', A X A' as (A X) A', sums left to right,
    and the symmetrization as (x + x) * 0.5, applied to each row's first
    state and to every prediction, as riccati_map applies it to its operand
    and its result. So at n = 1 every operation is the one the 1x1
    products round and the kernel gives riccati_map's bits, overflow
    included; from n = 2 the sums round differently, because BLAS fuses
    multiply-adds, and the symmetrization is the identity unless x + x
    overflows. A coefficient of zero still multiplies, so 0 times an
    overflowed entry is NaN, as in numpy.

    ``covariances(sys, G, P)`` steps each row of weights G from
    P[row, 0], row by row, and fills P with the iterates: it records only
    the covariances. Each step of nonzero weight forms its gain for the
    update and drops it; :func:`filter_errors` reads the gains off the
    recorded covariances, and the curve needs none. A variance that is not
    finite and positive stops it: it returns (row, k), the row and the
    step, leaving that row and later ones unfilled; otherwise it returns
    None.
    """
    def x(i, j):
        return f"x{min(i, j)}_{max(i, j)}"

    def total(terms):
        return " + ".join(terms)

    def lines(statements, depth):
        return ("\n" + "    " * depth).join(statements)

    N = range(n)
    upper = [(i, j) for i in N for j in N if i <= j]
    AX = [f"ax{i}_{j} = " + total(f"a{i}_{l} * {x(l, j)}" for l in N) for i in N for j in N]
    AXA = [total(f"ax{i}_{l} * a{j}_{l}" for l in N) + f" + q{i}_{j}" for i, j in upper]
    symmetrize = [f"{x(i, j)} = ({x(i, j)} + {x(i, j)}) * 0.5" for i, j in upper]
    fields = dict(
        nn=n * n,
        state=", ".join(x(i, j) for i, j in upper),
        coefficients=lines([
            ", ".join(f"a{i}_{j}" for i in N for j in N) + ", = sys.A.ravel().tolist()",
            ", ".join(f"c{j}" for j in N) + ", = sys.C.ravel().tolist()",
            ", ".join(f"q{i}_{j}" for i, j in upper) + ", = sys.Q[UPPER].tolist()",
            "r = sys.R.item()"], 1),
        symmetrize=lines(symmetrize, 2),
        # X C' and C (X C') + R
        innovation=lines(
            [f"xc{i} = " + total(f"{x(i, j)} * c{j}" for j in N) for i in N]
            + ["s = " + total(f"c{i} * xc{i}" for i in N) + " + r"], 4),
        # K = (X C') (lam / s) and X - K (X C')'
        filter_update=lines(
            ["f = lam / s"] + [f"k{i} = xc{i} * f" for i in N]
            + [f"{x(i, j)} = {x(i, j)} - k{i} * xc{j}" for i, j in upper], 4),
        record_state=lines([f"xs.append({x(i, j)})" for i in N for j in N], 3),
        predict=lines(AX + [f"{x(i, j)} = {e}" for (i, j), e in zip(upper, AXA)] + symmetrize, 3),
    )
    namespace = dict(inf=math.inf, UPPER=np.triu_indices(n))
    exec(_FLOAT_SOURCE.format(**fields), namespace)
    return namespace["covariances"]


# LAPACK's triangular band solve, the one route for the linear recursions.
_TBTRS = sla.get_lapack_funcs("tbtrs", dtype=np.float64)


def _linear_recursion(F, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """x(k+1) = F(k) x(k) + b(k) from x(0) = x0, for B rows at once.

    ``b`` is (B, N, n), ``F`` broadcasts to (B, N, n, n) and ``x0`` to
    (B, n); returns x(k), k = 0..N, as (B, N+1, n). The stacked unknowns
    [x(0); ...; x(N)] of every row solve one unit lower triangular system
    with bandwidth kd = 2n - 1, -F(k)[i, j] at band row n + i - j of column
    k n + j, by one LAPACK ``dtbtrs`` call: forward substitution is the
    recursion. The band is written through one strided view and the
    right-hand side [x0; b] into one buffer, which the solve overwrites.
    Rows follow each other with zero coupling, so a row's result does not
    depend on its neighbours.
    """
    B, N, n = b.shape
    band = np.zeros((B, N + 1, n, 2 * n))
    # entry (j, n + i - j) of a step's n x 2n block lies at n + j (2n - 1) + i
    # of its flat copy: one strided view holds F(k)' at the band's places.
    # Negating F first and copying is faster than negating into the view.
    diagonals = band.reshape(B, N + 1, 2 * n * n)[:, :N, n:].reshape(B, N, n, 2 * n - 1)
    diagonals[..., :n] = np.swapaxes(-np.asarray(F), -1, -2)
    rhs = np.empty((B, N + 1, n))
    rhs[:, 0] = x0
    rhs[:, 1:] = b
    x, _ = _TBTRS(band.reshape(-1, 2 * n).T, rhs.reshape(-1, 1), uplo="L", diag="U",
                  overwrite_b=1)
    return x.reshape(B, N + 1, n)


def _prior(sys: LinearSystem) -> np.ndarray:
    """Sigma0, if symmetric bit for bit: the routes would read an asymmetric one apart."""
    if sys.Sigma0.tobytes() != sys.Sigma0.T.tobytes():
        raise ValidationError("Sigma0 must be symmetric to start a covariance recursion")
    return sys.Sigma0


def filter_errors(sys: LinearSystem, gammas, e0, w, v):
    """Run the intermittent Kalman filter over reception sequences, in error form.

    With e(k) the prediction error xhat(k|k-1) - x(k) and P(k) its
    covariance, step k applies

        X C' = P(k) C',   K(k) = X C' (C X C' + R)^(-1),
        e_f(k) = e(k) + gamma(k) K(k) (v(k) - C e(k)),
        P_f(k) = P(k) - gamma(k) K(k) (X C')',
        e(k+1) = A e_f(k) - w(k),   P(k+1) = sym(A P_f(k) A' + Q),

    from e(0) = e0 and P(0) = Sigma0, which must be exactly symmetric
    (:class:`ValidationError` otherwise). Only the covariance is stepped,
    P(k+1) = riccati_map(P(k), sys, gamma(k)) on all rows at once; a
    single-output plant with n <= :data:`_FLOAT_MAX_N` steps it on Python
    floats, row by row (:func:`_float_kernel`), with the map's bits at
    n = 1 and its values up to the sums' rounding above. The gains are
    then read off the recorded P(k), k < N, in one :func:`_gains` call, on
    the float route from X C' and C X C' + r summed left to right over
    entrywise products as the kernel sums them, with K(k) v(k) one product
    per entry. Given the gains the error recursion is linear,
    e(k+1) = A (I - K(k) C) e(k) + A K(k) v(k) - w(k), so it is solved for
    all steps at once after the loop (one banded triangular solve), and
    e_f(k) = (I - K(k) C) e(k) + K(k) v(k) in one batched product. A
    receiving row whose innovation covariance C X C' + R is not finite and
    positive definite raises :class:`NumericalError`.

    ``gammas`` of shape (N,) returns the filtered errors e_f(k), k = 0..N-1,
    as an (N, n) array and the prediction covariances P(k), k = 0..N, as an
    (N+1, n, n) array. B stacked reception sequences, shape (B, N), are
    stepped together and return (B, N, n) and (B, N+1, n, n). A row that
    misses a step gets an exact zero gain there and keeps its covariance,
    so row b's errors and covariances equal the (N,) call on ``gammas[b]``
    bit for bit, overflow included. ``e0`` has shape (n,), ``w`` must
    broadcast to (N, n) and ``v`` to (N, m), and is broadcast only when it
    lacks that shape; all rows share them.

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
    n, m = sys.n, sys.m
    e0 = np.asarray(e0, dtype=float).reshape(-1)
    if e0.shape != (n,):
        raise ValidationError(f"e0 must have shape ({n},), got {np.shape(e0)}")
    w, v = np.asarray(w, dtype=float), np.asarray(v, dtype=float)
    try:
        if w.shape != (N, n):
            w = np.broadcast_to(w, (N, n))
        if v.shape != (N, m):
            v = np.broadcast_to(v, (N, m))
    except ValueError as exc:
        raise ValidationError(f"w and v must cover {N} steps: {exc}") from exc
    v = v[..., None]
    A, C, R = sys.A, sys.C, sys.R
    P = np.empty((rows, N + 1, n, n))
    P[:, 0] = _prior(sys)
    kernel = _float_route(sys)
    if kernel is None:
        for k in range(N):
            P[:, k + 1] = riccati_map(P[:, k], sys, G[:, k])
    elif kernel(sys, G, P) is not None:
        raise NumericalError(_BAD_VARIANCE)
    # gains of P(k), k < N: exactly zero where a row missed, even on inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kernel is None:
            XC = P[:, :N] @ C.T
            S = C @ XC + R
        else:
            # X C' and C X C' + r as the kernel sums them, left to right
            c = C[0].tolist()
            Pk = P[:, :N]
            XC = Pk[..., 0] * c[0]
            for j in range(1, n):
                XC += Pk[..., j] * c[j]
            S = XC[..., 0] * c[0]
            for i in range(1, n):
                S += XC[..., i] * c[i]
            S += R[0, 0]
            XC, S = XC[..., None], S[..., None, None]
        K = _gains(XC, S, G)
        Kv = K @ v if kernel is None else K * v
    IKC = np.eye(n) - K @ C
    e = _linear_recursion(A @ IKC, (A @ Kv)[..., 0] - w, e0)
    E = (IKC @ e[:, :N, :, None] + Kv)[..., 0]
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
