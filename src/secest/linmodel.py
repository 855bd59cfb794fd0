"""Plant description and the matrix primitives shared by every solver.

The model is the discrete-time linear system

    x(k+1) = A x(k) + w(k),        w(k) ~ N(0, Q)
    y(k)   = C x(k) + v(k),        v(k) ~ N(0, R)

with x(0) ~ N(0, Sigma0) and all noise sources mutually independent. The
regime of interest is an unstable plant, rho(A) > 1, observed remotely over
unreliable links: open-loop uncertainty grows without bound, so whether the
estimation error stays bounded is decided by how often measurements get
through.

This module owns the container for (A, C, Q, R, Sigma0), its validity
checks, and the primitive everything else builds on, the discounted
Lyapunov (Stein) solve

    S = alpha * A S A' + Q,    0 <= alpha,  alpha * rho(A)^2 < 1.

Each :class:`LinearSystem` computes one Schur factorization A = U T U^H
(T upper triangular, the eigenvalues of A on its diagonal) on first use and
keeps it, sorted so that the k eigenvalues with |lambda| > 1 come first: T[:k, :k] is A on its unstable invariant subspace, which the
critical-rate certificate in :mod:`secest.bounds` works on alone. The
spectral radius, for validation and every solver alike, and all Stein
solves read off the same factor.

Detectability, too, is decided once per plant on that factor
(:attr:`LinearSystem.unseen_modes`), by the PBH (Popov-Belevitch-Hautus)
rank test (Hautus 1969) on each eigenvalue lambda of modulus at least one:
C does not see lambda when [lambda I - A; C] has
sigma_min <= sqrt(eps) sigma_max. The cut sits in a wide gap: on seeded
plants up to n = 30 the ratio is above 1e-5 for seen modes and below 1e-10
for unseen ones.

In the Schur basis the Stein equation becomes X = B X B^H + F with
B = sqrt(alpha) T and F = U^H Q U. A Cayley transform with a unit shift
sigma,

    Ac = (B + sigma I)^-1 (B - sigma I) = I - 2 sigma (B + sigma I)^-1,

turns it into the continuous Lyapunov equation
Ac X + X Ac^H = -2 N F N^H with N = (B + sigma I)^-1. Scaled by -1/2, which
is exact in floating point, that is H X + X H^H = N F N^H with
H = sigma N - I/2. H is still upper triangular, so one triangular inverse
(LAPACK ``trtri``, in place on B + sigma I) and one Bartels-Stewart call
(LAPACK ``trsyl``; Bartels & Stewart, CACM 1972) solve it with no Python
loop. That is O(n^3) time and O(n^2) memory per solve, after an O(n^3)
factor paid once per plant; the Kronecker-vectorized route costs O(n^6)
time and O(n^4) memory. N and H depend on alpha alone, so
:func:`prepare_stein` forms them once and returns the solve for any F. It
also exposes N and the transformed solve for a right-hand side N F N^H
formed elsewhere: on a plant without a usable eigenbasis (below), the
user ceiling's split iteration forms N T and N (U^H Q U) N^H once per call
and each step's right-hand side from them, and pays one ``trsyl`` per step.

The transform is only as accurate as B + sigma I is far from singular.
scipy's ``solve_discrete_lyapunov`` uses the same transform for n >= 10 with
the fixed shift sigma = 1, and loses digits near alpha * rho^2 = 1 when A has
a negative real eigenvalue outside the unit circle, because sqrt(alpha)
lambda then approaches -1. Here sigma is chosen once per plant, from the
eigenvalues alone: for every admissible alpha each sqrt(alpha) lambda_i lies
on the segment [0, lambda_i / rho], so the root of unity whose negative is
farthest from all those segments keeps the diagonal of B + sigma I bounded
away from zero at every alpha, up to the threshold. A zero eigenvalue of A
is harmless, unlike in a route through T^-1.

The factor and every solve on it run in real arithmetic when they can:
``dtrsyl`` costs a fraction of ``ztrsyl``, and the triangular inverse and
the basis changes become real too (at n = 27 a real solve takes about a
fifth of the time of a complex one). Each plant first takes the sorted real
Schur form. When it has no 2x2 block, every eigenvalue is real, and when
the real shift sigma = +1 or -1 also keeps -sigma at least 1/8 from every
segment [0, lambda_i / rho], the factor stays real (``dtrtri``,
``dtrsyl``). Otherwise, for complex eigenvalues or real ones near both
ends of [-rho, rho], the plant takes the complex Schur form and the
root-of-unity shift (``ztrtri``, ``ztrsyl``). One chooser,
:func:`cayley_shift`, picks the shift in both cases, from the real or the
complex candidates. The Stein solve is the same code on either dtype.

Where T has a well-conditioned eigenbasis, T = Y diag(d) Y^-1, the Stein
operator X -> X - alpha T X T^H is diagonal in it: with X = Y Z Y^H it
scales the entry Z_ij by 1 - alpha d_i conj(d_j), so a solve is one
entrywise division, O(n^2), with no ``trsyl`` (the eigenvector approach
that Golub, Nash & Van Loan, IEEE TAC 24(6), 1979, weigh against Schur
methods). :attr:`SchurFactor.modal` holds that eigenbasis: d, the
unit-column eigenvectors Y of T, Y^-1, Y^-1 (U^H Q U) Y^-H, d d^H and
(Y^H Y)^T, real when T is. It is formed on the first floor or ceiling, not
with the Schur factor (at n = 27 it costs about a third of the factor),
and it is None when cond_2(Y) exceeds ``_MODAL_MAX_COND`` = 50: a Jordan
block, a near-defective pair or a strongly non-normal T, where the
division's error grows like cond_2(Y)^2 and the Cayley solve stays at
roundoff. The floor (:func:`secest.bounds.solve_S`) and the
user ceiling take the modal route wherever it exists and the Cayley route
elsewhere; the feasibility certificate's start solve always takes the
Cayley route.

The user ceiling's start, its output matrix and, for an output matrix of
full column rank, the output noise (C^H R^-1 C)^-1 of its information-form
update depend on the plant alone, in the coordinates of whichever route it
takes. :class:`_CeilingFrame` holds them, formed on the plant's first
ceiling and kept next to the factor, like the modal basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import NumericalError, ValidationError

# Relative tolerance for accepting and silently symmetrizing a noise matrix
# that is symmetric up to floating-point noise. Grossly asymmetric inputs are
# left untouched so validation can reject them.
_SYM_RTOL = 1e-9

# A covariance counts as positive definite when its smallest eigenvalue
# exceeds this multiple of max(1, |trace|).
_PD_TOL = 1e-10

# The Stein solve refuses alpha * rho(A)^2 within this margin of 1, where the
# solution is unbounded or beyond working precision.
_STEIN_MARGIN = 1e-12

# The triangular inverse and Bartels-Stewart routine for each factor dtype.
_STEIN_LAPACK = {np.dtype(dtype): sla.get_lapack_funcs(("trtri", "trsyl"), dtype=dtype)
                 for dtype in (np.float64, np.complex128)}

# Candidate Cayley shifts for the Stein solve on a complex factor: the 64th
# roots of unity.
_SHIFTS = np.exp(2j * np.pi * np.arange(64) / 64)

# A real factor takes the shift +1 or -1 only when -sigma lies at least this
# far from every segment [0, lambda_i / rho]: every diagonal entry of
# B + sigma I then stays at least 1/8 from zero at every admissible alpha.
# A plant whose real eigenvalues crowd both ends of [-rho, rho] takes the
# complex factor, where a root of unity off the real axis stands farther off.
_REAL_SHIFT_MIN = 0.125

# The modal factor (SchurFactor.modal) is formed only when its unit-column
# eigenvector matrix Y has cond_2(Y) at most this; above it the Cayley route
# runs. The ceiling's stop rule reads its step in modal coordinates, which
# can understate the step in the Schur basis by up to cond_2(Y)^2. Measured
# on random plants (n <= 6, ceilings at p_upper + 0.5 / 0.1 / 0.01 / 1e-3):
# at cond_2(Y) 65.6 and 275 the step rule, before it required a residual of
# at most 1e-12, accepted 2.1e-12 and 1.5e-12, where the Cayley route reads
# <= 1.6e-14; on 504 plants with cond_2(Y) in [8, 50] (2 016 ceilings) it
# accepted none above 9.4e-13.
# Scaling the step by cond_2(Y)^2 instead cost held-sweep 1 step per
# ceiling and left stop rules out of reach near the threshold (a ceiling
# the Cayley route takes in 11 steps ran out of budget). Floors kept
# relative residuals <= 1.4e-14 up to cond_2(Y) = 40 (3.8e-14 at 65.6); a
# near-Jordan pair reads 5e-13 at 200 and 6e-9 at 2e4, where the Cayley
# route stays below 6e-16.
_MODAL_MAX_COND = 50.0

# The user ceiling's measurement update takes the information form
# (_CeilingFrame.Rt) when m >= n >= 2 and the whitened output matrix
# R^-1/2 C has cond_2 at most this; otherwise it keeps the Gram form. The
# information form adds Rt, whose eigenvalues span cond_2^2, to the iterate,
# so its roundoff grows like cond_2^2. Measured on seeded plants (seeds 0-5,
# (n, m) = (3, 3), (8, 8), (8, 10), (27, 27), C = P diag(s) W^T of set
# condition with P and W orthonormal, ceilings at p_upper + 0.5 / 0.1 /
# 0.01 / 1e-3; worst residual, information form against Gram form):
# 5.2e-14 / 5.2e-14 at cond_2 30, 6.7e-14 / 5.8e-14 at 100, 1.1e-13 /
# 6.8e-14 at 200, 3.7e-13 / 6.6e-14 at 400, 1.5e-12 / 6.7e-14 at 1e3 and
# 1.4e-10 / 1.1e-13 at 1e4; at 1e5 / 1e6 / 1e8 the information form raises
# on 7 / 75 / 83 of the 96 ceilings. Traces agreed within 3.1e-13 up to
# 100 and 5.5e-11 at 1e3. held-sweep's C lies far below the cut (cond_2
# 1.7-2.8 on seeds 7, 11, 2901, 2902 and 3001).
_INFO_MAX_COND = 100.0

# C does not see the eigenvalue lambda when [lambda I - A; C] has
# sigma_min <= _PBH_RTOL * sigma_max (the PBH test).
_PBH_RTOL = float(np.sqrt(np.finfo(float).eps))


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a scalar or 2-d array, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _sym(X: np.ndarray) -> np.ndarray:
    """Hermitian part of X, or of each of its stacked (..., n, n) rows."""
    return 0.5 * (X + X.conj().swapaxes(-1, -2))


def _maybe_symmetrize(arr: np.ndarray) -> np.ndarray:
    if arr.shape[0] != arr.shape[1]:
        return arr
    gap = np.max(np.abs(arr - arr.T))
    if gap <= _SYM_RTOL * (1.0 + np.max(np.abs(arr))):
        return _sym(arr)
    return arr


def cayley_shift(eigs: np.ndarray, shifts=_SHIFTS, floor: float = 0.0) -> complex | float | None:
    """Unit shift for :func:`prepare_stein` on a factor with these
    eigenvalues, or None when none of ``shifts`` stands ``floor`` clear.

    Of the candidate ``shifts`` (the 64th roots of unity on a complex
    factor, +1 and -1 on a real one), returns the sigma whose negative lies
    farthest from every segment [0, lambda_i / rho]; ties go to the first.
    For alpha * rho^2 < 1 every sqrt(alpha) lambda_i lies on its segment, so
    |sqrt(alpha) lambda_i + sigma| is at least that distance. The shift has
    the type of ``shifts``: a float from real candidates, a complex otherwise.
    """
    shifts = np.asarray(shifts)
    rho = float(np.max(np.abs(eigs)))
    z = eigs / rho if rho > 0.0 else np.zeros_like(eigs)
    # squared distance from -sigma to [0, z] is 1 - 2 t c + t^2 |z|^2 at the
    # nearest point t z, with c = Re(conj(z) (-sigma)); exactly 1 when t = 0
    c = -(np.conj(z)[None, :] * shifts[:, None]).real
    zz = np.abs(z) ** 2
    t = np.clip(np.divide(c, zz, out=np.zeros_like(c), where=zz > 0.0), 0.0, 1.0)
    dist2 = (1.0 - 2.0 * t * c + t * t * zz).min(axis=1)
    best = np.argmax(dist2)
    return None if dist2[best] < floor * floor else shifts[best].item()


def _diagonal(X: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of the contiguous square X."""
    return X.ravel(order="K")[::X.shape[0] + 1]


class _SteinSolve:
    """The Stein solve X = alpha T X T^H + F, prepared by :func:`prepare_stein`.

    ``N`` is the Cayley factor (sqrt(alpha) T + sigma I)^-1 and ``H`` is
    sigma N - I/2, which is -Ac/2: X solves the Stein equation iff
    H X + X H^H = N F N^H. Calling the object with F solves for X;
    :meth:`transformed` takes the right-hand side N F N^H itself, for a caller
    that forms it more cheaply than from F.
    """

    __slots__ = ("N", "H", "alpha", "sigma", "_trsyl")

    def __init__(self, N: np.ndarray, H: np.ndarray, alpha: float, sigma, trsyl):
        self.N, self.H, self.alpha, self.sigma, self._trsyl = N, H, alpha, sigma, trsyl

    def transformed(self, G: np.ndarray) -> np.ndarray:
        """The X with H X + X H^H = G, by one triangular Sylvester solve."""
        X, scale, info = self._trsyl(self.H, self.H, G, tranb="C")
        if info:
            raise NumericalError(f"Cayley-transformed Stein solve failed (trsyl info {info}) "
                                 f"at alpha = {self.alpha:.12g}, shift {self.sigma:.6g}")
        return X if scale == 1.0 else X / scale

    def __call__(self, F: np.ndarray) -> np.ndarray:
        N = self.N
        return self.transformed(N @ F @ N.conj().T)


def prepare_stein(T: np.ndarray, alpha: float, sigma: complex) -> _SteinSolve:
    """Prepare the Stein solve X = alpha T X T^H + F for upper triangular T
    with alpha * max|T_jj|^2 < 1, and return it as a callable F -> X.

    The Cayley transform with shift ``sigma`` (from :func:`cayley_shift` of
    T's diagonal or of a superset of it) depends on alpha alone, so it is
    formed here once: the shifted factor sqrt(alpha) T + sigma I, inverted
    in place by one LAPACK ``trtri`` call into N, and H = sigma N - I/2,
    the coefficient -Ac/2 of the continuous Lyapunov equation scaled by a
    power of two. The returned object exposes ``N`` and ``H``; each solve
    costs N F N^H and one triangular Sylvester solve H X + X H^H = N F N^H
    (:meth:`_SteinSolve.transformed`, which a caller with a cheaper route
    to N F N^H, the user ceiling, calls directly).

    Runs in the arithmetic of sqrt(alpha) T + sigma I: LAPACK ``dtrtri`` and
    ``dtrsyl`` for a real T and shift, ``ztrtri`` and ``ztrsyl`` otherwise,
    with F of the same dtype. Raises :class:`NumericalError` if LAPACK
    reports a singular shifted factor (here) or a near-singular Sylvester
    operator (in the solve).
    """
    shifted = math.sqrt(alpha) * T
    if isinstance(sigma, complex) and shifted.dtype != np.complex128:
        shifted = shifted.astype(complex)
    _diagonal(shifted)[...] += sigma
    trtri, trsyl = _STEIN_LAPACK[shifted.dtype]
    N, info = trtri(shifted, overwrite_c=1)
    if info:
        raise NumericalError(f"Cayley-transformed Stein solve failed (trtri info {info}) "
                             f"at alpha = {alpha:.12g}, shift {sigma:.6g}")
    H = sigma * N
    _diagonal(H)[...] -= 0.5
    return _SteinSolve(N, H, alpha, sigma, trsyl)


def _require_bounded(alpha: float, rho: float) -> None:
    """Raise :class:`NumericalError` once alpha * rho^2 >= 1 - 1e-12, where
    the Stein equation has no bounded solution within working precision."""
    if alpha * rho * rho >= 1.0 - _STEIN_MARGIN:
        raise NumericalError(
            f"no bounded solution: alpha * rho(A)^2 = {alpha * rho * rho:.12g} >= 1"
        )


class _ModalFactor:
    """The eigenbasis T = Y diag(d) Y^-1 of a Schur factor, where the Stein
    operator X -> X - alpha T X T^H is diagonal.

    ``Y`` has unit columns and ``Yinv`` is its inverse; ``QE`` is
    Y^-1 (U^H Q U) Y^-H, ``dd`` the outer product d d^H and ``G`` is
    (Y^H Y)^T. A matrix Z in these coordinates stands for Y Z Y^H in the
    Schur factor's basis, so Tr (Y Z Y^H) = Re sum(Z * G) and the Stein
    solution X = alpha T X T^H + Y F Y^H is F / (1 - alpha dd), entrywise.
    All of it is real when T is.
    """

    __slots__ = ("d", "Y", "Yinv", "QE", "dd", "G", "rho")

    def __init__(self, d, Y, Yinv, QU):
        self.d, self.Y, self.Yinv = d, Y, Yinv
        self.QE = Yinv @ QU @ Yinv.conj().T
        self.dd = d[:, None] * d.conj()[None, :]
        self.G = (Y.conj().T @ Y).T
        self.rho = float(np.max(np.abs(d)))

    def divisor(self, alpha: float) -> np.ndarray:
        """1 - alpha dd, the Stein operator's diagonal; raises like
        :meth:`SchurFactor.stein` when alpha * rho^2 >= 1 - 1e-12."""
        _require_bounded(alpha, self.rho)
        return 1.0 - alpha * self.dd

    def trace(self, Z: np.ndarray) -> float:
        """Re Tr (Y Z Y^H), in O(n^2)."""
        return float((Z * self.G).sum().real)

    def to_schur(self, Z: np.ndarray) -> np.ndarray:
        """The Hermitian part of Y Z Y^H: the matrix Z in the Schur factor's
        basis."""
        return _sym(self.Y @ Z @ self.Y.conj().T)


class _CeilingFrame:
    """The coordinates the user ceiling (:func:`secest.bounds.solve_V`)
    steps in, which depend on the plant alone.

    ``CU`` is C U, the output matrix in the Schur factor's basis, where the
    ceiling's residual is read. On the modal route (:attr:`SchurFactor.modal`)
    the iterate stands for Y Z Y^H in that basis, ``C`` is C U Y and
    ``start`` is the Hermitian part of Y^-1 U^H Sigma0 U Y^-H; elsewhere
    ``C`` is C U and ``start`` is U^H Sigma0 U. ``Rt`` is
    (C_s^H R^-1 C_s)^-1 for that C_s = ``C``, the output noise of the
    update's information form (:func:`secest.kalman._factored_update`
    with no output matrix), or None where the update goes through ``C``
    (:func:`_information_noise`). The arrays are read-only.
    """

    __slots__ = ("CU", "C", "start", "Rt")

    def __init__(self, sys: "LinearSystem"):
        schur = sys.schur
        U, modal = schur.U, schur.modal
        self.CU = sys.C @ U
        start = U.conj().T @ sys.Sigma0 @ U
        # M^-1 with C_s = C M: the frame's coordinates of a plant-basis vector
        to_frame = U.conj().T
        if modal is None:
            self.C, self.start = self.CU, start
        else:
            self.C, self.start = self.CU @ modal.Y, _sym(modal.Yinv @ start @ modal.Yinv.conj().T)
            to_frame = modal.Yinv @ to_frame
        self.Rt = _information_noise(sys.C, sys.R, to_frame)
        for X in (self.CU, self.C, self.start, self.Rt):
            if X is not None:
                X.flags.writeable = False


def _information_noise(C: np.ndarray, R: np.ndarray, to_frame: np.ndarray) -> np.ndarray | None:
    """(C_s^H R^-1 C_s)^-1 for C_s = C M, given M^-1 (``to_frame``), when
    m >= n >= 2 and the whitened R^-1/2 C has cond_2 <= ``_INFO_MAX_COND``;
    None otherwise, and for an R that is not positive definite.

    With R^-1/2 C = P diag(s) V^H, C^H R^-1 C = V diag(s^2) V^H, so the
    result is the Hermitian part of B B^H with B = M^-1 V / s.
    """
    m, n = C.shape
    if not m >= n >= 2:
        return None
    try:
        whitened = sla.solve_triangular(np.linalg.cholesky(R), C, lower=True)
    except np.linalg.LinAlgError:
        return None
    _, s, Vh = np.linalg.svd(whitened, full_matrices=False)
    if not (s[-1] > 0.0 and s[0] <= _INFO_MAX_COND * s[-1]):
        return None
    B = (to_frame @ Vh.conj().T) / s
    return _sym(B @ B.conj().T)


@dataclass(frozen=True, eq=False)
class SchurFactor:
    """Sorted Schur form A = U T U^H, with Q carried into the same basis.

    ``T`` is upper triangular and holds the eigenvalues of A on its
    diagonal, the ``k`` of modulus greater than one first, so ``T[:k, :k]``
    is the unstable block and ``U[:, :k]`` spans its invariant subspace;
    ``rho`` is read off the diagonal, ``QU`` is U^H Q U and ``sigma`` is the
    Cayley shift every Stein solve on this factor uses.

    The factor is real (``T``, ``U``, ``QU`` float64, ``sigma`` +1 or -1)
    when the real Schur form of A has no 2x2 block and one of the real
    shifts clears ``_REAL_SHIFT_MIN``; otherwise it is the complex Schur form
    with a root-of-unity shift. :func:`cayley_shift` picks the shift either
    way, from the two real candidates or the 64 roots. Every reader works on
    either dtype.
    """

    T: np.ndarray
    U: np.ndarray
    QU: np.ndarray
    rho: float
    k: int
    sigma: complex | float

    @classmethod
    def of(cls, A: np.ndarray, Q: np.ndarray) -> "SchurFactor":
        T, U, k = sla.schur(A, output="real", sort="ouc")
        # no 2x2 block: every eigenvalue is real and on the diagonal
        real = not np.any(np.diag(T, -1))
        sigma = cayley_shift(np.diag(T), (1.0, -1.0), _REAL_SHIFT_MIN) if real else None
        if sigma is None:
            T, U, k = sla.schur(A, output="complex", sort="ouc")
            sigma = cayley_shift(np.diag(T))
        return cls(T=T, U=U, QU=U.conj().T @ Q @ U, rho=float(np.max(np.abs(np.diag(T)))),
                   k=int(k), sigma=sigma)

    def stein(self, alpha: float) -> _SteinSolve:
        """The Stein solve X = alpha T X T^H + F in this factor's basis,
        prepared once for alpha (:func:`prepare_stein`).

        The solution exists iff alpha * rho(A)^2 < 1; :class:`NumericalError`
        is raised once alpha * rho^2 >= 1 - 1e-12, for the caller to map to
        an infinite bound.
        """
        _require_bounded(alpha, self.rho)
        return prepare_stein(self.T, alpha, self.sigma)

    @cached_property
    def modal(self) -> _ModalFactor | None:
        """The eigenbasis of T (:class:`_ModalFactor`), formed on first use,
        or None when its unit-column eigenvector matrix Y has
        cond_2(Y) > ``_MODAL_MAX_COND`` (e.g. a Jordan block, or a strongly
        non-normal T), where the Cayley route of :meth:`stein` stays
        accurate and a division by 1 - alpha d d^H would not."""
        d, Y = np.linalg.eig(self.T)
        W, s, Vh = np.linalg.svd(Y)
        if not s[-1] * _MODAL_MAX_COND >= s[0]:
            return None
        return _ModalFactor(d, Y, (Vh.conj().T / s) @ W.conj().T, self.QU)

    def discounted_lyapunov(self, alpha: float) -> np.ndarray:
        """Solve S = alpha * A S A' + Q in this factor's basis: the X with
        X = alpha T X T^H + U^H Q U, so S = :meth:`to_plant` (X).

        The solution is the limit of S_{k+1} = alpha A S_k A' + Q; the solve
        (:meth:`stein`) raises when there is no bounded solution. U is
        unitary, so Tr S = Re Tr X without the back-transform.
        """
        return self.stein(alpha)(self.QU)

    def to_plant(self, X: np.ndarray) -> np.ndarray:
        """The symmetric plant-basis matrix sym(Re(U X U^H)) of X given in
        this factor's basis."""
        return _sym((self.U @ X @ self.U.conj().T).real)


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Immutable container for the plant matrices.

    Scalars are accepted anywhere and treated as 1x1 matrices. Covariance
    inputs that are symmetric up to roundoff are symmetrized on construction;
    anything worse is kept as-is for :func:`validate_system` to flag. Shape
    consistency is enforced here because a dimensionally inconsistent system
    cannot even be represented; value-level requirements (definiteness,
    instability) are reported by :func:`validate_system` instead of raised.

    What depends on the plant alone is formed on first use and kept: the
    Schur factor, the user ceiling's frame and the Cholesky factors of
    Sigma0, Q and R that simulated traces draw their noise through
    (:attr:`noise_factors`). Only a draw needs definiteness, so only the
    factors raise on a covariance that lacks it.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        C = _as_matrix(self.C, "C")
        Q = _maybe_symmetrize(_as_matrix(self.Q, "Q"))
        R = _maybe_symmetrize(_as_matrix(self.R, "R"))
        Sigma0 = _maybe_symmetrize(_as_matrix(self.Sigma0, "Sigma0"))

        n = A.shape[0]
        if A.shape != (n, n):
            raise ValidationError(f"A must be square, got {A.shape}")
        m = C.shape[0]
        if C.shape != (m, n):
            raise ValidationError(f"C must have {n} columns to match A, got {C.shape}")
        if Q.shape != (n, n):
            raise ValidationError(f"Q must be {n}x{n}, got {Q.shape}")
        if R.shape != (m, m):
            raise ValidationError(f"R must be {m}x{m}, got {R.shape}")
        if Sigma0.shape != (n, n):
            raise ValidationError(f"Sigma0 must be {n}x{n}, got {Sigma0.shape}")

        for name, arr in (("A", A), ("C", C), ("Q", Q), ("R", R), ("Sigma0", Sigma0)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @cached_property
    def schur(self) -> SchurFactor:
        """Schur factor of A with Q in its basis, computed on first use.

        The system is frozen and its arrays are read-only, so the cached
        factor cannot go stale.
        """
        return SchurFactor.of(self.A, self.Q)

    @cached_property
    def _ceiling_frame(self) -> _CeilingFrame:
        """The user ceiling's coordinates (:class:`_CeilingFrame`), formed on
        the first ceiling and kept, next to the factor's modal basis."""
        return _CeilingFrame(self)

    @cached_property
    def noise_factors(self) -> tuple:
        """The lower Cholesky factors (L0, Lq, Lr) of Sigma0, Q and R, formed
        on first use and kept, read-only: a simulated trace draws
        x(0) = L0 z, w = Z Lq' and v = Z Lr' from them. A matrix that is not
        symmetric positive definite has no factor and raises
        :class:`~secest.errors.ValidationError` naming it. Construction
        leaves a covariance exactly symmetric or asymmetric beyond roundoff,
        and the factorization reads only the lower triangle, so symmetry is
        checked exactly."""
        factors = []
        for name, arr in (("Sigma0", self.Sigma0), ("Q", self.Q), ("R", self.R)):
            try:
                L = np.linalg.cholesky(arr) if (arr == arr.T).all() else None
            except np.linalg.LinAlgError:
                L = None
            if L is None:
                raise ValidationError(f"{name} must be symmetric positive definite to "
                                      "draw noise from it")
            L.flags.writeable = False
            factors.append(L)
        return tuple(factors)

    @cached_property
    def unseen_modes(self) -> tuple:
        """Eigenvalues lambda of A with |lambda| >= 1 that C does not see.

        By the PBH test, lambda is unseen when [lambda I - A; C] loses column
        rank (sigma_min <= sqrt(eps) sigma_max), with lambda read off the
        Schur factor's diagonal and taken as real when its imaginary part is
        within that tolerance. Empty iff (A, C) is detectable, which a
        bounded error at any reception rate requires: an unseen mode grows
        open loop.
        """
        eye = np.eye(self.n)
        unseen = []
        for lam in np.diag(self.schur.T):
            if abs(lam) < 1.0:
                continue
            lam = float(lam.real) if abs(lam.imag) <= _PBH_RTOL * abs(lam) else complex(lam)
            s = np.linalg.svd(np.vstack([lam * eye - self.A, self.C]), compute_uv=False)
            if s[-1] <= _PBH_RTOL * s[0]:
                unseen.append(lam)
        return tuple(unseen)


def _describe_modes(modes) -> str:
    """Eigenvalues as a comma-separated list, six significant digits each."""
    return ", ".join(f"{lam:.6g}" for lam in modes)


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_system`: failures block, warnings inform."""

    ok: bool
    spectral_radius: float
    failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def is_positive_definite(X) -> bool:
    """True iff X is symmetric (within tolerance) with min eigenvalue > 1e-10.

    Symmetry is judged relative to the largest entry; definiteness is judged
    against 1e-10 scaled by the trace so that the check is meaningful for
    matrices far from unit scale.
    """
    X = _as_matrix(X, "X")
    if X.shape[0] != X.shape[1]:
        raise ValidationError(f"definiteness needs a square matrix, got {X.shape}")
    scale = 1.0 + np.max(np.abs(X))
    if np.max(np.abs(X - X.T)) > _SYM_RTOL * scale:
        return False
    w = np.linalg.eigvalsh(_sym(X))
    return bool(w[0] > _PD_TOL * max(1.0, abs(float(np.trace(X)))))


def validate_system(sys: LinearSystem) -> ValidationReport:
    """Check a system against the assumptions the solvers rely on.

    Never raises; every problem lands in the report. Failures: Q, R, Sigma0
    not positive definite, or rho(A) <= 1 (a stable plant makes the secrecy
    question trivial and several bounds meaningless), with rho read off
    ``sys.schur`` as every solver reads it. Warning: (A, C) not detectable,
    naming ``sys.unseen_modes``; no reception rate then bounds the user's
    error, and ``p_upper`` raises. Controllability needs no check: a
    positive definite Q makes (A, Q^(1/2)) controllable.
    """
    failures = []
    warnings = []
    rho = sys.schur.rho

    for name, arr in (("Q", sys.Q), ("R", sys.R), ("Sigma0", sys.Sigma0)):
        if not is_positive_definite(arr):
            failures.append(f"{name} positive definite: failed")

    if rho <= 1.0:
        failures.append(
            f"spectral radius > 1: failed (rho(A) = {rho:.6g}; the plant must be unstable)"
        )

    if sys.unseen_modes:
        warnings.append("(A, C) not detectable: C does not see the eigenvalue(s) "
                        + _describe_modes(sys.unseen_modes))

    return ValidationReport(ok=not failures, spectral_radius=rho,
                            failures=failures, warnings=warnings)
