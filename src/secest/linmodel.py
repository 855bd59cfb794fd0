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
Ac X + X Ac^H = -2 (B + sigma I)^-1 F (B + sigma I)^-H, whose coefficient is
still upper triangular, so one triangular inverse and one Bartels-Stewart
call (LAPACK ``trsyl``; Bartels & Stewart, CACM 1972) solve it with no
Python loop. That is O(n^3) time and O(n^2) memory per solve, after an
O(n^3) factor paid once per plant; the Kronecker-vectorized route costs
O(n^6) time and O(n^4) memory. The inverse and Ac depend on alpha alone, so
:func:`prepare_stein` forms them once and returns the solve for any F; the
user ceiling's split iteration solves one Stein equation per step at a
fixed alpha and pays for them once per call.

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
segment [0, lambda_i / rho], the factor stays real (``dtrtrs``,
``dtrsyl``). Otherwise, for complex eigenvalues or real ones near both
ends of [-rho, rho], the plant takes the complex Schur form and the
root-of-unity shift (``ztrtrs``, ``ztrsyl``). One chooser,
:func:`cayley_shift`, picks the shift in both cases, from the real or the
complex candidates. The Stein solve is the same code on either dtype.
"""

from __future__ import annotations

from collections.abc import Callable
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

# The triangular solve and Bartels-Stewart routine for each factor dtype.
_STEIN_LAPACK = {np.dtype(dtype): sla.get_lapack_funcs(("trtrs", "trsyl"), dtype=dtype)
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


def _maybe_symmetrize(arr: np.ndarray) -> np.ndarray:
    if arr.shape[0] != arr.shape[1]:
        return arr
    gap = np.max(np.abs(arr - arr.T))
    if gap <= _SYM_RTOL * (1.0 + np.max(np.abs(arr))):
        return 0.5 * (arr + arr.T)
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


def prepare_stein(T: np.ndarray, alpha: float,
                  sigma: complex) -> Callable[[np.ndarray], np.ndarray]:
    """Prepare the Stein solve X = alpha T X T^H + F for upper triangular T
    with alpha * max|T_jj|^2 < 1, and return F -> X.

    The Cayley transform with shift ``sigma`` (from :func:`cayley_shift` of
    T's diagonal or of a superset of it) depends on alpha alone, so it is
    formed here once: the shifted factor sqrt(alpha) T + sigma I, its
    triangular inverse N and Ac = I - 2 sigma N. Each application then
    costs N F N^H, one triangular Sylvester solve Ac X + X Ac^H = -2 N F N^H
    and a scale.

    Runs in the arithmetic of sqrt(alpha) T + sigma I: LAPACK ``dtrtrs`` and
    ``dtrsyl`` for a real T and shift, ``ztrtrs`` and ``ztrsyl`` otherwise,
    with F of the same dtype. Raises :class:`NumericalError` if LAPACK
    reports a singular shifted factor (here) or a near-singular Sylvester
    operator (in the application).
    """
    eye = np.eye(T.shape[0])
    shifted = np.sqrt(alpha) * T + sigma * eye
    trtrs, trsyl = _STEIN_LAPACK[shifted.dtype]
    N, info = trtrs(shifted, eye)
    if info:
        raise NumericalError(f"Cayley-transformed Stein solve failed (trtrs info {info}) "
                             f"at alpha = {alpha:.12g}, shift {sigma:.6g}")
    Ac = eye - 2.0 * sigma * N
    Nh = N.conj().T

    def apply(F: np.ndarray) -> np.ndarray:
        X, scale, info = trsyl(Ac, Ac, N @ F @ Nh, tranb="C")
        if info:
            raise NumericalError(f"Cayley-transformed Stein solve failed (trsyl info {info}) "
                                 f"at alpha = {alpha:.12g}, shift {sigma:.6g}")
        return X * (-2.0 / scale)

    return apply


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

    def stein(self, alpha: float) -> Callable[[np.ndarray], np.ndarray]:
        """The Stein solve X = alpha T X T^H + F in this factor's basis,
        prepared once for alpha (:func:`prepare_stein`).

        The solution exists iff alpha * rho(A)^2 < 1; :class:`NumericalError`
        is raised once alpha * rho^2 >= 1 - 1e-12, for the caller to map to
        an infinite bound.
        """
        if alpha * self.rho * self.rho >= 1.0 - _STEIN_MARGIN:
            raise NumericalError(
                f"no bounded solution: alpha * rho(A)^2 = {alpha * self.rho * self.rho:.12g} >= 1"
            )
        return prepare_stein(self.T, alpha, self.sigma)

    def discounted_lyapunov(self, alpha: float) -> np.ndarray:
        """Solve S = alpha * A S A' + Q.

        The solution is the limit of S_{k+1} = alpha A S_k A' + Q; the solve
        runs in the Schur basis (:meth:`stein`), which raises when there is
        no bounded solution.
        """
        X = self.stein(alpha)(self.QU)
        S = (self.U @ X @ self.U.conj().T).real
        return 0.5 * (S + S.T)


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Immutable container for the plant matrices.

    Scalars are accepted anywhere and treated as 1x1 matrices. Covariance
    inputs that are symmetric up to roundoff are symmetrized on construction;
    anything worse is kept as-is for :func:`validate_system` to flag. Shape
    consistency is enforced here because a dimensionally inconsistent system
    cannot even be represented; value-level requirements (definiteness,
    instability) are reported by :func:`validate_system` instead of raised.
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
    w = np.linalg.eigvalsh(0.5 * (X + X.T))
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
