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
checks, and two primitives everything else builds on: the spectral radius
and the discounted Lyapunov (Stein) solve

    S = alpha * A S A' + Q,    0 <= alpha,  alpha * rho(A)^2 < 1.

Each :class:`LinearSystem` computes one complex Schur factorization
A = U T U^H (T upper triangular, the eigenvalues of A on its diagonal) on
first use and keeps it, sorted so that the k eigenvalues with |lambda| > 1
come first: T[:k, :k] is A on its unstable invariant subspace, which the
critical-rate certificate in :mod:`secest.bounds` works on alone. The
spectral radius and all Stein solves read off the same factor. In the Schur
basis the Stein equation becomes
X = alpha T X T^H + U^H Q U, solved column by column from the last: column j
is one n x n triangular solve against I - alpha conj(T_jj) T, whose
right-hand side only involves the columns already found (Kitagawa, Int. J.
Control 1977; Barraud, IEEE TAC 1977).
That is O(n^3) time and O(n^2) memory per solve, after an O(n^3) factor paid
once per plant. The Kronecker-vectorized route costs O(n^6) time and O(n^4)
memory per solve, and scipy's ``solve_discrete_lyapunov`` switches to a
bilinear transform for n >= 10 that loses digits near alpha * rho^2 = 1
when A has a negative real eigenvalue outside the unit circle; the Schur
recursion keeps the residual at roundoff there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import NumericalError, ValidationError

# Relative tolerance for accepting and silently symmetrizing a noise matrix
# that is symmetric up to floating-point noise. Grossly asymmetric inputs are
# left untouched so validation can reject them.
_SYM_RTOL = 1e-9

# The Stein solve refuses alpha * rho(A)^2 within this margin of 1, where the
# solution is unbounded or beyond working precision.
_STEIN_MARGIN = 1e-12

_trtrs = sla.get_lapack_funcs("trtrs", dtype=np.complex128)


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


def triangular_stein(T: np.ndarray, F: np.ndarray, alpha: float) -> np.ndarray:
    """Solve X = alpha T X T^H + F for upper triangular T with
    alpha * max|T_jj|^2 < 1, column by column."""
    n = T.shape[0]
    aTh = alpha * T.conj()  # row j is alpha * (column j of T^H)
    eye = np.eye(n)
    X = np.empty((n, n), dtype=complex)
    # Column j of X = alpha T X T^H + F couples X[:, j] only to the later
    # columns, and the diagonal 1 - alpha conj(T_jj) T_ii stays at least
    # 1 - alpha rho^2 away from zero.
    for j in range(n - 1, -1, -1):
        rhs = F[:, j] + T @ (X[:, j + 1:] @ aTh[j, j + 1:])
        X[:, j] = _trtrs(eye - aTh[j, j] * T, rhs)[0]
    return X


@dataclass(frozen=True, eq=False)
class SchurFactor:
    """Sorted complex Schur form A = U T U^H, with Q carried into the same basis.

    ``T`` is upper triangular and holds the eigenvalues of A on its
    diagonal, the ``k`` of modulus greater than one first, so ``T[:k, :k]``
    is the unstable block and ``U[:, :k]`` spans its invariant subspace;
    ``rho`` is read off the diagonal and ``QU`` is U^H Q U.
    """

    T: np.ndarray
    U: np.ndarray
    QU: np.ndarray
    rho: float
    k: int

    @classmethod
    def of(cls, A: np.ndarray, Q: np.ndarray) -> "SchurFactor":
        T, U, k = sla.schur(A, output="complex", sort="ouc")
        return cls(T=T, U=U, QU=U.conj().T @ Q @ U,
                   rho=float(np.max(np.abs(np.diag(T)))), k=int(k))

    def discounted_lyapunov(self, alpha: float, B: np.ndarray | None = None) -> np.ndarray:
        """Solve S = alpha * A S A' + B for a symmetric B, by default Q; see
        :func:`solve_discounted_lyapunov`.

        Raises :class:`NumericalError` once alpha * rho^2 >= 1 - 1e-12.
        """
        if alpha * self.rho * self.rho >= 1.0 - _STEIN_MARGIN:
            raise NumericalError(
                f"no bounded solution: alpha * rho(A)^2 = {alpha * self.rho * self.rho:.12g} >= 1"
            )
        F = self.QU if B is None else self.U.conj().T @ B @ self.U
        X = triangular_stein(self.T, F, alpha)
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


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_system`: failures block, warnings inform."""

    ok: bool
    spectral_radius: float
    failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def spectral_radius(A) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    A = _as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ValidationError(f"spectral radius needs a square matrix, got {A.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def is_positive_definite(X, tol: float = 1e-10) -> bool:
    """True iff X is symmetric (within tolerance) with min eigenvalue > tol.

    Symmetry is judged relative to the largest entry; definiteness is judged
    against ``tol`` scaled by the trace so that the check is meaningful for
    matrices far from unit scale.
    """
    X = _as_matrix(X, "X")
    if X.shape[0] != X.shape[1]:
        raise ValidationError(f"definiteness needs a square matrix, got {X.shape}")
    scale = 1.0 + np.max(np.abs(X))
    if np.max(np.abs(X - X.T)) > max(tol, _SYM_RTOL) * scale:
        return False
    w = np.linalg.eigvalsh(0.5 * (X + X.T))
    return bool(w[0] > tol * max(1.0, abs(float(np.trace(X)))))


def _psd_sqrt(X: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(0.5 * (X + X.T))
    return U @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ U.T


def validate_system(sys: LinearSystem) -> ValidationReport:
    """Check a system against the assumptions the solvers rely on.

    Never raises; every problem lands in the report. Failures: Q, R, Sigma0
    not positive definite, or rho(A) <= 1 (a stable plant makes the secrecy
    question trivial and several bounds meaningless). Warnings: (A, C) not
    observable or (A, Q^(1/2)) not controllable by rank test; the fixed-point
    solvers may still run but their limits can depend on initial conditions.
    """
    failures = []
    warnings = []
    rho = spectral_radius(sys.A)

    for name, arr in (("Q", sys.Q), ("R", sys.R), ("Sigma0", sys.Sigma0)):
        if not is_positive_definite(arr):
            failures.append(f"{name} positive definite: failed")

    if rho <= 1.0:
        failures.append(
            f"spectral radius > 1: failed (rho(A) = {rho:.6g}; the plant must be unstable)"
        )

    n = sys.n
    obs_blocks = []
    power = np.eye(n)
    for _ in range(n):
        obs_blocks.append(sys.C @ power)
        power = power @ sys.A
    obs_rank = np.linalg.matrix_rank(np.vstack(obs_blocks))
    if obs_rank < n:
        warnings.append(f"(A, C) observability rank {obs_rank} < {n}")

    B = _psd_sqrt(sys.Q)
    ctrb_blocks = []
    power = np.eye(n)
    for _ in range(n):
        ctrb_blocks.append(power @ B)
        power = sys.A @ power
    ctrb_rank = np.linalg.matrix_rank(np.hstack(ctrb_blocks))
    if ctrb_rank < n:
        warnings.append(f"(A, Q^(1/2)) controllability rank {ctrb_rank} < {n}")

    return ValidationReport(ok=not failures, spectral_radius=rho,
                            failures=failures, warnings=warnings)


def solve_discounted_lyapunov(A, Q, alpha: float) -> np.ndarray:
    """Solve S = alpha * A S A' + Q by the complex-Schur Stein recursion.

    Factors A afresh on every call; a :class:`LinearSystem` keeps its factor
    (``sys.schur``) so that repeated solves at different alpha cost one
    O(n^3) back substitution each.

    Parameters
    ----------
    A : array_like, n x n
    Q : array_like, n x n, symmetric
    alpha : float in [0, 1]
        Discount on the quadratic term. A solution that is the limit of the
        iteration S_{k+1} = alpha A S_k A' + Q exists iff
        alpha * rho(A)^2 < 1; outside that region the equation has no
        positive semidefinite solution and a :class:`NumericalError` is
        raised for the caller to map to an infinite bound.

    Returns
    -------
    numpy.ndarray
        The unique symmetric solution.
    """
    A = _as_matrix(A, "A")
    Q = _as_matrix(Q, "Q")
    if A.shape[0] != A.shape[1]:
        raise ValidationError(f"A must be square, got {A.shape}")
    if Q.shape != A.shape:
        raise ValidationError(f"Q must match A, got {Q.shape} vs {A.shape}")
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")
    return SchurFactor.of(A, Q).discounted_lyapunov(alpha)
