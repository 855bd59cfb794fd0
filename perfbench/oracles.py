"""Independent routes the benchmark checks the package's answers against.

Nothing here calls into secest: the Lyapunov floor goes through scipy's
Bartels-Stewart solver, the Riccati map is written out with an explicit
inverse, and the seeded reception draws are rebuilt straight from numpy's
Philox generator.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla


def single_output_threshold(A) -> float:
    """Critical reception rate 1 - 1/prod|lambda_u|^2 for a single-output plant.

    The product runs over the unstable eigenvalues of A (Elia 2005; Schenato
    et al. 2007). It is exact for rank-one C and for scalar plants.
    """
    lam = np.abs(np.linalg.eigvals(np.asarray(A, dtype=float)))
    unstable = lam[lam > 1.0]
    return 1.0 - 1.0 / float(np.prod(unstable)) ** 2


def open_loop_threshold(A) -> float:
    """1 - 1/rho(A)^2."""
    rho = float(np.max(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float)))))
    return 1.0 - 1.0 / (rho * rho)


def floor(A, Q, rate: float) -> np.ndarray | None:
    """S = (1 - rate) A S A' + Q, or None when no bounded solution exists."""
    A = np.asarray(A, dtype=float)
    alpha = 1.0 - rate
    if rate <= open_loop_threshold(A):
        return None
    S = sla.solve_discrete_lyapunov(math.sqrt(alpha) * A, np.asarray(Q, dtype=float))
    return 0.5 * (S + S.T)


def floor_trace(A, Q, rate: float) -> float:
    S = floor(A, Q, rate)
    return math.inf if S is None else float(np.trace(S))


def riccati(X, A, C, Q, R, lam: float) -> np.ndarray:
    """g_lam(X) = A X A' + Q - lam A X C' (C X C' + R)^-1 C X A'."""
    AXC = A @ X @ C.T
    G = A @ X @ A.T + Q - lam * AXC @ np.linalg.inv(C @ X @ C.T + R) @ AXC.T
    return 0.5 * (G + G.T)


def rel_residual(X, G) -> float:
    """max|X - G| / max|X|."""
    return float(np.max(np.abs(X - G)) / np.max(np.abs(X)))


def philox_uniforms(seed: int, stream: int, size) -> np.ndarray:
    """The draws of secest's named stream ``stream`` under ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss)).random(size)


def collapse_events(gamma2, trP2, min_misses: int = 10, window: int = 3) -> list:
    """Interceptions after at least ``min_misses`` misses, and how far trP2 fell."""
    events = []
    misses = 0
    last = len(gamma2) - 1
    for k, got in enumerate(gamma2):
        if not got:
            misses += 1
            continue
        if misses >= min_misses and k < last:
            stop = min(k + window, last)
            events.append((k, float(trP2[k]), float(np.min(trP2[k + 1:stop + 1]))))
        misses = 0
    return events


def relerr(a, b) -> float:
    """Largest elementwise relative difference of two arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), np.finfo(float).tiny)))
