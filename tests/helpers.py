"""Plants and reference formulas shared by several test modules."""

import functools
import math
import operator

import numpy as np
import scipy.linalg as sla

from secest import LinearSystem, NumericalError


def plus_minus_case():
    # +1.1 and -1.1 on one plant: a fixed real Cayley shift sits next to one
    # of them at the threshold, whichever sign it takes
    rng = np.random.default_rng(6)
    A = np.diag([1.1, -1.1, 0.6, -0.4, 0.2, 0.9]) + np.triu(rng.standard_normal((6, 6)), 1)
    return A, np.diag([1.0, 2.0, 0.5, 1.5, 1.0, 3.0])


def circle_case():
    # n = 24: 12 unstable eigenvalues evenly spread at radius 1.08 (six
    # rotation blocks and their conjugates) and 12 stable ones, in a mixed basis
    rng = np.random.default_rng(24)
    blocks = [1.08 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
              for th in np.pi * (2 * np.arange(6) + 1) / 12]
    D = sla.block_diag(*blocks, np.diag(np.linspace(-0.9, 0.95, 12)))
    V = np.eye(24) + 0.3 * rng.standard_normal((24, 24)) / np.sqrt(24)
    G = rng.standard_normal((24, 24))
    return V @ D @ np.linalg.inv(V), G @ G.T / 24 + 0.5 * np.eye(24)


def reference_riccati(X, sys, lam):
    """g_lam on the plant written out in real arithmetic, in the order of
    operations riccati_map keeps, the filter's: X C', C (X C') + R, the gain
    (X C') (lam / s) or lam times dposv's, X - K (X C')', then
    (A X_f) A' + Q."""
    X = np.asarray(X, dtype=float)
    X = 0.5 * (X + X.T)
    A, C, Q, R = sys.A, sys.C, sys.Q, sys.R
    if lam != 0.0:
        XC = X @ C.T
        S = C @ XC + R
        if S.shape == (1, 1):
            K = XC * (lam / S[0, 0])
        else:
            K = lam * sla.get_lapack_funcs("posv", dtype=np.float64)(S, XC.T)[1].T
        X = X - K @ XC.T
    G = A @ X @ A.T + Q
    return 0.5 * (G + G.T)


def left_sum(terms):
    """The terms' sum from left to right, as a chain of binary additions."""
    return functools.reduce(operator.add, terms)


def mirrored(entry, n):
    """The symmetric n x n nested list whose upper entries are entry(i, j), i <= j."""
    upper = {(i, j): entry(i, j) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


def float_riccati(X, sys, lam):
    """g_lam on a single-output plant, on Python floats and in the float
    kernel's order of operations: the upper entries of X symmetrized as
    (x + x) * 0.5, then X C', C (X C') + r, the gain (X C') (lam / s) and
    X - K (X C')', then A X and (A X) A' + Q as riccati_map forms them,
    each sum left to right, and the upper entries of the result
    symmetrized again."""
    n = sys.n
    N = range(n)
    A, c, Q, r = sys.A.tolist(), sys.C[0].tolist(), sys.Q.tolist(), sys.R.item()
    X = mirrored(lambda i, j: (X[i, j] + X[i, j]) * 0.5, n)
    if lam != 0.0:
        xc = [left_sum(X[i][j] * c[j] for j in N) for i in N]
        s = left_sum(c[i] * xc[i] for i in N) + r
        if not 0.0 < s < math.inf:
            raise NumericalError("innovation variance is not finite and positive")
        gain = [x * (lam / s) for x in xc]
        X = mirrored(lambda i, j: X[i][j] - gain[i] * xc[j], n)
    AX = [[left_sum(A[i][l] * X[l][j] for l in N) for j in N] for i in N]
    Y = mirrored(lambda i, j: left_sum(AX[i][l] * A[j][l] for l in N) + Q[i][j], n)
    return np.array(mirrored(lambda i, j: (Y[i][j] + Y[i][j]) * 0.5, n))


def complex_mode_plant(seed, n, radius):
    """A single-output plant whose A = V (radius rot(theta) (+) D) V^-1 has a
    complex pair of modulus ``radius`` and n - 2 real modes in (-0.8, 0.8),
    in a non-normal basis; Q, R and Sigma0 are seeded and positive definite."""
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.3, 2.8)
    D = np.diag(np.concatenate([[0.0, 0.0], rng.uniform(-0.8, 0.8, n - 2)]))
    D[:2, :2] = radius * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    V = np.eye(n) + 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)
    B, L = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return LinearSystem(A=V @ D @ np.linalg.inv(V), C=rng.standard_normal((1, n)),
                        Q=B @ B.T / n + 0.5 * np.eye(n), R=rng.uniform(0.2, 2.0),
                        Sigma0=L @ L.T / n + np.eye(n))


def two_output_plant() -> LinearSystem:
    A = np.array([[1.2, 0.4, 0.0], [0.0, 1.05, 0.3], [0.1, 0.0, 0.5]])
    C = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.2]])
    return LinearSystem(A=A, C=C, Q=np.eye(3), R=np.diag([1.0, 2.0]), Sigma0=np.eye(3))
