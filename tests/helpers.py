"""Plants, as (A, Q) pairs, and a reference formula shared by several test
modules."""

import numpy as np
import scipy.linalg as sla


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
    operations riccati_map keeps: A X A' as (A @ X) @ A.T, then dposv or a
    division for the correction."""
    X = np.asarray(X, dtype=float)
    X = 0.5 * (X + X.T)
    A, C, Q, R = sys.A, sys.C, sys.Q, sys.R
    open_loop = A @ X @ A.T + Q
    if lam == 0.0:
        return 0.5 * (open_loop + open_loop.T)
    AXC = A @ X @ C.T
    S = C @ X @ C.T + R
    if S.shape == (1, 1):
        gain = AXC.T / S[0, 0]
    else:
        gain = sla.get_lapack_funcs("posv", dtype=np.float64)(S, AXC.T)[1]
    G = open_loop - lam * (AXC @ gain)
    return 0.5 * (G + G.T)
