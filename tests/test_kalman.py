import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import scipy.linalg as sla

import secest
from secest import (
    ChannelParams,
    LinearSystem,
    Mechanism,
    NumericalError,
    ValidationError,
    batch_covariance_oracle,
    filter_errors,
    kalman,
    riccati_map,
    simulate_trace,
)
from secest.kalman import Coefficients, _linear_recursion

from helpers import reference_riccati


def g(X, sys, lam):
    return riccati_map(np.atleast_2d(X), sys, lam)


class TestRiccatiMap:
    def test_scalar_pinned_values(self, scalar_sys):
        # a^2 X + q - lam a^2 X^2/(X+r) at X=1: 2.44 - 0.72 lam
        assert g(1.0, scalar_sys, 0.0)[0, 0] == pytest.approx(2.44, abs=1e-12)
        assert g(1.0, scalar_sys, 0.5)[0, 0] == pytest.approx(2.08, abs=1e-12)
        assert g(1.0, scalar_sys, 1.0)[0, 0] == pytest.approx(1.72, abs=1e-12)

    def test_lambda_range_checked(self, scalar_sys):
        with pytest.raises(ValidationError):
            g(1.0, scalar_sys, -0.01)
        with pytest.raises(ValidationError):
            g(1.0, scalar_sys, 1.01)

    def test_output_symmetric(self, second_order_sys):
        rng = np.random.default_rng(5)
        for _ in range(20):
            B = rng.normal(size=(2, 2))
            X = B @ B.T + 0.1 * np.eye(2)
            Y = riccati_map(X, second_order_sys, rng.uniform())
            assert np.array_equal(Y, Y.T)

    def test_monotone_in_operand(self, second_order_sys):
        """X <= Y (Loewner) implies g(X) <= g(Y)."""
        rng = np.random.default_rng(8)
        for _ in range(25):
            B = rng.normal(size=(2, 2))
            X = B @ B.T + 0.05 * np.eye(2)
            D = rng.normal(size=(2, 2))
            Y = X + D @ D.T
            lam = rng.uniform()
            gap = riccati_map(Y, second_order_sys, lam) - riccati_map(X, second_order_sys, lam)
            assert np.linalg.eigvalsh(gap).min() > -1e-9

    def test_decreasing_in_rate(self, second_order_sys):
        X = np.array([[2.0, 0.3], [0.3, 1.0]])
        traces = [np.trace(riccati_map(X, second_order_sys, lam))
                  for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(t1 < t0 for t0, t1 in zip(traces, traces[1:]))

    def test_scaling_bound(self, second_order_sys):
        # beta g(X) >= g(beta X) for beta >= 1, the witness-scaling fact
        rng = np.random.default_rng(13)
        for _ in range(25):
            B = rng.normal(size=(2, 2))
            X = B @ B.T + 0.05 * np.eye(2)
            lam = rng.uniform()
            beta = rng.uniform(1.0, 50.0)
            gap = beta * riccati_map(X, second_order_sys, lam) \
                - riccati_map(beta * X, second_order_sys, lam)
            assert np.linalg.eigvalsh(gap).min() > -1e-8


def two_output_plant() -> LinearSystem:
    A = np.array([[1.2, 0.4, 0.0], [0.0, 1.05, 0.3], [0.1, 0.0, 0.5]])
    C = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.2]])
    return LinearSystem(A=A, C=C, Q=np.eye(3), R=np.diag([1.0, 2.0]), Sigma0=np.eye(3))


def test_riccati_map_is_bit_identical_to_reference(second_order_sys):
    # a regression guard: the map on the plant keeps its arithmetic, bit for
    # bit, for one output (the division) and for two (dposv)
    for sys in (second_order_sys, two_output_plant()):
        X = ref = sys.Sigma0
        for lam in (0.0, 0.3, 0.7, 1.0, 0.45, 1.0):
            X, ref = riccati_map(X, sys, lam), reference_riccati(ref, sys, lam)
            assert np.array_equal(X, ref), lam


def rotation_plant(m: int) -> LinearSystem:
    """1.15 rot(0.7) (+) 0.5 in a non-normal basis: a complex Schur factor."""
    th = 0.7
    B = np.zeros((3, 3))
    B[:2, :2] = 1.15 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    B[2, 2] = 0.5
    S = np.eye(3) + 0.3 * np.random.default_rng(3).standard_normal((3, 3))
    C = np.eye(3)[:m] + 0.2 * np.random.default_rng(4).standard_normal((m, 3))
    return LinearSystem(A=S @ B @ np.linalg.inv(S), C=C, Q=np.eye(3), R=np.eye(m),
                        Sigma0=np.eye(3))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
def test_riccati_map_in_schur_coordinates(m, lam):
    # with A = U T U^H, g_lam(U^H X U; T, C U, U^H Q U, R) = U^H g_lam(X) U,
    # here in complex arithmetic (zposv for m >= 2)
    sys = rotation_plant(m)
    U, T = sys.schur.U, sys.schur.T
    assert np.iscomplexobj(T)
    X = sys.Sigma0 + np.outer([1.0, -2.0, 0.5], [1.0, -2.0, 0.5])
    coords = Coefficients(T, sys.C @ U, sys.schur.QU, sys.R)
    W = riccati_map(U.conj().T @ X @ U, coords, lam)
    G = riccati_map(X, sys, lam)
    assert np.max(np.abs(U @ W @ U.conj().T - G)) <= 1e-13 * np.max(np.abs(G))
    assert np.array_equal(W, W.conj().T)


@pytest.mark.parametrize("m", [1, 2])
def test_innovation_solve_failures_raise(m):
    # R = -5 I makes C X C' + R negative definite at X = I, and a NaN in X
    # reaches it through C X C'; the 1x1 branch and the Cholesky solve must
    # both refuse either, in the map and the stepped filter. An infinite
    # prior on the scalar plant makes the one innovation variance infinite.
    cases = [(1.2 * np.eye(2), np.eye(2)[:m], -5.0 * np.eye(m), np.eye(2)),
             (1.2 * np.eye(2), np.eye(2)[:m], np.eye(m), np.full((2, 2), np.nan))]
    if m == 1:
        cases.append((1.2, 1.0, 1.0, np.array([[np.inf]])))
    for A, C, R, X in cases:
        n = len(X)
        sys = LinearSystem(A=A, C=C, Q=np.eye(n), R=R, Sigma0=np.eye(n))
        # the constructor rejects a non-finite Sigma0; plant X as the prior
        # directly, as a covariance that went non-finite would be
        object.__setattr__(sys, "Sigma0", X)
        with pytest.raises(NumericalError):
            riccati_map(X, sys, 1.0)
        for gammas in ([True], [[False], [True]]):
            with pytest.raises(NumericalError):
                filter_errors(sys, gammas, np.zeros(n), 0.0, 0.0)
        # no row receives, so no innovation is formed
        filter_errors(sys, [[False], [False]], np.zeros(n), 0.0, 0.0)


def test_kalman_gain_scalar(scalar_sys):
    # from e(0) = 0 with v(0) = 1 one received step gives e_f(0) = K = P/(P + r)
    for P, K in ((1.0, 0.5), (2.0, 2.0 / 3.0)):
        sys = dataclasses.replace(scalar_sys, Sigma0=P)
        e_f, _ = filter_errors(sys, [True], [0.0], 0.0, [[1.0]])
        assert e_f[0, 0] == pytest.approx(K)


class TestFilterStep:
    @pytest.fixture
    def sys_p2(self):
        # a = 1.2, c = q = r = 1 started from P(0) = 2
        return LinearSystem(A=1.2, C=1.0, Q=1.0, R=1.0, Sigma0=2.0)

    def test_open_loop(self, sys_p2):
        xf, P = filter_errors(sys_p2, [False, False], [1.0], 0.0, [[2.0], [0.0]])
        assert xf[1, 0] == pytest.approx(1.2)
        assert P[1, 0, 0] == pytest.approx(3.88)  # 1.44*2 + 1

    def test_reception(self, sys_p2):
        xf, P = filter_errors(sys_p2, [True, False], [1.0], 0.0, [[2.0], [0.0]])
        # gain 2/3, filtered 1 + 2/3, then times a
        assert xf[0, 0] == pytest.approx(1.0 + 2.0 / 3.0)
        assert xf[1, 0] == pytest.approx(1.2 * (1.0 + 2.0 / 3.0))
        assert P[1, 0, 0] == pytest.approx(1.96)  # g_1(2) = 3.88 - 1.44*4/3

    def test_measurement_update_identity_when_missed(self, second_order_sys):
        e0 = np.array([0.5, -0.5])
        E, _ = filter_errors(second_order_sys, [False], e0, 0.0, [[3.0]])
        assert np.array_equal(E[0], e0)

    def test_shapes_and_validation(self, second_order_sys):
        E, P = filter_errors(second_order_sys, [True, False, True], np.zeros(2),
                             0.0, np.zeros((3, 1)))
        assert E.shape == (3, 2) and P.shape == (4, 2, 2)
        assert np.array_equal(P[0], second_order_sys.Sigma0)
        E, P = filter_errors(second_order_sys, [], np.zeros(2), 0.0, 0.0)
        assert E.shape == (0, 2) and P.shape == (1, 2, 2)
        with pytest.raises(ValidationError):
            filter_errors(second_order_sys, [True], np.zeros(3), 0.0, 0.0)
        with pytest.raises(ValidationError):
            filter_errors(second_order_sys, [True, False], np.zeros(2), 0.0, np.zeros((3, 1)))

    def test_covariance_matches_riccati(self, second_order_sys):
        gammas = [True, False, True, True, False]
        _, P = filter_errors(second_order_sys, gammas, np.zeros(2), 0.0, np.zeros((5, 1)))
        for k, got in enumerate(gammas):
            expected = riccati_map(P[k], second_order_sys, 1.0 if got else 0.0)
            assert np.max(np.abs(P[k + 1] - expected)) < 1e-12

    def test_error_form_equals_absolute_estimate(self, second_order_sys):
        """Error form on (-x0, w, v) is the estimate on (0, 0, y) minus x."""
        sys, T = second_order_sys, 20
        rng = np.random.default_rng(17)
        gammas = rng.random(T) < 0.6
        x0 = rng.normal(size=2)
        w = rng.normal(size=(T, 2))
        v = rng.normal(size=(T, 1))
        x = np.empty((T, 2))
        x_cur = x0
        for k in range(T):
            x[k] = x_cur
            x_cur = sys.A @ x_cur + w[k]
        y = x @ sys.C.T + v
        e_f, P_err = filter_errors(sys, gammas, -x0, w, v)
        xhat, P_abs = filter_errors(sys, gammas, np.zeros(2), 0.0, y)
        assert np.max(np.abs(e_f - (xhat - x))) < 1e-10
        assert np.array_equal(P_err, P_abs)


def test_batch_oracle_agrees_with_stepped_filter(second_order_sys):
    """Joseph-form batch recursion vs the production update, random patterns."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        gammas = rng.random(40) < rng.uniform(0.2, 0.9)
        oracle = batch_covariance_oracle(second_order_sys, gammas)
        _, P = filter_errors(second_order_sys, gammas, np.zeros(2), 0.0, np.zeros((40, 1)))
        assert np.max(np.abs(P[1:] - oracle)) < 1e-9


# The conftest second-order plant (m = 1), and an m = 2 plant: n = 3,
# outputs that mix the states, correlated R.
PLANTS = {
    "second_order": LinearSystem(A=np.array([[1.2, 1.0], [0.0, 1.1]]), C=np.array([[1.0, 0.0]]),
                                 Q=np.array([[1.0, 0.5], [0.5, 2.0]]), R=1.0,
                                 Sigma0=np.array([[1.0, 0.5], [0.5, 2.0]])),
    "m2": LinearSystem(A=np.array([[1.1, 0.3, 0.0], [0.0, 0.9, 0.5], [0.2, 0.0, 1.05]]),
                       C=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
                       Q=np.array([[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 2.0]]),
                       R=np.array([[1.0, 0.3], [0.3, 0.5]]), Sigma0=np.eye(3)),
}


@given(plant=st.sampled_from(sorted(PLANTS)),
       gammas=st.integers(1, 4).flatmap(
           lambda rows: st.integers(0, 40).flatmap(
               lambda N: arrays(bool, (rows, N)))),
       seed=st.integers(0, 2**32 - 1))
@example(plant="m2", gammas=np.zeros((2, 0), dtype=bool), seed=0)
@example(plant="second_order", gammas=np.zeros((3, 0), dtype=bool), seed=0)
@example(plant="second_order", gammas=np.array([[True] * 40, [False] * 40]), seed=1)
@example(plant="m2", gammas=np.array([[False] * 40, [True, False] * 20, [True] * 40]),
         seed=2)
def test_stacked_rows_equal_single_rows(plant, gammas, seed):
    """Row r of a stacked call is the (N,) call on gammas[r], bit for bit.

    A row's arithmetic never reads another row, and a row that misses a step
    at which another receives gets a zero gain, so the equality is exact.
    Its covariances also match the Joseph-form oracle within 1e-8 of each
    step's scale.
    """
    sys = PLANTS[plant]
    rows, N = gammas.shape
    rng = np.random.default_rng(seed)
    e0 = rng.standard_normal(sys.n)
    w = rng.standard_normal((N, sys.n))
    v = rng.standard_normal((N, sys.m))
    E, P = filter_errors(sys, gammas, e0, w, v)
    assert E.shape == (rows, N, sys.n) and P.shape == (rows, N + 1, sys.n, sys.n)
    for r in range(rows):
        E_r, P_r = filter_errors(sys, gammas[r], e0, w, v)
        assert np.array_equal(E[r], E_r) and np.array_equal(P[r], P_r)
        oracle = batch_covariance_oracle(sys, gammas[r])
        gap = np.abs(P[r, 1:] - oracle).max(axis=(1, 2), initial=0.0)
        scale = np.maximum(1.0, np.abs(oracle).max(axis=(1, 2), initial=0.0))
        assert np.all(gap <= 1e-8 * scale)


def test_stacked_gammas_validation(second_order_sys):
    with pytest.raises(ValidationError):
        filter_errors(second_order_sys, np.zeros((2, 3, 1), dtype=bool), np.zeros(2), 0.0, 0.0)
    with pytest.raises(ValidationError):
        filter_errors(second_order_sys, np.zeros((2, 3), dtype=bool), np.zeros(2), 0.0,
                      np.zeros((4, 1)))


def test_public_names_resolve():
    for name in secest.__all__:
        assert getattr(secest, name) is not None, name


def test_batch_oracle_empty_sequence(second_order_sys):
    assert batch_covariance_oracle(second_order_sys, np.zeros(0, dtype=bool)).shape \
        == (0, 2, 2)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("N", [0, 1, 300])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_linear_recursion_matches_stepped_recurrence(rows, N, n):
    """The banded solve is x(k+1) = F(k) x(k) + b(k), stepped in Python.

    Each row's F(k) is a random matrix scaled to spectral radius 1.2, 0.9
    or 0.5, so the unstable rows grow by 1.2^300 ~ 1e24; the solve must
    agree within 1e-13 of each row's largest entry, and a stacked row must
    equal its own one-row solve bit for bit.
    """
    rng = np.random.default_rng(1000 * rows + 10 * n + N)
    F = rng.standard_normal((rows, N, n, n))
    for r, radius in zip(range(rows), (1.2, 0.9, 0.5)):
        for k in range(N):
            F[r, k] *= radius / np.max(np.abs(np.linalg.eigvals(F[r, k])))
    b = rng.standard_normal((rows, N, n))
    x0 = rng.standard_normal((rows, n))
    x = _linear_recursion(F, b, x0)
    assert x.shape == (rows, N + 1, n)
    for r in range(rows):
        ref = [x0[r]]
        for k in range(N):
            ref.append(F[r, k] @ ref[-1] + b[r, k])
        ref = np.array(ref)
        assert np.max(np.abs(x[r] - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(x[r], _linear_recursion(F[r:r + 1], b[r:r + 1], x0[r])[0])


@pytest.mark.parametrize("N", [0, 1, 40])
def test_one_banded_solve_per_recursion(monkeypatch, second_order_sys, channel_96, N):
    """The error and state recursions take one dtbtrs call each, at any length."""
    calls = []
    tbtrs = kalman._TBTRS

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return tbtrs(*args, **kwargs)

    monkeypatch.setattr(kalman, "_TBTRS", counting)
    gammas = np.arange(2 * N).reshape(2, N) % 3 == 0
    filter_errors(second_order_sys, gammas, np.zeros(2), 0.0, 0.0)
    assert len(calls) == 1
    simulate_trace(second_order_sys, Mechanism(0.7), channel_96, T=N, seed=3)
    assert len(calls) == 3


def _parent_covariances(sys, G):
    """The covariance half of the per-step filter loop that stepped the
    errors alongside, copied as it was: the reference for P's bits."""
    rows, N = G.shape
    A, C, Q, R = sys.A, sys.C, sys.Q, sys.R
    At, Ct = A.T, C.T
    posv = sla.get_lapack_funcs("posv", dtype=np.float64)
    P = np.empty((rows, N + 1, sys.n, sys.n))
    P[:, 0] = sys.Sigma0
    for k, (got, some) in enumerate(zip(G.T, G.any(axis=0).tolist())):
        X = P[:, k]
        if some:
            XC = X @ Ct
            S = C @ XC + R
            if sys.m == 1:
                s = np.where(got, S[:, 0, 0], 1.0)
                K = XC * (got / s)[:, None, None]
            else:
                K = np.zeros_like(XC)
                for r in np.flatnonzero(got):
                    K[r] = posv(S[r], XC[r].T)[1].T
            X = X - K @ XC.transpose(0, 2, 1)
        X = A @ X @ At + Q
        X += X.transpose(0, 2, 1)
        np.multiply(X, 0.5, out=P[:, k + 1])
    return P


@pytest.mark.parametrize("plant", sorted(PLANTS))
@pytest.mark.parametrize("p", [0.2, 0.51, 1.0])
def test_trace_covariances_bit_identical_to_stepped_loop(plant, p):
    sys = PLANTS[plant]
    tr = simulate_trace(sys, Mechanism(p), ChannelParams(0.9, 0.6), T=300, seed=11)
    P = _parent_covariances(sys, np.stack([tr.gamma1, tr.gamma2]))
    trP = np.trace(P[:, :301], axis1=2, axis2=3)
    assert np.array_equal(tr.trP1, trP[0]) and np.array_equal(tr.trP2, trP[1])


@pytest.mark.parametrize("m", [1, 2])
def test_bad_variance_mid_sequence(m):
    """A = 0.5 I and Q = -5 I drive P(1) negative definite, so the innovation
    covariance at step 1 is not positive: a row that receives then raises,
    one that misses step 1 does not, whatever the other rows do. R = -I
    with P(0) = I gives C P C' + R = 0 at step 0, and P(0) with an infinite
    entry an infinite one; a receiving row raises on either."""
    sys = LinearSystem(A=0.5 * np.eye(2), C=np.eye(2)[:m], Q=-5.0 * np.eye(2), R=np.eye(m),
                       Sigma0=np.eye(2))
    for gammas in ([False, True], [True, True, False], [[True, False], [False, True]]):
        with pytest.raises(NumericalError):
            filter_errors(sys, gammas, np.zeros(2), 0.0, 0.0)
    for gammas in ([True, False, False], [[True, False, False], [False, False, False]]):
        _, P = filter_errors(sys, gammas, np.zeros(2), 0.0, 0.0)
        assert np.all(np.linalg.eigvalsh(P[..., -1, :, :]) < 0)
    zero = LinearSystem(A=0.5 * np.eye(2), C=np.eye(2)[:m], Q=np.eye(2), R=-np.eye(m),
                        Sigma0=np.eye(2))
    with pytest.raises(NumericalError):
        filter_errors(zero, [[False], [True]], np.zeros(2), 0.0, 0.0)
    filter_errors(zero, [[False], [False]], np.zeros(2), 0.0, 0.0)
    # an overflowed covariance is not finite: receiving on it raises too
    infinite = LinearSystem(A=0.5 * np.eye(2), C=np.eye(2)[:m], Q=np.eye(2), R=np.eye(m),
                            Sigma0=np.eye(2))
    object.__setattr__(infinite, "Sigma0", np.diag([np.inf, 1.0]))
    with pytest.raises(NumericalError):
        filter_errors(infinite, [[False], [True]], np.zeros(2), 0.0, 0.0)
