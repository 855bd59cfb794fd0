import dataclasses
import warnings
from pathlib import Path

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
    expected_error_curve,
    filter_errors,
    kalman,
    montecarlo,
    riccati_map,
    simulate_trace,
)
from secest.cli import load_config
from secest.kalman import (_POTRF, _TRSM, Coefficients, _factored_update, _float_kernel,
                           _gains, _innovation_solve, _linear_recursion,
                           batch_covariance_oracle)

from helpers import complex_mode_plant, left_sum, mirrored, reference_riccati, two_output_plant


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


def test_riccati_map_is_bit_identical_to_reference(second_order_sys):
    # a regression guard: the map on the plant keeps its arithmetic, bit for
    # bit, for one output (the division) and for two (dposv)
    for sys in (second_order_sys, two_output_plant()):
        X = ref = sys.Sigma0
        for lam in (0.0, 0.3, 0.7, 1.0, 0.45, 1.0):
            X, ref = riccati_map(X, sys, lam), reference_riccati(ref, sys, lam)
            assert np.array_equal(X, ref), lam


def seeded_output_plant(n: int, m: int) -> LinearSystem:
    """A seeded plant with n states and m outputs, A scaled to spectral radius 1.1."""
    rng = np.random.default_rng(10 * n + m)
    A = rng.standard_normal((n, n))
    B, L = rng.standard_normal((n, n)), rng.standard_normal((m, m))
    return LinearSystem(A=1.1 * A / np.max(np.abs(np.linalg.eigvals(A))),
                        C=rng.standard_normal((m, n)), Q=B @ B.T / n + 0.5 * np.eye(n),
                        R=L @ L.T / m + 0.5 * np.eye(m), Sigma0=np.eye(n))


@pytest.mark.parametrize("n, m", [(1, 1), (6, 1), (3, 2), (8, 3)])
def test_filter_step_is_riccati_map(n, m):
    """The filter's covariance step is riccati_map at lam = gamma(k), bit
    for bit: P(k+1) = riccati_map(P(k), sys, gamma(k)) over two rows of 200
    steps, receiving at rates 0.4 and 0.8. The plants with six states or
    several outputs step on the numpy route; the one-state plant steps on
    floats, whose bits are the numpy route's there."""
    sys = seeded_output_plant(n, m)
    assert (kalman._float_route(sys) is None) == ((n, m) != (1, 1))
    rng = np.random.default_rng(n + m)
    G = rng.random((2, 200)) < np.array([[0.4], [0.8]])
    _, P = filter_errors(sys, G, np.zeros(n), 0.0, 0.0)
    for r in range(2):
        for k, got in enumerate(G[r]):
            assert np.array_equal(P[r, k + 1], riccati_map(P[r, k], sys, float(got))), (r, k)


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
    # both refuse either, in the map, the stepped filter and the ceiling's
    # factored update. An infinite prior on the scalar plant makes the one
    # innovation variance infinite.
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
        with pytest.raises(NumericalError):
            _factored_update(X, sys.C, sys.R)
        if m == 2:
            # C = I: the information form's output noise (C^H R^-1 C)^-1 is R
            with pytest.raises(NumericalError, match="innovation covariance"):
                _factored_update(X, None, sys.R)
        for gammas in ([True], [[False], [True]]):
            with pytest.raises(NumericalError):
                filter_errors(sys, gammas, np.zeros(n), 0.0, 0.0)
        # no row receives, so no innovation is formed
        filter_errors(sys, [[False], [False]], np.zeros(n), 0.0, 0.0)


def posv_update(X, C, R):
    """X - X C^H (C X C^H + R)^-1 C X through the PD solve, the form the
    factored update replaces."""
    XC = X @ C.conj().T
    return X - XC @ _innovation_solve(C @ XC + R, XC.conj().T)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [3, 8, 27])
@pytest.mark.parametrize("m", ["1", "2", "n"])
def test_factored_update_matches_the_pd_solve(dtype, n, m):
    # X - G^H G with G = L^-1 C X, L L^H = C X C^H + R, is the same update
    # up to roundoff; on real input numpy forms G^T G by syrk, so the result
    # is exactly symmetric, with no Hermitian part taken
    m = {"1": 1, "2": 2, "n": n}[m]
    rng = np.random.default_rng(100 * n + m)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if dtype is complex else z

    B, H = draw(n, n), draw(m, m)
    X = B @ B.conj().T / n + np.eye(n)
    X = 0.5 * (X + X.conj().T)
    C, R = draw(m, n), H @ H.conj().T / m + 0.5 * np.eye(m)
    Xf, ref = _factored_update(X, C, R), posv_update(X, C, R)
    assert Xf.dtype == np.dtype(dtype)
    assert np.abs(Xf - ref).max() <= 1e-13 * np.abs(ref).max()
    if dtype is float:
        assert np.array_equal(Xf, Xf.T)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [3, 8, 27])
@pytest.mark.parametrize("extra", [0, 2])
def test_information_update_matches_the_gram_form(dtype, n, extra):
    # for C of full column rank (m = n + extra outputs), X - G^H G with
    # G = L^-1 X, L L^H = X + (C^H R^-1 C)^-1, is the Gram update up to
    # roundoff; on real input the result is exactly symmetric
    m = n + extra
    rng = np.random.default_rng(1000 + 10 * n + m)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if dtype is complex else z

    B, H = draw(n, n), draw(m, m)
    X = B @ B.conj().T / n + np.eye(n)
    X = 0.5 * (X + X.conj().T)
    C, R = draw(m, n), H @ H.conj().T / m + 0.5 * np.eye(m)
    Rt = np.linalg.inv(C.conj().T @ np.linalg.solve(R, C))
    Xf, ref = _factored_update(X, None, 0.5 * (Rt + Rt.conj().T)), _factored_update(X, C, R)
    assert Xf.dtype == np.dtype(dtype)
    assert np.abs(Xf - ref).max() <= 1e-13 * np.abs(ref).max()
    if dtype is float:
        assert np.array_equal(Xf, Xf.T)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [2, 8, 27])
def test_information_form_keeps_its_bits(dtype, n):
    # the information form, C None, runs the operations it ran as a helper
    # of its own: potrf on (X + Rt)^T in place, one right-side trsm on a
    # copy of X^T, and X - G^H G; the ceilings that take it keep their bits
    rng = np.random.default_rng(3400 + n)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if dtype is complex else z

    for _ in range(5):
        B, D = draw(n, n), draw(n, n)
        X, Rt = B @ B.conj().T / n + np.eye(n), D @ D.conj().T / n + 0.5 * np.eye(n)
        X, Rt = 0.5 * (X + X.conj().T), 0.5 * (Rt + Rt.conj().T)
        U, info = _POTRF[X.dtype]((X + Rt).T, 0, 0, 1)
        assert info == 0
        G = _TRSM[X.dtype](1.0, U, X.T, 1, 0, 0, 0, 0).T
        ref = X - G.conj().T @ G
        before = X.copy()
        Xf = _factored_update(X, None, Rt)
        assert Xf.dtype == np.dtype(dtype)
        assert np.array_equal(Xf, ref) and np.array_equal(X, before)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("m", [2, 3])
def test_one_matrix_gains_are_the_stacked_gains(dtype, m):
    # riccati_map's call, one matrix with a 0-d weight, returns the gain of
    # the same matrix stacked as one row, bit for bit
    rng = np.random.default_rng(m)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if dtype is complex else z

    B, C = draw(4, 4), draw(m, 4)
    X = B @ B.conj().T + np.eye(4)
    XC = X @ C.conj().T
    S = C @ XC + np.eye(m)
    for lam in (1.0, 0.37, np.float64(0.37)):
        K = _gains(XC, S, lam)
        assert np.array_equal(K, _gains(XC[None], S[None], np.array([lam]))[0])
    assert np.array_equal(_gains(XC, S, 0.0), np.zeros_like(XC))


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


# The conftest second-order plant (m = 1), an m = 2 plant (n = 3, outputs
# that mix the states, correlated R), a one-state plant with a negative
# output gain and a six-state single-output plant with an unstable complex
# pair. The one- and two-state plants take the float route, the others
# numpy.
PLANTS = {
    "scalar": LinearSystem(A=-1.3, C=-0.8, Q=0.7, R=0.5, Sigma0=2.0),
    "second_order": LinearSystem(A=np.array([[1.2, 1.0], [0.0, 1.1]]), C=np.array([[1.0, 0.0]]),
                                 Q=np.array([[1.0, 0.5], [0.5, 2.0]]), R=1.0,
                                 Sigma0=np.array([[1.0, 0.5], [0.5, 2.0]])),
    "m2": LinearSystem(A=np.array([[1.1, 0.3, 0.0], [0.0, 0.9, 0.5], [0.2, 0.0, 1.05]]),
                       C=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
                       Q=np.array([[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 2.0]]),
                       R=np.array([[1.0, 0.3], [0.3, 0.5]]), Sigma0=np.eye(3)),
    "six_state": complex_mode_plant(6, 6, 1.1),
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
    errors alongside, copied as it was, with the m = 1 variance check that
    follows it: the reference for P's bits, and the gains K it formed."""
    rows, N = G.shape
    A, C, Q, R = sys.A, sys.C, sys.Q, sys.R
    At, Ct = A.T, C.T
    posv = sla.get_lapack_funcs("posv", dtype=np.float64)
    P = np.empty((rows, N + 1, sys.n, sys.n))
    P[:, 0] = sys.Sigma0
    Ks = np.zeros((rows, N, sys.n, sys.m))
    variances = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k, (got, some) in enumerate(zip(G.T, G.any(axis=0).tolist())):
            X = P[:, k]
            if some:
                XC = X @ Ct
                S = C @ XC + R
                if sys.m == 1:
                    s = np.where(got, S[:, 0, 0], 1.0)
                    K = XC * (got / s)[:, None, None]
                    variances.extend(S[got, 0, 0])
                else:
                    K = np.zeros_like(XC)
                    for r in np.flatnonzero(got):
                        K[r] = posv(S[r], XC[r].T)[1].T
                X = X - K @ XC.transpose(0, 2, 1)
                Ks[:, k] = K
            X = A @ X @ At + Q
            X += X.transpose(0, 2, 1)
            np.multiply(X, 0.5, out=P[:, k + 1])
    if not all(0.0 < s < np.inf for s in variances):
        raise NumericalError("innovation variance is not finite and positive")
    return P, Ks


def _float_covariances(sys, G):
    """The float kernel's covariance loop on a single-output plant, written
    as loops over the entries: on a reception X C', C (X C') + r, the gain
    (X C') (1 / s) and the upper entries of X - K (X C')', then A X,
    (A X) A' + Q and (x + x) * 0.5 on the upper entries, each sum left to
    right. The reference for P's bits on the float route, and the gains
    K = gamma P C' (1 / (C P C' + r)) formed from those covariances after
    the loop, in the same order."""
    rows, N = G.shape
    n = sys.n
    ns = range(n)
    A, c, Q, r = sys.A.tolist(), sys.C[0].tolist(), sys.Q.tolist(), sys.R.item()

    def gain(X):
        xc = [left_sum(X[i][j] * c[j] for j in ns) for i in ns]
        s = left_sum(c[i] * xc[i] for i in ns) + r
        return [x * (1.0 / s) for x in xc], xc

    P = np.empty((rows, N + 1, n, n))
    for b in range(rows):
        X = sys.Sigma0.tolist()
        P[b, 0] = X
        for k, got in enumerate(G[b]):
            if got:
                K, xc = gain(X)
                X = mirrored(lambda i, j: X[i][j] - K[i] * xc[j], n)
            AX = [[left_sum(A[i][l] * X[l][j] for l in ns) for j in ns] for i in ns]
            X = mirrored(lambda i, j: left_sum(AX[i][l] * A[j][l] for l in ns) + Q[i][j], n)
            X = mirrored(lambda i, j: (X[i][j] + X[i][j]) * 0.5, n)
            P[b, k + 1] = X
    Ks = np.zeros((rows, N, n, 1))
    for b, k in zip(*np.nonzero(G)):
        Ks[b, k, :, 0] = gain(P[b, k].tolist())[0]
    return P, Ks


@pytest.mark.parametrize("plant", sorted(PLANTS))
@pytest.mark.parametrize("p", [0.2, 0.51, 1.0])
def test_trace_covariances_bit_identical_to_stepped_loop(plant, p):
    """Each plant's traces are its route's reference loop bit for bit: the
    float kernel's for second_order, the numpy loop's for the rest (at
    n = 1 the float route has the numpy loop's bits)."""
    sys = PLANTS[plant]
    tr = simulate_trace(sys, Mechanism(p), ChannelParams(0.9, 0.6), T=300, seed=11)
    reference = _float_covariances if plant == "second_order" else _parent_covariances
    P, _ = reference(sys, np.stack([tr.gamma1, tr.gamma2]))
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


def _numpy_filter(sys, G, e0, w, v):
    """filter_errors as the stacked numpy loop computed it before the float
    route: the parent loop above, then the error solve copied as it is."""
    return _error_solve(sys, *_parent_covariances(sys, G), e0, w, v)


def _float_filter(sys, G, e0, w, v):
    """The float route's reference: :func:`_float_covariances`, with its
    gains read off its own covariances, then the same error solve."""
    return _error_solve(sys, *_float_covariances(sys, G), e0, w, v)


def _error_solve(sys, P, K, e0, w, v):
    """The errors given the covariances and gains, as :func:`_numpy_filter`
    solved them."""
    N = K.shape[1]
    IKC = np.eye(sys.n) - K @ sys.C
    Kv = K @ np.broadcast_to(v, (N, sys.m))[..., None]
    e = _linear_recursion(sys.A @ IKC, (sys.A @ Kv)[..., 0] - np.broadcast_to(w, (N, sys.n)),
                          e0)
    return (IKC @ e[:, :N, :, None] + Kv)[..., 0], P


@pytest.mark.parametrize("N", [0, 1, 300])
@pytest.mark.parametrize("a", [0.5, -0.5, 1.2, -1.2, 10.0])
def test_scalar_filter_is_bit_identical_to_numpy_loop(a, N):
    """On one-state, one-output plants the float route returns the stacked
    numpy loop's errors and covariances bit for bit, for B = 1 and 3 rows.

    At a = 10 a run of misses grows the covariance by 100 per step, and
    the covariance-form update P - K C P cancels it to zero or below once
    P passes about 1e16: then both routes raise at the next reception. A row that never
    receives overflows to an infinite covariance, which both routes carry,
    and receiving on it raises in both.
    """
    def outcome(route, *args):
        try:
            return route(*args)
        except NumericalError:
            return None

    rng = np.random.default_rng(int(1000 * abs(a)) + N + (a < 0))
    finished = 0
    for c in (1.0, -0.7):
        for sigma0 in (0.05, 1.0, 40.0):
            sys = LinearSystem(A=a, C=c, Q=0.8, R=1.3, Sigma0=sigma0)
            G = rng.random((3, N)) < np.array([[0.35], [0.7], [1.0]])
            e0, w, v = (rng.standard_normal(shape) for shape in (1, (N, 1), (N, 1)))
            for rows in (G, G[:1], G[1:], np.zeros((1, N), dtype=bool)):
                got = outcome(filter_errors, sys, rows, e0, w, v)
                ref = outcome(_numpy_filter, sys, rows, e0, w, v)
                assert (got is None) == (ref is None)
                if got is not None:
                    finished += 1
                    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
            if a == 10.0 and N == 300:
                assert np.isinf(got[1][0, -1, 0, 0])
                late = np.arange(N) == N - 1
                for route in (filter_errors, _numpy_filter):
                    assert outcome(route, sys, late[None], e0, w, v) is None
    assert finished >= 12


def test_scalar_route_never_reaches_the_stacked_gains(monkeypatch, scalar_sys):
    """The numpy route steps riccati_map's stacked map once per step, on all
    rows, which forms that step's gains in one _gains call and hands them
    to the filter, so no gain is formed after the loop; the scalar route
    steps no gain in numpy and reads all of them off its covariances in
    one call after the loop."""
    def refuse(*args):
        raise AssertionError("the float route reached riccati_map")

    calls, steps = [], []
    gains, step = kalman._gains, kalman._stacked_map
    G = np.arange(60).reshape(3, 20) % 3 != 0
    monkeypatch.setattr(kalman, "_gains", lambda *args: calls.append(1) or gains(*args))
    monkeypatch.setattr(kalman, "_stacked_map", lambda *args: steps.append(1) or step(*args))
    filter_errors(PLANTS["six_state"], G, np.zeros(6), 0.0, 0.0)
    assert len(steps) == 20 and len(calls) == 20
    monkeypatch.setattr(kalman, "riccati_map", refuse)
    monkeypatch.setattr(kalman, "_stacked_map", refuse)
    for rows in (G, G[0]):
        calls.clear()
        filter_errors(scalar_sys, rows, np.zeros(1), 0.0, 0.0)
        assert len(calls) == 1


@pytest.mark.parametrize("n", [1, 2])
def test_overflowed_missing_row_stays_out_of_the_stack(n):
    """A = 10 (n = 1) or [[10, 1], [0, 9]] (n = 2): row 0 always receives
    and stays bounded, row 1 never does and its covariance overflows near
    step 154. Row 1 of the stacked call still has a zero gain, so its
    errors are finite, and both rows equal their own calls bit for bit,
    covariances included: at n = 2 the overflowed covariance holds NaN
    (A[1, 0] = 0 times infinity) in the stacked and the single call alike.
    No warning escapes the float route. Receiving on the overflowed row
    raises."""
    N = 200
    sys = LinearSystem(A=np.array([[10.0, 1.0], [0.0, 9.0]])[:n, :n], C=np.eye(n)[:1],
                       Q=np.eye(n), R=1.0, Sigma0=np.eye(n))
    rng = np.random.default_rng(n)
    e0, w, v = rng.standard_normal(n), rng.standard_normal((N, n)), rng.standard_normal((N, 1))
    G = np.array([[True] * N, [False] * N])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E, P = filter_errors(sys, G, e0, w, v)
        singles = [filter_errors(sys, G[r], e0, w, v) for r in range(2)]
        with pytest.raises(NumericalError):
            filter_errors(sys, np.append(G[1], True), e0, np.append(w, w[:1], axis=0),
                          np.append(v, v[:1], axis=0))
    assert not np.isnan(E).any()
    assert not np.isfinite(P[1, -1]).all()
    for r, (E_r, P_r) in enumerate(singles):
        assert np.array_equal(E[r], E_r)
        assert np.array_equal(P[r], P_r, equal_nan=True)


def _kernel_chain(sys, x, lams):
    """The float kernel's row from x over the weights ``lams``, in one call:
    the iterates, or the step at which a bad variance stopped it."""
    n = len(sys.A)
    P = np.empty((1, len(lams) + 1, n, n))
    P[0, 0] = x
    failed = _float_kernel(n)(sys, np.array([lams], dtype=float), P)
    return P[0, 1:] if failed is None else failed


def _scalar_riccati_map(x, a, c, q, r, lam):
    """One step of the n = 1 float kernel on (a, c, q, r) from x."""
    coefficients = Coefficients(*(np.array([[v]]) for v in (a, c, q, r)))
    step = _kernel_chain(coefficients, x, [lam])
    if isinstance(step, tuple):
        raise NumericalError("innovation variance is not finite and positive")
    return step[0, 0, 0]


def _riccati_chain(x, lams, step):
    """The iterates of ``step`` over ``lams`` up to the first NumericalError,
    and whether one was raised."""
    out = []
    try:
        for lam in lams:
            x = step(x, lam)
            out.append(x)
    except NumericalError:
        return np.array(out), True
    return np.array(out), False


@pytest.mark.parametrize("a", [0.5, -0.5, 1.2, -1.2, 10.0])
def test_scalar_map_is_bit_identical_to_riccati_map(a):
    """The float kernel chained over fractional rates, 0 and 1 among them,
    step by step and as one row, is riccati_map's chain on the 1x1 plant
    bit for bit, overflow included: at a = 10 both overflow and then stop
    on a NaN variance at the same step. An operand of 1e308 overflows in
    the symmetrization of it, so both return infinity at lam = 0 and stop
    at lam = 0.5."""
    rng = np.random.default_rng(int(100 * abs(a)) + (a < 0))
    lams = np.concatenate([[0.0, 1.0, 0.5], rng.random(297)]).tolist()
    for c in (1.0, -0.7):
        for sigma0 in (0.05, 1.0, 40.0):
            sys = LinearSystem(A=a, C=c, Q=0.8, R=1.3, Sigma0=sigma0)
            coefficients = [M.item() for M in (sys.A, sys.C, sys.Q, sys.R)]
            for rates in (lams, [0.0] * 300):
                with np.errstate(over="ignore", invalid="ignore"):
                    ref, ref_raised = _riccati_chain(sys.Sigma0, rates,
                                                     lambda X, lam: riccati_map(X, sys, lam))
                got, raised = _riccati_chain(
                    sigma0, rates, lambda x, lam: _scalar_riccati_map(x, *coefficients, lam))
                assert raised == ref_raised and raised == (a == 10.0 and rates is lams)
                assert np.array_equal(got, ref[:, 0, 0], equal_nan=True)
                row = _kernel_chain(sys, sigma0, rates)
                if raised:
                    assert row == (0, len(ref))
                else:
                    assert np.array_equal(row, ref, equal_nan=True)
        for lam in (0.0, 0.5):
            with np.errstate(over="ignore"):
                ref, ref_raised = _riccati_chain(np.array([[1e308]]), [lam],
                                                 lambda X, lam: riccati_map(X, sys, lam))
            got, raised = _riccati_chain(
                1e308, [lam], lambda x, lam: _scalar_riccati_map(x, *coefficients, lam))
            assert raised == ref_raised == (lam > 0.0)
            assert np.array_equal(got, ref.reshape(-1))


def test_scalar_map_checks_the_variance():
    """A zero or negative variance raises on both routes; lam = 0 reads none."""
    for r in (-1.0, -3.0):
        sys = LinearSystem(A=1.2, C=1.0, Q=1.0, R=r, Sigma0=1.0)
        for step in (lambda: riccati_map(np.eye(1), sys, 0.5),
                     lambda: _scalar_riccati_map(1.0, 1.2, 1.0, 1.0, r, 0.5)):
            with pytest.raises(NumericalError):
                step()
    assert _scalar_riccati_map(1.0, 1.2, 1.0, 1.0, -1.0, 0.0) == 1.2 * 1.2 + 1.0


def test_bad_variance_on_the_float_route():
    """The scalar cases of test_bad_variance_mid_sequence: a negative
    covariance, a zero variance (an infinite gain on the numpy route) and
    an infinite prior raise on a receiving row, with no warning."""
    negative = LinearSystem(A=0.5, C=1.0, Q=-5.0, R=1.0, Sigma0=1.0)
    zero = LinearSystem(A=0.5, C=1.0, Q=1.0, R=-1.0, Sigma0=1.0)
    infinite = LinearSystem(A=0.5, C=1.0, Q=1.0, R=1.0, Sigma0=1.0)
    object.__setattr__(infinite, "Sigma0", np.array([[np.inf]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sys, gammas in ((negative, [False, True]), (zero, [[False], [True]]),
                            (infinite, [[False], [True]])):
            with pytest.raises(NumericalError):
                filter_errors(sys, gammas, np.zeros(1), 0.0, 0.0)
        _, P = filter_errors(negative, [True, False, False], np.zeros(1), 0.0, 0.0)
        assert P[-1, 0, 0] < 0
        filter_errors(zero, [[False], [False]], np.zeros(1), 0.0, 0.0)


def test_bad_variance_single_output_on_the_numpy_route():
    """Six states put a single-output plant on the numpy route, which checks
    the variances of its receiving rows after the loop. R = -1e6 makes
    C P C' + R negative at every early step: a row that receives at step 0
    or 1 raises, alone or stacked, with no warning; rows that never
    receive do not."""
    sys = dataclasses.replace(complex_mode_plant(6, 6, 1.1), R=-1e6)
    assert kalman._float_route(sys) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gammas in ([True, False, False], [False, True, False],
                       [[False, False, False], [False, True, False]]):
            with pytest.raises(NumericalError):
                filter_errors(sys, gammas, np.zeros(6), 0.0, 0.0)
        for gammas in ([False, False, False], [[False, False, False]] * 2):
            filter_errors(sys, gammas, np.zeros(6), 0.0, 0.0)


@pytest.mark.parametrize("plant", ["two_outputs", "six_state"])
def test_overflowed_missing_row_on_the_numpy_route(plant):
    """The numpy loop subtracts K (X C')' on receiving rows only, so a row
    that misses a step keeps its covariance even once it has overflowed,
    where 0 times infinity would make it NaN. A = 10 with C = [1; 0.5] and
    R = I (n = 1, m = 2), or a six-state single-output plant with a complex
    pair of modulus 10: row 0 always receives, row 1 never, N = 200. Each
    stacked row equals its own call bit for bit, covariances included."""
    N = 200
    if plant == "two_outputs":
        sys = LinearSystem(A=10.0, C=np.array([[1.0], [0.5]]), Q=1.0, R=np.eye(2), Sigma0=1.0)
    else:
        sys = complex_mode_plant(6, 6, 10.0)
    assert kalman._float_route(sys) is None
    rng = np.random.default_rng(7)
    e0 = rng.standard_normal(sys.n)
    w, v = rng.standard_normal((N, sys.n)), rng.standard_normal((N, sys.m))
    G = np.array([[True] * N, [False] * N])
    E, P = filter_errors(sys, G, e0, w, v)
    assert not np.isfinite(P[1, -1]).all() and not np.isnan(E).any()
    for r in range(2):
        E_r, P_r = filter_errors(sys, G[r], e0, w, v)
        assert np.array_equal(E[r], E_r)
        assert np.array_equal(P[r], P_r, equal_nan=True)
    if plant == "two_outputs":
        # the overflowed row is infinite, with no NaN
        assert np.isinf(P[1]).sum() == 47 and not np.isnan(P).any()


@pytest.mark.parametrize("plant", ["two_outputs", "six_state"])
def test_numpy_route_is_the_stepped_loop(plant):
    """The numpy route steps riccati_map on its stacked rows and reads the
    gains off the recorded covariances after the loop; its errors and
    covariances are the stepped loop's (:func:`_numpy_filter`) bit for bit.
    ``two_output_plant()`` and ``complex_mode_plant(6, 6, 1.1)``, three rows
    receiving at rates 0.3, 0.6 and 0.9 over N = 300, four seeds: stacked,
    one-row stacks and (N,) calls."""
    sys = two_output_plant() if plant == "two_outputs" else PLANTS["six_state"]
    assert kalman._float_route(sys) is None
    N = 300
    for seed in range(4):
        rng = np.random.default_rng(seed)
        G = rng.random((3, N)) < np.array([[0.3], [0.6], [0.9]])
        e0 = rng.standard_normal(sys.n)
        w, v = rng.standard_normal((N, sys.n)), rng.standard_normal((N, sys.m))
        for rows in (G, G[:1], G[2:]):
            E, P = filter_errors(sys, rows, e0, w, v)
            E_ref, P_ref = _numpy_filter(sys, rows, e0, w, v)
            assert np.array_equal(E, E_ref) and np.array_equal(P, P_ref)
        E, P = filter_errors(sys, G[1], e0, w, v)
        E_ref, P_ref = _numpy_filter(sys, G[1:2], e0, w, v)
        assert np.array_equal(E, E_ref[0]) and np.array_equal(P, P_ref[0])


@pytest.mark.parametrize("plant", ["second_order", "m2", "six_state"])
def test_stacked_riccati_map_rows_are_one_matrix_calls(plant):
    """riccati_map on stacked operands is its one-matrix call on each row,
    bit for bit, and raises no warning: boolean weights, as the filter
    passes them, and fractional ones, on a (4,) and a (2, 2) stack (m = 1
    and 2). The operands are slightly asymmetric, so each row is read
    through its symmetric part, as one matrix is. The last one has
    overflowed (infinite in its first row and column): with weight zero it
    stays out of the update, where 0 times infinity would make it NaN; with
    a nonzero weight it raises. A weight
    outside [0, 1], NaN, or a weight array that is not one per row is
    rejected."""
    sys = PLANTS[plant]
    n = sys.n
    rng = np.random.default_rng(n + sys.m)
    B = rng.standard_normal((4, n, n))
    X = B @ B.transpose(0, 2, 1) + np.eye(n) + 1e-3 * rng.standard_normal((4, n, n))
    X[3, 0, :] = X[3, :, 0] = np.inf
    for lam in (np.array([True, False, True, False]), np.array([0.37, 1.0, 0.0, 0.0]),
                np.array([[0.5, 0.0], [1.0, 0.0]]), np.zeros(4)):
        stack = X.reshape(lam.shape + (n, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = riccati_map(stack, sys, lam)
        assert got.shape == stack.shape
        with np.errstate(over="ignore", invalid="ignore"):
            for r in np.ndindex(lam.shape):
                assert np.array_equal(got[r], riccati_map(stack[r], sys, float(lam[r])),
                                      equal_nan=True), r
    assert not np.isfinite(got[3]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            riccati_map(X, sys, np.array([0.0, 1.0, 0.0, 0.5]))
    for lam in ([0.5, 1.5, 0.0, 0.0], [-0.1, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0],
                [1.0, 0.0], 0.5):
        with pytest.raises(ValidationError, match="lam"):
            riccati_map(X[:3], sys, np.array(lam)[:3] if np.ndim(lam) else lam)


def test_asymmetric_prior_rejected():
    """A Q, R or Sigma0 asymmetric beyond roundoff would start the routes
    apart: riccati_map reads its symmetric part, the float kernel its upper
    triangle and a Cholesky factor its lower one. No plant holds one:
    construction and dataclasses.replace raise a ValidationError naming
    it, for the float route's plant (C = [1, 0]) and the numpy route's
    (C = I). A matrix asymmetric within roundoff is symmetrized on
    construction, and filter_errors and expected_error_curve accept it."""
    bad = [[1.0, 0.9], [0.1, 2.0]]
    near = {"Q": [[1.0, 0.5 + 1e-12], [0.5, 2.0]], "R": [[1.0, 0.2 + 1e-12], [0.2, 1.0]],
            "Sigma0": [[1.0, 0.5 + 1e-12], [0.5, 2.0]]}
    for C in ([[1.0, 0.0]], np.eye(2)):
        plant = dict(A=[[1.2, 1.0], [0.0, 1.1]], C=C, Q=np.eye(2), R=np.eye(len(C)),
                     Sigma0=np.eye(2))
        sys = LinearSystem(**plant)
        assert (kalman._float_route(sys) is None) == (len(C) == 2)
        for name in ("Q", "R", "Sigma0") if len(C) == 2 else ("Q", "Sigma0"):
            with pytest.raises(ValidationError, match=f"^{name} must be symmetric, got"):
                LinearSystem(**dict(plant, **{name: bad}))
            with pytest.raises(ValidationError, match=f"^{name} must be symmetric, got"):
                dataclasses.replace(sys, **{name: bad})
            kept = dataclasses.replace(sys, **{name: near[name]})
            M = getattr(kept, name)
            assert np.array_equal(M, M.T)
            filter_errors(kept, [True], np.zeros(2), 0.0, 0.0)
            expected_error_curve(kept, Mechanism(0.8), 0.9, T=10, runs=5, seed=1)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (3, 2)])
def test_route_by_plant_size(monkeypatch, n, m):
    """Single-output plants with at most five states (_FLOAT_MAX_N) step the
    filter's covariances and the averaged curve in the one float kernel and
    never reach riccati_map: the filter reads its gains off the covariances
    in one call of the gain routine, and the curve needs none. A six-state
    plant and a two-output plant step both in numpy."""
    if m == 2:
        sys = two_output_plant()
    else:
        sys = PLANTS["scalar"] if n == 1 else complex_mode_plant(n, n, 1.1)
    assert (sys.n, sys.m) == (n, m)
    calls = []
    gains, curve_map = kalman._gains, montecarlo.riccati_map
    monkeypatch.setattr(kalman, "_gains", lambda *a: calls.append("gains") or gains(*a))
    monkeypatch.setattr(montecarlo, "riccati_map",
                        lambda *a: calls.append("map") or curve_map(*a))
    G = np.arange(60).reshape(3, 20) % 3 != 0
    filter_errors(sys, G, np.zeros(n), 0.0, 0.0)
    expected_error_curve(sys, Mechanism(0.8), 0.9, T=20, runs=10, seed=1)
    on_floats = m == 1 and n <= 5
    assert (kalman._float_route(sys) is not None) == on_floats
    if on_floats:
        assert calls == ["gains"]
    else:
        assert set(calls) == {"gains", "map"}


def _kernel_covariances(sys, G):
    """P of the float kernel's loop, called directly."""
    rows, N = G.shape
    P = np.empty((rows, N + 1, sys.n, sys.n))
    P[:, 0] = sys.Sigma0
    assert kalman._float_kernel(sys.n)(sys, G, P) is None
    return P


def _relative_gap(got, ref, axes):
    """max |got - ref|, relative to ref's largest entry over ``axes``."""
    scale = np.abs(ref).max(axis=axes, keepdims=True)
    return np.max(np.abs(got - ref) / np.where(scale > 0.0, scale, 1.0))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("radius", [0.9, 1.15])
def test_float_route_agrees_with_the_numpy_route(n, radius):
    """On seeded plants with a complex pair of modulus 0.9 (stable) or 1.15
    (unstable), two rows receiving at rates 0.5 and 0.8 over N = 300:

    - the kernel's covariances are its loop reference's
      (:func:`_float_covariances`) bit for bit, and filter_errors returns
      those covariances;
    - the errors agree with the float route's reference
      (:func:`_float_filter`, gains read off its own covariances in its
      own order of summation) and with the numpy loop, the covariances
      with the numpy loop and the Joseph-form oracle, within 1e-12 of each
      step's largest entry (errors: of each row's largest entry). The sums
      round differently from BLAS's fused multiply-adds; the measured
      worst gap over 12 seeds per case was 5.5e-14 (covariances, n = 5,
      unstable).
    """
    N = 300
    for seed in range(4):
        sys = complex_mode_plant(seed, n, radius)
        rng = np.random.default_rng(seed)
        G = rng.random((2, N)) < np.array([[0.5], [0.8]])
        e0, w, v = rng.standard_normal(n), rng.standard_normal((N, n)), rng.standard_normal((N, 1))
        E, P = filter_errors(sys, G, e0, w, v)
        E_loop, P_loop = _float_filter(sys, G, e0, w, v)
        assert np.array_equal(P, _kernel_covariances(sys, G)) and np.array_equal(P, P_loop)
        E_numpy, P_numpy = _numpy_filter(sys, G, e0, w, v)
        assert _relative_gap(P, P_numpy, (2, 3)) <= 1e-12
        assert _relative_gap(E, E_loop, (1, 2)) <= 1e-12
        assert _relative_gap(E, E_numpy, (1, 2)) <= 1e-12
        for r in range(2):
            assert _relative_gap(P[r, 1:], batch_covariance_oracle(sys, G[r]), (1, 2)) <= 1e-12


@pytest.mark.parametrize("plant", ["scalar", "second_order",
                                   *((n, radius) for n in (2, 3, 4, 5) for radius in (0.9, 1.15))],
                         ids=str)
def test_float_route_errors_from_their_own_covariances(plant):
    """The float route's errors are its reference's (:func:`_float_filter`)
    bit for bit: the gains are read off the recorded covariances with
    X C' and C X C' + r summed left to right, as the kernel sums them, so
    every C gives the reference's bits, not only a C that makes each X C'
    an entry of X (second_order's [1, 0]). On scalar, second_order and
    ``complex_mode_plant(seed, n, radius)`` for n = 2..5 and radius 0.9
    and 1.15, one plant per seed; three rows receiving at rates 0.3, 0.6
    and 0.9, N = 300, four seeds."""
    N = 300
    for seed in range(4):
        sys = PLANTS[plant] if isinstance(plant, str) else complex_mode_plant(seed, *plant)
        n = sys.n
        rng = np.random.default_rng(seed)
        G = rng.random((3, N)) < np.array([[0.3], [0.6], [0.9]])
        e0, w, v = rng.standard_normal(n), rng.standard_normal((N, n)), rng.standard_normal((N, 1))
        E, P = filter_errors(sys, G, e0, w, v)
        E_loop, P_loop = _float_filter(sys, G, e0, w, v)
        assert np.array_equal(E, E_loop) and np.array_equal(P, P_loop)


@pytest.mark.parametrize("N", [0, 1, 300])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_float_route_forms_its_gains_in_one_call(monkeypatch, n, N):
    """A float-route filter_errors call reaches the gain routine exactly
    once, after the kernel, whatever N and the number of rows, and never
    reaches riccati_map."""
    def refuse(*args):
        raise AssertionError("the float route reached riccati_map")

    sys = PLANTS["scalar"] if n == 1 else complex_mode_plant(n, n, 1.1)
    calls = []
    gains = kalman._gains
    monkeypatch.setattr(kalman, "_gains", lambda *a: calls.append(1) or gains(*a))
    monkeypatch.setattr(kalman, "riccati_map", refuse)
    monkeypatch.setattr(kalman, "_stacked_map", refuse)
    G = np.arange(3 * N).reshape(3, N) % 3 != 0
    for rows in (G, G[0]):
        calls.clear()
        filter_errors(sys, rows, np.zeros(n), 0.0, 0.0)
        assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_float_route_stacked_rows_equal_single_rows(n):
    """On the float route a stacked row is its own call bit for bit,
    overflow included. A complex pair of modulus 10: a row that always
    receives stays bounded, one that never does overflows (to infinities
    and NaN, as the numpy products would), one that alternates stays
    finite; no warning escapes, and receiving on the overflowed row
    raises."""
    N = 200
    sys = complex_mode_plant(n, n, 10.0)
    rng = np.random.default_rng(n)
    e0, w, v = rng.standard_normal(n), rng.standard_normal((N, n)), rng.standard_normal((N, 1))
    G = np.array([[True] * N, [False] * N, [True, False] * (N // 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E, P = filter_errors(sys, G, e0, w, v)
        for r in range(3):
            E_r, P_r = filter_errors(sys, G[r], e0, w, v)
            assert np.array_equal(E[r], E_r)
            assert np.array_equal(P[r], P_r, equal_nan=True)
        with pytest.raises(NumericalError):
            filter_errors(sys, np.append(G[1], True), e0, np.append(w, w[:1], axis=0),
                          np.append(v, v[:1], axis=0))
    assert not np.isfinite(P[1, -1]).any()
    assert np.isfinite(P[[0, 2]]).all() and np.isfinite(E).all()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _kernel_outcome(kernel, sys, G):
    """What a float kernel call on the rows G leaves: its return value (or
    the exception it raised) and the covariances it recorded, all of P or,
    when it stopped on a row, the rows before it."""
    P = np.full((len(G), G.shape[1] + 1, sys.n, sys.n), 7.0)
    P[:, 0] = sys.Sigma0
    try:
        failed = kernel(sys, G, P)
    except Exception as exc:
        return type(exc), None
    return failed, (P if failed is None else P[:failed[0]]).tobytes()


# Plants whose A has a zero last row: in the folded kernel every term of
# that row of A X is dropped, so the row's sums have no term left.
ZERO_ROW_PLANTS = {
    "zero row, n = 2": LinearSystem(A=[[1.2, 1.0], [0.0, 0.0]], C=[[1.0, 0.0]],
                                    Q=[[1.0, 0.3], [0.3, 0.7]], R=0.5, Sigma0=np.eye(2)),
    "zero row, n = 3": LinearSystem(A=[[1.2, 1.0, 0.0], [0.0, 1.1, 1.0], [0.0, 0.0, 0.0]],
                                    C=[[1.0, 0.0, 0.0]], Q=np.eye(3) + 0.2, R=0.5,
                                    Sigma0=np.eye(3)),
}


def _fold_cases():
    """(label, plant, rows of weights) on which the folded kernel's route
    must give the plain kernel's outcome, 699 of them:

    - the three shipped configs, two receivers' reception rows at
      p = 0.2, 0.51 and 1.0 over 15 seeds, and one pair of fractional
      rows per p, T = 300;
    - a = 10 with C = -0.7 and C = 1: a reception, k misses and a
      reception, k = 0, 2, ..., 198, which runs from a cancelling update
      (a bad variance) to an overflowed covariance;
    - upper-triangular, diagonal, zero-column and rotation A (n = 2 and
      3) times 1, 10, 2**120, 2**249 and 2**251, with C = e_j, a Q with and
      without off-diagonals and a Sigma0 with zero off-diagonals:
      receiving at 0.3 and 0.8, never and always, and fractional weights;
    - an unobservable unstable mode (1.5, C = e_1) run to overflow at
      T = 2000;
    - an updated covariance that overflows where only zero coefficients
      read it (R near -1 against a Sigma0 that is not PSD): the folded
      kernel's stop at a sum of squares of 2**1000 catches it;
    - a Q and a Sigma0 given with -0.0 off-diagonals, which the plant
      stores as +0.0;
    - A with a zero last row (:data:`ZERO_ROW_PLANTS`), whose folded
      kernel has a sum with no term left, with reception and fractional
      rows;
    - plants the route does not fold: a coefficient of 2**600 whose
      product overflows where only zeros read it, and a C of zeros with
      an r whose inverse overflows.
    """
    cases = []
    rng = np.random.default_rng(38)
    for name in ("scalar.json", "scalar_p1_0.9_p2_0.6.json", "second_order.json"):
        cfg = load_config(str(CONFIGS / name))
        sys, rates = cfg.system, np.array([[cfg.channel.p1], [cfg.channel.p2]])
        for p in (0.2, 0.51, 1.0):
            for seed in range(15):
                cases.append((f"{name} p {p}", sys, rng.random((2, 300)) < p * rates))
            cases.append((f"{name} p {p} fractions", sys,
                          rng.binomial(50, p * rates, (2, 300)) / 50))
    for c in (-0.7, 1.0):
        sys = LinearSystem(A=10.0, C=c, Q=0.8, R=1.3, Sigma0=1.0)
        for k in range(0, 200, 2):
            cases.append((f"a = 10, c = {c}, {k} misses", sys, np.array([[1] + [0] * k + [1]])))
    shapes = {"upper": [[1.2, 1.0], [0.0, 1.1]], "diagonal": [[1.2, 0.0], [0.0, 0.5]],
              "zero column 0": [[0.0, 1.0], [0.0, 1.1]], "zero column 1": [[1.2, 0.0], [1.0, 0.0]],
              "rotation": [[0.0, -1.0], [1.0, 0.0]],
              "upper 3": [[1.2, 1.0, 0.0], [0.0, 1.1, 1.0], [0.0, 0.0, 0.9]],
              "rotation 3": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]}
    for scale in (1.0, 10.0, 2.0 ** 120, 2.0 ** 249, 2.0 ** 251):
        for shape, A in shapes.items():
            n = len(A)
            for j in range(n):
                for Q, Sigma0 in ((np.eye(n), np.eye(n)),
                                  (np.full((n, n), 0.25) + 0.75 * np.eye(n), 2.0 * np.eye(n))):
                    sys = LinearSystem(A=scale * np.array(A), C=np.eye(n)[j:j + 1], Q=Q, R=0.7,
                                       Sigma0=Sigma0)
                    label = f"{shape} A x {scale:g}, C = e_{j}"
                    cases.append((label, sys, np.array([rng.random(300) < 0.3,
                                                        rng.random(300) < 0.8,
                                                        np.zeros(300), np.ones(300)])))
                    cases.append((f"{label}, fractions", sys,
                                  rng.random((2, 300)) * (rng.random((2, 300)) < 0.6)))
    for A in ([[1.5, 0.0], [0.0, 0.5]], [[1.5, 1.0], [0.0, 0.5]],
              [[1.5, 0.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.2]]):
        n = len(A)
        sys = LinearSystem(A=A, C=np.eye(n)[1:2], Q=np.eye(n), R=1.0, Sigma0=np.eye(n))
        for rows in (rng.random((2, 2000)) < 0.5, np.ones((2, 2000)), rng.random((2, 2000))):
            cases.append((f"unobservable 1.5, n = {n}", sys, rows))
    for r in (-0.999999, -0.99999999999, -1.0 + 2.0 ** -52):
        for A in ([[1.2, 0.0], [0.5, 0.0]], [[0.0, 1.0], [0.0, 1.1]]):
            sys = LinearSystem(A=A, C=[[1.0, 0.0]], Q=np.eye(2), R=r,
                               Sigma0=[[1.0, 1e150], [1e150, 1.0]])
            for rows in ([[1, 0, 0]], [[0, 0, 1, 0]], [[1, 0], [0, 1]]):
                cases.append((f"gain overflow, r = {r}, A = {A}", sys, np.array(rows)))
    cases.append(("coefficient 2**600", LinearSystem(
        A=[[0.0, 0.0], [2.0 ** 600, 0.0]], C=[[1.0, 0.0]], Q=np.eye(2), R=1.0,
        Sigma0=[[0.0, 2.0 ** 450], [2.0 ** 450, 1.0]]), np.zeros((1, 1))))
    for n in (1, 2):
        sys = LinearSystem(A=1.2 * np.eye(n), C=np.zeros((1, n)), Q=np.eye(n), R=1e-320,
                           Sigma0=np.eye(n))
        cases.append((f"C = 0, n = {n}", sys, np.ones((1, 5))))
    signed = np.array([[1.0, -0.0], [-0.0, 1.0]])
    cases.append(("Q and Sigma0 holding -0.0", LinearSystem(
        A=np.diag([1.2, 0.5]), C=[[1.0, 0.0]], Q=signed, R=1.0, Sigma0=signed), np.zeros((1, 3))))
    for label, sys in ZERO_ROW_PLANTS.items():
        cases.append((label, sys, np.array([rng.random(300) < 0.5, np.ones(300)])))
        cases.append((f"{label}, fractions", sys, rng.random((2, 300))))
    return cases


def test_folded_kernel_gives_the_plain_kernels_outcomes():
    """The route's folded kernel, with the plain kernel as its fallback,
    leaves what the plain kernel alone leaves, on every case of
    :func:`_fold_cases`: the same return value (the failing row and step),
    the same recorded covariance bits, and the same exception if one
    raises. Most cases fold
    (shipped configs included); the cases at 2**251, 2**600 and C = 0 do
    not, and the overflow cases fold but fall back."""
    cases = _fold_cases()
    folded = [label for label, sys, _ in cases
              if kalman._float_route(sys) is not _float_kernel(sys.n)]
    mismatches = [label for label, sys, G in cases
                  if _kernel_outcome(kalman._float_route(sys), sys, G)
                  != _kernel_outcome(_float_kernel(sys.n), sys, G)]
    assert len(cases) >= 400 and len(folded) >= 400
    assert mismatches == []


@pytest.mark.parametrize("label", list(ZERO_ROW_PLANTS))
def test_zero_row_of_A_folds_to_q(label):
    """On an A whose last row is zero the route folds, and the folded
    kernel forms no entry of that row of A X (a sum with every term
    dropped is no statement): it predicts the last variance as q itself,
    after receptions and misses alike."""
    sys = ZERO_ROW_PLANTS[label]
    n = sys.n
    assert kalman._float_route(sys) is not _float_kernel(n)
    known = tuple(v if v in (0.0, 1.0) else None
                  for v in sys.A.ravel().tolist() + sys.C.ravel().tolist())
    folded = _float_kernel(n, known)
    assert not [name for name in folded.__code__.co_varnames if name.startswith(f"ax{n - 1}_")]
    assert f"ax{n - 2}_{n - 2}" in folded.__code__.co_varnames
    G = np.array([[1, 0, 1, 1, 0], [0.3, 0.0, 0.9, 0.5, 1.0]])
    P = np.empty((2, 6, n, n))
    P[:, 0] = sys.Sigma0
    assert folded(sys, G, P) is None
    assert (P[:, 1:, n - 1, n - 1] == sys.Q[n - 1, n - 1]).all()


def test_route_folds_on_its_range():
    """The route folds the shipped configs' plants, and no plant with a
    coefficient of A or C of 2**250 or more or a C of zeros: there the
    plain kernel runs alone. A plant given a Q or Sigma0 holding -0.0
    stores +0.0 there, and folds."""
    for name in ("scalar.json", "second_order.json"):
        sys = load_config(str(CONFIGS / name)).system
        assert kalman._float_route(sys) is not _float_kernel(sys.n)
    cases = _fold_cases()
    plain = {label: sys for label, sys, _ in cases
             if kalman._float_route(sys) is _float_kernel(sys.n)}
    assert set(plain) == {"coefficient 2**600", "C = 0, n = 1", "C = 0, n = 2",
                          *(f"{shape} A x {2.0 ** 251:g}, C = e_{j}{suffix}"
                            for shape in ("upper", "diagonal", "zero column 0", "zero column 1",
                                          "rotation", "upper 3", "rotation 3")
                            for j in range(3 if "3" in shape else 2)
                            for suffix in ("", ", fractions"))}
    second_order = load_config(str(CONFIGS / "second_order.json")).system
    assert kalman._float_route(dataclasses.replace(second_order, A=2.0 ** 250 * second_order.A)) \
        is _float_kernel(2)
    signed = next(sys for label, sys, _ in cases if label == "Q and Sigma0 holding -0.0")
    for M in (signed.Q, signed.Sigma0):
        assert np.copysign(1.0, M).tolist() == [[1.0, 1.0], [1.0, 1.0]]
