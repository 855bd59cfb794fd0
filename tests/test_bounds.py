import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import secest
from secest import (
    ChannelParams,
    InconclusiveError,
    LinearSystem,
    NumericalError,
    ScalarSystem,
    ValidationError,
    bounds,
    critical_rates,
    feasibility_check,
    p_lower,
    p_upper,
    scalar_V,
    secrecy_interval,
    solve_S,
    solve_V,
    validate_system,
)

from helpers import circle_case, plus_minus_case

P_CRIT = 1.0 - 1.0 / 1.44  # 11/36 for the a=1.2 scalar plant

# p_upper returns the feasible end of a bracket of width 1e-6.
EXACT_TOL = 2e-6


def single_output_threshold(A) -> float:
    """1 - 1/prod|lambda_u|^2: the MARE threshold for rank-one C (Schenato
    et al., Proc. IEEE 2007), computed from the eigenvalues alone."""
    mags = np.abs(np.linalg.eigvals(A))
    return 1.0 - 1.0 / float(np.prod(mags[mags > 1.0])) ** 2


def rotation(theta: float) -> np.ndarray:
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def seeded_plant(seed: int, n: int, unstable, m: int) -> LinearSystem:
    """A = V diag(eig) V^-1 with the given unstable eigenvalues and n - k
    stable ones in (-0.8, 0.8); C is m x n Gaussian."""
    rng = np.random.default_rng(seed)
    eig = np.concatenate([unstable, rng.uniform(-0.8, 0.8, n - len(unstable))])
    V = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
    A = V @ np.diag(eig) @ np.linalg.inv(V)
    C = rng.standard_normal((m, n))
    return LinearSystem(A=A, C=C, Q=np.eye(n), R=np.eye(m), Sigma0=np.eye(n))


def observed_plant(A, C) -> LinearSystem:
    n, m = np.shape(A)[0], np.shape(C)[0]
    return LinearSystem(A=A, C=C, Q=np.eye(n), R=np.eye(m), Sigma0=np.eye(n))


def explicit_riccati(X, sys: LinearSystem, rate: float) -> np.ndarray:
    """g_rate(X) by an explicit inverse in Joseph form: with K the gain
    A X C' (C X C' + R)^-1 and F = A - K C,

        g_rate(X) = (1 - rate) A X A' + rate (F X F' + K R K') + Q,

    a sum of PSD terms. The subtractive form cancels the large entries of X
    and loses about cond(C X C' + R) ulps near the threshold."""
    A, C, Q, R = sys.A, sys.C, sys.Q, sys.R
    K = A @ X @ C.T @ np.linalg.inv(C @ X @ C.T + R)
    F = A - K @ C
    return (1.0 - rate) * A @ X @ A.T + rate * (F @ X @ F.T + K @ R @ K.T) + Q


def rel_residual(V, sys: LinearSystem, rate: float) -> float:
    return float(np.max(np.abs(V - explicit_riccati(V, sys, rate))) / np.max(np.abs(V)))


def test_p_lower_scalar(scalar_sys):
    assert p_lower(scalar_sys) == pytest.approx(P_CRIT, abs=1e-14)


def test_p_lower_second_order(second_order_sys):
    assert p_lower(second_order_sys) == pytest.approx(P_CRIT, abs=1e-12)


def test_p_lower_needs_unstable_plant():
    sys = LinearSystem(A=0.9, C=1.0, Q=1.0, R=1.0, Sigma0=1.0)
    with pytest.raises(ValidationError):
        p_lower(sys)


class TestEavesdropperFloor:
    def test_pinned_trace(self, scalar_sys, channel_97):
        S = solve_S(0.5357142857142857, channel_97, scalar_sys)
        assert S.finite
        assert S.trace == pytest.approx(10.0, abs=1e-8)

    def test_full_reception_returns_process_noise(self, scalar_sys):
        # effective rate 1 kills the discount entirely
        S = solve_S(1.0, ChannelParams(0.9, 1.0), scalar_sys)
        assert S.trace == pytest.approx(1.0, abs=1e-12)

    def test_infinite_below_threshold(self, scalar_sys, channel_96):
        S = solve_S(0.4, channel_96, scalar_sys)  # rate 0.24 < 11/36
        assert not S.finite
        assert S.trace == math.inf
        assert S.matrix is None

    def test_boundary_is_infinite(self, scalar_sys):
        S = solve_S(P_CRIT, ChannelParams(1.0, 1.0), scalar_sys)
        assert not S.finite

    def test_matches_lyapunov_iteration(self, second_order_sys, channel_96):
        S = solve_S(0.8, channel_96, second_order_sys)
        alpha = 1.0 - 0.8 * 0.6
        X = np.zeros((2, 2))
        for _ in range(4000):
            X = alpha * second_order_sys.A @ X @ second_order_sys.A.T + second_order_sys.Q
        assert np.max(np.abs(S.matrix - X)) < 1e-8

    def test_decreasing_in_p(self, second_order_sys, channel_96):
        traces = [solve_S(p, channel_96, second_order_sys).trace
                  for p in (0.6, 0.7, 0.8, 0.9, 1.0)]
        assert all(t1 < t0 for t0, t1 in zip(traces, traces[1:]))


class TestFeasibility:
    def test_above_threshold(self, scalar_sys):
        assert feasibility_check(0.32, scalar_sys)
        assert feasibility_check(1.0, scalar_sys)

    def test_below_threshold(self, scalar_sys):
        assert not feasibility_check(0.29, scalar_sys)
        assert not feasibility_check(0.0, scalar_sys)

    def test_range_checked(self, scalar_sys):
        with pytest.raises(ValidationError):
            feasibility_check(-0.2, scalar_sys)

    def test_within_roundoff_of_lower_is_decided_or_undecided(self, scalar_sys,
                                                               second_order_sys):
        # one ulp above p_lower the start Stein solve is beyond working
        # precision; the probe gives a verdict or InconclusiveError, which
        # p_upper counts as infeasible, never a bare NumericalError
        for sys in (scalar_sys, second_order_sys):
            try:
                verdict = feasibility_check(np.nextafter(p_lower(sys), 1.0), sys)
            except InconclusiveError:
                continue
            assert isinstance(verdict, bool)


def test_full_column_rank_decides_feasibility_in_closed_form():
    # 3x3 Jordan block at 1.1 with C = I: C U_u has full column rank, so
    # h(X) = (1 - lam) T_u X T_u^H and a rate is feasible iff it exceeds
    # p_lower. The certificate loop would be left to roundoff here, since
    # its X grows like margin^-3; decided in closed form, every bisection
    # probe is feasible and p_upper does not depend on the arithmetic.
    sys = observed_plant(1.1 * np.eye(3) + np.diag([1.0, 1.0], 1), np.eye(3))
    lo = p_lower(sys)
    assert not feasibility_check(lo, sys)
    assert all(feasibility_check(lo + d, sys) for d in (1e-12, 1.58e-6, 1e-3))
    assert p_upper(sys) == 0.17355450716885662


class TestCriticalUpper:
    def test_scalar_matches_lower(self, scalar_sys):
        assert p_upper(scalar_sys) - p_lower(scalar_sys) == pytest.approx(0.0, abs=1e-5)

    def test_invertible_output_matches_lower(self):
        A = np.array([[1.2, 1.0], [0.0, 1.1]])
        Q = np.array([[1.0, 0.5], [0.5, 2.0]])
        sys = LinearSystem(A=A, C=np.eye(2), Q=Q, R=np.eye(2), Sigma0=Q)
        assert p_upper(sys) - p_lower(sys) == pytest.approx(0.0, abs=1e-5)

    def test_partial_observation_sits_above_lower(self, second_order_sys):
        pu = p_upper(second_order_sys)
        assert p_lower(second_order_sys) < pu < 1.0
        assert feasibility_check(pu + 1e-3, second_order_sys)

    def test_cached_per_system(self, second_order_sys):
        assert p_upper(second_order_sys) == p_upper(second_order_sys)

    def test_critical_rates_exactness_flag(self, scalar_sys, second_order_sys):
        assert critical_rates(scalar_sys).exact
        assert not critical_rates(second_order_sys).exact


class TestCriticalRateExactness:
    """p_upper against the rank-one closed form and the closed bracket."""

    def test_second_order_matches_closed_form(self, second_order_sys):
        cf = single_output_threshold(second_order_sys.A)
        assert cf <= p_upper(second_order_sys) <= cf + EXACT_TOL

    @pytest.mark.parametrize("seed, n, unstable", [
        (1, 3, (1.2, 1.1)),
        (2, 3, (1.3,)),
        (3, 4, (1.15, -1.25)),
        (4, 4, (1.1, 1.2, -1.3)),
    ])
    def test_seeded_single_output_matches_closed_form(self, seed, n, unstable):
        sys = seeded_plant(seed, n, unstable, m=1)
        cf = single_output_threshold(sys.A)
        assert cf <= p_upper(sys) <= cf + EXACT_TOL

    @pytest.mark.parametrize("A", [
        1.1 * rotation(math.pi / 2),
        1.1 * rotation(0.7),
        1.1 * np.eye(3) + np.diag([1.0, 1.0], 1),
    ], ids=["rot-quarter-turn", "rot-0.7", "jordan-3"])
    def test_complex_and_defective_modes_match_closed_form(self, A):
        # The quarter turn sets up a period-2 orbit in the undamped map; the
        # Jordan block is observed at its head, the only observable entry.
        C = np.eye(1, A.shape[0])
        sys = observed_plant(A, C)
        cf = single_output_threshold(A)
        assert cf <= p_upper(sys) <= cf + EXACT_TOL

    @pytest.mark.parametrize("seed, n, unstable, m", [
        (5, 4, (1.2, 1.1), 2),
        (6, 5, (1.25, -1.1), 2),
        (7, 5, (1.3, 1.15, -1.05), 3),
    ])
    def test_enough_outputs_close_the_bracket(self, seed, n, unstable, m):
        # With C U_u of full column rank every rate above p_lower is feasible.
        sys = seeded_plant(seed, n, unstable, m)
        assert p_upper(sys) - p_lower(sys) <= EXACT_TOL

    def test_undetectable_plant_raises(self, second_order_sys):
        # C = [0, 1] never sees the mode at 1.2.
        sys = observed_plant(second_order_sys.A, [[0.0, 1.0]])
        with pytest.raises(NumericalError):
            p_upper(sys)

    def test_infeasible_rate_is_certified(self, second_order_sys):
        pu = p_upper(second_order_sys)
        assert not feasibility_check(pu - 1e-4, second_order_sys)
        assert feasibility_check(pu + 1e-4, second_order_sys)

    def test_ceiling_just_above_threshold(self, second_order_sys):
        sys = second_order_sys
        rate = single_output_threshold(sys.A) + 1e-3
        V = solve_V(rate, ChannelParams(1.0, 1.0), sys)
        assert V.finite
        A, C, Q, R = sys.A, sys.C, sys.Q, sys.R
        X = V.matrix
        AXC = A @ X @ C.T
        G = A @ X @ A.T + Q - rate * AXC @ np.linalg.inv(C @ X @ C.T + R) @ AXC.T
        assert np.max(np.abs(X - G)) / np.max(np.abs(X)) <= 1e-7
        # The fixed point's gain stabilizes the error in mean square, checked
        # on the vectorized second-moment operator.
        K = AXC @ np.linalg.inv(C @ X @ C.T + R)
        L = (1.0 - rate) * np.kron(A, A) + rate * np.kron(A - K @ C, A - K @ C)
        assert np.max(np.abs(np.linalg.eigvals(L))) < 1.0

    def test_ceiling_budget_exhaustion_names_rate_and_threshold(self, second_order_sys,
                                                                monkeypatch):
        monkeypatch.setattr(bounds, "_V_MAX_ITERS", 10)
        rate = p_upper(second_order_sys) + 1e-3
        with pytest.raises(NumericalError, match=r"in 10 iterations.*0\.42707.*p_upper = 0\.42607"):
            solve_V(rate, ChannelParams(1.0, 1.0), second_order_sys)


def unseen_diagonal_plant(seed: int) -> LinearSystem:
    """S diag(1.2, 1.1, 0.5) S^-1 with C = [0, 1, 1] S^-1: C misses the mode 1.2."""
    S = np.random.default_rng(seed).standard_normal((3, 3))
    Si = np.linalg.inv(S)
    return observed_plant(S @ np.diag([1.2, 1.1, 0.5]) @ Si, np.array([[0.0, 1.0, 1.0]]) @ Si)


def unseen_jordan_plant(seed: int) -> LinearSystem:
    """S J S^-1, J the 3x3 Jordan block at 1.1, with C = [0, 0, 1] S^-1: C
    sees the tail of the chain but not its eigenvector."""
    S = np.random.default_rng(seed).standard_normal((3, 3))
    Si = np.linalg.inv(S)
    J = 1.1 * np.eye(3) + np.diag([1.0, 1.0], 1)
    return observed_plant(S @ J @ Si, np.array([[0.0, 0.0, 1.0]]) @ Si)


def unseen_rotation_plant(seed: int) -> LinearSystem:
    """S diag(1.1 rot(0.7), 0.5) S^-1 with C = [0, 0, 1] S^-1: C misses the
    complex pair 1.1 exp(+-0.7i)."""
    S = np.random.default_rng(seed).standard_normal((3, 3))
    Si = np.linalg.inv(S)
    return observed_plant(S @ sla.block_diag(1.1 * rotation(0.7), 0.5) @ Si,
                          np.array([[0.0, 0.0, 1.0]]) @ Si)


class TestUndetectable:
    """One detectability verdict, ``LinearSystem.unseen_modes``, read by
    validation, the feasibility probe and p_upper alike."""

    RATES = (0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0)

    @pytest.mark.parametrize("plant, modulus, count", [
        (unseen_diagonal_plant, 1.2, 1),
        (unseen_jordan_plant, 1.1, 3),
        (unseen_rotation_plant, 1.1, 2),
    ], ids=["diag", "jordan", "rotation"])
    def test_every_reader_reports_the_unseen_mode(self, plant, modulus, count):
        for seed in range(20):
            sys = plant(seed)
            unseen = sys.unseen_modes
            assert len(unseen) == count, (seed, unseen)
            assert all(abs(abs(lam) - modulus) < 1e-3 for lam in unseen), (seed, unseen)
            assert validate_system(sys).warnings == [
                "(A, C) not detectable: C does not see the eigenvalue(s) "
                + ", ".join(f"{lam:.6g}" for lam in unseen)], seed
            # a certified verdict at every rate, never InconclusiveError
            assert not any(feasibility_check(rate, sys) for rate in self.RATES), seed
            with pytest.raises(NumericalError, match="not detectable"):
                p_upper(sys)

    def test_unseen_mode_on_the_unit_circle_is_unbounded(self):
        sys = observed_plant(np.diag([1.2, 1.0]), [[1.0, 0.0]])
        assert not feasibility_check(1.0, sys)
        with pytest.raises(NumericalError, match=r"eigenvalue\(s\) 1$"):
            p_upper(sys)
        stable_unseen = observed_plant(np.diag([1.2, 0.5]), [[1.0, 0.0]])
        assert p_upper(stable_unseen) - p_lower(stable_unseen) <= EXACT_TOL


@st.composite
def single_output_plants(draw):
    """Single-output plants, n <= 4, with real and complex eigenvalues kept
    apart from each other and from the unit circle, and a C that sees every
    mode."""
    n = draw(st.integers(1, 4))
    modulus = st.one_of(st.floats(0.1, 0.9), st.floats(1.05, 1.5))
    blocks, eig = [], []
    for _ in range(draw(st.integers(0, n // 2))):
        r, theta = draw(modulus), draw(st.floats(0.3, math.pi - 0.3))
        blocks.append(r * rotation(theta))
        eig += [r * complex(math.cos(theta), math.sin(theta)),
                r * complex(math.cos(theta), -math.sin(theta))]
    while len(eig) < n:
        x = draw(modulus) * draw(st.sampled_from((-1.0, 1.0)))
        blocks.append(np.array([[x]]))
        eig.append(x)
    eig = np.array(eig)
    assume(np.any(np.abs(eig) > 1.0))
    assume(all(abs(a - b) >= 0.1 for i, a in enumerate(eig) for b in eig[i + 1:]))
    V = np.eye(n) + draw(arrays(float, (n, n), elements=st.floats(-0.3, 0.3)))
    assume(np.linalg.cond(V) < 10.0)
    A = V @ sla.block_diag(*blocks) @ np.linalg.inv(V)
    C = draw(arrays(float, (1, n), elements=st.floats(-2.0, 2.0)))
    # PBH margin: every unit eigenvector shows up in the output.
    _, vecs = np.linalg.eig(A)
    assume(np.min(np.abs(C @ vecs)) >= 0.1)
    return observed_plant(A, C)


@given(single_output_plants())
def test_ceiling_against_explicit_map(sys):
    pu = p_upper(sys)
    rates = [min(pu + d, 1.0) for d in (0.05, 0.2)]
    ceilings = [solve_V(rate, ChannelParams(1.0, 1.0), sys) for rate in rates]
    for rate, V in zip(rates, ceilings):
        assert V.finite
        assert rel_residual(V.matrix, sys, rate) <= 1e-12
    assert ceilings[1].trace <= ceilings[0].trace


@given(single_output_plants())
def test_p_upper_matches_rank_one_closed_form(sys):
    cf = single_output_threshold(sys.A)
    # p_lower reads rho off the Schur factor and cf off numpy's eigenvalues;
    # with one unstable mode the two agree only to roundoff.
    assert p_lower(sys) - 1e-12 <= cf <= p_upper(sys) <= cf + EXACT_TOL


class TestUserCeiling:
    def test_matches_scalar_closed_form(self, scalar_sys):
        s = ScalarSystem(1.2, 1.0, 1.0, 1.0)
        for p in (0.6, 0.75, 0.9, 1.0):
            V = solve_V(p, ChannelParams(0.9, 0.6), scalar_sys)
            assert V.trace == pytest.approx(scalar_V(0.9 * p, s), abs=1e-8)

    def test_classical_limit_matches_dare(self, second_order_sys):
        for sys in (second_order_sys, seeded_plant(8, 20, (1.12, 1.05), m=20)):
            V = solve_V(1.0, ChannelParams(1.0, 1.0), sys)
            P = sla.solve_discrete_are(sys.A.T, sys.C.T, sys.Q, sys.R)
            assert np.max(np.abs(V.matrix - P)) < 1e-8

    def test_infinite_below_gate(self, scalar_sys):
        V = solve_V(0.3, ChannelParams(0.9, 0.6), scalar_sys)  # rate 0.27
        assert not V.finite and V.trace == math.inf

    def test_near_threshold_accuracy(self, scalar_sys):
        s = ScalarSystem(1.2, 1.0, 1.0, 1.0)
        rate = P_CRIT + 0.01
        V = solve_V(rate, ChannelParams(1.0, 1.0), scalar_sys)
        assert V.trace == pytest.approx(scalar_V(rate, s), abs=1e-8)

    @pytest.mark.parametrize("a", [1.2, 1.5, 2.0])
    @pytest.mark.parametrize("offset", [1e-5, 1e-6])
    def test_scalar_reaches_threshold(self, a, offset):
        # The open-loop direction is the near-critical one; the Stein solve
        # absorbs it, so the ceiling is reached right up to the threshold.
        s = ScalarSystem(a, 1.0, 1.0, 1.0)
        sys = s.to_linear()
        rate = p_upper(sys) + offset
        V = solve_V(rate, ChannelParams(1.0, 1.0), sys)
        assert V.finite
        assert V.trace == pytest.approx(scalar_V(rate, s), rel=1e-9)

    def test_invertible_output_reaches_threshold(self):
        sys = seeded_plant(8, 20, (1.12, 1.05), m=20)
        rate = p_upper(sys) + 1e-5
        V = solve_V(rate, ChannelParams(1.0, 1.0), sys)
        assert V.finite
        assert rel_residual(V.matrix, sys, rate) <= 1e-12
        A, C, X = sys.A, sys.C, V.matrix
        F = A - A @ X @ C.T @ np.linalg.inv(C @ X @ C.T + sys.R) @ C
        L = (1.0 - rate) * np.kron(A, A) + rate * np.kron(F, F)
        assert np.max(np.abs(np.linalg.eigvals(L))) < 1.0

    def test_fixed_point_property(self, second_order_sys):
        from secest import riccati_map
        V = solve_V(0.8, ChannelParams(0.9, 0.6), second_order_sys)
        residual = riccati_map(V.matrix, second_order_sys, 0.8 * 0.9) - V.matrix
        assert np.max(np.abs(residual)) < 1e-7


def rotation_output_plant() -> LinearSystem:
    """1.15 rot(0.7) (+) 0.5 with C = I: a complex factor, three outputs."""
    return observed_plant(sla.block_diag(1.15 * rotation(0.7), 0.5), np.eye(3))


def circle_output_plant() -> LinearSystem:
    """circle_case (n = 24, 12 unstable modes at radius 1.08), C = I + 0.1 G."""
    A, Q = circle_case()
    C = np.eye(24) + 0.1 * np.random.default_rng(24).standard_normal((24, 24))
    return LinearSystem(A=A, C=C, Q=Q, R=np.eye(24), Sigma0=Q)


def plus_minus_output_plant() -> LinearSystem:
    """plus_minus_case (eigenvalues 1.1 and -1.1) with a square Gaussian C."""
    A, Q = plus_minus_case()
    C = np.random.default_rng(6).standard_normal((6, 6))
    return LinearSystem(A=A, C=C, Q=Q, R=np.eye(6), Sigma0=Q)


@pytest.mark.parametrize("plant", [rotation_output_plant, circle_output_plant,
                                   plus_minus_output_plant],
                         ids=["rotation-C=I", "circle-n24", "plus-minus-m=n"])
def test_ceiling_on_complex_factor_with_several_outputs(plant):
    # the split iterates in complex Schur coordinates, with m >= 2 innovation
    # solves in complex arithmetic
    sys = plant()
    assert np.iscomplexobj(sys.schur.T) and sys.m >= 2
    pu = p_upper(sys)
    rates = [min(pu + d, 1.0) for d in (0.05, 0.2)]
    ceilings = [solve_V(rate, ChannelParams(1.0, 1.0), sys) for rate in rates]
    for rate, V in zip(rates, ceilings):
        assert V.finite
        assert rel_residual(V.matrix, sys, rate) <= 1e-12
    assert ceilings[1].trace < ceilings[0].trace


@pytest.mark.parametrize("rate_offset", [1e-3, 0.05, 0.5])
def test_ceiling_prepares_its_stein_solve_once(monkeypatch, second_order_sys, rate_offset):
    # The Cayley factor depends on alpha = 1 - rate alone: one prepare step
    # per solve_V call, whatever its step count (tens to thousands here).
    calls = []
    prepare = secest.linmodel.prepare_stein
    monkeypatch.setattr(secest.linmodel, "prepare_stein",
                        lambda T, alpha, sigma: calls.append(alpha) or prepare(T, alpha, sigma))
    for sys in (second_order_sys, seeded_plant(8, 20, (1.12, 1.05), m=20)):
        rate = min(p_upper(sys) + rate_offset, 1.0)
        calls.clear()
        assert solve_V(rate, ChannelParams(1.0, 1.0), sys).finite
        assert calls == [1.0 - rate]


def test_certificate_maps_through_riccati_map(monkeypatch, second_order_sys):
    # h is riccati_map, noise-free, on the unstable Schur block: no copy of
    # the Riccati formula lives in the certificate
    blocks = []
    ricc = bounds.riccati_map
    monkeypatch.setattr(bounds, "riccati_map",
                        lambda X, coeffs, lam: blocks.append(coeffs) or ricc(X, coeffs, lam))
    assert feasibility_check(0.45, second_order_sys)
    schur = second_order_sys.schur
    assert schur.k == 2 and blocks
    for coeffs in blocks:
        assert isinstance(coeffs, secest.kalman.Coefficients)
        assert np.array_equal(coeffs.A, schur.T[:2, :2])
        assert coeffs.Q.shape == (2, 2) and coeffs.R.shape == (1, 1)
        assert not coeffs.Q.any() and not coeffs.R.any()


def test_certificate_on_complex_factor_with_two_outputs():
    # k = 3 unstable modes seen through rank(C U_u) = 2 < k: the loop runs
    # in complex arithmetic with a 2x2 innovation solve (zposv)
    sys = observed_plant(sla.block_diag(1.3 * rotation(0.7), 1.1, 0.5),
                         np.random.default_rng(3).standard_normal((2, 4)))
    schur = sys.schur
    assert np.iscomplexobj(schur.T) and schur.k == 3
    assert np.linalg.matrix_rank(sys.C @ schur.U[:, :3]) == 2
    pu = p_upper(sys)
    assert p_lower(sys) < pu < 1.0
    assert not feasibility_check(pu - 1e-4, sys)
    assert feasibility_check(pu + 1e-4, sys)


class TestSecrecyInterval:
    def test_scalar_exact_interval(self, scalar_sys, channel_96):
        iv = secrecy_interval(scalar_sys, channel_96)
        assert not iv.empty and not iv.conservative
        assert iv.lower_exclusive == pytest.approx(P_CRIT / 0.9, abs=1e-9)
        assert iv.upper_inclusive == pytest.approx(P_CRIT / 0.6, abs=1e-9)
        assert iv.user_nominal_bounded

    def test_equal_channels_give_empty_interval(self, scalar_sys):
        iv = secrecy_interval(scalar_sys, ChannelParams(0.7, 0.7))
        assert iv.empty

    def test_eavesdropper_better_channel_empty(self, scalar_sys):
        iv = secrecy_interval(scalar_sys, ChannelParams(0.6, 0.9))
        assert iv.empty

    def test_conservative_branch(self, second_order_sys, channel_96):
        iv = secrecy_interval(second_order_sys, channel_96)
        assert iv.conservative
        assert iv.lower_exclusive == pytest.approx(
            p_upper(second_order_sys) / 0.9, rel=1e-9)
        assert iv.upper_inclusive == pytest.approx(P_CRIT / 0.6, abs=1e-9)
        assert not iv.empty

    def test_upper_capped_at_one(self, scalar_sys):
        iv = secrecy_interval(scalar_sys, ChannelParams(0.9, 0.25))
        assert iv.upper_inclusive == 1.0
