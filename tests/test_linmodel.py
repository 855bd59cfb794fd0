from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from secest import (
    ChannelParams,
    LinearSystem,
    NumericalError,
    ValidationError,
    p_lower,
    solve_S,
    validate_system,
)
from secest.cli import load_config
from secest.linmodel import SchurFactor, cayley_shift, is_positive_definite, prepare_stein

from helpers import circle_case, plus_minus_case


def reported_rho(A) -> float:
    """rho(A) as validation reports it, for a plant with identity noise."""
    n = len(A)
    sys = LinearSystem(A=A, C=np.eye(n), Q=np.eye(n), R=np.eye(n), Sigma0=np.eye(n))
    return validate_system(sys).spectral_radius


def test_spectral_radius_triangular():
    A = np.array([[1.2, 1.0], [0.0, 1.1]])
    assert reported_rho(A) == pytest.approx(1.2, abs=1e-12)


def test_spectral_radius_rotation():
    # complex pair, modulus 2
    A = 2.0 * np.array([[0.0, -1.0], [1.0, 0.0]])
    assert reported_rho(A) == pytest.approx(2.0, abs=1e-12)


def test_spectral_radius_nilpotent():
    # rho = 0: the real factor's shift must not divide by rho
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert reported_rho(A) == 0.0
    assert SchurFactor.of(A, np.eye(2)).sigma == 1.0


def test_one_instability_verdict_near_unit_rho(near_unit_plants):
    # Validation and every solver read rho off the same Schur factor, so a
    # plant that validates always has a reception-rate threshold.
    for sys in near_unit_plants:
        report = validate_system(sys)
        try:
            p_lower(sys)
            has_threshold = True
        except ValidationError:
            has_threshold = False
        assert report.ok == has_threshold, sys.A.tolist()
        assert report.spectral_radius == sys.schur.rho


def test_positive_definite_classification():
    assert is_positive_definite(np.array([[2.0, 1.0], [1.0, 1.0]]))  # eigs (3±sqrt5)/2
    assert not is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eig -1
    assert not is_positive_definite(np.diag([1.0, 0.0]))
    assert not is_positive_definite(np.array([[1.0, 0.3], [0.2, 1.0]]))  # asymmetric


class TestLinearSystem:
    def test_scalars_promote_to_matrices(self):
        sys = LinearSystem(A=1.2, C=1.0, Q=1.0, R=1.0, Sigma0=1.0)
        assert sys.n == 1 and sys.m == 1
        assert sys.A.shape == (1, 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            LinearSystem(A=np.eye(2), C=np.array([[1.0, 0.0, 0.0]]),
                         Q=np.eye(2), R=1.0, Sigma0=np.eye(2))

    def test_nonsquare_A_rejected(self):
        with pytest.raises(ValidationError):
            LinearSystem(A=np.ones((2, 3)), C=np.ones((1, 2)),
                         Q=np.eye(2), R=1.0, Sigma0=np.eye(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            LinearSystem(A=np.nan, C=1.0, Q=1.0, R=1.0, Sigma0=1.0)

    def test_matrices_are_read_only(self):
        sys = LinearSystem(A=1.2, C=1.0, Q=1.0, R=1.0, Sigma0=1.0)
        with pytest.raises(ValueError):
            sys.A[0, 0] = 2.0


def test_validate_system_clean(second_order_sys):
    report = validate_system(second_order_sys)
    assert report.ok
    assert report.spectral_radius == pytest.approx(1.2)
    assert report.failures == [] and report.warnings == []


def test_validate_system_failures_and_warnings():
    sys = LinearSystem(A=0.9, C=1.0, Q=1.0, R=1.0, Sigma0=1.0)
    report = validate_system(sys)
    assert not report.ok
    assert any("spectral radius" in f for f in report.failures)

    A = np.array([[1.2, 1.0], [0.0, 1.1]])
    sys = LinearSystem(A=A, C=np.array([[0.0, 1.0]]), Q=np.eye(2), R=1.0,
                       Sigma0=np.eye(2))
    report = validate_system(sys)
    assert report.ok  # an unseen mode is a warning, not a failure
    assert any("not detectable" in w for w in report.warnings)

    sys = LinearSystem(A=A, C=np.array([[1.0, 0.0]]), Q=np.diag([1.0, 0.0]),
                       R=1.0, Sigma0=np.eye(2))
    report = validate_system(sys)
    assert any("Q positive definite" in f for f in report.failures)


class TestDiscountedLyapunov:
    """X = alpha A X A' + Q on the Schur form of A: a Cayley transform with the
    plant's unit shift sigma and one triangular Sylvester solve, O(n^3) with
    no Python loop, after one O(n^3) factor. The factor and the solve are
    real (``dtrsyl``, sigma = +-1) on a plant with real eigenvalues that a
    real shift keeps at least 1/8 from -sigma, and complex (``ztrsyl``,
    sigma a root of unity) otherwise. The solve replaced the O(n^6)
    Kronecker-vectorized one, which the oracle cases below keep as the
    reference. scipy's bilinear route is the same transform with sigma = 1
    and fails the 1e-13 residual bound near the threshold with a negative
    real unstable eigenvalue. The oracle cases below cover what a fixed
    shift or a route through T^-1 would fail: unstable eigenvalues of both
    signs, unstable ones spread round the circle, a singular A, a strongly
    non-normal one, and real spectra just either side of the real shift's
    cut."""

    def test_scalar_closed_form(self):
        factor = SchurFactor.of(np.array([[1.2]]), np.array([[1.0]]))
        S = factor.to_plant(factor.discounted_lyapunov(0.625))
        # 1 / (1 - 0.625 * 1.44) = 10
        assert S[0, 0] == pytest.approx(10.0, abs=1e-10)

    def test_diagonal_closed_form(self):
        A = np.diag([1.2, 1.1])
        factor = SchurFactor.of(A, np.eye(2))
        S = factor.to_plant(factor.discounted_lyapunov(0.5))
        assert S[0, 0] == pytest.approx(1.0 / (1.0 - 0.5 * 1.44), abs=1e-10)
        assert S[1, 1] == pytest.approx(1.0 / (1.0 - 0.5 * 1.21), abs=1e-10)
        assert S[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_fixed_point_iteration(self):
        A = np.array([[1.2, 1.0], [0.0, 1.1]])
        Q = np.array([[1.0, 0.5], [0.5, 2.0]])
        alpha = 0.5
        factor = SchurFactor.of(A, Q)
        S = factor.to_plant(factor.discounted_lyapunov(alpha))
        X = np.zeros((2, 2))
        for _ in range(2000):
            X = alpha * A @ X @ A.T + Q
        assert np.max(np.abs(S - X)) < 1e-9

    def test_monotone_in_alpha(self):
        A = np.array([[1.2, 1.0], [0.0, 1.1]])
        Q = np.array([[1.0, 0.5], [0.5, 2.0]])
        factor = SchurFactor.of(A, Q)
        # U is unitary, so the Schur-basis solution has the plant floor's trace
        traces = [np.trace(factor.discounted_lyapunov(a)) for a in (0.0, 0.2, 0.4, 0.6)]
        assert all(t1 > t0 for t0, t1 in zip(traces, traces[1:]))

    def test_alpha_zero_returns_Q(self):
        Q = np.array([[1.0, 0.5], [0.5, 2.0]])
        factor = SchurFactor.of(np.array([[1.2, 1.0], [0.0, 1.1]]), Q)
        S = factor.to_plant(factor.discounted_lyapunov(0.0))
        assert np.allclose(S, Q, atol=1e-14)

    def test_divergent_alpha_raises(self):
        with pytest.raises(NumericalError):
            SchurFactor.of(np.array([[1.2]]), np.array([[1.0]])).discounted_lyapunov(0.7)


def kron_reference(A, Q, alpha):
    """Independent route: (I - alpha A kron A) vec(S) = vec(Q), O(n^6)."""
    n = A.shape[0]
    vec = np.linalg.solve(np.eye(n * n) - alpha * np.kron(A, A), Q.ravel(order="F"))
    S = vec.reshape((n, n), order="F")
    return 0.5 * (S + S.T)


def rotation_case():
    th = 0.7
    A = 1.1 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return A, np.array([[1.0, 0.3], [0.3, 2.0]])


def jordan_case():
    A = 1.1 * np.eye(3) + np.diag([1.0, 1.0], k=1)
    return A, np.diag([1.0, 2.0, 0.5])


def negative_unstable_case():
    # n = 12, rho(A) = 1.1 from the eigenvalue -1.1, the rest inside (-1, 1)
    rng = np.random.default_rng(12)
    V = np.eye(12) + 0.3 * rng.standard_normal((12, 12)) / np.sqrt(12)
    eig = np.concatenate([[-1.1], np.linspace(-0.85, 0.9, 11)])
    G = rng.standard_normal((12, 12))
    return V @ np.diag(eig) @ np.linalg.inv(V), G @ G.T / 12 + 0.5 * np.eye(12)


def seeded_case(seed):
    rng = np.random.default_rng(seed)
    A = 1.3 * rng.standard_normal((30, 30)) / np.sqrt(30)
    G = rng.standard_normal((30, 30))
    return A, G @ G.T / 30 + 0.5 * np.eye(30)


def singular_case():
    # a 3x3 nilpotent block (A singular) next to 1.2: a route through T^-1 fails
    A = sla.block_diag(np.diag([1.0, 1.0], k=1), [[1.2]])
    A[:3, 3] = [0.5, -0.3, 0.2]
    return A, np.diag([1.0, 0.5, 2.0, 1.0])


def scalar_case():
    return np.array([[-1.3]]), np.array([[0.7]])


def non_normal_case():
    # upper triangular with off-diagonal entries ~10x the spectral radius
    rng = np.random.default_rng(10)
    A = np.diag(np.linspace(-1.15, 1.2, 10)) + 12.0 * np.triu(rng.standard_normal((10, 10)), 1)
    return A, np.eye(10)


def real_shift_case(distance):
    # n = 5 in a non-normal basis, eigenvalues 1.2 and -(1 - distance) 1.2
    # among three stable ones: the real shift +1 keeps -1 exactly
    # ``distance`` from the segments [0, lambda_i / rho]
    rng = np.random.default_rng(5)
    eig = np.array([1.2, -(1.0 - distance) * 1.2, 0.5, -0.3, 0.9])
    V = np.eye(5) + 0.3 * rng.standard_normal((5, 5)) / np.sqrt(5)
    G = rng.standard_normal((5, 5))
    return V @ np.diag(eig) @ np.linalg.inv(V), G @ G.T / 5 + 0.5 * np.eye(5)


ORACLE_CASES = {
    "rotation": rotation_case,
    "jordan": jordan_case,
    "negative-n12": negative_unstable_case,
    "seeded-n30-a": lambda: seeded_case(30),
    "seeded-n30-b": lambda: seeded_case(31),
    "plus-minus-1.1": plus_minus_case,
    "circle-n24": circle_case,
    "singular": singular_case,
    "scalar": scalar_case,
    "non-normal": non_normal_case,
    "real-shift-above-cut": lambda: real_shift_case(0.13),
    "real-shift-below-cut": lambda: real_shift_case(0.12),
}


@pytest.mark.parametrize("margin", [0.5, 1e-2, 1e-6, 1e-8])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_floor_against_kronecker_oracle(case, margin):
    # margin = 1 - alpha rho^2: the solution norm grows like 1 / margin, and
    # so does the conditioning of the Kronecker route, which is trusted only
    # at margin >= 1e-2. The residual bound holds at every margin.
    A, Q = ORACLE_CASES[case]()
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    alpha = (1.0 - margin) / rho**2
    sys = LinearSystem(A=A, C=np.eye(len(A)), Q=Q, R=np.eye(len(A)), Sigma0=Q)
    p = 1.0 - alpha  # at p2 = 1 the floor's discount is 1 - p
    factor = SchurFactor.of(A, Q)
    floors = {
        "SchurFactor.of": factor.to_plant(factor.discounted_lyapunov(1.0 - p)),
        "solve_S": solve_S(p, ChannelParams(1.0, 1.0), sys).matrix,
    }
    ref = kron_reference(A, Q, 1.0 - p) if margin >= 1e-2 else None
    for route, S in floors.items():
        residual = np.max(np.abs(S - (1.0 - p) * A @ S @ A.T - Q)) / np.max(np.abs(S))
        assert residual <= 1e-13, (route, residual)
        if ref is not None:
            assert np.max(np.abs(S - ref)) <= 1e-10 * np.max(np.abs(ref)), route


# The oracle cases whose eigenbasis is well conditioned (cond_2(Y) 1 to 46)
# and so take the modal route; the others (a Jordan block, a nilpotent
# block, a strongly non-normal A, plus-minus at 295) take the Cayley route.
MODAL_CASES = ["circle-n24", "negative-n12", "real-shift-above-cut", "real-shift-below-cut",
               "rotation", "scalar", "seeded-n30-a", "seeded-n30-b"]


@pytest.mark.parametrize("margin", [0.5, 1e-3, 1e-6])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_modal_floor_against_kronecker_and_cayley(case, margin):
    # solve_S on the modal route, Z = QE / (1 - alpha d d^H) carried back to
    # the plant, against the Kronecker oracle and the Cayley solve. Both
    # references carry their own roundoff times the floor's conditioning,
    # about 1 / margin: measured up to 4.8e-9 (Kronecker) and 7.3e-10
    # (Cayley) at margin 1e-6.
    A, Q = ORACLE_CASES[case]()
    n = len(A)
    sys = LinearSystem(A=A, C=np.eye(n), Q=Q, R=np.eye(n), Sigma0=Q)
    factor = sys.schur
    assert (factor.modal is not None) == (case in MODAL_CASES)
    if factor.modal is None:
        return
    alpha = (1.0 - margin) / factor.rho**2
    S = solve_S(1.0 - alpha, ChannelParams(1.0, 1.0), sys).matrix
    tol = 2e-14 / margin
    for route, ref in (("kronecker", kron_reference(A, Q, alpha)),
                       ("cayley", factor.to_plant(factor.discounted_lyapunov(alpha)))):
        assert np.max(np.abs(S - ref)) <= tol * np.max(np.abs(ref)), route


def test_schur_factor_is_cached_and_reads_rho():
    A, Q = negative_unstable_case()
    sys = LinearSystem(A=A, C=np.eye(12), Q=Q, R=np.eye(12), Sigma0=Q)
    factor = sys.schur
    assert sys.schur is factor
    assert factor.rho == pytest.approx(1.1, rel=1e-12)
    assert np.allclose(factor.U @ factor.T @ factor.U.conj().T, A, atol=1e-13)
    assert np.allclose(np.tril(factor.T, -1), 0.0)


def test_cayley_shift_clears_both_signs():
    # at margin 1e-8 the shifted diagonal sqrt(alpha) lambda + sigma stays
    # away from zero at +1.1 and at -1.1, where sigma = +-1 would come within 1e-8
    A, Q = plus_minus_case()
    sys = LinearSystem(A=A, C=np.eye(6), Q=Q, R=np.eye(6), Sigma0=Q)
    factor = sys.schur
    alpha = (1.0 - 1e-8) / factor.rho**2
    assert abs(factor.sigma) == pytest.approx(1.0, abs=1e-15)
    assert np.min(np.abs(np.sqrt(alpha) * np.diag(factor.T) + factor.sigma)) >= 0.5


def closed_form_real_shift(eigs):
    """The real shift as a closed form: of sigma = +1 and -1, the one whose
    negative lies farther from every segment [0, lambda_i / rho] (ties to
    +1), whose distance is 1 - max(0, -lambda_min) / rho for +1 and
    1 - max(0, lambda_max) / rho for -1; None when it is below 1/8."""
    rho = float(np.max(np.abs(eigs)))
    if rho == 0.0:
        return 1.0
    plus = 1.0 - max(0.0, -float(np.min(eigs))) / rho
    minus = 1.0 - max(0.0, float(np.max(eigs))) / rho
    sigma, dist = (1.0, plus) if plus >= minus else (-1.0, minus)
    return sigma if dist >= 0.125 else None


def test_real_spectra_take_the_closed_form_shift():
    # triangular A with the spectrum on its diagonal; every other plant puts
    # an eigenvalue at +-rho and one of the other sign at 0.875 rho +- 1e-6
    # (either side of the 1/8 cut), at -+rho, at 0.5 rho or at 0
    rng = np.random.default_rng(18)
    seen = set()
    for i in range(240):
        n = int(rng.integers(1, 9))
        eig = rng.uniform(-1.5, 1.5, n) * (i % 40 != 0)
        if n >= 2 and i % 2:
            eig[0] = float(np.max(np.abs(eig))) * rng.choice([1.0, -1.0])
            eig[1] = -eig[0] * rng.choice([0.875 - 1e-6, 0.875 + 1e-6, 1.0, 0.5, 0.0])
        A = np.diag(eig) + np.triu(rng.standard_normal((n, n)), 1)
        factor = SchurFactor.of(A, np.eye(n))
        expected = closed_form_real_shift(eig)
        seen.add(expected)
        if expected is None:
            assert factor.T.dtype == np.dtype(np.complex128), i
            assert isinstance(factor.sigma, complex), i
        else:
            assert factor.T.dtype == np.dtype(np.float64), i
            assert type(factor.sigma) is float and factor.sigma == expected, i
    assert seen == {1.0, -1.0, None}


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.stem)
def test_shipped_configs_take_the_real_factor(path):
    factor = load_config(str(path)).system.schur
    assert {factor.T.dtype, factor.U.dtype, factor.QU.dtype} == {np.dtype(np.float64)}
    assert factor.sigma in (1.0, -1.0)


@pytest.mark.parametrize("n", [8, 27])
def test_real_spectra_take_the_real_factor(n):
    # held-sweep-style plants: 1.2 and 1.1 with stable eigenvalues spread over
    # (-0.8, 0.8), so sigma = +1 keeps -1 at least 1/3 from every segment
    for seed in range(5):
        factor = spread_plant(seed, n).schur
        assert {factor.T.dtype, factor.U.dtype, factor.QU.dtype} == {np.dtype(np.float64)}
        assert factor.sigma == 1.0 and factor.k == 2, seed
    # -1.1 outside and (-0.85, 0.9) inside the unit circle: only sigma = -1 clears the cut
    assert SchurFactor.of(*negative_unstable_case()).sigma == -1.0
    assert SchurFactor.of(*ORACLE_CASES["real-shift-above-cut"]()).sigma == 1.0


@pytest.mark.parametrize("case", ["rotation", "circle-n24", "plus-minus-1.1",
                                  "real-shift-below-cut"])
def test_complex_or_crowded_spectra_keep_the_complex_factor(case):
    A, Q = ORACLE_CASES[case]()
    factor = SchurFactor.of(A, Q)
    assert factor.T.dtype == factor.QU.dtype == np.dtype(np.complex128)
    assert isinstance(factor.sigma, complex)
    assert factor.sigma == cayley_shift(np.diag(factor.T))


@pytest.mark.parametrize("margin", [0.5, 1e-2, 1e-6, 1e-8])
@pytest.mark.parametrize("case", ["real-shift-above-cut", "negative-n12", "seeded-n27"])
def test_real_solve_matches_complex_arithmetic(case, margin):
    # The real route is the complex one run in real arithmetic: with T, F and
    # sigma cast to complex, ztrsyl returns the same X to roundoff at every
    # margin. With the shift 1j instead both stay backward stable, but the
    # solution's relative condition number in alpha is about 1 / margin, so
    # they agree to about eps / margin, not to 1e-13, near the threshold.
    if case == "seeded-n27":
        plant = spread_plant(0, 27)
        factor = SchurFactor.of(plant.A, plant.Q)
    else:
        factor = SchurFactor.of(*ORACLE_CASES[case]())
    assert factor.T.dtype == np.dtype(np.float64)
    T, F = factor.T, factor.QU
    alpha = (1.0 - margin) / factor.rho**2
    X = prepare_stein(T, alpha, factor.sigma)(F)
    same = prepare_stein(T.astype(complex), alpha, complex(factor.sigma))(F.astype(complex))
    other = prepare_stein(T.astype(complex), alpha, 1j)(F.astype(complex))
    scale = np.max(np.abs(X))
    assert X.dtype == np.dtype(np.float64)
    assert np.max(np.abs(X - same)) <= 1e-13 * scale
    assert np.max(np.abs(X - other)) <= max(1e-13, 16.0 * np.finfo(float).eps / margin) * scale
    for Y in (X, other):
        residual = np.max(np.abs(Y - alpha * T @ Y @ T.conj().T - F)) / np.max(np.abs(Y))
        assert residual <= 1e-13, residual


def spread_plant(seed: int, n: int, unstable=np.diag([1.2, 1.1])) -> LinearSystem:
    """Single output, the 2x2 ``unstable`` block (eigenvalues 1.2 and 1.1 by
    default) and n - 2 stable eigenvalues spread over (-0.8, 0.8), in a
    basis T near the identity; C is 1 x n Gaussian. C sees every mode, but
    the Krylov matrix [C; CA; ...; CA^(n-1)] reads rank < n on most of these
    plants at n = 27 and on all at n = 30."""
    rng = np.random.default_rng(seed)
    width = 1.6 / (n - 2)
    left = -0.8 + width * np.arange(n - 2)
    stable = rng.uniform(left + 0.1 * width, left + 0.9 * width)
    T = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    A = T @ sla.block_diag(unstable, np.diag(stable)) @ np.linalg.inv(T)
    return LinearSystem(A=A, C=rng.standard_normal((1, n)), Q=np.eye(n), R=1.0, Sigma0=np.eye(n))


@pytest.mark.parametrize("n", [27, 30])
def test_seen_modes_raise_no_warning_at_scale(n):
    # the complex pair of 1.15 rot(0.7) goes through the complex PBH SVD
    pair = 1.15 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    for unstable in (np.diag([1.2, 1.1]), pair):
        for seed in range(5):
            sys = spread_plant(seed, n, unstable)
            assert sys.unseen_modes == ()
            assert validate_system(sys).warnings == [], seed


def test_seen_modes_far_apart_raise_no_warning():
    # eigenvalues 0.5 to 3 seen through C = ones: CA^19 outgrows C by 3^19
    n = 20
    sys = LinearSystem(A=np.diag(np.linspace(0.5, 3.0, n)), C=np.ones((1, n)), Q=np.eye(n),
                       R=1.0, Sigma0=np.eye(n))
    assert validate_system(sys).warnings == []


def test_unseen_mode_on_the_unit_circle_warns():
    # a mode with |lambda| = 1 that C does not see grows open loop too; a
    # stable unseen mode decays and is no concern
    C = np.array([[1.0, 0.0]])
    sys = LinearSystem(A=np.diag([1.2, 1.0]), C=C, Q=np.eye(2), R=1.0, Sigma0=np.eye(2))
    assert sys.unseen_modes == (1.0,)
    assert validate_system(sys).warnings == [
        "(A, C) not detectable: C does not see the eigenvalue(s) 1"]
    sys = LinearSystem(A=np.diag([1.2, 0.5]), C=C, Q=np.eye(2), R=1.0, Sigma0=np.eye(2))
    assert sys.unseen_modes == ()
    assert validate_system(sys).warnings == []
