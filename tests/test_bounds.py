import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import secest
import secest.cli
from secest import (
    ChannelParams,
    LinearSystem,
    NumericalError,
    ScalarSystem,
    ValidationError,
    bounds,
    critical_rates,
    p_lower,
    p_upper,
    scalar_V,
    secrecy_interval,
    solve_S,
    solve_V,
    validate_system,
)
from secest.bounds import feasibility_check
from secest.kalman import _factored_update

from helpers import circle_case, plus_minus_case

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

P_CRIT = 1.0 - 1.0 / 1.44  # 11/36 for the a=1.2 scalar plant

# p_upper reads the rank-one closed form off the Schur diagonal and
# single_output_threshold off np.linalg.eigvals; the two routes round apart
# by up to 2.8e-15.
CLOSED_FORM_TOL = 1e-14


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


# The 3x3 Jordan block at 1.1: no eigenbasis at all.
JORDAN_3 = 1.1 * np.eye(3) + np.diag([1.0, 1.0], 1)


def floor_panel(second_order_sys):
    """(name, plant, rates) for the floor and ceiling record checks. Three
    plants have a well-conditioned eigenbasis and take the modal route:
    second_order (U = I), a held-sweep-style n = 8 plant with a real factor,
    and circle-n24 with a complex one. Three lie above the modal cap and
    take the Cayley route: plus-minus (complex factor), a 2x2 triangular
    plant whose eigenvectors are 0.01 rad apart and a 3x3 Jordan block (real
    factors)."""
    held = seeded_plant(1208, 8, [1.12, 1.05, 1.02], 8)
    assert held.schur.U.dtype == np.float64 and not np.array_equal(held.schur.U, np.eye(8))
    panel = [("second_order", second_order_sys), ("held-n8", held)]
    for name, case in (("circle-n24", circle_case), ("plus-minus", plus_minus_case)):
        A, Q = case()
        n = len(A)
        sys = LinearSystem(A=A, C=np.eye(n), Q=Q, R=np.eye(n), Sigma0=Q)
        assert sys.schur.U.dtype == np.complex128
        panel.append((name, sys))
    panel += [("near-parallel", observed_plant([[1.2, 10.0], [0.0, 1.1]], [[1.0, 0.0]])),
              ("jordan-3", observed_plant(JORDAN_3, np.eye(3)))]
    assert [sys.schur.modal is None for _, sys in panel] == [False] * 3 + [True] * 3
    # from far above p_lower to within 1e-6 of it
    return [(name, sys, [p_lower(sys) + f * (1.0 - p_lower(sys))
                         for f in (1e-6, 1e-3, 0.1, 0.5, 1.0)])
            for name, sys in panel]


def schur_basis_floor(sys, rate):
    """The floor at effective rate ``rate`` in the Schur factor's basis, by
    the route solve_S takes: the entrywise division in the eigenbasis,
    carried back by Y Z Y^H, or the Cayley solve above the modal cap."""
    factor = sys.schur
    alpha = 1.0 - rate
    modal = factor.modal
    if modal is None:
        return factor.stein(alpha)(factor.QU)
    return modal.to_schur(modal.QE / modal.divisor(alpha))


class TestFloorInSchurBasis:
    """solve_S reads Tr S off its solution in the Schur or modal basis and
    forms the plant-basis matrix only when .matrix is read. Each pin runs
    on both routes: on plants with a well-conditioned eigenbasis (the modal
    route) and on plants above the cap (the Cayley route)."""

    def test_trace_and_matrix(self, second_order_sys):
        # the trace agrees with the matrix's to 1e-14 relative, and the
        # matrix is the plant-basis floor written out, bit for bit: X solves
        # the Stein equation in the factor's basis (modal: X = Y Z Y^H with
        # Z = QE / (1 - alpha d d^H)) and S = sym(Re(U X U^H))
        ch = ChannelParams(1.0, 1.0)
        for name, sys, rates in floor_panel(second_order_sys):
            factor = sys.schur
            for rate in rates:
                got = solve_S(rate, ch, sys)
                ref = float(np.trace(got.matrix))
                assert abs(got.trace - ref) <= 1e-14 * ref, (name, rate)
                X = schur_basis_floor(sys, rate)
                S = (factor.U @ X @ factor.U.conj().T).real
                assert np.array_equal(got.matrix, 0.5 * (S + S.T)), (name, rate)

    def test_floor_table_reads_the_trace_of_solve_S(self, second_order_sys):
        # the designer's table reads Tr S through the same formula, with no
        # BoundValue: bit for bit solve_S's trace on both routes, inf at
        # and below p_lower and inf where the solve refuses a rate within
        # 1e-12 of the threshold
        for name, sys, rates in floor_panel(second_order_sys):
            for ch in (ChannelParams(1.0, 1.0), ChannelParams(0.9, 0.6)):
                lo, refused = p_lower(sys) / ch.p2, (p_lower(sys) + 1e-14) / ch.p2
                probes = [r / ch.p2 for r in rates if r <= ch.p2] + [0.0, 0.5 * lo, lo, refused]
                table = secest.designer._FloorTable(sys, ch)
                for p in probes:
                    assert table.trace(p) == solve_S(p, ch, sys).trace, (name, ch, p)
                assert math.isinf(table.trace(refused)) and refused * ch.p2 > p_lower(sys)

    def test_reading_the_trace_forms_no_matrix(self, monkeypatch, second_order_sys):
        formed = []
        to_plant = secest.linmodel.SchurFactor.to_plant
        monkeypatch.setattr(secest.linmodel.SchurFactor, "to_plant",
                            lambda self, X: formed.append(1) or to_plant(self, X))
        ch = ChannelParams(1.0, 1.0)
        for _, sys, rates in floor_panel(second_order_sys):
            bounds_read = [solve_S(rate, ch, sys) for rate in rates]
            assert all(S.trace > 0.0 for S in bounds_read)
        assert formed == []
        channel = ChannelParams(0.9, 0.6)
        for sys in (second_order_sys, observed_plant(JORDAN_3, np.eye(3))):
            formed.clear()
            S = solve_S(0.8, channel, sys)
            assert S.matrix is S.matrix and len(formed) == 1
        # a sweep reads traces only, of its ceilings as of its floors
        held = seeded_plant(1208, 8, [1.12, 1.05, 1.02], 8)
        for sys in (held, observed_plant(JORDAN_3, np.eye(3))):
            tr1 = solve_S(1.0, channel, sys).trace
            formed.clear()
            secest.sweep_tradeoff(sys, channel, [2.0 * tr1, 5.0 * tr1, 50.0 * tr1])
            assert formed == []

    @pytest.mark.parametrize("config", ["scalar.json", "scalar_p1_0.9_p2_0.6.json",
                                        "second_order.json"])
    def test_shipped_config_traces_are_the_matrix_traces(self, config):
        # every shipped config has U = I and takes the modal route. The
        # trace is Re sum(Z * (Y^H Y)^T) for Z = QE / (1 - alpha d d^H), bit
        # for bit; it is the plant-basis matrix's trace exactly on the
        # scalar configs (Y = 1) and to 1e-14 relative on second_order
        cfg = secest.cli.load_config(str(CONFIGS / config))
        sys, ch = cfg.system, cfg.channel
        modal = sys.schur.modal
        assert np.array_equal(sys.schur.U, np.eye(sys.n)) and modal is not None
        for p in np.linspace(0.3, 1.0, 29):
            S = solve_S(float(p), ch, sys)
            if S.finite:
                Z = modal.QE / modal.divisor(1.0 - float(p) * ch.p2)
                assert S.trace == float((Z * modal.G).sum().real), (config, p)
                tr = float(np.trace(S.matrix))
                assert S.trace == tr if sys.n == 1 else abs(S.trace - tr) <= 1e-14 * tr, (config, p)

    def test_cayley_route_traces_are_the_matrix_traces(self):
        # above the modal cap the floor is the Cayley solve X in the Schur
        # basis, so with a real U = I, Re Tr X is exactly the trace of the
        # plant-basis matrix, as it was when the trace was read there
        for sys in (observed_plant([[1.2, 10.0], [0.0, 1.1]], [[1.0, 0.0]]),
                    observed_plant(JORDAN_3, np.eye(3))):
            assert sys.schur.modal is None and np.array_equal(sys.schur.U, np.eye(sys.n))
            for p in np.linspace(0.3, 1.0, 29):
                S = solve_S(float(p), ChannelParams(0.9, 0.6), sys)
                if S.finite:
                    assert S.trace == float(np.trace(S.matrix)), p


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

    def test_no_unstable_mode_is_feasible_at_every_rate(self):
        sys = LinearSystem(A=[[0.9, 1.0], [0.0, 0.5]], C=[[1.0, 0.0]], Q=np.eye(2), R=1.0,
                           Sigma0=np.eye(2))
        assert sys.schur.k == 0
        assert all(feasibility_check(lam, sys) for lam in (0.0, 0.3, 1.0))

    def test_within_roundoff_of_lower_is_decided_or_undecided(self, scalar_sys,
                                                               second_order_sys):
        # one ulp above p_lower the start Stein solve is beyond working
        # precision; the probe still returns a verdict, never an exception
        for sys in (scalar_sys, second_order_sys):
            assert isinstance(feasibility_check(np.nextafter(p_lower(sys), 1.0), sys), bool)


def test_full_column_rank_decides_feasibility_in_closed_form():
    # 3x3 Jordan block at 1.1 with C = I: C U_u has full column rank, so
    # h(X) = (1 - lam) T_u X T_u^H and a rate is feasible iff it exceeds
    # p_lower. The certificate loop is left to roundoff here, since its X
    # grows like margin^-3: without the closed form it reads p_lower + 1e-10
    # infeasible after its whole budget. Decided in closed form, every probe
    # is feasible, and p_upper is p_lower itself.
    sys = observed_plant(1.1 * np.eye(3) + np.diag([1.0, 1.0], 1), np.eye(3))
    lo = p_lower(sys)
    assert not feasibility_check(lo, sys)
    assert all(feasibility_check(lo + d, sys) for d in (1e-12, 1e-10, 1.58e-6, 1e-3))
    assert p_upper(sys) == lo
    assert critical_rates(sys).exact


class TestCriticalUpper:
    def test_scalar_matches_lower(self, scalar_sys):
        assert p_upper(scalar_sys) == p_lower(scalar_sys) == 0.3055555555555556

    def test_invertible_output_matches_lower(self):
        A = np.array([[1.2, 1.0], [0.0, 1.1]])
        Q = np.array([[1.0, 0.5], [0.5, 2.0]])
        sys = LinearSystem(A=A, C=np.eye(2), Q=Q, R=np.eye(2), Sigma0=Q)
        assert p_upper(sys) == p_lower(sys)

    def test_partial_observation_sits_above_lower(self, second_order_sys):
        pu = p_upper(second_order_sys)
        assert p_lower(second_order_sys) < pu < 1.0
        assert feasibility_check(pu + 1e-3, second_order_sys)

    def test_cached_per_system(self, second_order_sys):
        assert p_upper(second_order_sys) == p_upper(second_order_sys)

    def test_critical_rates_exactness_flag(self, scalar_sys, second_order_sys):
        assert critical_rates(scalar_sys).exact
        assert not critical_rates(second_order_sys).exact


def rank_two_plant() -> LinearSystem:
    return observed_plant(np.diag([2.0, 1.5, 1.2]), [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


# Plants whose C has rank one on the unstable subspace, k >= 2.
RANK_ONE_PLANTS = {
    "rot-quarter-turn": lambda: observed_plant(1.1 * rotation(math.pi / 2), [[1.0, 0.0]]),
    "rot-0.7": lambda: observed_plant(1.1 * rotation(0.7), [[1.0, 0.0]]),
    "jordan-2": lambda: observed_plant(1.1 * np.eye(2) + np.diag([1.0], 1), [[1.0, 0.0]]),
    "jordan-3": lambda: observed_plant(1.1 * np.eye(3) + np.diag([1.0, 1.0], 1),
                                       [[1.0, 0.0, 0.0]]),
    "plus-minus-1.2": lambda: observed_plant(np.diag([1.2, -1.2]), [[1.0, 1.0]]),
    "rot-plus-1.1": lambda: observed_plant(sla.block_diag(1.3 * rotation(0.7), 1.1),
                                           [[1.0, 0.0, 1.0]]),
    "two-outputs": lambda: observed_plant(np.diag([1.2, 1.1, 0.5]),
                                          [[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]]),
}


class TestCriticalRateExactness:
    """p_upper against the rank-one closed form and the closed bracket."""

    def test_second_order_matches_closed_form(self, second_order_sys):
        cf = single_output_threshold(second_order_sys.A)
        assert abs(p_upper(second_order_sys) - cf) <= CLOSED_FORM_TOL
        assert p_upper(second_order_sys) == 0.42607897153351704

    @pytest.mark.parametrize("seed, n, unstable", [
        (1, 3, (1.2, 1.1)),
        (2, 3, (1.3,)),
        (3, 4, (1.15, -1.25)),
        (4, 4, (1.1, 1.2, -1.3)),
    ])
    def test_seeded_single_output_matches_closed_form(self, seed, n, unstable):
        sys = seeded_plant(seed, n, unstable, m=1)
        cf = single_output_threshold(sys.A)
        assert abs(p_upper(sys) - cf) <= CLOSED_FORM_TOL

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
        assert abs(p_upper(sys) - cf) <= CLOSED_FORM_TOL

    @pytest.mark.parametrize("seed, n, unstable, m", [
        (5, 4, (1.2, 1.1), 2),
        (6, 5, (1.25, -1.1), 2),
        (7, 5, (1.3, 1.15, -1.05), 3),
    ])
    def test_enough_outputs_close_the_bracket(self, seed, n, unstable, m):
        # With C U_u of full column rank every rate above p_lower is feasible.
        sys = seeded_plant(seed, n, unstable, m)
        assert p_upper(sys) == p_lower(sys)

    @pytest.mark.parametrize("plant", [*RANK_ONE_PLANTS.values()] + [
        lambda args=args: seeded_plant(*args, m=1)
        for args in [(1, 3, (1.2, 1.1)), (2, 3, (1.3,)), (3, 4, (1.15, -1.25)),
                     (4, 4, (1.1, 1.2, -1.3))]
    ], ids=[*RANK_ONE_PLANTS] + [f"seeded-{seed}" for seed in range(1, 5)])
    def test_certificate_brackets_the_closed_form(self, plant):
        # The certificate reads no closed form, so it checks both: false just
        # below the threshold, true just above, on rank-one plants with
        # complex, defective and equal-modulus modes and with two outputs.
        sys = plant()
        cf = single_output_threshold(sys.A)
        assert np.linalg.matrix_rank(sys.C @ sys.schur.U[:, :sys.schur.k]) == 1
        assert not feasibility_check(cf - 1e-6, sys)
        assert feasibility_check(cf + 1e-6, sys)

    @pytest.mark.parametrize("plant", [
        lambda: observed_plant(np.array([[1.2]]), [[1.0]]),
        lambda: observed_plant(1.1 * rotation(0.7), np.eye(2)),
        lambda: seeded_plant(9, 2, (1.2, 1.1), 2),
        lambda: seeded_plant(1208, 8, (1.12, 1.05, 1.02), 8),
        lambda: seeded_plant(8, 20, (1.12, 1.05), 20),
    ], ids=["scalar-1.2", "rot-0.7-identity-C", "invertible-C-2", "invertible-C-8",
            "invertible-C-20"])
    def test_certificate_brackets_the_full_rank_closed_form(self, plant):
        # r = k: p_upper is p_lower, and the certificate agrees on either
        # side of it, at margins the loop decides on its own as well
        sys = plant()
        k = sys.schur.k
        assert np.linalg.matrix_rank(sys.C @ sys.schur.U[:, :k]) == k
        lo = p_lower(sys)
        assert p_upper(sys) == lo
        for d in (1e-6, 1e-3):
            assert feasibility_check(lo + d, sys)
            assert not feasibility_check(lo - d, sys)

    def test_closed_forms_make_no_probe(self, monkeypatch, scalar_sys, second_order_sys):
        calls, witnessed = [], witness_spy(monkeypatch)
        check = bounds.feasibility_check
        monkeypatch.setattr(bounds, "feasibility_check",
                            lambda lam, sys: calls.append(lam) or check(lam, sys))
        full_rank = [scalar_sys, seeded_plant(5, 4, (1.2, 1.1), 2),
                     observed_plant(1.1 * np.eye(3) + np.diag([1.0, 1.0], 1), np.eye(3))]
        rank_one = [second_order_sys] + [make() for make in RANK_ONE_PLANTS.values()]
        for sys in full_rank + rank_one:
            p_upper(sys)
        assert calls == [] and witnessed == []
        # 1 < r < k: the one case left to the bisection, whose probes the
        # loop decides here without the witness
        p_upper(rank_two_plant())
        assert len(calls) > 0 and witnessed == []

    def test_intermediate_rank_bisects(self, channel_96):
        # diag(2, 1.5, 1.2) seen through rank(C U_u) = 2 of k = 3 has no
        # closed form here: bisected to 2^-20 above p_lower = 0.75, so the
        # bracket is open and the secrecy interval conservative
        sys = rank_two_plant()
        assert p_upper(sys) == 0.7500009536743164
        assert not critical_rates(sys).exact
        iv = secrecy_interval(sys, channel_96)
        assert iv.conservative and not iv.empty
        assert iv.lower_exclusive == p_upper(sys) / 0.9

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
            # a verdict at every rate, read off the detectability test
            assert not any(feasibility_check(rate, sys) for rate in self.RATES), seed
            with pytest.raises(NumericalError, match="not detectable"):
                p_upper(sys)

    def test_unseen_mode_on_the_unit_circle_is_unbounded(self):
        sys = observed_plant(np.diag([1.2, 1.0]), [[1.0, 0.0]])
        assert not feasibility_check(1.0, sys)
        with pytest.raises(NumericalError, match=r"eigenvalue\(s\) 1$"):
            p_upper(sys)
        stable_unseen = observed_plant(np.diag([1.2, 0.5]), [[1.0, 0.0]])
        assert p_upper(stable_unseen) == p_lower(stable_unseen)


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
    assert p_lower(sys) - 1e-12 <= cf
    assert abs(p_upper(sys) - cf) <= CLOSED_FORM_TOL


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

    def test_reaches_the_exact_threshold(self):
        # p_upper is p_lower itself here, so a rate 3e-7 above it has a
        # finite ceiling; a bisected p_upper sat above such rates
        s = ScalarSystem(1.2, 1.0, 1.0, 1.0)
        sys = s.to_linear()
        rate = p_lower(sys) + 3e-7
        V = solve_V(rate, ChannelParams(1.0, 1.0), sys)
        assert V.finite
        assert V.trace == pytest.approx(scalar_V(rate, s), rel=1e-6)
        # two decoupled scalar plants seen through an invertible C, on a
        # complex Schur factor
        a, b = ScalarSystem(1.2, 1.0, 1.0, 1.0), ScalarSystem(-1.1, 2.0, 0.5, 0.3)
        sys = LinearSystem(A=np.diag([a.a, b.a]), C=np.diag([a.c, b.c]), Q=np.diag([a.q, b.q]),
                           R=np.diag([a.r, b.r]), Sigma0=np.eye(2))
        assert np.iscomplexobj(sys.schur.T)
        V = solve_V(rate, ChannelParams(1.0, 1.0), sys)
        assert V.finite
        assert V.trace == pytest.approx(scalar_V(rate, a) + scalar_V(rate, b), rel=1e-6)

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
    # The Stein solve depends on alpha = 1 - rate alone: one prepare step
    # per solve_V call, whatever its step count (tens to thousands here).
    # Above the modal cap that is the Cayley factor (prepare_stein); on a
    # well-conditioned eigenbasis it is the divisor 1 - alpha d d^H, and no
    # Cayley factor is formed.
    calls, divisors = [], []
    prepare = secest.linmodel.prepare_stein
    monkeypatch.setattr(secest.linmodel, "prepare_stein",
                        lambda T, alpha, sigma: calls.append(alpha) or prepare(T, alpha, sigma))
    divisor = secest.linmodel._ModalFactor.divisor
    monkeypatch.setattr(secest.linmodel._ModalFactor, "divisor",
                        lambda self, alpha: divisors.append(alpha) or divisor(self, alpha))
    A, Q = plus_minus_case()
    cayley = (observed_plant([[1.2, 10.0], [0.0, 1.1]], [[1.0, 0.0]]),
              LinearSystem(A=A, C=np.eye(6), Q=Q, R=np.eye(6), Sigma0=Q))
    modal = (second_order_sys, seeded_plant(8, 20, (1.12, 1.05), m=20))
    for sys in cayley + modal:
        rate = min(p_upper(sys) + rate_offset, 1.0)
        calls.clear()
        divisors.clear()
        assert solve_V(rate, ChannelParams(1.0, 1.0), sys).finite
        if sys.schur.modal is None:
            assert sys in cayley and calls == [1.0 - rate] and divisors == []
        else:
            assert sys in modal and calls == [] and divisors == [1.0 - rate]


def test_modal_steps_take_a_hermitian_part_only_in_complex_arithmetic(monkeypatch,
                                                                       second_order_sys):
    """On the real modal route F = QE / (1 - alpha d d^H) is symmetrized
    once per call and the start once per plant (in its ceiling frame); the
    update, Gram or information form, forms G^T G by syrk and F + L * W_f
    keeps the symmetry entrywise, so every iterate is exactly symmetric and
    no step takes a Hermitian part. On a complex factor every step still
    does. second_order (one output) and the n = 27 plant (cond_2(C) 396,
    past the cut-over) take the Gram form; the n = 8 plant (cond_2(C) 70)
    and the two complex plants take the information form, the update with
    no output matrix."""
    iterates, parts = [], []
    update, sym = bounds._factored_update, bounds._sym

    def spy(X, C, R):
        iterates.append(("gram" if C is not None else "information", X))
        return update(X, C, R)

    monkeypatch.setattr(bounds, "_factored_update", spy)
    monkeypatch.setattr(bounds, "_sym", lambda X: parts.append(X) or sym(X))
    real = [second_order_sys] + [seeded_plant(2700 + n, n, [1.12, 1.05, 1.02], n)
                                 for n in (8, 27)]
    forms = ["gram", "information", "gram", "information", "information"]
    for sys, form in zip(real + [rotation_output_plant(), circle_output_plant()], forms):
        assert sys.schur.modal is not None
        iterates.clear()
        parts.clear()
        V = solve_V(min(p_upper(sys) + 0.05, 1.0), ChannelParams(1.0, 1.0), sys)
        assert V.finite and V.steps == len(iterates) > 1
        assert {used for used, _ in iterates} == {form}
        if sys in real:
            assert all(np.array_equal(W, W.T) for _, W in iterates)
            assert len(parts) == 1
        else:
            assert np.iscomplexobj(sys.schur.T) and len(parts) == 1 + V.steps


@pytest.mark.parametrize("n", [8, 13, 27])
def test_invertible_output_ceiling_at_full_reception_is_the_dare(monkeypatch, n):
    # both routes, each with both measurement updates: the Cayley route
    # runs once the modal cap is set below the plants' condition, the
    # information form once its cut-over is lifted (C at n = 27 has
    # cond_2(C) 396, past it) and the Gram form once the cut-over is 0
    for modal, information in ((True, True), (False, True), (True, False), (False, False)):
        monkeypatch.setattr(secest.linmodel, "_MODAL_MAX_COND", 50.0 if modal else 0.0)
        monkeypatch.setattr(secest.linmodel, "_INFO_MAX_COND", math.inf if information else 0.0)
        sys = seeded_plant(2700 + n, n, [1.12, 1.05, 1.02], n)
        V = solve_V(1.0, ChannelParams(1.0, 1.0), sys)
        assert (sys.schur.modal is not None) == modal
        assert (sys._ceiling_frame.Rt is not None) == information
        X = sla.solve_discrete_are(sys.A.T, sys.C.T, sys.Q, sys.R)
        assert np.abs(V.matrix - X).max() <= 1e-11 * np.abs(X).max()


def test_ceiling_checks_its_fixed_point_once(monkeypatch, second_order_sys):
    # the steps run in Cayley coordinates; riccati_map, the definition of
    # the ceiling, is applied at its rate once per firing of the stop rule,
    # for the residual. These plants converge without oscillating, so the
    # first firing stops them: one call
    rates = []
    ricc = bounds.riccati_map
    monkeypatch.setattr(bounds, "riccati_map",
                        lambda X, coeffs, lam: rates.append(lam) or ricc(X, coeffs, lam))
    for sys in (second_order_sys, seeded_plant(8, 20, (1.12, 1.05), m=20)):
        rate = min(p_upper(sys) + 0.05, 1.0)
        rates.clear()
        V = solve_V(rate, ChannelParams(1.0, 1.0), sys)
        assert V.finite and V.steps > 1
        assert rates == [rate]


def test_modal_route_choice():
    """The modal factor exists where T's eigenbasis is well conditioned and
    is formed on the first floor or ceiling, not with the Schur factor.
    held-sweep-style plants (invertible C, n = 8 to 27) and scalars take
    it; detectable 2x2 and 3x3 Jordan plants, whose computed eigenvectors
    are nearly parallel, and a strongly non-normal n = 10 plant fall back to
    the Cayley route."""
    cap = secest.linmodel._MODAL_MAX_COND
    for n in (8, 13, 18, 23, 27):
        sys = seeded_plant(2700 + n, n, [1.12, 1.05, 1.02], n)
        assert validate_system(sys).ok and p_upper(sys) == p_lower(sys)
        assert "modal" not in vars(sys.schur)
        assert solve_S(0.9, ChannelParams(0.9, 0.6), sys).finite
        modal = vars(sys.schur)["modal"]
        assert modal.Y.dtype == np.float64 and np.linalg.cond(modal.Y) <= cap
    modal = ScalarSystem(1.2, 1.0, 1.0, 1.0).to_linear().schur.modal
    assert modal.Y.tolist() == [[1.0]] and modal.Yinv.tolist() == [[1.0]]
    rng = np.random.default_rng(19)
    for n in (2, 3):
        S = rng.standard_normal((n, n))
        Si = np.linalg.inv(S)
        J = 1.1 * np.eye(n) + np.diag(np.ones(n - 1), 1)
        sys = observed_plant(S @ J @ Si, np.eye(n)[:1] @ Si)
        assert sys.unseen_modes == () and sys.schur.modal is None, n
    # upper triangular, eigenvalues spread over [-1.15, 1.2], Gaussian
    # off-diagonal entries scaled by 20
    A = np.diag(np.linspace(-1.15, 1.2, 10)) + 20.0 * np.triu(rng.standard_normal((10, 10)), 1)
    assert observed_plant(A, np.eye(10)).schur.modal is None


def conditioned_output_plant(seed: int, n: int, cond: float) -> LinearSystem:
    """seeded_plant's A with Q = R = Sigma0 = I and a square
    C = P diag(s) W^T of 2-norm condition ``cond``: P and W random
    orthogonal, s geometric from 1 down to 1 / cond."""
    rng = np.random.default_rng(seed)
    P, W = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    C = P @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ W.T
    return observed_plant(seeded_plant(seed, n, [1.12, 1.05, 1.02], n).A, C)


def test_information_form_route_choice(second_order_sys):
    """The ceiling's measurement update takes the information form when
    m >= n >= 2 and the whitened output matrix R^-1/2 C has full column
    rank with cond_2 <= 100 (linmodel._INFO_MAX_COND): on square and tall
    C, on real and complex factors, on the modal and the Cayley route. Its
    output noise Rt is (C_s^H R^-1 C_s)^-1 for the frame's output matrix
    C_s, and from the frame's start its update agrees with the Gram form.
    One output, one state, a rank-deficient C and a C past the cut-over
    keep the Gram form. The frame is formed on the first ceiling."""
    A, Q = plus_minus_case()
    s = np.geomspace(1.0, 1e-3, 4)
    information = [
        seeded_plant(2708, 8, [1.12, 1.05, 1.02], 8),  # cond_2(C) 70
        seeded_plant(5, 6, [1.1, 1.05], 9),
        rotation_output_plant(),
        circle_output_plant(),
        LinearSystem(A=A, C=np.eye(6), Q=Q, R=np.eye(6), Sigma0=Q),
        observed_plant(JORDAN_3, np.eye(3)),
        conditioned_output_plant(1, 8, 100.0),
        # cond_2(C) = 1e3, but R^-1/2 C = I
        LinearSystem(A=seeded_plant(4, 4, [1.1], 4).A, C=np.diag(s), Q=np.eye(4),
                     R=np.diag(s * s), Sigma0=np.eye(4)),
    ]
    gram = [
        second_order_sys,
        ScalarSystem(1.2, 1.0, 1.0, 1.0).to_linear(),
        LinearSystem(A=1.2, C=[[1.0], [2.0]], Q=1.0, R=np.eye(2), Sigma0=1.0),
        observed_plant(np.diag([1.2, 1.1, 0.5]), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                   [1.0, 1.0, 0.0]]),
        conditioned_output_plant(1, 8, 1e3),
    ]
    assert [sys.schur.modal is None for sys in information[2:6]] == [False, False, True, True]
    assert np.iscomplexobj(information[2].schur.T) and np.iscomplexobj(information[4].schur.T)
    for sys in information + gram:
        assert "_ceiling_frame" not in vars(sys)
        assert solve_V(1.0, ChannelParams(1.0, 1.0), sys).finite
        frame = vars(sys)["_ceiling_frame"]
        assert (frame.Rt is not None) == (sys in information)
        if frame.Rt is not None:
            Cs, R = frame.C, sys.R
            ref = np.linalg.inv(Cs.conj().T @ np.linalg.solve(R, Cs))
            assert np.abs(frame.Rt - ref).max() <= 1e-12 * np.abs(ref).max()
            Xf = _factored_update(frame.start, None, frame.Rt)
            ref = _factored_update(frame.start, Cs, R)
            assert np.abs(Xf - ref).max() <= 1e-13 * np.abs(ref).max()
    # an R that is not positive definite is left to the Gram form, which
    # refuses its first innovation covariance
    sys = LinearSystem(A=np.diag([1.2, 0.5]), C=np.eye(2), Q=np.eye(2), R=-np.eye(2),
                       Sigma0=np.eye(2))
    assert sys._ceiling_frame.Rt is None
    with pytest.raises(NumericalError, match="innovation covariance"):
        solve_V(1.0, ChannelParams(1.0, 1.0), sys)


@pytest.mark.parametrize("cond", [1e4, 1e6, 1e8])
def test_ill_conditioned_output_keeps_the_gram_form(monkeypatch, cond):
    """Past the cut-over the information form's output noise
    (C^H R^-1 C)^-1 spans cond_2(C)^2, and the roundoff of X + Rt spoils
    the update: forced onto these plants it takes 907 steps to a residual
    of 8.1e-13 at cond_2(C) = 1e4, and runs out of budget at 1e6 and 1e8.
    The Gram form, which they keep, reads residuals below 1e-13 (4.3e-14
    in 149 steps at 1e4). That fixes the cut-over below 1e4; it sits at
    100, where the information form's residuals stay within 1.2x of the
    Gram form's (see linmodel._INFO_MAX_COND)."""
    sys = conditioned_output_plant(1, 8, cond)
    rate = p_upper(sys) + 0.5
    V = solve_V(rate, ChannelParams(1.0, 1.0), sys)
    assert sys._ceiling_frame.Rt is None
    assert V.residual <= 1e-13 and rel_residual(V.matrix, sys, rate) <= 1e-12
    monkeypatch.setattr(secest.linmodel, "_INFO_MAX_COND", math.inf)
    forced = conditioned_output_plant(1, 8, cond)
    assert forced._ceiling_frame.Rt is not None
    try:
        assert solve_V(rate, ChannelParams(1.0, 1.0), forced).residual > 1e-13
    except NumericalError as exc:
        assert cond > 1e4 and "did not converge" in str(exc)


@pytest.mark.parametrize("dtype", [float, complex])
def test_step_size_has_the_bits_of_the_numpy_reductions(dtype):
    # idamax returns an entry of largest modulus, so the step is the numpy
    # expression's, bit for bit, also where a negative entry is largest
    rng = np.random.default_rng(29)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if dtype is complex else z

    for n in (1, 2, 8, 27):
        for _ in range(20):
            B, E = draw(n, n), draw(n, n)
            W = B @ B.conj().T
            Wn = W + 10.0 ** rng.uniform(-15.0, 1.0) * (E + E.conj().T)
            ref = float(np.abs(Wn - W).max() / np.abs(Wn.diagonal()).max())
            assert bounds._step_size(Wn, W) == ref


@pytest.mark.parametrize("plant", ["second_order", "held-n8"])
def test_a_non_finite_iterate_never_meets_the_stop_rule(monkeypatch, second_order_sys, plant):
    """BLAS idamax need not see a NaN, so the step size can be finite on an
    iterate that is not. Here the third update overflows, and the step
    size reads 0 on every non-finite iterate, as an idamax that skipped
    every NaN could: the rule must take none of them, nor check one by
    riccati_map, and a later update refuses them. second_order steps the
    Gram form, held-n8 the information form, the update with no output
    matrix."""
    sys = {"second_order": second_order_sys,
           "held-n8": seeded_plant(1208, 8, [1.12, 1.05, 1.02], 8)}[plant]
    form = "gram" if sys.m == 1 else "information"
    update, step, ricc = bounds._factored_update, bounds._step_size, bounds.riccati_map
    calls, checked = [], []

    def overflowing(X, C, R):
        calls.append("gram" if C is not None else "information")
        Xf = update(X, C, R)
        if len(calls) == 3:
            with np.errstate(over="ignore"):
                Xf = Xf * 1e308
        return Xf

    monkeypatch.setattr(bounds, "_factored_update", overflowing)
    monkeypatch.setattr(bounds, "_step_size",
                        lambda Wn, W: step(Wn, W) if np.isfinite(Wn).all() else 0.0)
    monkeypatch.setattr(bounds, "riccati_map",
                        lambda X, coeffs, lam: checked.append(X) or ricc(X, coeffs, lam))
    refused = "innovation (co)?variance is not finite"
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=refused):
        solve_V(min(p_upper(sys) + 0.05, 1.0), ChannelParams(1.0, 1.0), sys)
    assert len(calls) > 3 and set(calls) == {form} and checked == []
    # The update itself, in both forms: a non-finite iterate raises or
    # comes back non-finite, never as a finite wrong iterate. potrf takes
    # an infinite pivot and zeroes the multipliers below it, so an infinite
    # entry can pass the check once; X - G^H G keeps it.
    frame = sys._ceiling_frame
    helpers = [lambda X: _factored_update(X, frame.C, sys.R)]
    if frame.Rt is not None:
        helpers.append(lambda X: _factored_update(X, None, frame.Rt))
    assert len(helpers) == (1 if sys.m == 1 else 2)
    bad = []
    for j in range(sys.n):
        for value in (math.inf, math.nan):
            X = frame.start.copy()
            X[j, j] = value
            bad.append(X)
    with np.errstate(over="ignore"):
        bad.append(frame.start * 1e308 * 1e308)
    assert not any(np.isfinite(X).all() for X in bad)
    for update in helpers:
        for X in bad:
            try:
                with np.errstate(invalid="ignore", over="ignore"):
                    Xf = update(X)
            except NumericalError:
                continue
            assert not np.isfinite(Xf).all()


def random_panel_plant(seed: int) -> LinearSystem:
    """n in 1..6 and m in 1..n, Gaussian A and C, Q = G G' + 0.5 I,
    R = H H' + 0.5 I and Sigma0 = Q, all from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, n + 1))
    A, C = rng.standard_normal((n, n)), rng.standard_normal((m, n))
    G, H = rng.standard_normal((n, n)), rng.standard_normal((m, m))
    Q = G @ G.T + 0.5 * np.eye(n)
    return LinearSystem(A=A, C=C, Q=Q, R=H @ H.T + 0.5 * np.eye(m), Sigma0=Q)


@pytest.mark.parametrize("seed", [65, 162, 168, 171, 253])
def test_ceiling_steps_on_through_an_oscillation(monkeypatch, seed):
    """At full reception these plants' Cayley split steps stop shrinking
    below 1e-9 while the iterate is still 4e-11 to 3e-10 from the fixed
    point: the convergence oscillates. The ceiling reads the residual there
    and steps on, one riccati_map call per such step, until the residual is
    at most 1e-12; it then matches scipy's DARE solution within 1e-11.
    Their eigenbases are well conditioned (cond_2(Y) 1.4 to 7.6), so they
    take the modal route, which must reach the same; the Cayley route runs
    on them once the modal cap is set below their condition. No panel plant
    above the cap oscillates this way."""
    rates = []
    ricc = bounds.riccati_map
    monkeypatch.setattr(bounds, "riccati_map",
                        lambda X, coeffs, lam: rates.append(lam) or ricc(X, coeffs, lam))
    for modal in (True, False):
        if not modal:
            monkeypatch.setattr(secest.linmodel, "_MODAL_MAX_COND", 0.0)
        sys = random_panel_plant(seed)
        p_upper(sys)
        assert (sys.schur.modal is not None) == modal
        rates.clear()
        V = solve_V(1.0, ChannelParams(1.0, 1.0), sys)
        assert V.residual <= 1e-12 and rel_residual(V.matrix, sys, 1.0) <= 1e-12
        assert set(rates) == {1.0} and (modal or len(rates) > 1)
        X = sla.solve_discrete_are(sys.A.T, sys.C.T, sys.Q, sys.R)
        assert np.abs(V.matrix - X).max() <= 1e-11 * np.abs(X).max()


@pytest.mark.parametrize("seed, offset", [(8, 1e-3), (20, 1e-3), (26, 1e-3), (63, 1e-3),
                                          (236, 1e-2)])
def test_ceiling_is_taken_only_at_its_residual_bound(monkeypatch, seed, offset):
    """Near the threshold the split contracts slowly, so residual checks a
    few steps apart improve by less than 10 % while the iterate is still
    off: a rule that took such a stall read residuals of 1.5e-12 to 1.1e-11
    here on the modal route, and left the two routes' traces up to 8.1e-9
    apart (seed 63). Stepping on to a residual of at most 1e-12 takes at
    most 10 % more steps, and brings the routes within 1.6e-10."""
    traces = []
    for modal in (True, False):
        if not modal:
            monkeypatch.setattr(secest.linmodel, "_MODAL_MAX_COND", 0.0)
        sys = random_panel_plant(seed)
        V = solve_V(p_upper(sys) + offset, ChannelParams(1.0, 1.0), sys)
        assert (sys.schur.modal is not None) == modal
        assert V.residual <= 1e-12, (modal, V.residual)
        traces.append(V.trace)
    assert abs(traces[0] - traces[1]) <= 1e-9 * max(traces)


class TestCeilingRecord:
    """A finite ceiling reports its fixed-point residual and step count;
    floors and infinite bounds report neither."""

    def test_floors_and_infinite_bounds_have_no_record(self, second_order_sys):
        ch = ChannelParams(0.9, 0.6)
        bounds_read = [solve_S(0.8, ch, second_order_sys), solve_S(0.1, ch, second_order_sys),
                       solve_V(0.1, ch, second_order_sys)]
        assert [b.finite for b in bounds_read] == [True, False, False]
        for b in bounds_read:
            assert b.residual is None and b.steps is None

    def test_residual_on_the_floor_panel(self, second_order_sys):
        # the floor panel's rates, those at or below p_upper moved to
        # p_upper + 0.01; the residual is riccati_map's, in Schur
        # coordinates, and agrees with the explicit-inverse residual in the
        # plant's basis to within 10x wherever either clears roundoff
        ch = ChannelParams(1.0, 1.0)
        for name, sys, rates in floor_panel(second_order_sys):
            pu = p_upper(sys)
            for rate in sorted({r if r > pu else pu + 0.01 for r in rates}):
                V = solve_V(rate, ch, sys)
                assert V.finite and V.steps >= 1, (name, rate)
                assert V.residual <= 1e-12, (name, rate, V.residual)
                ref = rel_residual(V.matrix, sys, rate)
                assert V.residual <= 10.0 * max(ref, 1e-15), (name, rate, V.residual, ref)
                assert ref <= 10.0 * max(V.residual, 1e-15), (name, rate, V.residual, ref)


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


def witness_spy(monkeypatch) -> list:
    """Record each call of the gain witness as (T_u, W, X, lam, verdict)."""
    calls, witness = [], bounds._gain_contracts

    def spy(Tu, W, X, lam):
        verdict = witness(Tu, W, X, lam)
        calls.append((Tu, W, X, lam, verdict))
        return verdict

    monkeypatch.setattr(bounds, "_gain_contracts", spy)
    return calls


class TestGainWitness:
    """Where the certificate loop stops without a verdict, a probe is
    feasible exactly when the gain of one of its kept iterates contracts
    the error's second moment, checked by a Lyapunov witness."""

    def test_singular_iterates_are_certified_by_their_gains(self, monkeypatch):
        # Panel seed 170 (n = 5, m = 4, k = 5, r = 4): most probes break off
        # when the iterate turns singular on W's range. Counted infeasible,
        # they would put p_upper at 0.88955, 0.03 above the threshold.
        calls = witness_spy(monkeypatch)
        sys = random_panel_plant(170)
        assert (sys.schur.k, len(bounds._seen_basis(sys))) == (5, 4)
        assert 0.0 < p_upper(sys) - p_lower(sys) <= 1e-6
        accepted = [call for call in calls if call[-1]]
        assert accepted
        for Tu, W, X, lam, _ in accepted:
            # The gain as the witness forms it: near the threshold W X W^H is
            # nearly singular, and another evaluation order gives another
            # gain (here up to 1e-2 apart, entrywise). Its operator on the
            # k^2 entries is checked by eigenvalues, not by a witness.
            F = Tu - Tu @ X @ W.conj().T @ np.linalg.solve(W @ X @ W.conj().T, W)
            L = (1.0 - lam) * np.kron(Tu, Tu.conj()) + lam * np.kron(F, F.conj())
            assert np.abs(np.linalg.eigvals(L)).max() < 1.0

    def test_ceiling_is_finite_where_the_witness_certifies(self):
        sys = random_panel_plant(170)
        V = solve_V(0.8605, ChannelParams(1.0, 1.0), sys)
        assert V.finite and V.residual <= 1e-12

    # p_upper on panel plants whose probes the loop decides, bit for bit
    @pytest.mark.parametrize("seed, pinned", [
        (0, 0.6701608516458436),
        (2, 0.9517650341669873),
        (7, 0.7300704078911604),
        (22, 0.86806652875756),
        (39, 0.777449886033083),
        (89, 0.8169120883368174),
        (209, 0.9096708858737323),
        (243, 0.8825924228374378),
    ])
    def test_loop_verdicts_need_no_witness(self, monkeypatch, seed, pinned):
        calls = witness_spy(monkeypatch)
        sys = random_panel_plant(seed)
        assert 1 < len(bounds._seen_basis(sys)) < sys.schur.k
        assert p_upper(sys) == pinned
        assert calls == []


class TestSecrecyInterval:
    def test_scalar_exact_interval(self, scalar_sys, channel_96):
        iv = secrecy_interval(scalar_sys, channel_96)
        assert not iv.empty and not iv.conservative
        assert iv.lower_exclusive == pytest.approx(P_CRIT / 0.9, abs=1e-9)
        assert iv.upper_inclusive == pytest.approx(P_CRIT / 0.6, abs=1e-9)
        assert iv.user_nominal_bounded

    @pytest.mark.parametrize("plant", ["scalar", "invertible-C"])
    @pytest.mark.parametrize("p1, p2", [(0.9, 0.6), (0.7, 0.7)])
    def test_exact_interval_bits(self, scalar_sys, plant, p1, p2):
        # a closed bracket has p_upper == p_lower == p_c, so the one formula
        # (p_upper/p1, min(p_lower/p2, 1)] is (p_c/p1, min(p_c/p2, 1)], bit
        # for bit; on the scalar plant p_c = 1 - 1/1.2^2
        sys = {"scalar": scalar_sys,
               "invertible-C": seeded_plant(2708, 8, [1.12, 1.05, 1.02], 8)}[plant]
        pc = p_lower(sys)
        assert p_upper(sys) == pc
        iv = secrecy_interval(sys, ChannelParams(p1, p2))
        assert (iv.lower_exclusive, iv.upper_inclusive) == (pc / p1, min(pc / p2, 1.0))
        assert iv.empty == (p1 == p2) and not iv.conservative and iv.user_nominal_bounded
        if plant == "scalar":
            pinned = {(0.9, 0.6): (0.3395061728395062, 0.5092592592592593),
                      (0.7, 0.7): (0.43650793650793657, 0.43650793650793657)}
            assert (iv.lower_exclusive, iv.upper_inclusive) == pinned[p1, p2]

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
