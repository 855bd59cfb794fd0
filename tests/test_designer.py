import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import secest.cli
import secest.designer
from secest import (
    ChannelParams,
    LinearSystem,
    NumericalError,
    ValidationError,
    design_p_star,
    scalar_critical,
    solve_S,
    solve_V,
    sweep_tradeoff,
)
from secest.scalar import ScalarSystem

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def plain_bisection(sys, ch, M, epsilon):
    """The reference design: the same dyadic bisection with one floor solve
    per probe. Returns (p_star, trS_at_p_star, trV_at_p_star, iterations)."""
    iterations = 0
    trS = solve_S(1.0, ch, sys).trace
    if trS >= M:
        p_star = 1.0
    else:
        lo, hi, trS = 0.0, 1.0, math.inf
        while hi - lo >= epsilon:
            mid = 0.5 * (lo + hi)
            iterations += 1
            tr = solve_S(mid, ch, sys).trace
            if tr < M:
                hi = mid
            else:
                lo, trS = mid, tr
        p_star = lo
    return p_star, trS, solve_V(p_star, ch, sys).trace, iterations


def assert_matches_plain_bisection(sys, ch, M, epsilon=1e-6):
    res = design_p_star(sys, ch, M, epsilon)
    got = (res.p_star, res.trS_at_p_star, res.trV_at_p_star, res.iterations)
    assert got == plain_bisection(sys, ch, M, epsilon)
    return res


def invertible_output_plant(seed: int, n: int) -> LinearSystem:
    """A = V diag(eig) V^-1 with unstable eigenvalues 1.12 and 1.05 and the
    rest in (-0.8, 0.8); square invertible C, so p_upper = p_lower."""
    rng = np.random.default_rng(seed)
    eig = np.concatenate([[1.12, 1.05], rng.uniform(-0.8, 0.8, n - 2)])
    V = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
    A = V @ np.diag(eig) @ np.linalg.inv(V)
    C = np.eye(n) + 0.2 * rng.standard_normal((n, n)) / math.sqrt(n)
    return LinearSystem(A=A, C=C, Q=np.eye(n), R=np.eye(n), Sigma0=np.eye(n))


@st.composite
def small_plants(draw):
    """n <= 4 plants with rho(A) in [1.02, 1.6], a positive definite Q and a
    well-conditioned square C."""
    n = draw(st.integers(1, 4))
    A = draw(arrays(float, (n, n), elements=st.floats(-2.0, 2.0)))
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    if rho < 0.1:
        A, rho = A + np.eye(n), np.max(np.abs(np.linalg.eigvals(A + np.eye(n))))
    A = A * draw(st.floats(1.02, 1.6)) / rho
    B = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    Q = B @ B.T + 0.1 * np.eye(n)
    C = np.eye(n) + draw(arrays(float, (n, n), elements=st.floats(-0.2, 0.2)))
    return LinearSystem(A=A, C=C, Q=Q, R=np.eye(n), Sigma0=Q)


class TestDesign:
    def test_pinned_scalar_design(self, scalar_sys, channel_97):
        res = design_p_star(scalar_sys, channel_97, M=10.0, epsilon=1e-9)
        assert res.p_star == pytest.approx(0.5357142857142857, abs=1e-6)
        assert res.trS_at_p_star == pytest.approx(10.0, abs=1e-6)
        assert res.trV_at_p_star == pytest.approx(6.288302270030945, abs=1e-6)
        assert not res.trV_infinite

    def test_design_is_feasible_end(self, scalar_sys, channel_97):
        # returned p must itself satisfy the target, not just be near it
        res = design_p_star(scalar_sys, channel_97, M=10.0)
        assert solve_S(res.p_star, channel_97, scalar_sys).trace >= 10.0

    @pytest.mark.parametrize("config", ["scalar.json", "scalar_p1_0.9_p2_0.6.json"])
    def test_p_star_is_feasible_in_exact_arithmetic(self, config):
        # the floor q / (1 - alpha a^2) at the returned p*, in rational
        # arithmetic on the stored a and q and the alpha = 1 - p* p2 the
        # solver forms: a floor solve that rounds up across M on a dyadic
        # probe would return an infeasible p*. On scalar_p1_0.9_p2_0.6 the
        # probe 0.625 has the exact floor 9.999999999999993 < M = 10.
        cfg = secest.cli.load_config(str(CONFIGS / config))
        sys, ch = cfg.system, cfg.channel
        res = design_p_star(sys, ch, cfg.M, cfg.epsilon)
        a, q, alpha = Fraction(sys.A.item()), Fraction(sys.Q.item()), Fraction(1.0 - res.p_star * ch.p2)
        assert q / (1 - alpha * a * a) >= Fraction(cfg.M), (config, res.p_star)

    def test_easy_target_short_circuits(self, scalar_sys, channel_97):
        res = design_p_star(scalar_sys, channel_97, M=0.5)
        assert res.p_star == 1.0
        assert res.iterations == 0

    def test_hard_target_approaches_interval_edge(self, scalar_sys, channel_97):
        res = design_p_star(scalar_sys, channel_97, M=1e9)
        s = ScalarSystem(1.2, 1.0, 1.0, 1.0)
        assert abs(res.p_star - scalar_critical(s) / 0.7) < 1e-3

    def test_iteration_budget(self, scalar_sys, channel_97):
        res = design_p_star(scalar_sys, channel_97, M=10.0, epsilon=1e-6)
        assert 0 < res.iterations <= 21

    def test_second_order_short_circuit(self, second_order_sys, channel_96):
        # nominal floor trace already above the target
        res = design_p_star(second_order_sys, channel_96, M=10.0)
        assert res.p_star == 1.0
        assert res.trS_at_p_star == pytest.approx(20.470310, abs=1e-4)

    def test_validation(self, scalar_sys, channel_97):
        with pytest.raises(ValidationError):
            design_p_star(scalar_sys, channel_97, M=0.0)
        with pytest.raises(ValidationError):
            design_p_star(scalar_sys, channel_97, M=10.0, epsilon=0.0)
        with pytest.raises(ValidationError):
            design_p_star(scalar_sys, channel_97, M=10.0, epsilon=1.0)

    def test_secrecy_can_cost_receiver_boundedness(self, scalar_sys):
        # weak user link: meeting the target drags the user below transition
        res = design_p_star(scalar_sys, ChannelParams(0.5, 0.7), M=10.0)
        assert res.trV_infinite
        assert res.trV_at_p_star == math.inf
        assert res.p_star == pytest.approx(0.5357142857142857, abs=1e-5)

    def test_carries_interval_and_rates(self, scalar_sys, channel_96):
        res = design_p_star(scalar_sys, channel_96, M=10.0)
        assert res.rates.exact
        assert res.interval.upper_inclusive == pytest.approx(
            scalar_critical(ScalarSystem(1.2, 1, 1, 1)) / 0.6, abs=1e-9)


class TestSweep:
    def test_grid_validation(self, scalar_sys, channel_97):
        with pytest.raises(ValidationError):
            sweep_tradeoff(scalar_sys, channel_97, [])
        with pytest.raises(ValidationError):
            sweep_tradeoff(scalar_sys, channel_97, [1.0, 1.0, 2.0])
        with pytest.raises(ValidationError):
            sweep_tradeoff(scalar_sys, channel_97, [-1.0, 2.0])

    def test_curve_shape(self, scalar_sys, channel_97):
        grid = list(np.linspace(2.0, 40.0, 12))
        curve = sweep_tradeoff(scalar_sys, channel_97, grid)
        assert len(curve.points) == 12
        assert curve.channel == ChannelParams(0.9, 0.7)
        ps = [pt.p_star for pt in curve.points]
        assert all(b <= a + 1e-6 for a, b in zip(ps, ps[1:]))
        finite_v = [pt.trV for pt in curve.points if not math.isinf(pt.trV)]
        assert all(b >= a - 1e-6 for a, b in zip(finite_v, finite_v[1:]))

    def test_infinite_tail_is_sticky(self, scalar_sys):
        # weak user link turns the ceiling infinite for large targets and it
        # must stay infinite from there on
        grid = [2.0, 5.0, 20.0, 100.0]
        curve = sweep_tradeoff(scalar_sys, ChannelParams(0.5, 0.7), grid)
        flags = [math.isinf(pt.trV) for pt in curve.points]
        assert flags == sorted(flags)
        assert flags[-1]


@pytest.mark.parametrize("a", [1.2, 1.5])
@pytest.mark.parametrize("channel", [(0.8, 0.7), (0.9, 0.6)])
def test_fine_grid_sweep_is_exactly_monotone(a, channel):
    # Targets 1e-3 apart cross only a few bisection steps each, so neighbouring
    # p* are often equal or one dyadic step apart. Shared probes keep p* and
    # trV exactly monotone, and sweep_tradeoff's own check must not fire.
    grid = 85.0 + 1e-3 * np.arange(400)
    curve = sweep_tradeoff(ScalarSystem(a, 1.0, 1.0, 1.0).to_linear(),
                           ChannelParams(*channel), grid)
    ps = [pt.p_star for pt in curve.points]
    vs = [pt.trV for pt in curve.points]
    assert all(y <= x for x, y in zip(ps, ps[1:]))
    assert all(y >= x for x, y in zip(vs, vs[1:]))
    assert len(set(ps)) > 10


class TestMatchesPlainBisection:
    """Probes decided from the floor's secant bounds must reach exactly the
    result of solving every probe."""

    @given(sys=small_plants(),
           p1=st.floats(0.3, 1.0), p2=st.sampled_from((0.2, 0.45, 0.6, 0.9, 1.0)),
           log10_factor=st.floats(0.0, 12.0),
           epsilon=st.sampled_from((1e-6, 1e-9)))
    def test_property_plants(self, sys, p1, p2, log10_factor, epsilon):
        ch = ChannelParams(p1, p2)
        tr1 = solve_S(1.0, ch, sys).trace
        M = tr1 * 10.0 ** log10_factor if math.isfinite(tr1) else 10.0
        assert_matches_plain_bisection(sys, ch, M, epsilon)

    @pytest.mark.parametrize("n", [8, 13])
    def test_seeded_invertible_output_plants(self, n):
        sys = invertible_output_plant(1200 + n, n)
        ch = ChannelParams(0.9, 0.6)
        tr1 = solve_S(1.0, ch, sys).trace
        for factor in (1.0 + 1e-9, 1.003, 2.0, 50.0, 1e3, 1e6, 1e9, 1e12):
            res = assert_matches_plain_bisection(sys, ch, tr1 * factor)
            assert res.trS_at_p_star >= tr1 * factor
        assert_matches_plain_bisection(sys, ch, tr1 * 7.0, epsilon=1e-9)

    def test_infinite_target_gives_secrecy_edge(self, second_order_sys, channel_96):
        res = assert_matches_plain_bisection(second_order_sys, channel_96, math.inf)
        assert res.p_star == pytest.approx(0.5092592, abs=1e-6)
        assert res.trS_at_p_star == math.inf

    @pytest.mark.parametrize("p2", [0.0, 1.0])
    def test_edge_eavesdropper_rates(self, second_order_sys, p2):
        # p2 = 0: the floor is infinite at every p; p2 = 1: p = 1 has
        # alpha = 1 - p p2 = 0, a floor (Tr Q) with no place on the log scale.
        ch = ChannelParams(0.9, p2)
        for M in (2.0, 3.0 + 1e-9, 40.0, 1e8, math.inf):
            for epsilon in (1e-6, 1e-9):
                assert_matches_plain_bisection(second_order_sys, ch, M, epsilon)


@given(sys=small_plants(), fractions=st.lists(st.floats(0.01, 0.99), min_size=3,
                                              max_size=3, unique=True))
def test_log_floor_is_convex_in_log_alpha(sys, fractions):
    # The premise of the designer's secant bounds: with alpha = 1 - rate,
    # log Tr S is convex in log alpha, so the middle of three points lies
    # on or below the chord through the other two.
    lo = secest.bounds.p_lower(sys)
    rates = sorted(lo + f * (1.0 - lo) for f in fractions)
    ch = ChannelParams(1.0, 1.0)
    s = [math.log1p(-rate) for rate in rates]
    f = [math.log(solve_S(rate, ch, sys).trace) for rate in rates]
    chord = f[0] + (f[2] - f[0]) * (s[1] - s[0]) / (s[2] - s[0])
    assert f[1] <= chord + 1e-12


def count_floor_solves(monkeypatch) -> list:
    """Record the effective rate of every floor the designer solves."""
    calls = []
    floor = secest.designer._floor
    monkeypatch.setattr(secest.designer, "_floor",
                        lambda sys, rate: calls.append(rate) or floor(sys, rate))
    return calls


def test_floor_solve_budget(monkeypatch):
    # The bounds decide about half the probes of a seeded n = 8 design
    # (about 10 floor solves, against 21 for plain bisection), and a sweep
    # shares its solved floors across targets (46 solves for 8 targets,
    # against 76 for 8 separate designs).
    calls = count_floor_solves(monkeypatch)
    sys = invertible_output_plant(1208, 8)
    ch = ChannelParams(0.9, 0.6)
    tr1 = solve_S(1.0, ch, sys).trace
    grid = tr1 * np.geomspace(1.01, 50.0, 8)
    sweep_tradeoff(sys, ch, grid)
    in_sweep = len(calls)
    calls.clear()
    for M in grid:
        design_p_star(sys, ch, M)
    assert len(calls) <= 12 * len(grid)
    assert in_sweep <= 0.7 * len(calls)


class TestSweepSharesFloors:
    """A sweep solves each probe's floor once, for all its targets, and
    reaches the points of separate designs bit for bit."""

    @staticmethod
    def panel(second_order_sys):
        plants = [(invertible_output_plant(1200 + n, n), ChannelParams(0.9, 0.6))
                  for n in (3, 8)]
        plants += [(second_order_sys, ChannelParams(0.9, 0.6)),
                   (second_order_sys, ChannelParams(0.8, 0.7))]
        for sys, ch in plants:
            tr1 = solve_S(1.0, ch, sys).trace
            yield sys, ch, [tr1 * f for f in (0.5, 1.0 + 1e-9, 1.003, 2.0, 7.0, 50.0,
                                              1e3, 1e6, 1e9)] + [math.inf]

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-9])
    def test_points_equal_separate_designs(self, second_order_sys, epsilon):
        for sys, ch, grid in self.panel(second_order_sys):
            curve = sweep_tradeoff(sys, ch, grid, epsilon)
            for M, pt in zip(grid, curve.points):
                res = design_p_star(sys, ch, M, epsilon)
                assert (pt.p_star, pt.trS, pt.trV) == (
                    res.p_star, res.trS_at_p_star, res.trV_at_p_star)

    @settings(max_examples=20)
    @given(sys=small_plants(), p2=st.sampled_from((0.2, 0.6, 0.9, 1.0)),
           log10_factors=st.sets(st.floats(0.0, 12.0), min_size=2, max_size=5))
    def test_property_plants_match_plain_bisection(self, sys, p2, log10_factors):
        ch = ChannelParams(0.9, p2)
        tr1 = solve_S(1.0, ch, sys).trace
        scale = tr1 if math.isfinite(tr1) else 10.0
        grid = sorted({scale * 10.0 ** f for f in log10_factors})
        curve = sweep_tradeoff(sys, ch, grid)
        for M, pt in zip(grid, curve.points):
            assert (pt.p_star, pt.trS, pt.trV) == plain_bisection(sys, ch, M, 1e-6)[:3]

    def test_each_probe_is_solved_once_per_sweep(self, monkeypatch, second_order_sys):
        calls = count_floor_solves(monkeypatch)
        for sys, ch, grid in self.panel(second_order_sys):
            calls.clear()
            sweep_tradeoff(sys, ch, grid)
            first = list(calls)
            assert len(first) == len(set(first))
            # nothing is kept across calls: the same sweep solves the same
            # floors again
            calls.clear()
            sweep_tradeoff(sys, ch, grid)
            assert calls == first


class TestDefensiveChecks:
    """The designer's checks that a correct floor solve never trips (see
    design_p_star's and sweep_tradeoff's docstrings), each driven by a
    stand-in for _floor, _bisect or solve_V that breaks what it guards."""

    ch = ChannelParams(0.9, 0.6)

    def test_floor_below_target_at_a_bound_decided_p_star(self, monkeypatch, second_order_sys):
        # at M = 2 Tr S(1) the last feasible probe is decided by a bound, so
        # the floor is solved at p* once, after the loop; a floor of M / 2
        # there contradicts the bound
        M = 2.0 * solve_S(1.0, self.ch, second_order_sys).trace
        calls = count_floor_solves(monkeypatch)
        p_star = design_p_star(second_order_sys, self.ch, M).p_star
        assert calls[-1] == p_star * self.ch.p2 and calls.count(calls[-1]) == 1
        floor = secest.designer._floor
        monkeypatch.setattr(secest.designer, "_floor", lambda sys, rate: (
            (None, 0.5 * M, None) if rate == p_star * self.ch.p2 else floor(sys, rate)))
        with pytest.raises(NumericalError, match="floor bound at p"):
            design_p_star(second_order_sys, self.ch, M)

    def test_rising_p_star(self, monkeypatch, second_order_sys):
        designs = iter([(0.8, 30.0, 0), (0.9, 20.0, 0)])
        monkeypatch.setattr(secest.designer, "_bisect", lambda table, M, epsilon: next(designs))
        with pytest.raises(NumericalError, match=r"p\* rose"):
            sweep_tradeoff(second_order_sys, self.ch, [10.0, 20.0])

    @pytest.mark.parametrize("traces, message", [
        ((math.inf, 12.0), "returned finite"), ((12.0, 11.0), "fell"),
        ((math.inf, math.inf), None), ((12.0, 12.0), None), ((12.0, math.inf), None)])
    def test_ceiling_along_the_curve(self, monkeypatch, second_order_sys, traces, message):
        # the designs are the real ones, p* falling with M; only the
        # ceilings are stand-ins
        tr1 = solve_S(1.0, self.ch, second_order_sys).trace
        ceilings = iter(traces)
        monkeypatch.setattr(secest.designer, "solve_V",
                            lambda p, ch, sys: SimpleNamespace(trace=next(ceilings)))
        grid = [2.0 * tr1, 7.0 * tr1]
        if message is None:
            curve = sweep_tradeoff(second_order_sys, self.ch, grid)
            assert tuple(pt.trV for pt in curve.points) == traces
        else:
            with pytest.raises(NumericalError, match=message):
                sweep_tradeoff(second_order_sys, self.ch, grid)
