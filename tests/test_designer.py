import math

import numpy as np
import pytest

from secest import (
    ChannelParams,
    ValidationError,
    design_p_star,
    scalar_critical,
    solve_S,
    sweep_tradeoff,
)
from secest.scalar import ScalarSystem


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
