import numpy as np
import pytest

from secest import (
    ChannelParams,
    Mechanism,
    PhaseCriteria,
    RngStream,
    ValidationError,
    batch_covariance_oracle,
    collapse_events,
    expected_error_curve,
    meets_divergence_criterion,
    meets_plateau_criterion,
    montecarlo,
    riccati_map,
    simulate_trace,
    time_average_error,
)


class TestExpectedErrorCurve:
    def test_full_reception_is_deterministic_recursion(self, second_order_sys):
        curve = expected_error_curve(second_order_sys, Mechanism(1.0), 1.0,
                                     T=50, runs=7, seed=3)
        P = second_order_sys.Sigma0.copy()
        expect = [np.trace(P)]
        for _ in range(50):
            P = riccati_map(P, second_order_sys, 1.0)
            expect.append(np.trace(P))
        assert np.allclose(curve.mean_trP, expect, rtol=0, atol=1e-12)

    def test_reproducible(self, second_order_sys):
        a = expected_error_curve(second_order_sys, Mechanism(0.5), 0.9,
                                 T=80, runs=40, seed=11)
        b = expected_error_curve(second_order_sys, Mechanism(0.5), 0.9,
                                 T=80, runs=40, seed=11)
        assert np.array_equal(a.mean_trP, b.mean_trP)
        c = expected_error_curve(second_order_sys, Mechanism(0.5), 0.9,
                                 T=80, runs=40, seed=12)
        assert not np.array_equal(a.mean_trP, c.mean_trP)

    def test_shapes_and_metadata(self, scalar_sys):
        curve = expected_error_curve(scalar_sys, Mechanism(0.5), 0.6,
                                     T=30, runs=5, seed=0, receiver="eavesdropper")
        assert curve.k.shape == (31,)
        assert curve.mean_trP.shape == (31,)
        assert curve.runs == 5 and curve.receiver == "eavesdropper"
        assert curve.mean_trP[0] == pytest.approx(1.0)

    def test_zero_rate_grows_open_loop(self, scalar_sys):
        curve = expected_error_curve(scalar_sys, Mechanism(0.7), 0.0,
                                     T=20, runs=3, seed=0)
        # every step multiplies by a^2 and adds q
        assert curve.mean_trP[5] == pytest.approx(
            1.44 * curve.mean_trP[4] + 1.0, rel=1e-12)

    def test_pinned_to_replication_streams(self, second_order_sys):
        # Replication r draws its receptions from stream 5 + r; the curve is
        # the Riccati recursion on the per-step reception fraction.
        mech, rate, T, runs, seed = Mechanism(0.8), 0.55, 60, 37, 2**40 + 3
        curve = expected_error_curve(second_order_sys, mech, rate, T, runs, seed)
        received = np.array([RngStream(seed, 5 + r).uniforms(T) < mech.p * rate
                             for r in range(runs)])
        fraction = received.mean(axis=0)
        P = second_order_sys.Sigma0.copy()
        expect = [np.trace(P)]
        for k in range(T):
            P = riccati_map(P, second_order_sys, float(fraction[k]))
            expect.append(np.trace(P))
        assert np.array_equal(curve.mean_trP, expect)

    def test_validation(self, scalar_sys):
        mech = Mechanism(0.5)
        with pytest.raises(ValidationError):
            expected_error_curve(scalar_sys, mech, 0.5, T=-1, runs=5, seed=0)
        with pytest.raises(ValidationError):
            expected_error_curve(scalar_sys, mech, 0.5, T=10, runs=0, seed=0)
        with pytest.raises(ValidationError):
            expected_error_curve(scalar_sys, mech, 1.5, T=10, runs=5, seed=0)
        with pytest.raises(ValidationError):
            expected_error_curve(scalar_sys, mech, 0.5, T=10, runs=5, seed=0,
                                 receiver="attacker")


class TestSimulateTrace:
    def test_deterministic(self, second_order_sys, channel_96):
        a = simulate_trace(second_order_sys, Mechanism(0.51), channel_96, T=60, seed=9)
        b = simulate_trace(second_order_sys, Mechanism(0.51), channel_96, T=60, seed=9)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.xhat1, b.xhat1)
        assert np.array_equal(a.gamma2, b.gamma2)

    def test_replay_alignment_across_p(self, second_order_sys, channel_96):
        # changing only the withholding probability must not disturb the
        # noise sample, and reception sets must nest
        lo = simulate_trace(second_order_sys, Mechanism(0.51), channel_96, T=80, seed=4)
        hi = simulate_trace(second_order_sys, Mechanism(1.0), channel_96, T=80, seed=4)
        assert np.array_equal(lo.x, hi.x)
        assert np.array_equal(lo.y, hi.y)
        assert np.all(hi.sent)
        assert np.all(lo.sent <= hi.sent)
        assert np.all(lo.gamma1 <= hi.gamma1)
        assert np.all(lo.gamma1 <= lo.sent)

    def test_covariance_matches_batch_oracle(self, second_order_sys, channel_96):
        tr = simulate_trace(second_order_sys, Mechanism(0.6), channel_96, T=40, seed=7)
        covs = batch_covariance_oracle(second_order_sys, tr.gamma1[:40])
        assert np.allclose(tr.trP1[1:], [np.trace(P) for P in covs],
                           rtol=1e-12, atol=1e-10)

    def test_error_recursion_matches_direct_difference(self, second_order_sys, channel_96):
        # short horizon keeps x and xhat small enough to subtract directly
        tr = simulate_trace(second_order_sys, Mechanism(0.6), channel_96, T=60, seed=5)
        direct = np.linalg.norm(tr.xhat1 - tr.x, axis=1)
        assert np.max(np.abs(direct - tr.err1)) < 1e-9

    @pytest.mark.parametrize("plant", ["second_order_sys", "scalar_sys"])
    def test_error_norms_match_per_row_norm(self, plant, request, channel_96, monkeypatch):
        # xhat - x cancels on an unstable plant, so compare with the filter's
        # own error rows, captured on their way into the trace.
        sys = request.getfixturevalue(plant)
        errors = []
        filter_errors = montecarlo.filter_errors

        def recording(*args):
            result = filter_errors(*args)
            errors.append(result[0])
            return result

        monkeypatch.setattr(montecarlo, "filter_errors", recording)
        tr = simulate_trace(sys, Mechanism(0.51), channel_96, T=300, seed=7)
        assert len(errors) == 2
        for err, e_f in zip((tr.err1, tr.err2), errors):
            assert np.array_equal(err, [np.linalg.norm(e) for e in e_f])

    def test_silence_means_open_loop(self, scalar_sys, channel_96):
        tr = simulate_trace(scalar_sys, Mechanism(0.0), channel_96, T=30, seed=2)
        assert not tr.sent.any()
        assert not tr.gamma1.any() and not tr.gamma2.any()
        # covariance follows the pure prediction recursion
        assert tr.trP1[3] == pytest.approx(1.44 * tr.trP1[2] + 1.0, rel=1e-12)

    def test_perfect_link_runs_classical_filter(self, scalar_sys):
        tr = simulate_trace(scalar_sys, Mechanism(1.0), ChannelParams(1.0, 0.5),
                            T=30, seed=2)
        assert tr.gamma1.all()
        P = scalar_sys.Sigma0.copy()
        for k in range(31):
            assert tr.trP1[k] == pytest.approx(np.trace(P), rel=1e-12)
            P = riccati_map(P, scalar_sys, 1.0)

    def test_single_record_horizon(self, second_order_sys, channel_96):
        tr = simulate_trace(second_order_sys, Mechanism(0.5), channel_96, T=0, seed=1)
        assert len(tr) == 1
        assert tr.trP1[0] == pytest.approx(3.0)
        with pytest.raises(ValidationError):
            time_average_error(tr, "user")

    def test_negative_horizon_rejected(self, scalar_sys, channel_96):
        with pytest.raises(ValidationError):
            simulate_trace(scalar_sys, Mechanism(0.5), channel_96, T=-1, seed=0)

    def test_time_average_error(self, second_order_sys, channel_96):
        tr = simulate_trace(second_order_sys, Mechanism(0.51), channel_96, T=50, seed=8)
        assert time_average_error(tr, "user") == pytest.approx(np.mean(tr.err1[1:]))
        assert time_average_error(tr, "eavesdropper") == pytest.approx(np.mean(tr.err2[1:]))
        with pytest.raises(ValidationError):
            time_average_error(tr, "nobody")


class TestPhaseJudgments:
    def test_defaults(self):
        crit = PhaseCriteria()
        assert crit.divergence_factor == 10.0
        assert crit.divergence_window == (30, 300)
        assert crit.plateau_factor == 1.2
        assert crit.plateau_window == (150, 300)

    def test_judgments_on_synthetic_curves(self, scalar_sys):
        from secest.montecarlo import ExpectedErrorCurve
        k = np.arange(301)
        growing = ExpectedErrorCurve(k=k, mean_trP=np.exp(0.05 * k), runs=1,
                                     receiver="eavesdropper")
        flat = ExpectedErrorCurve(k=k, mean_trP=np.full(301, 2.0), runs=1,
                                  receiver="user")
        crit = PhaseCriteria()
        assert meets_divergence_criterion(growing, crit)
        assert not meets_divergence_criterion(flat, crit)
        assert meets_plateau_criterion(flat, crit)
        assert not meets_plateau_criterion(growing, crit)

    def test_short_curve_rejected(self, scalar_sys):
        curve = expected_error_curve(scalar_sys, Mechanism(0.5), 0.9,
                                     T=100, runs=3, seed=0)
        with pytest.raises(ValidationError):
            meets_divergence_criterion(curve)
        with pytest.raises(ValidationError):
            meets_plateau_criterion(curve)


class TestCollapseEvents:
    def test_seed42_second_order_event(self, second_order_sys, channel_96):
        tr = simulate_trace(second_order_sys, Mechanism(0.51), channel_96,
                            T=200, seed=42)
        events = collapse_events(tr, min_misses=10, window=3)
        assert events
        ks = [k for k, _, _ in events]
        assert 73 in ks
        before = dict((k, b) for k, b, _ in events)[73]
        after = dict((k, a) for k, _, a in events)[73]
        assert before == pytest.approx(30329.2, rel=1e-3)
        assert after == pytest.approx(49.086, rel=1e-3)
        for _, b, a in events:
            assert b / a > 10.0

    def test_no_events_without_receptions(self, scalar_sys, channel_96):
        tr = simulate_trace(scalar_sys, Mechanism(0.0), channel_96, T=100, seed=0)
        assert collapse_events(tr) == []
