import dataclasses

import numpy as np
import pytest

from secest import (
    ChannelParams,
    ExpectedErrorCurve,
    LinearSystem,
    Mechanism,
    NumericalError,
    RngStream,
    ValidationError,
    collapse_events,
    expected_error_curve,
    meets_divergence_criterion,
    meets_plateau_criterion,
    montecarlo,
    riccati_map,
    simulate_trace,
    time_average_error,
)
from secest.kalman import batch_covariance_oracle

from helpers import complex_mode_plant, float_riccati, reference_riccati, two_output_plant


class TestExpectedErrorCurve:
    def test_is_bit_identical_to_reference_map(self, monkeypatch):
        # a regression guard on the curve's bits: the same curve with each
        # step taken by the reference formula of the map (a two-output
        # plant, so the curve steps riccati_map)
        args = (two_output_plant(), Mechanism(0.8), 0.9)
        curve = expected_error_curve(*args, T=60, runs=200, seed=7)
        calls = []
        monkeypatch.setattr(montecarlo, "riccati_map",
                            lambda *a: calls.append(1) or reference_riccati(*a))
        ref = expected_error_curve(*args, T=60, runs=200, seed=7)
        assert len(calls) == 60
        assert np.array_equal(curve.mean_trP, ref.mean_trP)

    @pytest.mark.parametrize("T", [0, 1, 300])
    def test_scalar_curve_is_riccati_map_chain(self, monkeypatch, T):
        """A one-state, one-output plant steps the averaged map on floats,
        never through riccati_map, and gives riccati_map's chain over the
        replications' reception fractions bit for bit."""
        mech, rate, seed, runs = Mechanism(0.8), 0.55, 19, 70
        fraction = np.array([RngStream(seed, 5 + r).uniforms(T) < mech.p * rate
                             for r in range(runs)]).reshape(runs, T).mean(axis=0)
        assert T < 300 or 0.0 < fraction.min() < fraction.max() < 1.0
        plants = [LinearSystem(A=a, C=c, Q=0.8, R=1.3, Sigma0=s0)
                  for a in (0.5, -0.5, 1.2, -1.2) for c in (1.0, -0.7) for s0 in (0.05, 40.0)]
        expects = []
        for sys in plants:
            P = sys.Sigma0.copy()
            expect = [np.trace(P)]
            for k in range(T):
                P = riccati_map(P, sys, float(fraction[k]))
                expect.append(np.trace(P))
            expects.append(expect)

        def refuse(*args):
            raise AssertionError("a one-state curve stepped riccati_map")

        monkeypatch.setattr(montecarlo, "riccati_map", refuse)
        for sys, expect in zip(plants, expects):
            curve = expected_error_curve(sys, mech, rate, T, runs, seed)
            assert np.array_equal(curve.mean_trP, expect)

    @pytest.mark.parametrize("a", [1.2, -0.5])
    def test_scalar_curve_from_the_edge_of_overflow(self, a):
        """From a prior of 1e308 the first symmetrization overflows, on the
        curve's float route as in riccati_map: at rate 0 both chains read
        infinity at every step, and at a nonzero rate both stop at step 1,
        which the curve's error names."""
        sys = LinearSystem(A=a, C=-0.7, Q=0.8, R=1.3, Sigma0=1.0)
        object.__setattr__(sys, "Sigma0", np.array([[1e308]]))
        curve = expected_error_curve(sys, Mechanism(0.9), 0.0, T=20, runs=5, seed=3)
        X, expect = sys.Sigma0, [1e308]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(20):
                X = riccati_map(X, sys, 0.0)
                expect.append(X[0, 0])
            with pytest.raises(NumericalError):
                riccati_map(sys.Sigma0, sys, 0.5)
        assert np.array_equal(curve.mean_trP, expect) and np.isposinf(expect[1:]).all()
        with pytest.raises(NumericalError, match=r"step 1 of 20 \(effective rate 0\.9\)"):
            expected_error_curve(sys, Mechanism(0.9), 1.0, T=20, runs=5, seed=3)

    @pytest.mark.parametrize("plant", ["scalar", "second_order", "two_outputs"])
    def test_several_rates_from_one_pass(self, monkeypatch, plant, scalar_sys, second_order_sys):
        """Curves at several rates under one seed are counted from one pass
        over the replications' draws, and each equals its one-rate curve
        bit for bit, on the float route (one and two states) and on numpy
        (two outputs)."""
        sys = {"scalar": scalar_sys, "second_order": second_order_sys,
               "two_outputs": two_output_plant()}[plant]
        mech, rates, T, runs, seed = Mechanism(0.8), (0.9, 0.6, 0.45), 120, 150, 17
        singles = [expected_error_curve(sys, mech, rate, T, runs, seed) for rate in rates]
        passes = []
        count = montecarlo._replication_counts
        monkeypatch.setattr(montecarlo, "_replication_counts",
                            lambda *a: passes.append(a) or count(*a))
        curves = montecarlo._expected_error_curves(sys, mech, rates, T, runs, seed)
        assert len(passes) == 1
        for curve, single in zip(curves, singles):
            assert np.array_equal(curve.mean_trP, single.mean_trP)
            assert np.array_equal(curve.k, single.k) and curve.runs == runs

    def test_overflow_raises_numerical_error_naming_step_and_rate(self, second_order_sys):
        # the suite turns RuntimeWarning into an error, so a raw numpy
        # overflow warning from the loop would surface here instead
        with pytest.raises(NumericalError, match=r"step 2206 of 2500 \(effective rate 0\.045\)"):
            expected_error_curve(second_order_sys, Mechanism(0.05), 0.9,
                                 T=2500, runs=20, seed=42)

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
                                     T=30, runs=5, seed=0)
        assert curve.k.shape == (31,)
        assert curve.mean_trP.shape == (31,)
        assert curve.runs == 5
        assert curve.mean_trP[0] == pytest.approx(1.0)

    def test_zero_rate_grows_open_loop(self, scalar_sys):
        curve = expected_error_curve(scalar_sys, Mechanism(0.7), 0.0,
                                     T=20, runs=3, seed=0)
        # every step multiplies by a^2 and adds q
        assert curve.mean_trP[5] == pytest.approx(
            1.44 * curve.mean_trP[4] + 1.0, rel=1e-12)

    def test_pinned_to_replication_streams(self, second_order_sys):
        # Replication r draws its receptions from stream 5 + r; the curve is
        # the Riccati recursion on the per-step reception fraction, here the
        # float kernel's (second_order has one output and two states). 257
        # runs span several count blocks, the last of one row.
        mech, rate, seed = Mechanism(0.8), 0.55, 2**40 + 3
        for T, runs in ((60, 37), (17, 257)):
            curve = expected_error_curve(second_order_sys, mech, rate, T, runs, seed)
            received = np.array([RngStream(seed, 5 + r).uniforms(T) < mech.p * rate
                                 for r in range(runs)])
            fraction = received.mean(axis=0)
            P = second_order_sys.Sigma0.copy()
            expect = [np.trace(P)]
            for k in range(T):
                P = float_riccati(P, second_order_sys, float(fraction[k]))
                expect.append(P[0, 0] + P[1, 1])
            assert np.array_equal(curve.mean_trP, expect)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_float_curve_agrees_with_riccati_map(self, monkeypatch, n):
        """A single-output plant with up to five states steps the averaged
        map in the float kernel, never through riccati_map: its curve is the
        float reference chain bit for bit, and riccati_map's chain within
        1e-12 relative. The sums round differently from BLAS; the measured
        worst gap over 12 seeds per case was 2.7e-15 (n = 2, unstable)."""
        mech, seed, runs, T = Mechanism(0.9), 23, 50, 300
        for plant_seed, radius, rate in ((0, 0.9, 0.3), (1, 1.15, 0.7), (2, 1.15, 0.95)):
            sys = complex_mode_plant(plant_seed, n, radius)
            fraction = np.array([RngStream(seed, 5 + r).uniforms(T) < mech.p * rate
                                 for r in range(runs)]).mean(axis=0).tolist()
            X = Y = sys.Sigma0
            floats, matrices = [np.trace(X)], [np.trace(X)]
            for lam in fraction:
                X, Y = float_riccati(X, sys, lam), riccati_map(Y, sys, lam)
                floats.append(sum(np.diag(X).tolist()))
                matrices.append(np.trace(Y))
            monkeypatch.setattr(montecarlo, "riccati_map", None)
            curve = expected_error_curve(sys, mech, rate, T, runs, seed)
            monkeypatch.undo()
            assert np.array_equal(curve.mean_trP, floats)
            assert np.max(np.abs(curve.mean_trP - matrices) / matrices) <= 1e-12

    @pytest.mark.parametrize("plant", ["scalar", "second_order", "six_state"])
    def test_overflowed_trace_is_infinite(self, plant, scalar_sys, second_order_sys):
        """With no reception the open-loop covariance overflows; the curve
        then reads inf on every route, never NaN, although the n >= 2
        covariances hold NaN entries (a zero coefficient of A times
        infinity). The scalar plant steps on floats bit for bit as numpy,
        second_order in the float kernel and the six-state plant in numpy."""
        sys = {"scalar": scalar_sys, "second_order": second_order_sys,
               "six_state": complex_mode_plant(6, 6, 1.3)}[plant]
        if plant == "six_state":
            # upper triangular, so zero coefficients, with one unstable mode
            A = np.triu(sys.A)
            A[0, 0] = 1.3
            sys = LinearSystem(A=A, C=sys.C, Q=sys.Q, R=sys.R, Sigma0=sys.Sigma0)
        curve = expected_error_curve(sys, Mechanism(0.0), 0.9, T=2500, runs=20, seed=42)
        first = np.argmax(np.isinf(curve.mean_trP))
        assert 0 < first and np.isfinite(curve.mean_trP[:first]).all()
        assert np.isposinf(curve.mean_trP[first:]).all()

    @pytest.mark.parametrize("name, T, runs", [("T", 5.0, 3), ("T", "5", 3),
                                               ("runs", 5, 2.5), ("runs", 5, 3.0)])
    def test_non_integer_horizon_or_runs_rejected(self, second_order_sys, name, T, runs):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            expected_error_curve(second_order_sys, Mechanism(0.51), 0.9, T, runs, 7)

    def test_numpy_integer_horizon_and_runs_accepted(self, second_order_sys):
        curve = expected_error_curve(second_order_sys, Mechanism(0.51), 0.9,
                                     np.int64(5), np.uint8(3), 7)
        ref = expected_error_curve(second_order_sys, Mechanism(0.51), 0.9, 5, 3, 7)
        assert type(curve.runs) is int and curve.runs == 3
        assert np.array_equal(curve.mean_trP, ref.mean_trP)

    def test_validation(self, scalar_sys):
        mech = Mechanism(0.5)
        with pytest.raises(ValidationError):
            expected_error_curve(scalar_sys, mech, 0.5, T=-1, runs=5, seed=0)
        with pytest.raises(ValidationError):
            expected_error_curve(scalar_sys, mech, 0.5, T=10, runs=0, seed=0)
        with pytest.raises(ValidationError):
            expected_error_curve(scalar_sys, mech, 1.5, T=10, runs=5, seed=0)


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

    @pytest.mark.parametrize("seed", [0, 9, 2**40 + 3, 2**160 + 7])
    def test_each_draw_is_its_streams(self, second_order_sys, channel_96, seed):
        """One generator, re-keyed, serves streams 0-4, and each draw is the
        one RngStream(seed, s) makes: the initial state and the process
        noise from stream 0, the measurement noise from stream 1, the coin
        and the two links from streams 2, 3 and 4, bit for bit."""
        sys, T, p = second_order_sys, 50, 0.7
        tr = simulate_trace(sys, Mechanism(p), channel_96, T=T, seed=seed)
        L0, Lq, Lr = sys.noise_factors
        process = RngStream(seed, 0)
        x0 = L0 @ process.standard_normals(2)
        w = process.standard_normals((T + 1, 2)) @ Lq.T
        x = montecarlo._linear_recursion(sys.A, w[None, :T], x0)[0]
        v = RngStream(seed, 1).standard_normals((T + 1, 1)) @ Lr.T
        sent = RngStream(seed, 2).uniforms(T + 1) < p
        assert np.array_equal(tr.x, x)
        assert np.array_equal(tr.y, (sys.C @ x[:, :, None])[..., 0] + v)
        assert np.array_equal(tr.sent, sent)
        assert np.array_equal(tr.gamma1, sent & (RngStream(seed, 3).uniforms(T + 1) < 0.9))
        assert np.array_equal(tr.gamma2, sent & (RngStream(seed, 4).uniforms(T + 1) < 0.6))
        assert tr.seed == seed

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
        # own error rows, captured on their way into the trace: one stacked
        # call whose two rows are the user's and the eavesdropper's.
        sys = request.getfixturevalue(plant)
        calls = []
        filter_errors = montecarlo.filter_errors

        def recording(*args):
            result = filter_errors(*args)
            calls.append((args[1], result[0]))
            return result

        monkeypatch.setattr(montecarlo, "filter_errors", recording)
        tr = simulate_trace(sys, Mechanism(0.51), channel_96, T=300, seed=7)
        assert len(calls) == 1
        gammas, errors = calls[0]
        assert np.array_equal(gammas, [tr.gamma1, tr.gamma2])
        assert errors.shape == (2, 301, sys.n)
        for err, e_f in zip((tr.err1, tr.err2), errors):
            assert np.array_equal(err, [np.linalg.norm(e) for e in e_f])

    def test_measurements_match_per_step_product(self, channel_96, monkeypatch):
        # y is formed after the state loop, and must round like C x(k) + v(k)
        # formed step by step; on this n = 13 plant x @ C' does not.
        rng = np.random.default_rng(13)
        n = 13
        V = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        A = V @ np.diag(np.linspace(-0.8, 1.2, n)) @ np.linalg.inv(V)
        sys = LinearSystem(A=A, C=rng.standard_normal((2, n)), Q=np.eye(n), R=np.eye(2),
                           Sigma0=np.eye(n))
        noise = []
        filter_errors = montecarlo.filter_errors

        def recording(*args):
            noise.append(args[4])
            return filter_errors(*args)

        monkeypatch.setattr(montecarlo, "filter_errors", recording)
        tr = simulate_trace(sys, Mechanism(0.8), channel_96, T=300, seed=3)
        assert np.array_equal(tr.y, [sys.C @ x + v for x, v in zip(tr.x, noise[0])])

    @pytest.mark.parametrize("A", [[[10.0, 1.0], [0.0, 9.0]], [[10.0]]], ids=["n2", "n1"])
    def test_overflowed_trace_is_infinite(self, A):
        """The eavesdropper never receives, so its covariance overflows: its
        trace then reads inf on both plants, never NaN, although the n = 2
        covariance holds NaN entries, and its error overflows to inf without
        a warning."""
        A = np.array(A)
        n = len(A)
        sys = LinearSystem(A=A, C=np.eye(1, n), Q=np.eye(n), R=1.0, Sigma0=np.eye(n))
        tr = simulate_trace(sys, Mechanism(1.0), ChannelParams(1.0, 0.0), T=300, seed=0)
        first = np.argmax(np.isinf(tr.trP2))
        assert 0 < first and np.isfinite(tr.trP2[:first]).all()
        assert np.isposinf(tr.trP2[first:]).all()
        assert not np.isnan(tr.err2).any() and np.isposinf(tr.err2[-1])
        assert np.isfinite(tr.trP1).all() and np.isfinite(tr.err1).all()

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

    @pytest.mark.parametrize("T", [5.0, 5.5, "5", None])
    def test_non_integer_horizon_rejected(self, second_order_sys, channel_96, T):
        # read like seeds, never truncated: not numpy's raw TypeError
        with pytest.raises(ValidationError, match="T must be an integer"):
            simulate_trace(second_order_sys, Mechanism(0.51), channel_96, T, 7)

    def test_numpy_integer_horizon_accepted(self, second_order_sys, channel_96):
        trace = simulate_trace(second_order_sys, Mechanism(0.51), channel_96, np.int64(5), 7)
        ref = simulate_trace(second_order_sys, Mechanism(0.51), channel_96, 5, 7)
        assert len(trace) == 6 and np.array_equal(trace.err1, ref.err1)

    @pytest.mark.parametrize("plant, name, value", [
        ("scalar_sys", "Q", -1.0),
        ("scalar_sys", "R", -0.5),
        ("second_order_sys", "Sigma0", [[1.0, 2.0], [2.0, 1.0]]),
        ("second_order_sys", "Q", [[1.0, 0.5], [0.0, 1.0]]),
    ], ids=["Q", "R", "Sigma0", "Q-asymmetric"])
    def test_indefinite_noise_covariance_rejected(self, request, channel_96, plant, name, value):
        # the plant holds an indefinite matrix; only the draw needs its
        # Cholesky factor, and names it: not numpy's raw LinAlgError. An
        # asymmetric one, whose factor would read its lower triangle alone,
        # no plant holds: replacing it in, like construction, names it
        base = request.getfixturevalue(plant)
        if np.array_equal(value, np.transpose(value)):
            sys = dataclasses.replace(base, **{name: value})
            with pytest.raises(ValidationError,
                               match=f"^{name} must be symmetric positive definite"):
                simulate_trace(sys, Mechanism(0.51), channel_96, 5, 7)
        else:
            with pytest.raises(ValidationError, match=f"^{name} must be symmetric, got"):
                dataclasses.replace(base, **{name: value})

    def test_time_average_error(self, second_order_sys, channel_96):
        tr = simulate_trace(second_order_sys, Mechanism(0.51), channel_96, T=50, seed=8)
        assert time_average_error(tr, "user") == pytest.approx(np.mean(tr.err1[1:]))
        assert time_average_error(tr, "eavesdropper") == pytest.approx(np.mean(tr.err2[1:]))
        with pytest.raises(ValidationError):
            time_average_error(tr, "nobody")


def _curve(points: dict) -> ExpectedErrorCurve:
    """A 301-step curve at 1.0 except at the given steps."""
    mean_trP = np.ones(301)
    for k, value in points.items():
        mean_trP[k] = value
    return ExpectedErrorCurve(k=np.arange(301), mean_trP=mean_trP, runs=1)


class TestPhaseJudgments:
    def test_thresholds_pinned_at_boundaries(self):
        # divergent iff mean_trP[300] > 10 * mean_trP[30]
        assert not meets_divergence_criterion(_curve({30: 3.0, 300: 30.0}))
        assert meets_divergence_criterion(_curve({30: 3.0, 300: np.nextafter(30.0, np.inf)}))
        # plateaued iff mean_trP[300] <= 1.2 * mean_trP[150]
        assert meets_plateau_criterion(_curve({150: 5.0, 300: 6.0}))
        assert not meets_plateau_criterion(_curve({150: 5.0, 300: np.nextafter(6.0, np.inf)}))
        # no other step enters either judgment
        assert not meets_divergence_criterion(_curve({29: 1e-9, 31: 1e-9, 299: 1e9}))
        assert meets_plateau_criterion(_curve({149: 1e-9, 151: 1e-9, 299: 1e9}))

    def test_judgments_on_synthetic_curves(self, scalar_sys):
        k = np.arange(301)
        growing = ExpectedErrorCurve(k=k, mean_trP=np.exp(0.05 * k), runs=1)
        flat = ExpectedErrorCurve(k=k, mean_trP=np.full(301, 2.0), runs=1)
        assert meets_divergence_criterion(growing)
        assert not meets_divergence_criterion(flat)
        assert meets_plateau_criterion(flat)
        assert not meets_plateau_criterion(growing)

    def test_short_curve_rejected(self, scalar_sys):
        curve = expected_error_curve(scalar_sys, Mechanism(0.5), 0.9,
                                     T=100, runs=3, seed=0)
        with pytest.raises(ValidationError):
            meets_divergence_criterion(curve)
        with pytest.raises(ValidationError):
            meets_plateau_criterion(curve)


def _collapse_scan(trace):
    """collapse_events as a scan over the steps that counts the misses:
    the reference for its events."""
    events = []
    misses = 0
    trP2 = trace.trP2
    last = len(trace) - 1
    for k, received in enumerate(trace.gamma2.tolist()):
        if received:
            if misses >= 10 and k < last:
                stop = min(k + 3, last)
                events.append((k, float(trP2[k]), float(trP2[k + 1:stop + 1].min())))
            misses = 0
        else:
            misses += 1
    return events


class TestCollapseEvents:
    @staticmethod
    def _synthetic(sys, ch, gamma2, rng):
        """A trace with the eavesdropper row ``gamma2`` and random traces."""
        tr = simulate_trace(sys, Mechanism(1.0), ch, T=len(gamma2) - 1, seed=0)
        tr.gamma2 = np.asarray(gamma2, dtype=bool)
        tr.trP2 = rng.uniform(1.0, 100.0, len(gamma2))
        return tr

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_step_scan_on_random_rows(self, scalar_sys, channel_96, seed):
        rng = np.random.default_rng(seed)
        found = 0
        for rate in (0.02, 0.08, 0.2, 0.5, 0.9):
            tr = self._synthetic(scalar_sys, channel_96, rng.random(301) < rate, rng)
            events = collapse_events(tr)
            assert events == _collapse_scan(tr)
            assert all(type(k) is int and type(b) is float and type(a) is float
                       for k, b, a in events)
            found += len(events)
        assert found > 0

    @pytest.mark.parametrize("gamma2", [
        [False] * 10 + [True] * 5,            # leading misses from k = 0: event at 10
        [False] * 9 + [True] * 5,             # 9 leading misses: none
        [True] + [False] * 9 + [True] * 5,    # a run of exactly 9: none
        [True] + [False] * 10 + [True] * 5,   # a run of exactly 10: event at 11
        [True] + [False] * 10 + [True],       # a reception at the last step: none
        [True] + [False] * 10 + [True] * 2,   # window clipped to one step
        [True] + [False] * 10 + [True] * 3,   # window clipped to two steps
        [True] + [False] * 30 + [True, False, True] + [False] * 12 + [True, True],
        [False] * 20,                         # all misses
        [True] * 20,                          # all receptions
    ])
    def test_matches_the_step_scan_at_the_edges(self, scalar_sys, channel_96, gamma2):
        tr = self._synthetic(scalar_sys, channel_96, gamma2, np.random.default_rng(len(gamma2)))
        assert collapse_events(tr) == _collapse_scan(tr)

    def test_seed42_second_order_event(self, second_order_sys, channel_96):
        tr = simulate_trace(second_order_sys, Mechanism(0.51), channel_96,
                            T=200, seed=42)
        events = collapse_events(tr)
        assert events
        ks = [k for k, _, _ in events]
        assert 73 in ks
        before = dict((k, b) for k, b, _ in events)[73]
        after = dict((k, a) for k, _, a in events)[73]
        assert before == pytest.approx(30329.2, rel=1e-3)
        assert after == pytest.approx(49.086, rel=1e-3)
        for _, b, a in events:
            assert b / a > 10.0

    def test_thresholds_on_synthetic_trace(self, scalar_sys, channel_96):
        # An event needs at least 10 misses before the reception, and its
        # min_trace_after looks exactly 3 steps ahead, clipped at the last.
        tr = simulate_trace(scalar_sys, Mechanism(1.0), channel_96, T=39, seed=0)
        tr.gamma2 = np.ones(40, dtype=bool)
        tr.gamma2[1:10] = False   # 9 misses before k = 10: no event
        tr.gamma2[11:21] = False  # 10 misses before k = 21
        tr.gamma2[28:38] = False  # 10 misses before k = 38; k = 39 is last
        tr.trP2 = 100.0 + np.arange(40)
        tr.trP2[24] = 2.0         # third step after k = 21
        tr.trP2[25] = 1.0         # fourth step: outside the window
        assert collapse_events(tr) == [(21, 121.0, 2.0), (38, 138.0, 139.0)]
        # a reception at the last step has nothing after it
        tr.gamma2[39] = True
        tr.gamma2[29:39] = False
        assert collapse_events(tr) == [(21, 121.0, 2.0)]

    def test_no_events_without_receptions(self, scalar_sys, channel_96):
        tr = simulate_trace(scalar_sys, Mechanism(0.0), channel_96, T=100, seed=0)
        assert collapse_events(tr) == []
