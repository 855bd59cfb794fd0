"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every test measures its own wall time against the stated budget and records
one summary line through conftest.record_acceptance, so the verdicts survive
into the terminal summary even when an individual assertion trips.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from secest import (
    ChannelParams,
    Mechanism,
    ScalarSystem,
    collapse_events,
    design_p_star,
    expected_error_curve,
    filter_errors,
    meets_divergence_criterion,
    meets_plateau_criterion,
    p_lower,
    p_upper,
    scalar_S,
    scalar_V,
    scalar_critical,
    scalar_p_star,
    secrecy_interval,
    simulate_trace,
    solve_S,
    solve_V,
    sweep_tradeoff,
)
from secest.kalman import batch_covariance_oracle

from conftest import record_acceptance


def _scalar_lin(a=1.2):
    return ScalarSystem(a, 1.0, 1.0, 1.0).to_linear()


def _second_order():
    A = np.array([[1.2, 1.0], [0.0, 1.1]])
    Q = np.array([[1.0, 0.5], [0.5, 2.0]])
    from secest import LinearSystem
    return LinearSystem(A=A, C=np.array([[1.0, 0.0]]), Q=Q, R=1.0, Sigma0=Q)


def test_criterion_1_scalar_oracle_equivalence():
    t0 = time.perf_counter()
    s = ScalarSystem(1.2, 1.0, 1.0, 1.0)
    lin = s.to_linear()
    max_dS = 0.0
    max_dV = 0.0
    class_mismatches = 0
    for link in (0.5, 0.7, 0.9):
        ch = ChannelParams(link, link)
        for p in np.linspace(0.35, 1.0, 20):
            p = float(p)
            S_mat = solve_S(p, ch, lin)
            S_ref = scalar_S(p, link, s)
            V_mat = solve_V(p, ch, lin)
            V_ref = scalar_V(p * link, s)
            if S_mat.finite != math.isfinite(S_ref):
                class_mismatches += 1
            elif S_mat.finite:
                max_dS = max(max_dS, abs(S_mat.trace - S_ref))
            if V_mat.finite != math.isfinite(V_ref):
                class_mismatches += 1
            elif V_mat.finite:
                max_dV = max(max_dV, abs(V_mat.trace - V_ref))
    elapsed = time.perf_counter() - t0
    ok = max_dS <= 1e-9 and max_dV <= 1e-8 and class_mismatches == 0 and elapsed < 1.0
    record_acceptance(
        f"criterion 1: {'PASS' if ok else 'FAIL'} - 60 grid points: "
        f"max |dS| {max_dS:.2e} (<=1e-9), max |dV| {max_dV:.2e} (<=1e-8), "
        f"{class_mismatches} finiteness mismatches [{elapsed:.2f}s]"
    )
    assert class_mismatches == 0
    assert max_dS <= 1e-9
    assert max_dV <= 1e-8
    assert elapsed < 1.0


def test_criterion_2_critical_rate_identity():
    t0 = time.perf_counter()
    gaps = {}
    for a in (1.2, 1.5, 2.0):
        lin = _scalar_lin(a)
        gaps[a] = p_upper(lin) - p_lower(lin)
    elapsed = time.perf_counter() - t0
    ok = all(g <= 1e-5 for g in gaps.values()) and elapsed < 5.0
    detail = ", ".join(f"A={a}: {g:.2e}" for a, g in gaps.items())
    record_acceptance(
        f"criterion 2: {'PASS' if ok else 'FAIL'} - |p_upper - p_lower| "
        f"{detail} (<=1e-5) [{elapsed:.2f}s]"
    )
    for a, g in gaps.items():
        assert g <= 1e-5, f"A={a} bracket gap {g}"
    assert elapsed < 5.0


def test_criterion_3_design_bisection_correctness():
    t0 = time.perf_counter()
    # pinned case at tight tolerance
    pin = design_p_star(_scalar_lin(), ChannelParams(0.9, 0.7), 10.0, epsilon=1e-9)
    pin_p_err = abs(pin.p_star - 0.5357142857142857)
    pin_S_err = abs(pin.trS_at_p_star - 10.0)

    # random instances vs brute-force grid search at 1e-4 resolution
    rng = np.random.default_rng(2024)
    epsilon = 1e-6
    p_grid = np.linspace(0.0, 1.0, 10001)
    mismatches = 0
    worst = 0.0
    cases = 0
    for _ in range(10):
        a = float(rng.uniform(1.1, 2.2))
        q = float(rng.uniform(0.5, 2.0))
        r = float(rng.uniform(0.5, 2.0))
        s = ScalarSystem(a, 1.0, q, r)
        lin = s.to_linear()
        pc = 1.0 - 1.0 / (a * a)
        p2 = float(rng.uniform(min(pc + 0.08, 0.95), 1.0))
        floor_at_one = scalar_S(1.0, p2, s)
        for M in np.geomspace(floor_at_one * 1.01, 1e3, 4):
            M = float(M)
            res = design_p_star(lin, ChannelParams(0.9, p2), M, epsilon)
            rates = p_grid * p2
            denom = 1.0 - (1.0 - rates) * a * a
            S_vals = np.where(rates > pc, q / np.where(denom > 0, denom, 1.0), np.inf)
            feasible = np.nonzero(S_vals >= M)[0]
            grid_p = float(p_grid[feasible[-1]])
            diff = abs(res.p_star - grid_p)
            worst = max(worst, diff)
            cases += 1
            if diff > epsilon + 1e-4:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = (pin_p_err <= 1e-6 and pin_S_err <= 1e-6 and mismatches == 0
          and elapsed < 5.0)
    record_acceptance(
        f"criterion 3: {'PASS' if ok else 'FAIL'} - pinned p* err {pin_p_err:.2e} "
        f"(<=1e-6), trS err {pin_S_err:.2e} (<=1e-6); {cases} grid cases, "
        f"{mismatches} beyond eps+1e-4, worst {worst:.2e} [{elapsed:.2f}s]"
    )
    assert pin_p_err <= 1e-6
    assert pin_S_err <= 1e-6
    assert mismatches == 0
    assert elapsed < 5.0


def test_criterion_4_bound_monotonicity():
    t0 = time.perf_counter()
    ch = ChannelParams(0.9, 0.6)
    systems = {"scalar": _scalar_lin(), "second-order": _second_order()}
    violations = []
    finite_counts = {}
    for name, lin in systems.items():
        trS = []
        trV = []
        for p in np.linspace(0.0, 1.0, 100):
            p = float(p)
            trS.append(solve_S(p, ch, lin).trace)
            trV.append(solve_V(p, ch, lin).trace)
        finite_counts[name] = sum(math.isfinite(v) for v in trV)
        for label, series in (("trS", trS), ("trV", trV)):
            for i, (t_prev, t_next) in enumerate(zip(series, series[1:])):
                if not t_next <= t_prev + 1e-9:
                    violations.append((name, label, i, t_prev, t_next))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 10.0
    record_acceptance(
        f"criterion 4: {'PASS' if ok else 'FAIL'} - 100-point grids, "
        f"{len(violations)} monotonicity violations (slack 1e-9); finite trV "
        f"points scalar={finite_counts['scalar']}, "
        f"second-order={finite_counts['second-order']} [{elapsed:.2f}s]"
    )
    assert not violations, violations[:3]
    assert elapsed < 10.0


def test_criterion_5_filter_equivalence_oracle():
    t0 = time.perf_counter()
    lin = _second_order()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        gammas = rng.random(50) < 0.5
        oracle = batch_covariance_oracle(lin, gammas)
        _, P = filter_errors(lin, gammas, np.zeros(2), 0.0, np.zeros((50, 1)))
        for t in range(50):
            worst = max(worst, float(np.max(np.abs(P[t + 1] - oracle[t]))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    record_acceptance(
        f"criterion 5: {'PASS' if ok else 'FAIL'} - 100 sequences x T=50, worst "
        f"elementwise covariance diff {worst:.2e} (<=1e-8) [{elapsed:.2f}s]"
    )
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_6_tradeoff_curve_reproduction():
    t0 = time.perf_counter()
    channels = [ChannelParams(0.9, 0.6), ChannelParams(0.9, 0.7), ChannelParams(0.8, 0.7)]
    grid = [float(M) for M in np.geomspace(2.0, 100.0, 25)]
    epsilon = 1e-6  # sweep_tradeoff's bisection width in p
    plants = {a: ScalarSystem(a, 1.0, 1.0, 1.0) for a in (1.2, 1.5)}
    curves = {}
    for a, s in plants.items():
        lin = s.to_linear()
        for ch in channels:
            curves[(a, ch.p1, ch.p2)] = sweep_tradeoff(lin, ch, grid, epsilon).points

    def trV_cf(a, ch, M, backoff=0.0):
        # closed-form ceiling at p*_cf - backoff, independent of the matrix
        # route; p*_cf = 1 while the no-withholding floor already meets M
        s = plants[a]
        p = 1.0 if M <= scalar_S(1.0, ch.p2, s) else scalar_p_star(M, ch.p2, s)
        return scalar_V(ch.p1 * max(p - backoff, 0.0), s)

    def no_worse(low, high):
        # low <= high with bisection-noise slack; infinities compare exactly
        if math.isinf(high):
            return True
        if math.isinf(low):
            return False
        return low <= high + (1e-8 + 2e-6) * max(1.0, abs(high))

    # clause 1: trV non-decreasing in M along every curve
    mono_bad = []
    for key, pts in curves.items():
        for prev, cur in zip(pts, pts[1:]):
            if not no_worse(prev.trV, cur.trV):
                mono_bad.append((key, prev.M, prev.trV, cur.trV))

    # clause 2: at each M where all three A=1.2 curves are finite, the curve
    # with the larger p1/p2 ratio pays no more than the smaller-ratio one
    ordered = [(1.2, 0.9, 0.6), (1.2, 0.9, 0.7), (1.2, 0.8, 0.7)]  # ratio desc
    order_bad = []
    for i in range(len(grid)):
        vals = [curves[key][i].trV for key in ordered]
        if all(math.isfinite(v) for v in vals):
            for (ka, va), (kb, vb) in zip(zip(ordered, vals), zip(ordered[1:], vals[1:])):
                if not no_worse(va, vb):
                    order_bad.append((grid[i], ka, va, kb, vb))

    # clause 3: the A=1.5 plant pays less than A=1.2 only where secrecy binds
    # hard. Where the floor target is met at p* = 1 a larger |a| raises the
    # ceiling at the same rate, so the closed-form curves cross at one M_x:
    # A=1.5 pays more below it, less above it and in the M -> inf limit.
    # (a) every swept point lies between the closed-form ceilings at the two
    # ends of the final bisection bracket, p*_cf and p*_cf - epsilon
    cf_bad = []
    for a in plants:
        for ch in channels:
            for pt in curves[(a, ch.p1, ch.p2)]:
                low, high = trV_cf(a, ch, pt.M), trV_cf(a, ch, pt.M, epsilon)
                if not (no_worse(low, pt.trV) and no_worse(pt.trV, high)):
                    cf_bad.append(((a, ch.p1, ch.p2), pt.M, low, pt.trV, high))

    # (b) M_x exists and is unique in (2, 100), located on the closed forms
    scan = np.geomspace(2.0, 100.0, 1001)
    crossings = {}
    flip_counts = {}
    for ch in channels:
        def gap(M, ch=ch):
            return trV_cf(1.5, ch, M) - trV_cf(1.2, ch, M)
        signs = np.sign([gap(float(M)) for M in scan])
        flips = np.flatnonzero(signs[:-1] != signs[1:])
        flip_counts[(ch.p1, ch.p2)] = len(flips)
        if len(flips) == 1:
            i = int(flips[0])
            crossings[(ch.p1, ch.p2)] = brentq(gap, scan[i], scan[i + 1], xtol=1e-12)

    # (c) the swept curves order oppositely on the two sides of M_x; the
    # margin is what the predicted cheaper plant saves, negative on failure
    above_bad, below_bad, limit_bad = [], [], []
    details = []
    for ch in channels:
        key = (ch.p1, ch.p2)
        limit = {a: scalar_V(ch.p1 * scalar_critical(s) / ch.p2, s)
                 for a, s in plants.items()}
        if not limit[1.5] < limit[1.2]:
            limit_bad.append((key, limit[1.5], limit[1.2]))
        if key not in crossings:
            details.append(f"({ch.p1}, {ch.p2}): {flip_counts[key]} crossings")
            continue
        M_x = crossings[key]
        margin_below = margin_above = math.inf
        for M, pt12, pt15 in zip(grid, curves[(1.2,) + key], curves[(1.5,) + key]):
            v12, v15 = pt12.trV, pt15.trV
            if M > M_x:
                margin_above = min(margin_above, v12 - v15)
                if not no_worse(v15, v12):
                    above_bad.append((key, M_x, M, v15, v12))
            else:
                margin_below = min(margin_below, v15 - v12)
                if not no_worse(v12, v15):
                    below_bad.append((key, M_x, M, v15, v12))
        details.append(
            f"({ch.p1}, {ch.p2}): M_x={M_x:.4f}, min margin below "
            f"{margin_below:+.3g} / above {margin_above:+.3g}, "
            f"limits {limit[1.5]:.2f} < {limit[1.2]:.2f}"
        )

    elapsed = time.perf_counter() - t0
    growth_ok = (not cf_bad and len(crossings) == len(channels) and not above_bad
                 and not below_bad and not limit_bad)
    ok = not mono_bad and not order_bad and growth_ok and elapsed < 10.0
    record_acceptance(
        f"criterion 6: {'PASS' if ok else 'FAIL'} - trV monotone in M: "
        f"{len(mono_bad)} violations; channel-ratio ordering: {len(order_bad)} "
        f"violations; sweep vs closed form: {len(cf_bad)} points outside the "
        f"bisection bracket; A=1.5 vs A=1.2 (A=1.5 pays more below M_x, less "
        f"above): {len(below_bad)} + {len(above_bad)} violations; "
        f"{'; '.join(details)} [{elapsed:.2f}s]"
    )
    assert not mono_bad, mono_bad[:3]
    assert not order_bad, order_bad[:3]
    assert elapsed < 10.0
    assert not cf_bad, (
        "swept trV outside [trV_cf(p*), trV_cf(p* - epsilon)] (channel, M, "
        f"low, swept, high): {cf_bad[:3]}"
    )
    assert len(crossings) == len(channels), (
        f"closed-form curves must cross exactly once in (2, 100): {flip_counts}"
    )
    assert not above_bad, (
        "above M_x the a = 1.5 plant must pay no more than a = 1.2 (channel, "
        f"M_x, M, trV[1.5], trV[1.2]): {above_bad[:3]}"
    )
    assert not below_bad, (
        "below M_x the a = 1.5 plant must pay no less than a = 1.2 (channel, "
        f"M_x, M, trV[1.5], trV[1.2]): {below_bad[:3]}"
    )
    assert not limit_bad, (
        f"as M -> inf the a = 1.5 ceiling must lie below a = 1.2: {limit_bad}"
    )


def test_criterion_7_phase_transition_monte_carlo():
    t0 = time.perf_counter()
    lin = _scalar_lin()
    mech = Mechanism(1.0)
    ratios = {}
    diverged = {}
    plateaued = {}
    for rate in (0.25, 0.30):
        curve = expected_error_curve(lin, mech, rate, T=300, runs=2000, seed=42)
        diverged[rate] = meets_divergence_criterion(curve)
        ratios[rate] = curve.mean_trP[300] / curve.mean_trP[30]
    for rate in (0.35, 0.46, 0.90):
        curve = expected_error_curve(lin, mech, rate, T=300, runs=2000, seed=42)
        plateaued[rate] = meets_plateau_criterion(curve)
        ratios[rate] = curve.mean_trP[300] / curve.mean_trP[150]
    elapsed = time.perf_counter() - t0
    ok = all(diverged.values()) and all(plateaued.values()) and elapsed < 60.0
    detail_d = ", ".join(f"{r}: x{ratios[r]:.3g}" for r in (0.25, 0.30))
    detail_p = ", ".join(f"{r}: x{ratios[r]:.3g}" for r in (0.35, 0.46, 0.90))
    record_acceptance(
        f"criterion 7: {'PASS' if ok else 'FAIL'} - divergent rates "
        f"(k300/k30 > 10) {detail_d}; plateau rates (k300/k150 <= 1.2) "
        f"{detail_p} [{elapsed:.2f}s]"
    )
    assert all(diverged.values()), diverged
    assert all(plateaued.values()), plateaued
    assert elapsed < 60.0


def test_criterion_8_secrecy_demonstration():
    t0 = time.perf_counter()
    lin = _scalar_lin()
    ch = ChannelParams(0.9, 0.6)
    interval = secrecy_interval(lin, ch)
    inside = interval.lower_exclusive < 0.45 <= interval.upper_inclusive
    mech = Mechanism(0.45)
    user = expected_error_curve(lin, mech, ch.p1, T=300, runs=2000, seed=42)
    eav = expected_error_curve(lin, mech, ch.p2, T=300, runs=2000, seed=42)
    user_ok = meets_plateau_criterion(user)
    eav_ok = meets_divergence_criterion(eav)
    u_ratio = user.mean_trP[300] / user.mean_trP[150]
    e_ratio = eav.mean_trP[300] / eav.mean_trP[30]
    elapsed = time.perf_counter() - t0
    ok = inside and user_ok and eav_ok and elapsed < 60.0
    record_acceptance(
        f"criterion 8: {'PASS' if ok else 'FAIL'} - p=0.45 in "
        f"({interval.lower_exclusive:.5f}, {interval.upper_inclusive:.5f}]; "
        f"user k300/k150 = {u_ratio:.3f} (<=1.2), eavesdropper k300/k30 = "
        f"{e_ratio:.3g} (>10) [{elapsed:.2f}s]"
    )
    assert inside
    assert user_ok, f"user curve did not plateau (ratio {u_ratio})"
    assert eav_ok, f"eavesdropper curve did not diverge (ratio {e_ratio})"
    assert elapsed < 60.0


def test_criterion_9_sample_path_secrecy_signatures():
    t0 = time.perf_counter()
    lin = _second_order()
    ch = ChannelParams(0.9, 0.6)
    runs, T = 200, 200
    u51, e51, u1, e1 = [], [], [], []
    all_events = []
    runs_with_events = 0
    for r in range(runs):
        seed = 42 + r
        t51 = simulate_trace(lin, Mechanism(0.51), ch, T, seed)
        t100 = simulate_trace(lin, Mechanism(1.0), ch, T, seed)
        u51.append(float(np.mean(t51.trP1[1:])))
        e51.append(float(np.mean(t51.trP2[1:])))
        u1.append(float(np.mean(t100.trP1[1:])))
        e1.append(float(np.mean(t100.trP2[1:])))
        events = collapse_events(t51)
        if events:
            runs_with_events += 1
        all_events.extend(events)
    eav_ratio = float(np.median(e51) / np.median(e1))
    user_ratio = float(np.median(u51) / np.median(u1))
    factors = [before / after for _, before, after in all_events]
    min_factor = min(factors) if factors else float("nan")
    weak_events = sum(f < 10.0 for f in factors)
    elapsed = time.perf_counter() - t0
    ok = (bool(all_events) and weak_events == 0 and runs_with_events >= 100
          and eav_ratio >= 10.0 and user_ratio <= 10.0 and elapsed < 120.0)
    record_acceptance(
        f"criterion 9: {'PASS' if ok else 'FAIL'} - {len(all_events)} collapse "
        f"events in {runs_with_events}/{runs} runs, min drop factor "
        f"{min_factor:.3g} (>=10); median time-avg covariance ratio p=0.51 vs "
        f"p=1: eavesdropper x{eav_ratio:.2f} (>=10), user x{user_ratio:.2f} "
        f"(<=10) [{elapsed:.2f}s]"
    )
    assert all_events, "no interception after >=10 misses in any run"
    assert weak_events == 0, f"{weak_events} events dropped by less than 10x"
    assert runs_with_events >= 100
    assert eav_ratio >= 10.0
    assert user_ratio <= 10.0
    assert elapsed < 120.0
