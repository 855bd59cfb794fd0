"""The secest benchmark workloads: inputs, operations and correctness checks.

Every workload is a closed loop with one client: the benchmark issues one
operation, waits for it to return, then issues the next. The inputs come
from the workload seed alone; the package sees only the generated inputs.
A workload builds a fixed batch of operations (one *pass*); the runner
repeats identical passes, so every pass does the same work and the
per-layer counts of one pass repeat exactly for a given seed.

Checks run outside the timed region and compare each answer with an
independent route from :mod:`oracles`.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# p_upper's default bisection tolerance; the conservative invariant is
# p_upper >= threshold - tol.
P_UPPER_TOL = 1e-6
# Agreement required between a package answer and its independent route.
AGREE_RTOL = 1e-8


@dataclass
class Verdict:
    failures: list[str] = field(default_factory=list)
    # Relative error against the workload's independent route, feeding
    # accuracy_digits; None when the operation has none.
    rel_err: float | None = None


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    fingerprint: Callable[[object], str]


def _sha(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _spread(rng, lo: float, hi: float, k: int) -> np.ndarray:
    """k values, one from the middle 80 % of each of k equal slices of [lo, hi]."""
    width = (hi - lo) / k
    left = lo + width * np.arange(k)
    return rng.uniform(left + 0.1 * width, left + 0.9 * width)


def _unstable_plant(rng, n: int, unstable, m: int | None):
    """A, C, Q, R with distinct real eigenvalues: ``unstable`` plus n - len(unstable) in (-0.8, 0.8).

    A = T diag(eig) T^-1 with T a small perturbation of the identity; C is
    m x n Gaussian, or a small perturbation of the identity when m is None.
    Nothing is drawn by rejection, so generating a plant costs the same for
    every seed.
    """
    eig = np.concatenate([unstable, _spread(rng, -0.8, 0.8, n - len(unstable))])
    T = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
    A = T @ np.diag(eig) @ np.linalg.inv(T)
    if m is None:
        C = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
        R = np.eye(n) * rng.uniform(0.5, 2.0)
    else:
        C = rng.standard_normal((m, n))
        R = np.eye(m) * rng.uniform(0.5, 2.0)
    G = rng.standard_normal((n, n))
    Q = G @ G.T / n + 0.5 * np.eye(n)
    return A, C, Q, R


def _observable(A, C) -> bool:
    n = A.shape[0]
    blocks = [C @ np.linalg.matrix_power(A, k) for k in range(n)]
    return bool(np.linalg.matrix_rank(np.vstack(blocks)) == n)


def _system_doc(A, C, Q, R, Sigma0) -> dict:
    return {k: np.asarray(v, dtype=float).tolist()
            for k, v in (("A", A), ("C", C), ("Q", Q), ("R", R), ("Sigma0", Sigma0))}


class ColdDesign:
    """CLI subcommands in-process, each against a freshly parsed config.

    Why: every ``secest.cli.main`` call builds a new LinearSystem and so pays
    a cold ``p_upper``, exactly as each CLI user does. Most of the time goes
    to ``bounds.p_upper`` -> ``feasibility_check`` -> ``kalman.riccati_map``;
    ``linmodel`` does little and ``montecarlo`` is bypassed. The ``bounds``
    call sits just above the user threshold p_upper/p1, where ``solve_V`` is
    slowest, so it sets the tail.

    Plants: the shipped ``configs/second_order.json`` plus seeded plants of
    the same kind (single output, two distinct real unstable eigenvalues,
    observable), with n = 3 and n = 4. The rank-one closed form
    1 - 1/prod|lambda_u|^2 is the independent route for p_upper.
    """

    name = "cold-design"
    # Unstable eigenvalues near second_order's (1.2, 1.1): a cold p_upper then
    # costs about the same on every plant, so the seed varies the inputs
    # more than the work.
    UNSTABLE = ((1.17, 1.23), (1.07, 1.13))

    def __init__(self, pkg, root: Path, workdir: Path, seed: int, tiny: bool):
        self.pkg, self.root, self.workdir = pkg, root, workdir
        self.seed, self.tiny = seed, tiny

    def _plants(self, rng) -> list[dict]:
        if self.tiny:
            # Scalar plants: the same three commands at a fraction of the cost.
            plants = []
            for i in range(3):
                a = rng.uniform(1.1, 1.3)
                plants.append({"name": f"scalar{i}", "A": [[a]], "C": [[1.0]],
                               "Q": [[1.0]], "R": [[rng.uniform(0.5, 2.0)]], "Sigma0": [[1.0]],
                               "channel": {"p1": rng.uniform(0.85, 0.95),
                                           "p2": rng.uniform(0.55, 0.7)}})
            return plants
        shipped = json.loads((self.root / "configs" / "second_order.json").read_text())
        plants = [{"name": "second_order", **shipped["system"], "channel": shipped["channel"]}]
        for n in (3, 4):
            unstable = [rng.uniform(lo, hi) for lo, hi in self.UNSTABLE]
            A, C, Q, R = _unstable_plant(rng, n, unstable, m=1)
            while not _observable(A, C):
                A, C, Q, R = _unstable_plant(rng, n, unstable, m=1)
            plants.append({"name": f"seeded_n{n}", **_system_doc(A, C, Q, R, Q),
                           "channel": {"p1": rng.uniform(0.85, 0.95), "p2": rng.uniform(0.55, 0.7)}})
        return plants

    def setup(self) -> list[Op]:
        rng = np.random.default_rng(self.seed)
        plants = self._plants(rng)
        for i, plant in enumerate(plants):
            sysdoc = {k: plant[k] for k in ("A", "C", "Q", "R", "Sigma0")}
            plant["A"] = np.atleast_2d(np.asarray(plant["A"], dtype=float))
            plant["Q"] = np.atleast_2d(np.asarray(plant["Q"], dtype=float))
            plant["path"] = self.workdir / f"cold-{i}-{plant['name']}.json"
            plant["path"].write_text(json.dumps(
                {"schema_version": 1, "system": sysdoc, "channel": plant["channel"]}))
            plant["threshold"] = oracles.single_output_threshold(plant["A"])
        # One command per plant: interval on the first, design on the second,
        # bounds on the third.
        interval_plant, design_plant, bounds_plant = plants
        tr1 = oracles.floor_trace(design_plant["A"], design_plant["Q"], design_plant["channel"]["p2"])
        M = tr1 * rng.uniform(1.5, 4.0)
        # Just above the user threshold: effective rate 1-1.5 % over the
        # closed form, which clears p_upper's conservative excess.
        p = bounds_plant["threshold"] * (1.0 + rng.uniform(0.01, 0.015)) / bounds_plant["channel"]["p1"]
        return [
            self._op("interval", interval_plant, []),
            self._op("design", design_plant, ["--secrecy-floor", repr(float(M))]),
            self._op("bounds", bounds_plant, ["--p", repr(float(p))]),
        ]

    def _op(self, command: str, plant: dict, extra: list[str]) -> Op:
        argv = [command, "--config", str(plant["path"]), *extra]
        cli = self.pkg.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        return Op(kind=f"{command}:{plant['name']}", run=run,
                  check=lambda res: self._check(command, plant, res),
                  fingerprint=lambda res: _sha(*res))

    _KEYS = {
        "interval": {"lower_exclusive", "upper_inclusive", "empty", "conservative",
                     "user_nominal_bounded", "exact", "p_lower", "p_upper"},
        "design": {"p_star", "trS_at_p_star", "trV_at_p_star", "trV_infinite", "M",
                   "epsilon", "iterations", "rates", "interval"},
        "bounds": {"p", "effective_rate_user", "effective_rate_eavesdropper", "p_lower",
                   "p_upper", "trS", "trS_finite", "trV", "trV_finite"},
    }

    def _check(self, command: str, plant: dict, res) -> Verdict:
        rc, out, err = res
        if rc != 0:
            return Verdict([f"exit code {rc}: {err.strip()[:300]}"])
        result = json.loads(out)["result"]
        missing = self._KEYS[command] - set(result)
        if missing:
            return Verdict([f"missing result keys {sorted(missing)}"])
        v = Verdict()
        rates = result["rates"] if command == "design" else result
        pl, pu = float(rates["p_lower"]), float(rates["p_upper"])
        A, Q = plant["A"], plant["Q"]
        p1, p2 = plant["channel"]["p1"], plant["channel"]["p2"]
        thr = plant["threshold"]
        if not pl <= pu:
            v.failures.append(f"p_lower {pl!r} > p_upper {pu!r}")
        if pu < thr - P_UPPER_TOL:
            v.failures.append(f"p_upper {pu!r} below the closed-form threshold {thr!r}")
        if abs(pl - oracles.open_loop_threshold(A)) > AGREE_RTOL * pl:
            v.failures.append(f"p_lower {pl!r} != 1 - 1/rho^2")
        if command == "design":
            p_star, M = float(result["p_star"]), float(result["M"])
            eps = float(result["epsilon"])
            trS = float(result["trS_at_p_star"])
            ref = oracles.floor_trace(A, Q, p_star * p2)
            if not trS >= M:
                v.failures.append(f"Tr S(p*) = {trS!r} < M = {M!r}")
            if not math.isclose(trS, ref, rel_tol=AGREE_RTOL):
                v.failures.append(f"Tr S(p*) = {trS!r} vs independent {ref!r}")
            if p_star < 1.0 and not oracles.floor_trace(A, Q, min(p_star + 2 * eps, 1.0) * p2) < M:
                v.failures.append(f"p* = {p_star!r} is not the largest feasible p")
            if bool(result["trV_infinite"]) == (p_star * p1 > pu):
                v.failures.append(f"trV infinite = {result['trV_infinite']} at p* p1 = {p_star * p1!r}, p_upper = {pu!r}")
        if command == "bounds":
            p = float(result["p"])
            if bool(result["trV_finite"]) != (p * p1 > pu):
                v.failures.append(f"trV finite = {result['trV_finite']} at p p1 = {p * p1!r}, p_upper = {pu!r}")
            trS, ref = float(result["trS"]), oracles.floor_trace(A, Q, p * p2)
            if not (math.isinf(trS) and math.isinf(ref)) and not math.isclose(trS, ref, rel_tol=AGREE_RTOL):
                v.failures.append(f"Tr S(p) = {trS!r} vs independent {ref!r}")
        v.rel_err = abs(pu - thr) / thr
        return v


class HeldSweep:
    """Library ``sweep_tradeoff`` calls on plants held across the run.

    Why: the time goes to ``designer`` bisection and
    ``linmodel.solve_discounted_lyapunov`` (22 floor solves per design);
    ``p_upper`` probing and ``montecarlo`` are bypassed. ``p_upper`` is
    cached here (warmed at set-up), so this workload exercises ``bounds`` the
    opposite way to cold-design: a change that speeds the cold path at the
    warm path's cost shows up.

    Plants: seeded, square invertible C (so the critical-rate bracket
    closes), n = 8, 13, 18, 23, 27. The n^2 x n^2 Kronecker matrix grows
    from 32 KiB to 4.3 MB: from well inside a 2 MiB-per-core L2 to beyond a
    4 MiB one. Each sweep is a seeded increasing grid of targets from just
    above Tr S(1) to about 50 x.
    """

    name = "held-sweep"
    SIZES = (8, 13, 18, 23, 27)
    TINY_SIZES = (3, 4)
    GRID_POINTS = 3
    # The shipped configs' channel. Fixed, because p2 sets how many bisection
    # probes fall below the floor's threshold and skip the Lyapunov solve.
    CHANNEL = (0.9, 0.6)

    def __init__(self, pkg, root: Path, workdir: Path, seed: int, tiny: bool):
        self.pkg, self.seed, self.tiny = pkg, seed, tiny

    def setup(self) -> list[Op]:
        rng = np.random.default_rng(self.seed)
        ops = []
        for n in (self.TINY_SIZES if self.tiny else self.SIZES):
            unstable = _spread(rng, 1.02, 1.15, min(3, n - 1))
            A, C, Q, R = _unstable_plant(rng, n, unstable, m=None)
            sys = self.pkg.LinearSystem(A=A, C=C, Q=Q, R=R, Sigma0=Q)
            if not self.pkg.validate_system(sys).ok:
                raise RuntimeError(f"generated plant n={n} fails validation")
            ch = self.pkg.ChannelParams(*self.CHANNEL)
            self.pkg.p_upper(sys)
            tr1 = oracles.floor_trace(A, Q, ch.p2)
            inner = np.sort(np.exp(rng.uniform(math.log(2.0), math.log(40.0), self.GRID_POINTS - 2)))
            grid = tr1 * np.concatenate([[1.0 + rng.uniform(0.005, 0.02)], inner,
                                         [rng.uniform(45.0, 55.0)]])
            ops.append(self._op(n, sys, ch, tuple(float(M) for M in grid)))
        return ops

    def _op(self, n, sys, ch, grid) -> Op:
        designer = self.pkg.designer
        return Op(kind=f"sweep:n{n}",
                  run=lambda: designer.sweep_tradeoff(sys, ch, grid),
                  check=lambda curve: self._check(sys, ch, grid, curve),
                  fingerprint=lambda curve: _sha(curve.points))

    def _check(self, sys, ch, grid, curve) -> Verdict:
        v = Verdict()
        eps = 1e-6  # sweep_tradeoff's default epsilon
        pts = curve.points
        if tuple(pt.M for pt in pts) != grid:
            return Verdict([f"curve targets {[pt.M for pt in pts]} != grid {list(grid)}"])
        # sweep_tradeoff's own consistency rules, restated.
        for prev, cur in zip(pts, pts[1:]):
            if cur.p_star > prev.p_star + eps:
                v.failures.append(f"p* rose from {prev.p_star!r} to {cur.p_star!r}")
            if math.isinf(prev.trV) and not math.isinf(cur.trV):
                v.failures.append(f"trV finite at M={cur.M!r} after infinite")
            if not math.isinf(cur.trV):
                slack = 1e-8 * max(1.0, abs(prev.trV)) + 2.0 * eps * max(1.0, abs(prev.trV))
                if cur.trV < prev.trV - slack:
                    v.failures.append(f"trV fell from {prev.trV!r} to {cur.trV!r}")
        if not self.pkg.bounds.critical_rates(sys).exact:
            v.failures.append("critical-rate bracket not exact for invertible C")
        A, C, Q, R = sys.A, sys.C, sys.Q, sys.R
        worst = 0.0
        for pt in pts:
            rate_s, rate_v = pt.p_star * ch.p2, pt.p_star * ch.p1
            ref = oracles.floor_trace(A, Q, rate_s)
            if not pt.trS >= pt.M:
                v.failures.append(f"Tr S(p*) = {pt.trS!r} < M = {pt.M!r}")
            if not math.isclose(pt.trS, ref, rel_tol=AGREE_RTOL):
                v.failures.append(f"Tr S(p*) = {pt.trS!r} vs independent {ref!r}")
            S = self.pkg.bounds.solve_S(pt.p_star, ch, sys).matrix
            worst = max(worst, oracles.rel_residual(S, (1.0 - rate_s) * A @ S @ A.T + Q))
            V = self.pkg.bounds.solve_V(pt.p_star, ch, sys)
            if not V.finite or not math.isclose(V.trace, pt.trV, rel_tol=1e-12):
                v.failures.append(f"trV {pt.trV!r} vs solve_V {V.trace!r} at p* = {pt.p_star!r}")
                continue
            worst = max(worst, oracles.rel_residual(V.matrix, oracles.riccati(V.matrix, A, C, Q, R, rate_v)))
        v.rel_err = worst
        return v


class SamplePaths:
    """Monte Carlo on the shipped plants.

    Why: the time goes to the per-step ``montecarlo`` loop,
    ``kalman.kalman_gain``, ``kalman.riccati_map`` at lambda in {0, 1}, and
    ``channel.RngStream`` construction (5 per trace, ``runs`` per curve).
    ``bounds`` and ``linmodel`` are bypassed. A batched filter would trade
    time for memory here, which peak_rss_mb shows.

    Per shipped config: paired ``simulate_trace`` runs at p = 0.51 and
    p = 1.0 for two seeds derived from the workload seed (T = 300), each
    followed by ``collapse_events``; ``expected_error_curve`` at two
    effective rates straddling the closed-form threshold (runs = 2000,
    T = 300); and one in-process ``secest simulate`` CLI call (p = 0.51,
    T = 300), which parses and validates the config afresh, so the ``cli``
    layer is measured here. Each trace, curve and CLI call is one operation.
    """

    name = "sample-paths"
    CONFIGS = ("second_order.json", "scalar.json", "scalar_p1_0.9_p2_0.6.json")
    TRACE_PS = (0.51, 1.0)

    def __init__(self, pkg, root: Path, workdir: Path, seed: int, tiny: bool):
        self.pkg, self.root, self.seed, self.tiny = pkg, root, seed, tiny
        self.T, self.runs = (30, 50) if tiny else (300, 2000)

    def setup(self) -> list[Op]:
        rng = np.random.default_rng(self.seed)
        ops = []
        for cfg_name in self.CONFIGS[1:2] if self.tiny else self.CONFIGS:
            cfg = self.pkg.cli.load_config(str(self.root / "configs" / cfg_name))
            sys, ch = cfg.system, cfg.channel
            for trace_seed in rng.integers(0, 2**31 - 1, 2):
                for p in self.TRACE_PS:
                    ops.append(self._trace_op(cfg_name, sys, ch, p, int(trace_seed)))
            thr = oracles.single_output_threshold(sys.A)
            for sign in (-1.0, 1.0):
                rate = thr * (1.0 + sign * rng.uniform(0.05, 0.15))
                ops.append(self._curve_op(cfg_name, sys, rate, int(rng.integers(0, 2**31 - 1))))
            ops.append(self._cli_op(cfg_name, ch, self.TRACE_PS[0], int(rng.integers(0, 2**31 - 1))))
        return ops

    def _cli_op(self, cfg_name, ch, p, seed) -> Op:
        argv = ["simulate", "--config", str(self.root / "configs" / cfg_name),
                "--p", repr(p), "--steps", str(self.T), "--seed", str(seed)]
        cli = self.pkg.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        return Op(kind=f"cli-simulate:{cfg_name}", run=run,
                  check=lambda res: self._check_cli(ch, p, seed, res),
                  fingerprint=lambda res: _sha(*res))

    def _check_cli(self, ch, p, seed, res) -> Verdict:
        rc, out, err = res
        if rc != 0:
            return Verdict([f"exit code {rc}: {err.strip()[:300]}"])
        result = json.loads(out)["result"]
        v = Verdict()
        _, gamma1, gamma2 = self._replay(seed, p, ch)
        want = {"p": p, "steps": self.T, "seed": seed,
                "receptions_user": int(gamma1.sum()),
                "receptions_eavesdropper": int(gamma2.sum())}
        for key, value in want.items():
            if result.get(key) != value:
                v.failures.append(f"{key} = {result.get(key)!r}, expected {value!r}")
        for key in ("time_avg_err_user", "time_avg_err_eavesdropper"):
            value = result.get(key)
            if not (isinstance(value, float) and math.isfinite(value) and value > 0.0):
                v.failures.append(f"{key} = {value!r} is not a positive finite error")
        return v

    def _replay(self, seed, p, ch):
        """The coin and both erasure links, rebuilt from Philox streams 2, 3, 4.

        The seeded replay is a contract.
        """
        T = self.T
        sent = oracles.philox_uniforms(seed, 2, T + 1) < p
        gamma1 = sent & (oracles.philox_uniforms(seed, 3, T + 1) < ch.p1)
        gamma2 = sent & (oracles.philox_uniforms(seed, 4, T + 1) < ch.p2)
        return sent, gamma1, gamma2

    def _trace_op(self, cfg_name, sys, ch, p, seed) -> Op:
        mc, mech, T = self.pkg.montecarlo, self.pkg.Mechanism(p), self.T

        def run():
            trace = mc.simulate_trace(sys, mech, ch, T, seed)
            return trace, mc.collapse_events(trace)

        def fingerprint(res):
            tr, events = res
            return _sha(*(np.ascontiguousarray(a).tobytes() for a in
                          (tr.sent, tr.gamma1, tr.gamma2, tr.trP1, tr.trP2, tr.err1, tr.err2)), events)

        return Op(kind=f"trace:{cfg_name}:p{p}", run=run,
                  check=lambda res: self._check_trace(sys, ch, p, seed, res),
                  fingerprint=fingerprint)

    def _check_trace(self, sys, ch, p, seed, res) -> Verdict:
        tr, events = res
        v = Verdict()
        T = self.T
        sent, gamma1, gamma2 = self._replay(seed, p, ch)
        for label, got, want in (("sent", tr.sent, sent), ("gamma1", tr.gamma1, gamma1),
                                 ("gamma2", tr.gamma2, gamma2)):
            if not np.array_equal(np.asarray(got, dtype=bool), want):
                v.failures.append(f"{label} differs from the Philox replay (seed {seed})")
        worst = 0.0
        for label, trP, gam in (("trP1", tr.trP1, gamma1), ("trP2", tr.trP2, gamma2)):
            path = self.pkg.kalman.batch_covariance_oracle(sys, gam[:T])
            ref = np.concatenate([[np.trace(sys.Sigma0)], np.trace(path, axis1=1, axis2=2)])
            err = oracles.relerr(trP, ref)
            worst = max(worst, err)
            if not err <= AGREE_RTOL:
                v.failures.append(f"{label} vs batch_covariance_oracle: relative error {err:.3g}")
        if events != oracles.collapse_events(tr.gamma2, tr.trP2):
            v.failures.append("collapse_events differs from the independent scan")
        v.rel_err = worst
        return v

    def _curve_op(self, cfg_name, sys, rate, seed) -> Op:
        mc, mech, T, runs = self.pkg.montecarlo, self.pkg.Mechanism(1.0), self.T, self.runs
        return Op(kind=f"curve:{cfg_name}",
                  run=lambda: mc.expected_error_curve(sys, mech, rate, T, runs, seed),
                  check=lambda curve: self._check_curve(sys, rate, seed, curve),
                  fingerprint=lambda curve: _sha(np.ascontiguousarray(curve.mean_trP).tobytes()))

    def _check_curve(self, sys, rate, seed, curve) -> Verdict:
        T, runs = self.T, self.runs
        received = np.empty((runs, T), dtype=bool)
        for r in range(runs):
            received[r] = oracles.philox_uniforms(seed, 5 + r, T) < rate
        frac = received.mean(axis=0)
        P = np.array(sys.Sigma0, dtype=float)
        ref = [np.trace(P)]
        for k in range(T):
            P = oracles.riccati(P, sys.A, sys.C, sys.Q, sys.R, float(frac[k]))
            ref.append(np.trace(P))
        err = oracles.relerr(curve.mean_trP, ref)
        if not err <= AGREE_RTOL:
            return Verdict([f"averaged curve vs independent recursion: relative error {err:.3g}"])
        return Verdict()


WORKLOADS = {cls.name: cls for cls in (ColdDesign, HeldSweep, SamplePaths)}
