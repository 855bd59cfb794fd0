"""Run one secest benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold-design --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout. With ``--trace 0`` the run repeats the
workload's fixed batch of operations (a pass) until ``--seconds`` is spent
and reports the end-to-end metrics. With ``--trace 1`` it alternates an
untraced and a traced pass and reports the per-layer metrics and
``trace.overhead_frac``. Every operation is checked against an independent
route outside the timed region. The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when a check failed and 2 when the run could not start.
See NOTES.md for the metric definitions.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: at default threading the OpenBLAS pool's
# start-up, not the solver, dominates small dense solves (NOTES.md).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
# Spans stay in memory until the run ends; this caps them when passes are fast.
MAX_TRACED_PASSES = 20
ACCURACY_CAP = 16.0

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}


class StartError(Exception):
    """The benchmark cannot run in this directory."""


SRC = ROOT / "src"
# Times the package import in a fresh interpreter, numpy already loaded.
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
    "t = time.perf_counter(); import secest, secest.cli; "
    "print(time.perf_counter() - t)"
)


def import_package():
    """Import secest from this checkout's src/."""
    if not (SRC / "secest" / "__init__.py").is_file():
        raise StartError(f"no secest package under {SRC}")
    sys.path.insert(0, str(SRC))
    import secest
    import secest.cli  # noqa: F401
    if Path(secest.__file__).resolve().parent != (SRC / "secest").resolve():
        raise StartError(f"secest imported from {secest.__file__}, not from {SRC}")
    return secest


def import_seconds() -> float:
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def blas_warmup():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96)) + 96.0 * np.eye(96)
    np.linalg.solve(a @ a.T, np.ones(96))
    np.linalg.eigvals(a)


def op_tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten operations beyond it.

    With fewer than 100 operations that percentile lies below p90, too close
    to the median to be a tail, so the maximum is reported instead
    (percentile 100). The latencies are per-operation bests, so the maximum
    is the slowest operation, not a noise outlier.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n >= 100:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


def digits(rel_err: float) -> float:
    if rel_err <= 0.0:
        return ACCURACY_CAP
    return min(ACCURACY_CAP, -math.log10(rel_err))


class Runner:
    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.verdicts: dict[int, tuple] = {}
        # Latencies of operation i, one per pass, untraced and traced.
        self.samples = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.op_records: list[tuple[int, float, float, bool]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rel_errs: list[float] = []

    def best(self, traced: bool = False) -> list[float]:
        """Each operation's fastest repetition across passes."""
        return [min(samples) for samples in self.samples[traced]]

    def run_pass(self, traced: bool):
        results = []
        if traced:
            self.tracer.install()
        try:
            for op in self.ops:
                op_id = len(self.op_records)
                if traced:
                    self.tracer.op_id = op_id
                t0 = perf_counter()
                try:
                    res = op.run()
                except Exception as exc:  # a failing operation is counted, not fatal
                    res = exc
                t1 = perf_counter()
                self.op_records.append((op_id, t0, t1, traced))
                results.append(res)
                self.samples[traced][len(results) - 1].append(t1 - t0)
        finally:
            if traced:
                self.tracer.op_id = -1
                self.tracer.uninstall()
        for i, (op, res) in enumerate(zip(self.ops, results)):
            self._check(i, op, res)

    def _check(self, i, op, res):
        self.attempted += 1
        if isinstance(res, Exception):
            failures, rel_err = [f"raised {type(res).__name__}: {res}"], None
        else:
            fp = op.fingerprint(res)
            cached = self.verdicts.get(i)
            if cached is not None and cached[0] == fp:
                _, failures, rel_err = cached
            else:
                try:
                    verdict = op.check(res)
                    failures, rel_err = verdict.failures, verdict.rel_err
                except Exception:  # a check that cannot run is a failed check
                    failures, rel_err = [traceback.format_exc(limit=3)], None
                self.verdicts[i] = (fp, failures, rel_err)
        if failures:
            self.failed += 1
            self.failures.extend(f"{op.kind}: {msg}" for msg in failures)
        if rel_err is not None:
            self.rel_errs.append(rel_err)


def measure(runner: Runner, seconds: float, trace: bool):
    """Repeat passes while the next one is expected to fit in ``seconds``.

    A traced run alternates an untraced and a traced pass, and stops after
    MAX_TRACED_PASSES traced passes.
    """
    passes, traced_ranges = 0, []
    t_begin = perf_counter()
    while True:
        t_round = perf_counter()
        runner.run_pass(traced=False)
        passes += 1
        if trace:
            lo = len(runner.tracer)
            runner.run_pass(traced=True)
            traced_ranges.append((lo, len(runner.tracer)))
        round_s = perf_counter() - t_round
        if (perf_counter() - t_begin + round_s > seconds
                or len(traced_ranges) >= MAX_TRACED_PASSES):
            return passes, traced_ranges


def write_spans(path: Path, tracer, runner: Runner):
    sp = tracer.arrays()
    ops = np.array([(i, t0, t1, tr) for i, t0, t1, tr in runner.op_records],
                   dtype=[("op", "i4"), ("start", "f8"), ("end", "f8"), ("traced", "?")])
    np.savez(path, names=np.array(tracer.names), ops=ops, **sp)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-design", "held-sweep", "sample-paths"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="directory for the span dump and scratch configs")
    args = parser.parse_args(argv)

    try:
        pkg = import_package()
    except (StartError, ImportError) as exc:
        print(f"cannot start: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import tracer as tracer_mod
    from workloads import WORKLOADS

    env = environment()
    print("env " + json.dumps(env))
    args.out.mkdir(parents=True, exist_ok=True)
    workdir = args.out / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](pkg, ROOT, workdir, args.seed, args.size == "tiny")
        # One set-up: the package import in a fresh interpreter, then input
        # generation, config writing, plant building and a BLAS warm-up.
        setup_times = []
        for _ in range(SETUP_REPEATS):
            import_s = import_seconds()
            t0 = perf_counter()
            ops = workload.setup()
            blas_warmup()
            setup_times.append(import_s + perf_counter() - t0)
        setup_s = statistics.median(setup_times)

        tracer = tracer_mod.Tracer() if args.trace else None
        runner = Runner(ops, tracer)
        passes, traced_ranges = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in runner.failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    accuracy = min((digits(e) for e in runner.rel_errs), default=ACCURACY_CAP)
    print(f"workload {args.workload} seed {args.seed} passes {passes} "
          f"ops/pass {len(ops)} attempted {runner.attempted} failed {runner.failed} "
          f"failed_frac {runner.failed / runner.attempted:.6g}")

    # Passes are identical, so each operation's fastest repetition is its
    # latency with the least interference from the rest of the host.
    best = runner.best()
    if args.trace:
        per_pass = [tracer_mod.layer_metrics(tracer, lo, hi) for lo, hi in traced_ranges]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_frac"] = sum(runner.best(traced=True)) / sum(best) - 1.0
        units = tracer_mod.LAYER_METRICS
        spans_path = args.out / f"spans-{args.workload}.npz"
        write_spans(spans_path, tracer, runner)
        print(f"spans {spans_path} ({len(tracer)} spans, {len(traced_ranges)} traced passes)")
    else:
        tail, pct = op_tail(best)
        values = {
            "wall_s": sum(best),
            "op_p50_ms": 1e3 * statistics.median(best),
            "op_tail_ms": 1e3 * tail,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": accuracy,
        }
        units = END_TO_END
        print(f"op_tail_ms is p{pct:.4g} of {len(best)} operations, each the best of "
              f"{passes} passes; setup_s is the median of {SETUP_REPEATS} set-ups")

    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
