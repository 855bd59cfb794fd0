"""Span tracer that instruments the secest package from outside.

Every public function of a traced module is wrapped once, and every
module-global binding of it anywhere in the package is pointed at the
wrapper: ``secest.bounds.riccati_map``, ``secest.montecarlo.riccati_map``
and ``secest.kalman.riccati_map`` all become the same traced callable.
``channel.RngStream`` is a class, so its ``__init__`` is wrapped instead.
No file of the package changes; :meth:`Tracer.uninstall` restores every
binding.

Spans (name, start, end, parent, operation id) live in flat in-memory
arrays and are written out once, when the run ends. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# Layers are the package modules. `scalar` serves only as an oracle and
# `errors` does no work, so neither is traced.
LAYERS = ("cli", "designer", "bounds", "kalman", "linmodel", "montecarlo", "channel")

# Extra integer recorded per span, read from the call's arguments: the state
# dimension of a Lyapunov solve, the horizon of a simulated trace.
_SIZE_OF = {
    "linmodel.solve_discounted_lyapunov": lambda args, kwargs: int(np.shape(args[0] if args else kwargs["A"])[0]),
    "montecarlo.simulate_trace": lambda args, kwargs: int(args[3] if len(args) > 3 else kwargs["T"]),
}

FLAG_OK, FLAG_INCONCLUSIVE, FLAG_ERROR = 0, 1, 2


class Tracer:
    """Collects spans for calls into the package while installed."""

    def __init__(self, package: str = "secest"):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.flag = array("b")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.end)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, qualname: str):
        nid = self.name_id(qualname)
        size_of = _SIZE_OF.get(qualname)
        inconclusive = sys.modules[f"{self.package}.errors"].InconclusiveError
        name, parent, op, size, flag = self.name, self.parent, self.op, self.size, self.flag
        start, end, child, stack = self.start, self.end, self.child, self._stack

        def traced(*args, **kwargs):
            idx = len(end)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            size.append(size_of(args, kwargs) if size_of else -1)
            flag.append(FLAG_OK)
            end.append(0.0)
            child.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            except inconclusive:
                flag[idx] = FLAG_INCONCLUSIVE
                raise
            except BaseException:
                flag[idx] = FLAG_ERROR
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                end[idx] = t1
                if stack:
                    child[stack[-1]] += t1 - t0

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Point every module-global binding of a traced function at its wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = (value, self._wrap(value, f"{layer}.{attr}"))
        prefix = self.package + "."
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(prefix))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))
        rng_cls = sys.modules[f"{self.package}.channel"].RngStream
        init = rng_cls.__init__
        rng_cls.__init__ = self._wrap(init, "channel.RngStream")
        self._restore.append((rng_cls, "__init__", init))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        """Spans [lo, hi) as numpy arrays; parents stay absolute indices."""
        hi = len(self) if hi is None else hi
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[lo:hi].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[lo:hi].copy(),
            "op": np.frombuffer(self.op, dtype=np.int32)[lo:hi].copy(),
            "size": np.frombuffer(self.size, dtype=np.int64)[lo:hi].copy(),
            "flag": np.frombuffer(self.flag, dtype=np.int8)[lo:hi].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy(),
            "child": np.frombuffer(self.child, dtype=np.float64)[lo:hi].copy(),
        }


# Per-layer metrics reported by a traced run, with their units. Each comment
# names the end-to-end metric and workload the group should move.
LAYER_METRICS = {
    # cold-design wall_s / op_p50_ms; near 0 on sample-paths; hits high on held-sweep.
    "bounds.p_upper.calls": "count",
    "bounds.p_upper.s": "s",
    "bounds.p_upper.cache_hits": "count",
    "bounds.feasibility_check.calls": "count",
    "bounds.feasibility_check.s": "s",
    "bounds.probe_inconclusive_frac": "ratio",
    "kalman.riccati_map.calls": "count",
    "kalman.riccati_map.s": "s",
    # cold-design op_tail_ms (bounds near threshold); held-sweep op_p50_ms (small).
    "bounds.solve_V.calls": "count",
    "bounds.solve_V.s": "s",
    "bounds.riccati_per_solve_V": "ratio",
    # held-sweep wall_s / op_p50_ms; small on cold-design and sample-paths.
    "linmodel.solve_discounted_lyapunov.calls": "count",
    "linmodel.solve_discounted_lyapunov.s": "s",
    "linmodel.spectral_radius.calls": "count",
    "linmodel.spectral_radius.s": "s",
    "linmodel.lyap_flops_computed": "flop",
    "linmodel.lyap_bytes_computed": "B",
    # held-sweep wall_s.
    "designer.sweep_tradeoff.s": "s",
    "designer.design_p_star.calls": "count",
    "designer.design_p_star.self_s": "s",
    "designer.bisection_steps": "count",
    "designer.solve_S_per_design": "ratio",
    "bounds.critical_rates.calls": "count",
    "bounds.secrecy_interval.calls": "count",
    # sample-paths wall_s / op_p50_ms / peak_rss_mb.
    "montecarlo.simulate_trace.calls": "count",
    "montecarlo.simulate_trace.s": "s",
    "montecarlo.steps": "count",
    "montecarlo.expected_error_curve.calls": "count",
    "montecarlo.expected_error_curve.s": "s",
    "montecarlo.collapse_events.s": "s",
    "kalman.kalman_gain.calls": "count",
    "kalman.kalman_gain.s": "s",
    "channel.RngStream.constructed": "count",
    "channel.RngStream.init_s": "s",
    # sample-paths op_p50_ms (its CLI call) and cold-design; expected to stay small.
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.load_config.s": "s",
    # traced wall_s / untraced wall_s - 1.
    "trace.overhead_frac": "ratio",
}


def lyapunov_cost(n: np.ndarray) -> tuple[float, float]:
    """Flops and bytes of dense Kronecker Lyapunov solves, from array sizes.

    For state dimension n the solve factors the N x N matrix
    I - alpha (A kron A), N = n^2: 2N^3/3 flops for the LU, 2N^2 for the
    two triangular solves and N^2 to scale the Kronecker product. Bytes
    count the three N x N float64 arrays written once each (A kron A, I and
    the left-hand side). Computed, not measured.
    """
    N = n.astype(np.float64) ** 2
    flops = float(np.sum(2.0 * N ** 3 / 3.0 + 3.0 * N ** 2))
    nbytes = float(np.sum(3.0 * 8.0 * N ** 2))
    return flops, nbytes


def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics over spans [lo, hi), one traced pass of the batch.

    ``trace.overhead_frac`` needs the untraced run and is filled in by the
    caller.
    """
    sp = tracer.arrays(lo, hi)
    k = len(tracer.names)
    name, parent = sp["name"], sp["parent"]
    dur = sp["end"] - sp["start"]
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    self_t = np.bincount(name, weights=dur - sp["child"], minlength=k)
    local_parent = np.where(parent >= lo, parent - lo, -1)
    n_children = np.bincount(local_parent[local_parent >= 0], minlength=len(name))
    parent_name = np.where(local_parent >= 0, name[np.maximum(local_parent, 0)], -1)

    def nid(q: str) -> int:
        # -1 for a function never wrapped; it matches no span.
        return tracer._name_ids.get(q, -1)

    def count(q: str) -> float:
        i = nid(q)
        return float(calls[i]) if i >= 0 else 0.0

    def secs(q: str) -> float:
        i = nid(q)
        return float(incl[i]) if i >= 0 else 0.0

    def self_secs(q: str) -> float:
        i = nid(q)
        return float(self_t[i]) if i >= 0 else 0.0

    def children_of(child: str, par: str) -> float:
        if nid(child) < 0 or nid(par) < 0:
            return 0.0
        return float(np.sum((name == nid(child)) & (parent_name == nid(par))))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    is_pu = name == nid("bounds.p_upper")
    is_fc = name == nid("bounds.feasibility_check")
    is_lyap = name == nid("linmodel.solve_discounted_lyapunov")
    lyap_flops, lyap_bytes = lyapunov_cost(sp["size"][is_lyap])
    designs = count("designer.design_p_star")
    solve_s_in_design = children_of("bounds.solve_S", "designer.design_p_star")
    is_sim = name == nid("montecarlo.simulate_trace")

    out = {
        "bounds.p_upper.calls": count("bounds.p_upper"),
        "bounds.p_upper.s": secs("bounds.p_upper"),
        # A cached p_upper returns before calling anything traced.
        "bounds.p_upper.cache_hits": float(np.sum(is_pu & (n_children == 0))),
        "bounds.feasibility_check.calls": count("bounds.feasibility_check"),
        "bounds.feasibility_check.s": secs("bounds.feasibility_check"),
        "bounds.probe_inconclusive_frac": ratio(
            float(np.sum(is_fc & (sp["flag"] == FLAG_INCONCLUSIVE))), float(np.sum(is_fc))),
        "kalman.riccati_map.calls": count("kalman.riccati_map"),
        "kalman.riccati_map.s": secs("kalman.riccati_map"),
        "bounds.solve_V.calls": count("bounds.solve_V"),
        "bounds.solve_V.s": secs("bounds.solve_V"),
        "bounds.riccati_per_solve_V": ratio(
            children_of("kalman.riccati_map", "bounds.solve_V"), count("bounds.solve_V")),
        "linmodel.solve_discounted_lyapunov.calls": count("linmodel.solve_discounted_lyapunov"),
        "linmodel.solve_discounted_lyapunov.s": secs("linmodel.solve_discounted_lyapunov"),
        "linmodel.spectral_radius.calls": count("linmodel.spectral_radius"),
        "linmodel.spectral_radius.s": secs("linmodel.spectral_radius"),
        "linmodel.lyap_flops_computed": lyap_flops,
        "linmodel.lyap_bytes_computed": lyap_bytes,
        "designer.sweep_tradeoff.s": secs("designer.sweep_tradeoff"),
        "designer.design_p_star.calls": designs,
        "designer.design_p_star.self_s": self_secs("designer.design_p_star"),
        # design_p_star evaluates the floor at p = 1 and at p*, plus one
        # evaluation per bisection step.
        "designer.bisection_steps": max(solve_s_in_design - 2.0 * designs, 0.0),
        "designer.solve_S_per_design": ratio(solve_s_in_design, designs),
        "bounds.critical_rates.calls": count("bounds.critical_rates"),
        "bounds.secrecy_interval.calls": count("bounds.secrecy_interval"),
        "montecarlo.simulate_trace.calls": count("montecarlo.simulate_trace"),
        "montecarlo.simulate_trace.s": secs("montecarlo.simulate_trace"),
        "montecarlo.steps": float(np.sum(sp["size"][is_sim] + 1)),
        "montecarlo.expected_error_curve.calls": count("montecarlo.expected_error_curve"),
        "montecarlo.expected_error_curve.s": secs("montecarlo.expected_error_curve"),
        "montecarlo.collapse_events.s": secs("montecarlo.collapse_events"),
        "kalman.kalman_gain.calls": count("kalman.kalman_gain"),
        "kalman.kalman_gain.s": secs("kalman.kalman_gain"),
        "channel.RngStream.constructed": count("channel.RngStream"),
        "channel.RngStream.init_s": secs("channel.RngStream"),
        "cli.main.calls": count("cli.main"),
        "cli.main.self_s": self_secs("cli.main"),
        "cli.load_config.s": secs("cli.load_config"),
    }
    return out
