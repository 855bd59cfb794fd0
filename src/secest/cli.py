"""Command-line front end.

Subcommands: bounds, interval, design, sweep, simulate, montecarlo, scalar.
Every invocation reads a JSON run configuration, prints a JSON document on
stdout (including the config hash so results are traceable to their
inputs), and optionally writes a CSV artifact via --out. Exit codes: 0 on
success, 1 for configuration or validation problems, 2 for numerical
failures; errors go to stderr as JSON.

Config schema (version 1): matrices are row-major nested lists, bare
numbers are accepted as 1x1.

    {
      "schema_version": 1,
      "system": {"A": [[...]], "C": [[...]], "Q": [[...]],
                 "R": [[...]], "Sigma0": [[...]]},
      "channel": {"p1": 0.9, "p2": 0.6},
      "p": 0.51, "M": 10.0, "epsilon": 1e-6,
      "seed": 42, "T": 200, "runs": 200,
      "M_grid": [2.0, 5.0, 10.0], "out": "artifact.csv"
    }

Everything below "channel" is optional; command-line flags override the
config.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys as _sys
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as bounds_mod
from .channel import ChannelParams, Mechanism, effective_rates
from .designer import design_p_star, sweep_tradeoff
from .errors import ConfigError, NumericalError, ValidationError
from .linmodel import LinearSystem, validate_system
from .montecarlo import expected_error_curve, simulate_trace, time_average_error
from .scalar import ScalarSystem, scalar_S, scalar_V, scalar_critical, scalar_p_star

_DEFAULTS = {"epsilon": 1e-6, "seed": 0, "T": 200, "runs": 200}

_KNOWN_KEYS = {
    "schema_version", "system", "channel", "p", "M", "epsilon",
    "seed", "T", "runs", "M_grid", "out",
}


class SystemValidationError(ValidationError):
    """System matrices parse but fail the model checks; carries the report."""

    def __init__(self, report):
        super().__init__("; ".join(report.failures))
        self.report = report


@dataclass(frozen=True)
class RunConfig:
    system: LinearSystem
    channel: ChannelParams
    p: float | None
    M: float | None
    epsilon: float
    seed: int
    T: int
    runs: int
    M_grid: tuple | None
    out: str | None
    source: str
    sha256: str


def _parse_matrix(obj, pointer: str) -> list:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [[float(obj)]]
    if not isinstance(obj, list) or not obj:
        raise ConfigError("expected a number or a nonempty nested list", pointer)
    rows = obj if isinstance(obj[0], list) else [obj]
    width = None
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ConfigError("expected a nonempty list of numbers", f"{pointer}/{i}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ConfigError(
                f"row has {len(row)} entries, expected {width}", f"{pointer}/{i}"
            )
        out_row = []
        for j, cell in enumerate(row):
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                raise ConfigError("expected a number", f"{pointer}/{i}/{j}")
            out_row.append(float(cell))
        parsed.append(out_row)
    return parsed


def _get_number(doc: dict, key: str, pointer: str, default=None,
                integer: bool = False):
    if key not in doc:
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("expected a number", pointer)
    if integer:
        if not math.isfinite(value) or value != int(value):
            raise ConfigError("expected an integer", pointer)
        return int(value)
    return float(value)


def load_config(path: str) -> RunConfig:
    """Parse and validate a run configuration file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object", "")

    unknown = sorted(set(doc) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}", f"/{unknown[0]}")

    version = doc.get("schema_version")
    if version != 1:
        raise ConfigError(f"schema_version must be 1, got {version!r}", "/schema_version")

    if "system" not in doc or not isinstance(doc["system"], dict):
        raise ConfigError("missing system object", "/system")
    sys_doc = doc["system"]
    mats = {}
    for name in ("A", "C", "Q", "R", "Sigma0"):
        if name not in sys_doc:
            raise ConfigError("missing matrix", f"/system/{name}")
        mats[name] = _parse_matrix(sys_doc[name], f"/system/{name}")
    try:
        system = LinearSystem(**mats)
    except ValidationError as exc:
        raise ConfigError(str(exc), "/system") from exc
    report = validate_system(system)
    if not report.ok:
        raise SystemValidationError(report)

    if "channel" not in doc or not isinstance(doc["channel"], dict):
        raise ConfigError("missing channel object", "/channel")
    ch_doc = doc["channel"]
    probs = {}
    for name in ("p1", "p2"):
        value = _get_number(ch_doc, name, f"/channel/{name}")
        if value is None:
            raise ConfigError("missing probability", f"/channel/{name}")
        probs[name] = value
    try:
        channel = ChannelParams(**probs)
    except ValidationError as exc:
        raise ConfigError(str(exc), "/channel") from exc

    M_grid = None
    if "M_grid" in doc:
        if not isinstance(doc["M_grid"], list) or not doc["M_grid"]:
            raise ConfigError("expected a nonempty list of numbers", "/M_grid")
        M_grid = tuple(
            _get_number({"v": v}, "v", f"/M_grid/{i}") for i, v in enumerate(doc["M_grid"])
        )

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("expected a string path", "/out")

    return RunConfig(
        system=system,
        channel=channel,
        p=_get_number(doc, "p", "/p"),
        M=_get_number(doc, "M", "/M"),
        epsilon=_get_number(doc, "epsilon", "/epsilon", _DEFAULTS["epsilon"]),
        seed=_get_number(doc, "seed", "/seed", _DEFAULTS["seed"], integer=True),
        T=_get_number(doc, "T", "/T", _DEFAULTS["T"], integer=True),
        runs=_get_number(doc, "runs", "/runs", _DEFAULTS["runs"], integer=True),
        M_grid=M_grid,
        out=out,
        source=str(path),
        sha256=hashlib.sha256(raw).hexdigest(),
    )


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    return value


def _csv_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return value


def _require(cfg_value, flag_help: str):
    if cfg_value is None:
        raise ConfigError(flag_help)
    return cfg_value


def _interval_payload(interval) -> dict:
    return {
        "lower_exclusive": interval.lower_exclusive,
        "upper_inclusive": interval.upper_inclusive,
        "empty": interval.empty,
        "conservative": interval.conservative,
        "user_nominal_bounded": interval.user_nominal_bounded,
    }


def _rates_payload(rates) -> dict:
    return {"p_lower": rates.p_lower, "p_upper": rates.p_upper, "exact": rates.exact}


def _cmd_bounds(cfg: RunConfig):
    p = _require(cfg.p, "withholding probability required: set \"p\" or pass --p")
    mech = Mechanism(p)
    rate_user, rate_eav = effective_rates(mech, cfg.channel)
    S = bounds_mod.solve_S(p, cfg.channel, cfg.system)
    V = bounds_mod.solve_V(p, cfg.channel, cfg.system)
    rates = bounds_mod.critical_rates(cfg.system)
    payload = {
        "p": p,
        "effective_rate_user": rate_user,
        "effective_rate_eavesdropper": rate_eav,
        "p_lower": rates.p_lower,
        "p_upper": rates.p_upper,
        "trS": S.trace,
        "trS_finite": S.finite,
        "trV": V.trace,
        "trV_finite": V.finite,
    }
    return payload, None, None


def _cmd_interval(cfg: RunConfig):
    rates = bounds_mod.critical_rates(cfg.system)
    interval = bounds_mod.secrecy_interval(cfg.system, cfg.channel)
    payload = _interval_payload(interval)
    payload["exact"] = rates.exact
    payload.update(p_lower=rates.p_lower, p_upper=rates.p_upper)
    return payload, None, None


def _cmd_design(cfg: RunConfig):
    M = _require(cfg.M, "secrecy floor required: set \"M\" or pass --secrecy-floor")
    res = design_p_star(cfg.system, cfg.channel, M, cfg.epsilon)
    payload = {
        "p_star": res.p_star,
        "trS_at_p_star": res.trS_at_p_star,
        "trV_at_p_star": res.trV_at_p_star,
        "trV_infinite": res.trV_infinite,
        "M": res.M,
        "epsilon": res.epsilon,
        "iterations": res.iterations,
        "rates": _rates_payload(res.rates),
        "interval": _interval_payload(res.interval),
    }
    return payload, None, None


def _sweep_grid(cfg: RunConfig, args) -> tuple:
    if args.m_min is not None or args.m_max is not None or args.m_points is not None:
        if None in (args.m_min, args.m_max, args.m_points):
            raise ConfigError("--m-min, --m-max and --m-points must be given together")
        if args.m_points < 2 or args.m_max <= args.m_min:
            raise ConfigError("need --m-points >= 2 and --m-max > --m-min")
        return tuple(np.linspace(args.m_min, args.m_max, args.m_points))
    if cfg.M_grid is not None:
        return cfg.M_grid
    raise ConfigError(
        "sweep grid required: set \"M_grid\" or pass --m-min/--m-max/--m-points"
    )


def _cmd_sweep(cfg: RunConfig, grid):
    curve = sweep_tradeoff(cfg.system, cfg.channel, grid, cfg.epsilon)
    rows = [[pt.M, pt.p_star, pt.trS, pt.trV] for pt in curve.points]
    payload = {
        "channel": {"p1": curve.channel.p1, "p2": curve.channel.p2},
        "epsilon": cfg.epsilon,
        "points": [
            {"M": pt.M, "p_star": pt.p_star, "trS": pt.trS, "trV": pt.trV}
            for pt in curve.points
        ],
    }
    return payload, ["M", "p_star", "trS", "trV"], rows


def _cmd_simulate(cfg: RunConfig):
    p = _require(cfg.p, "withholding probability required: set \"p\" or pass --p")
    trace = simulate_trace(cfg.system, Mechanism(p), cfg.channel, cfg.T, cfg.seed)
    n = cfg.system.n
    header = ["k", "sent", "gamma1", "gamma2", "trP1", "trP2", "err1", "err2"]
    header += [f"x_{i}" for i in range(n)]
    header += [f"xhat1_{i}" for i in range(n)]
    header += [f"xhat2_{i}" for i in range(n)]
    rows = []
    for k in range(len(trace)):
        row = [int(trace.k[k]), trace.sent[k], trace.gamma1[k], trace.gamma2[k],
               trace.trP1[k], trace.trP2[k], trace.err1[k], trace.err2[k]]
        row += list(trace.x[k]) + list(trace.xhat1[k]) + list(trace.xhat2[k])
        rows.append(row)
    payload = {
        "p": p,
        "steps": cfg.T,
        "seed": cfg.seed,
        "receptions_user": int(np.sum(trace.gamma1)),
        "receptions_eavesdropper": int(np.sum(trace.gamma2)),
    }
    if cfg.T >= 1:
        payload["time_avg_err_user"] = time_average_error(trace, "user")
        payload["time_avg_err_eavesdropper"] = time_average_error(trace, "eavesdropper")
    return payload, header, rows


def _cmd_montecarlo(cfg: RunConfig):
    p = _require(cfg.p, "withholding probability required: set \"p\" or pass --p")
    mech = Mechanism(p)
    user = expected_error_curve(cfg.system, mech, cfg.channel.p1, cfg.T,
                                cfg.runs, cfg.seed, receiver="user")
    eav = expected_error_curve(cfg.system, mech, cfg.channel.p2, cfg.T,
                               cfg.runs, cfg.seed, receiver="eavesdropper")
    header = ["k", "mean_trP_user", "mean_trP_eav"]
    rows = [[int(k), user.mean_trP[k], eav.mean_trP[k]] for k in range(cfg.T + 1)]
    rate_user, rate_eav = effective_rates(mech, cfg.channel)
    payload = {
        "p": p,
        "steps": cfg.T,
        "runs": cfg.runs,
        "seed": cfg.seed,
        "effective_rate_user": rate_user,
        "effective_rate_eavesdropper": rate_eav,
        "final_mean_trP_user": float(user.mean_trP[-1]),
        "final_mean_trP_eavesdropper": float(eav.mean_trP[-1]),
    }
    return payload, header, rows


def _cmd_scalar(cfg: RunConfig):
    sysm = cfg.system
    if sysm.n != 1 or sysm.m != 1:
        raise ValidationError(
            f"the scalar command needs a 1x1 system, got n={sysm.n}, m={sysm.m}"
        )
    s = ScalarSystem(a=float(sysm.A[0, 0]), c=float(sysm.C[0, 0]),
                     q=float(sysm.Q[0, 0]), r=float(sysm.R[0, 0]))
    payload = {"a": s.a, "c": s.c, "q": s.q, "r": s.r,
               "critical_rate": scalar_critical(s)}
    if cfg.p is not None:
        payload["p"] = cfg.p
        payload["trS"] = scalar_S(cfg.p, cfg.channel.p2, s)
        payload["trV"] = scalar_V(cfg.p * cfg.channel.p1, s)
    if cfg.M is not None:
        p_star = scalar_p_star(cfg.M, cfg.channel.p2, s)
        payload["M"] = cfg.M
        payload["p_star"] = p_star
        payload["trS_at_p_star"] = scalar_S(p_star, cfg.channel.p2, s)
        payload["trV_at_p_star"] = scalar_V(p_star * cfg.channel.p1, s)
    return payload, None, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secest",
        description="Design and evaluate packet-withholding secrecy for "
                    "remote state estimation.",
        epilog="Defaults when neither flag nor config sets a value: "
               f"epsilon={_DEFAULTS['epsilon']}, seed={_DEFAULTS['seed']}, "
               f"steps={_DEFAULTS['T']}, runs={_DEFAULTS['runs']}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "bounds": "error floor/ceiling and critical rates at one p",
        "interval": "withholding probabilities that achieve secrecy",
        "design": "largest p meeting a secrecy floor",
        "sweep": "design across a grid of secrecy floors",
        "simulate": "one closed-loop sample path",
        "montecarlo": "averaged covariance curves for both receivers",
        "scalar": "closed-form answers for 1x1 systems",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="run configuration JSON")
        sp.add_argument("--out", help="CSV artifact path (overrides config)")
        sp.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        sp.add_argument("--p", type=float, help="withholding probability")
        sp.add_argument("--steps", type=int, help="simulation horizon T")
        sp.add_argument("--runs", type=int, help="Monte Carlo replications")
        sp.add_argument("--secrecy-floor", type=float, dest="secrecy_floor",
                        help="confusion target M")
        sp.add_argument("--tol", type=float, help="bisection tolerance epsilon")
        sp.add_argument("--m-min", type=float, dest="m_min")
        sp.add_argument("--m-max", type=float, dest="m_max")
        sp.add_argument("--m-points", type=int, dest="m_points")
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    updates = {}
    if args.out is not None:
        updates["out"] = args.out
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.p is not None:
        updates["p"] = args.p
    if args.steps is not None:
        updates["T"] = args.steps
    if args.runs is not None:
        updates["runs"] = args.runs
    if args.secrecy_floor is not None:
        updates["M"] = args.secrecy_floor
    if args.tol is not None:
        updates["epsilon"] = args.tol
    return replace(cfg, **updates) if updates else cfg


def _emit_error(exc: Exception):
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    pointer = getattr(exc, "pointer", None)
    if pointer is not None:
        doc["error"]["pointer"] = pointer
    report = getattr(exc, "report", None)
    if report is not None:
        doc["error"]["report"] = {
            "ok": report.ok,
            "spectral_radius": report.spectral_radius,
            "failures": list(report.failures),
            "warnings": list(report.warnings),
        }
    print(json.dumps(_jsonable(doc)), file=_sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "sweep":
            payload, header, rows = _cmd_sweep(cfg, _sweep_grid(cfg, args))
        else:
            handler = {
                "bounds": _cmd_bounds,
                "interval": _cmd_interval,
                "design": _cmd_design,
                "simulate": _cmd_simulate,
                "montecarlo": _cmd_montecarlo,
                "scalar": _cmd_scalar,
            }[args.command]
            payload, header, rows = handler(cfg)
        if rows is not None and cfg.out:
            with open(cfg.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows([[_csv_cell(cell) for cell in row] for row in rows])
        doc = {
            "command": args.command,
            "config": {"path": cfg.source, "sha256": cfg.sha256},
            "result": payload,
        }
        if rows is not None and cfg.out:
            doc["artifact"] = cfg.out
        print(json.dumps(_jsonable(doc), indent=2))
        return 0
    except (ConfigError, ValidationError) as exc:
        _emit_error(exc)
        return 1
    except NumericalError as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
