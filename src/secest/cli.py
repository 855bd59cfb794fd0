"""Command-line front end.

Subcommands: bounds, interval, design, sweep, simulate, montecarlo, scalar.
Every invocation reads a JSON run configuration, prints a JSON document on
stdout (including the config hash so results are traceable to their
inputs), and ``sweep``, ``simulate`` and ``montecarlo`` write a CSV artifact
when ``out`` is set. Exit codes: 0 on success, 1 for configuration,
validation or usage problems (an unknown flag, a bad flag value, an
unwritable artifact path), 2 for numerical failures; errors go to stderr as
JSON. A plant that passes validation with warnings (an undetectable mode)
runs as usual, with each warning first printed to stderr as one JSON line,
``{"warning": "..."}``.

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

Everything below "channel" is optional, and every subcommand accepts every
key. Each scalar key has one flag (``_FIELDS``) that overrides it, and a
subcommand accepts only the flags of the keys it reads (``_COMMANDS``):

    bounds      --p
    interval    (none)
    design      --secrecy-floor --tol
    sweep       --tol --out --m-min --m-max --m-points
    simulate    --p --steps --seed --out
    montecarlo  --p --steps --runs --seed --out
    scalar      --p --secrecy-floor
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys as _sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import bounds as bounds_mod
from .channel import ChannelParams, Mechanism, effective_rates
from .designer import design_p_star, sweep_tradeoff
from .errors import ConfigError, NumericalError, ValidationError
from .linmodel import LinearSystem, validate_system
from .montecarlo import _expected_error_curves, simulate_trace, time_average_error
from .scalar import ScalarSystem, scalar_S, scalar_V, scalar_critical, scalar_p_star

# Scalar config key -> (flag, type, default, help). A default of None means
# the key is unset unless the config or the flag gives it.
_FIELDS = {
    "p": ("--p", float, None, "withholding probability"),
    "M": ("--secrecy-floor", float, None, "secrecy floor"),
    "epsilon": ("--tol", float, 1e-6, "bisection tolerance"),
    "seed": ("--seed", int, 0, "RNG seed"),
    "T": ("--steps", int, 200, "simulation horizon"),
    "runs": ("--runs", int, 200, "Monte Carlo replications"),
    "out": ("--out", str, None, "CSV artifact path"),
}

_KNOWN_KEYS = {"schema_version", "system", "channel", "M_grid", *_FIELDS}


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
    warnings: tuple


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
    # True == 1 in Python; a boolean is rejected, as _get_number rejects it
    if isinstance(version, bool) or version != 1:
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
        # json.loads accepts NaN; inf stays, the secrecy-edge target
        for i, M in enumerate(M_grid):
            if math.isnan(M):
                raise ConfigError("expected a number, got NaN", f"/M_grid/{i}")

    fields = {}
    for key, (_, kind, default, _) in _FIELDS.items():
        if kind is str:
            value = doc.get(key, default)
            if value is not None and not isinstance(value, str):
                raise ConfigError("expected a string path", f"/{key}")
        else:
            value = _get_number(doc, key, f"/{key}", default, integer=kind is int)
        fields[key] = value

    return RunConfig(
        system=system,
        channel=channel,
        M_grid=M_grid,
        source=str(path),
        sha256=hashlib.sha256(raw).hexdigest(),
        warnings=tuple(report.warnings),
        **fields,
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
    return _jsonable(value)


def _require(cfg: RunConfig, key: str):
    value = getattr(cfg, key)
    if value is None:
        flag, _, _, help_text = _FIELDS[key]
        raise ConfigError(f"{help_text} required: set \"{key}\" or pass {flag}")
    return value


def _cmd_bounds(cfg: RunConfig, args):
    p = _require(cfg, "p")
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


def _cmd_interval(cfg: RunConfig, args):
    rates = bounds_mod.critical_rates(cfg.system)
    interval = bounds_mod.secrecy_interval(cfg.system, cfg.channel)
    payload = asdict(interval)
    payload.update(exact=rates.exact, p_lower=rates.p_lower, p_upper=rates.p_upper)
    return payload, None, None


def _cmd_design(cfg: RunConfig, args):
    M = _require(cfg, "M")
    res = design_p_star(cfg.system, cfg.channel, M, cfg.epsilon)
    payload = {
        "p_star": res.p_star,
        "trS_at_p_star": res.trS_at_p_star,
        "trV_at_p_star": res.trV_at_p_star,
        "trV_infinite": res.trV_infinite,
        "M": res.M,
        "epsilon": res.epsilon,
        "iterations": res.iterations,
        "rates": asdict(res.rates),
        "interval": asdict(res.interval),
    }
    return payload, None, None


def _sweep_grid(cfg: RunConfig, args) -> tuple:
    if args.m_min is not None or args.m_max is not None or args.m_points is not None:
        if None in (args.m_min, args.m_max, args.m_points):
            raise ConfigError("--m-min, --m-max and --m-points must be given together")
        for flag, value in (("--m-min", args.m_min), ("--m-max", args.m_max)):
            if not math.isfinite(value):
                raise ConfigError(f"{flag} must be finite, got {value}")
        if args.m_points < 2 or args.m_max <= args.m_min:
            raise ConfigError("need --m-points >= 2 and --m-max > --m-min")
        return tuple(np.linspace(args.m_min, args.m_max, args.m_points))
    if cfg.M_grid is not None:
        return cfg.M_grid
    raise ConfigError(
        "sweep grid required: set \"M_grid\" or pass --m-min/--m-max/--m-points"
    )


def _cmd_sweep(cfg: RunConfig, args):
    curve = sweep_tradeoff(cfg.system, cfg.channel, _sweep_grid(cfg, args), cfg.epsilon)
    rows = ([pt.M, pt.p_star, pt.trS, pt.trV] for pt in curve.points)
    payload = {
        "channel": asdict(curve.channel),
        "epsilon": cfg.epsilon,
        "points": [asdict(pt) for pt in curve.points],
    }
    return payload, ["M", "p_star", "trS", "trV"], rows


def _cmd_simulate(cfg: RunConfig, args):
    p = _require(cfg, "p")
    trace = simulate_trace(cfg.system, Mechanism(p), cfg.channel, cfg.T, cfg.seed)
    n = cfg.system.n
    header = ["k", "sent", "gamma1", "gamma2", "trP1", "trP2", "err1", "err2"]
    header += [f"x_{i}" for i in range(n)]
    header += [f"xhat1_{i}" for i in range(n)]
    header += [f"xhat2_{i}" for i in range(n)]
    rows = (
        [int(trace.k[k]), trace.sent[k], trace.gamma1[k], trace.gamma2[k],
         trace.trP1[k], trace.trP2[k], trace.err1[k], trace.err2[k],
         *trace.x[k], *trace.xhat1[k], *trace.xhat2[k]]
        for k in range(len(trace))
    )
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


def _cmd_montecarlo(cfg: RunConfig, args):
    p = _require(cfg, "p")
    mech = Mechanism(p)
    # both curves from one pass over the replications' draws
    user, eav = _expected_error_curves(cfg.system, mech, (cfg.channel.p1, cfg.channel.p2),
                                       cfg.T, cfg.runs, cfg.seed)
    header = ["k", "mean_trP_user", "mean_trP_eav"]
    rows = ([int(k), user.mean_trP[k], eav.mean_trP[k]] for k in range(cfg.T + 1))
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


def _cmd_scalar(cfg: RunConfig, args):
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


# Subcommand -> (handler, config keys whose flags it accepts, help).
_COMMANDS = {
    "bounds": (_cmd_bounds, ("p",), "error floor/ceiling and critical rates at one p"),
    "interval": (_cmd_interval, (), "withholding probabilities that achieve secrecy"),
    "design": (_cmd_design, ("M", "epsilon"), "largest p meeting a secrecy floor"),
    "sweep": (_cmd_sweep, ("epsilon", "out"), "design across a grid of secrecy floors"),
    "simulate": (_cmd_simulate, ("p", "T", "seed", "out"), "one closed-loop sample path"),
    "montecarlo": (_cmd_montecarlo, ("p", "T", "runs", "seed", "out"),
                   "averaged-map (bound) recursion for both receivers"),
    "scalar": (_cmd_scalar, ("p", "M"), "closed-form answers for 1x1 systems"),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError, so main reports them as JSON."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    defaults = ", ".join(
        f"{flag} ({key}) = {default}"
        for key, (flag, _, default, _) in _FIELDS.items() if default is not None
    )
    parser = _ArgumentParser(
        prog="secest",
        description="Design and evaluate packet-withholding secrecy for "
                    "remote state estimation.",
        epilog=f"Defaults when neither flag nor config sets a value: {defaults}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="run configuration JSON")
        for key in keys:
            flag, kind, _, field_help = _FIELDS[key]
            sp.add_argument(flag, type=kind, dest=key,
                            help=f'{field_help} (overrides config "{key}")')
        if name == "sweep":
            sp.add_argument("--m-min", type=float,
                            help='smallest M of a linear grid (replaces config "M_grid")')
            sp.add_argument("--m-max", type=float, help="largest M of the grid")
            sp.add_argument("--m-points", type=int, help="number of grid points")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call, built on the first one."""
    return build_parser()


def _emit_error(exc: Exception):
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    pointer = getattr(exc, "pointer", None)
    if pointer is not None:
        doc["error"]["pointer"] = pointer
    report = getattr(exc, "report", None)
    if report is not None:
        doc["error"]["report"] = asdict(report)
    print(json.dumps(_jsonable(doc)), file=_sys.stderr)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        handler, keys, _ = _COMMANDS[args.command]
        cfg = replace(load_config(args.config), **{
            key: getattr(args, key) for key in keys if getattr(args, key) is not None
        })
        for warning in cfg.warnings:
            print(json.dumps({"warning": warning}), file=_sys.stderr)
        payload, header, rows = handler(cfg, args)
        artifact = cfg.out if rows is not None else None
        if artifact:
            try:
                with open(artifact, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(header)
                    writer.writerows([_csv_cell(cell) for cell in row] for row in rows)
            except OSError as exc:
                raise ConfigError(f"cannot write artifact: {exc}", "/out") from exc
        doc = {
            "command": args.command,
            "config": {"path": cfg.source, "sha256": cfg.sha256},
            "result": payload,
        }
        if artifact:
            doc["artifact"] = artifact
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
