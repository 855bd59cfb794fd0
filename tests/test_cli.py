import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from secest import Mechanism, design_p_star, expected_error_curve, p_upper
from secest.cli import _COMMANDS, load_config, main
from secest.errors import ConfigError

_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCALAR_CFG = str(_CONFIGS / "scalar.json")
SCALAR_96_CFG = str(_CONFIGS / "scalar_p1_0.9_p2_0.6.json")
SECOND_CFG = str(_CONFIGS / "second_order.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# The flags each subcommand accepts besides --config, and the config key
# each field flag overrides.
ACCEPTED = {
    "bounds": ("--p",),
    "interval": (),
    "design": ("--secrecy-floor", "--tol"),
    "sweep": ("--tol", "--out", "--m-min", "--m-max", "--m-points"),
    "simulate": ("--p", "--steps", "--seed", "--out"),
    "montecarlo": ("--p", "--steps", "--runs", "--seed", "--out"),
    "scalar": ("--p", "--secrecy-floor"),
}
FLAG_KEYS = {"--p": "p", "--secrecy-floor": "M", "--tol": "epsilon", "--seed": "seed",
             "--steps": "T", "--runs": "runs", "--out": "out"}
ALL_FLAGS = (*FLAG_KEYS, "--m-min", "--m-max", "--m-points")


def base_doc():
    return {
        "schema_version": 1,
        "system": {"A": 1.2, "C": 1.0, "Q": 1.0, "R": 1.0, "Sigma0": 1.0},
        "channel": {"p1": 0.9, "p2": 0.7},
    }


def test_import_loads_no_scipy_subpackage_but_linalg():
    # every CLI call pays the import: scipy.optimize would add about 0.26 s
    # and scipy.sparse.linalg 0.035 s to it
    probe = ("import sys, secest; print(sorted(name for name, module in sys.modules.items() "
             "if name.count('.') == 1 and name.startswith('scipy.') "
             "and not name.startswith('scipy._') and hasattr(module, '__path__')))")
    env = dict(os.environ, PYTHONPATH=str(_CONFIGS.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['scipy.linalg']"]


class TestLoadConfig:
    def test_shipped_scalar_config(self):
        cfg = load_config(SCALAR_CFG)
        assert cfg.channel.p1 == 0.9 and cfg.channel.p2 == 0.7
        assert cfg.p == 0.51 and cfg.M == 10.0
        assert cfg.seed == 42 and cfg.T == 200 and cfg.runs == 200
        assert len(cfg.sha256) == 64
        assert cfg.system.n == 1

    def test_shipped_second_order_config(self):
        cfg = load_config(SECOND_CFG)
        assert cfg.system.n == 2 and cfg.system.m == 1
        assert cfg.system.A[0, 1] == 1.0

    def test_scalar_promotion_and_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, base_doc()))
        assert cfg.system.A.shape == (1, 1)
        assert cfg.epsilon == 1e-6 and cfg.seed == 0
        assert cfg.T == 200 and cfg.runs == 200
        assert cfg.p is None and cfg.M is None and cfg.M_grid is None

    def test_unknown_key(self, tmp_path):
        doc = base_doc()
        doc["granularity"] = 3
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, doc))
        assert exc.value.pointer == "/granularity"

    def test_missing_matrix(self, tmp_path):
        doc = base_doc()
        del doc["system"]["Q"]
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, doc))
        assert exc.value.pointer == "/system/Q"

    def test_schema_version_required(self, tmp_path):
        doc = base_doc()
        del doc["schema_version"]
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, doc))
        assert exc.value.pointer == "/schema_version"
        doc["schema_version"] = 2
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, doc))
        doc["schema_version"] = True
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, doc))
        assert exc.value.pointer == "/schema_version"

    def test_ragged_matrix_pointer(self, tmp_path):
        doc = base_doc()
        doc["system"]["A"] = [[1.2, 0.0], [0.0]]
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, doc))
        assert exc.value.pointer == "/system/A/1"

    def test_boolean_is_not_a_number(self, tmp_path):
        doc = base_doc()
        doc["p"] = True
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, doc))
        assert exc.value.pointer == "/p"

    def test_channel_probability_range(self, tmp_path):
        doc = base_doc()
        doc["channel"]["p1"] = 1.5
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, doc))
        assert exc.value.pointer == "/channel"
        assert "p1 must lie in [0, 1], got 1.5" in str(exc.value)

    def test_bad_grid(self, tmp_path):
        doc = base_doc()
        doc["M_grid"] = []
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, doc))
        doc["M_grid"] = [2.0, "x"]
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, doc))
        assert exc.value.pointer == "/M_grid/1"
        # json.loads reads the NaN literal; inf is the secrecy-edge target
        doc["M_grid"] = [2.0, 5.0, float("nan")]
        with pytest.raises(ConfigError, match="NaN") as exc:
            load_config(write_cfg(tmp_path, doc))
        assert exc.value.pointer == "/M_grid/2"
        doc["M_grid"] = [2.0, float("inf")]
        assert load_config(write_cfg(tmp_path, doc)).M_grid == (2.0, float("inf"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))


class TestCliSuccess:
    def test_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--config", SCALAR_CFG)
        assert code == 0
        assert out["command"] == "bounds"
        assert len(out["config"]["sha256"]) == 64
        res = out["result"]
        assert res["p"] == 0.51
        assert res["effective_rate_user"] == pytest.approx(0.459)
        assert res["trS"] == pytest.approx(13.498920086393062, abs=1e-9)
        assert res["trV"] == pytest.approx(7.149983950917283, abs=1e-9)
        assert res["trS_finite"] and res["trV_finite"]

    def test_bounds_just_above_threshold(self, capsys):
        # The user's effective rate p * p1 lies 1e-5 above the threshold.
        cfg = load_config(SCALAR_CFG)
        p = (p_upper(cfg.system) + 1e-5) / cfg.channel.p1
        code, out, _ = run_cli(capsys, "bounds", "--config", SCALAR_CFG, "--p", repr(p))
        assert code == 0
        assert out["result"]["trV_finite"]

    def test_bounds_infinite_encoded_as_string(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--config", SCALAR_CFG, "--p", "0.3")
        assert code == 0
        res = out["result"]
        assert res["p"] == 0.3
        assert res["trS"] == "inf" and res["trV"] == "inf"
        assert not res["trS_finite"] and not res["trV_finite"]

    def test_design_matches_library(self, capsys):
        cfg = load_config(SCALAR_CFG)
        for flags, M, epsilon in [([], cfg.M, cfg.epsilon),
                                  (["--secrecy-floor", "25", "--tol", "1e-4"], 25.0, 1e-4)]:
            code, out, _ = run_cli(capsys, "design", "--config", SCALAR_CFG, *flags)
            assert code == 0
            res = design_p_star(cfg.system, cfg.channel, M, epsilon)
            got = out["result"]
            assert got["M"] == M and got["epsilon"] == epsilon
            assert got["p_star"] == res.p_star
            assert got["trS_at_p_star"] == res.trS_at_p_star
            assert got["iterations"] == res.iterations
            assert got["rates"]["exact"] is True
            assert not got["trV_infinite"]

    def test_interval(self, capsys):
        code, out, _ = run_cli(capsys, "interval", "--config", SCALAR_96_CFG)
        assert code == 0
        res = out["result"]
        assert res["lower_exclusive"] == pytest.approx(0.3395061728395062, abs=1e-12)
        assert res["upper_inclusive"] == pytest.approx(0.5092592592592593, abs=1e-12)
        assert res["exact"] and not res["empty"] and not res["conservative"]
        assert res["user_nominal_bounded"]

    def test_scalar_command(self, capsys):
        code, out, _ = run_cli(capsys, "scalar", "--config", SCALAR_CFG)
        assert code == 0
        res = out["result"]
        assert res["critical_rate"] == pytest.approx(11.0 / 36.0)
        assert res["p_star"] == pytest.approx(0.5357142857142858, abs=1e-12)
        assert res["trS_at_p_star"] == pytest.approx(10.0, rel=1e-9)
        assert res["trS"] == pytest.approx(13.498920086393062, abs=1e-9)

    def test_simulate_csv(self, capsys, tmp_path):
        out_path = str(tmp_path / "trace.csv")
        code, out, _ = run_cli(capsys, "simulate", "--config", SECOND_CFG,
                               "--steps", "40", "--out", out_path)
        assert code == 0
        assert out["artifact"] == out_path
        assert out["result"]["steps"] == 40
        assert "time_avg_err_user" in out["result"]
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "sent", "gamma1", "gamma2", "trP1", "trP2",
                           "err1", "err2", "x_0", "x_1",
                           "xhat1_0", "xhat1_1", "xhat2_0", "xhat2_1"]
        assert len(rows) == 42
        assert rows[1][0] == "0" and rows[1][4] == "3.0"
        assert all(r[1] in ("0", "1") for r in rows[1:])

    def test_simulate_zero_steps(self, capsys, tmp_path):
        out_path = str(tmp_path / "t0.csv")
        code, out, _ = run_cli(capsys, "simulate", "--config", SECOND_CFG,
                               "--steps", "0", "--out", out_path)
        assert code == 0
        assert "time_avg_err_user" not in out["result"]
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and rows[1][0] == "0"

    def test_simulate_seed_override_changes_path(self, capsys):
        _, a, _ = run_cli(capsys, "simulate", "--config", SCALAR_CFG, "--steps", "50")
        _, b, _ = run_cli(capsys, "simulate", "--config", SCALAR_CFG, "--steps", "50",
                          "--seed", "43")
        assert a["result"]["receptions_user"] != b["result"]["receptions_user"] or \
            a["result"]["time_avg_err_user"] != b["result"]["time_avg_err_user"]

    def test_montecarlo(self, capsys, tmp_path):
        out_path = str(tmp_path / "mc.csv")
        code, out, _ = run_cli(capsys, "montecarlo", "--config", SCALAR_CFG,
                               "--steps", "60", "--runs", "40", "--out", out_path)
        assert code == 0
        res = out["result"]
        assert res["runs"] == 40
        assert res["effective_rate_eavesdropper"] == pytest.approx(0.357)
        assert res["final_mean_trP_user"] > 0
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "mean_trP_user", "mean_trP_eav"]
        assert len(rows) == 62

    def test_montecarlo_curves_are_the_one_rate_curves(self, capsys, tmp_path):
        # both receivers' curves come from one pass over the draws and equal
        # expected_error_curve at each link rate, cell for cell
        out_path = str(tmp_path / "mc.csv")
        code, out, _ = run_cli(capsys, "montecarlo", "--config", SECOND_CFG, "--p", "0.51",
                               "--steps", "60", "--runs", "50", "--out", out_path)
        assert code == 0
        cfg = load_config(SECOND_CFG)
        curves = [expected_error_curve(cfg.system, Mechanism(0.51), rate, 60, 50, cfg.seed)
                  for rate in (cfg.channel.p1, cfg.channel.p2)]
        with open(out_path) as fh:
            rows = list(csv.reader(fh))[1:]
        assert [[float(cell) for cell in row[1:]] for row in rows] == \
            [[curves[0].mean_trP[k], curves[1].mean_trP[k]] for k in range(61)]
        assert out["result"]["final_mean_trP_user"] == curves[0].mean_trP[-1]
        assert out["result"]["final_mean_trP_eavesdropper"] == curves[1].mean_trP[-1]

    def test_sweep_with_flags(self, capsys, tmp_path):
        out_path = str(tmp_path / "sweep.csv")
        code, out, _ = run_cli(capsys, "sweep", "--config", SCALAR_CFG,
                               "--m-min", "2", "--m-max", "10", "--m-points", "5",
                               "--tol", "1e-4", "--out", out_path)
        assert code == 0
        assert out["result"]["epsilon"] == 1e-4
        pts = out["result"]["points"]
        assert len(pts) == 5
        assert [pt["M"] for pt in pts] == [2.0, 4.0, 6.0, 8.0, 10.0]
        ps = [pt["p_star"] for pt in pts]
        assert ps == sorted(ps, reverse=True)
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["M", "p_star", "trS", "trV"]
        assert len(rows) == 6

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in ACCEPTED.items()
        for flag in flags if flag in FLAG_KEYS
    ])
    def test_flag_overrides_config(self, capsys, tmp_path, command, flag):
        key = FLAG_KEYS[flag]
        doc = dict(base_doc(), p=0.51, M=10.0, epsilon=1e-6, seed=42, T=5, runs=3,
                   M_grid=[10.0], out=str(tmp_path / "cfg.csv"))
        given = {"p": 0.62, "M": 12.5, "epsilon": 1e-4, "seed": 7, "T": 4, "runs": 2,
                 "out": str(tmp_path / "flag.csv")}[key]
        code, out, _ = run_cli(capsys, command, "--config", write_cfg(tmp_path, doc),
                               flag, str(given))
        assert code == 0
        got = out["artifact"] if key == "out" else out["result"][{"T": "steps"}.get(key, key)]
        assert got == given


class TestCliUsage:
    def test_table_covers_every_subcommand(self):
        assert set(_COMMANDS) == set(ACCEPTED)

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_unread_flags_rejected(self, capsys, command):
        for flag in ALL_FLAGS:
            if flag in ACCEPTED[command]:
                continue
            code, out, err = run_cli(capsys, command, "--config", SCALAR_CFG, flag, "1")
            assert code == 1 and out is None, flag
            assert err["error"]["type"] == "ConfigError"
            assert flag in err["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["bounds", "--config", SCALAR_CFG, "--bogus"],
        ["simulate", "--config", SCALAR_CFG, "--steps", "x"],
        ["simulate", "--p", "0.5"],
        ["nosuch", "--config", SCALAR_CFG],
        [],
    ])
    def test_usage_errors_return_1_as_json(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out is None
        assert err["error"]["type"] == "ConfigError"

    def test_help_exits_0_and_names_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--steps (T) = 200" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--runs" not in capsys.readouterr().out

    def test_unwritable_out_is_config_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "simulate", "--config", SCALAR_CFG, "--steps", "3",
                                 "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 1 and out is None
        assert err["error"]["type"] == "ConfigError"
        assert err["error"]["pointer"] == "/out"


def undetectable_doc():
    """C = [1, 0] misses the eigenvalue 1 of A = diag(1.2, 1.0): validation
    passes with a warning, and no reception rate bounds the user's error."""
    doc = base_doc()
    doc["system"] = {"A": [[1.2, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0]],
                     "Q": [[1.0, 0.0], [0.0, 1.0]], "R": 1.0,
                     "Sigma0": [[1.0, 0.0], [0.0, 1.0]]}
    return dict(doc, p=0.5, T=20, runs=10)


UNDETECTABLE_WARNING = {"warning": "(A, C) not detectable: C does not see the eigenvalue(s) 1"}


class TestCliWarnings:
    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_warning_goes_to_stderr_as_json_line(self, capsys, tmp_path, command):
        code = main([command, "--config", write_cfg(tmp_path, undetectable_doc())])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["command"] == command
        assert [json.loads(line) for line in captured.err.splitlines()] == [UNDETECTABLE_WARNING]

    def test_warning_precedes_a_numerical_failure(self, capsys, tmp_path):
        code = main(["bounds", "--config", write_cfg(tmp_path, undetectable_doc())])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        warning, error = [json.loads(line) for line in captured.err.splitlines()]
        assert warning == UNDETECTABLE_WARNING
        assert "not detectable" in error["error"]["message"]

    def test_clean_plant_writes_nothing_to_stderr(self, capsys):
        assert main(["simulate", "--config", SECOND_CFG, "--steps", "5"]) == 0
        assert capsys.readouterr().err == ""


class TestCliFailure:
    def test_overflowing_curve_writes_only_json_lines(self, capsys):
        # Python's default is to print a RuntimeWarning to stderr, outside
        # the JSON lines; show every one here
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code = main(["montecarlo", "--config", SECOND_CFG, "--p", "0.05",
                         "--steps", "2500", "--runs", "20"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "NumericalError"
        assert "step 2206 of 2500 (effective rate 0.045)" in error["message"]

    @pytest.mark.parametrize("cfg", [SCALAR_CFG, SECOND_CFG])
    def test_overflowed_curve_prints_inf(self, capsys, cfg):
        # with no reception both curves overflow; the scalar and the matrix
        # plant print the same token, although the latter's covariance
        # holds NaN entries
        code, out, _ = run_cli(capsys, "montecarlo", "--config", cfg, "--p", "0.0",
                               "--steps", "2500", "--runs", "20")
        assert code == 0
        assert out["result"]["final_mean_trP_user"] == "inf"
        assert out["result"]["final_mean_trP_eavesdropper"] == "inf"

    def test_stable_plant_reports_failures(self, capsys, tmp_path):
        doc = base_doc()
        doc["system"]["A"] = 0.9
        code, out, err = run_cli(capsys, "bounds", "--config",
                                 write_cfg(tmp_path, doc))
        assert code == 1 and out is None
        report = err["error"]["report"]
        assert not report["ok"]
        assert report["spectral_radius"] == pytest.approx(0.9)
        assert any("spectral radius" in f for f in report["failures"])

    def test_near_unit_rho_fails_only_in_validation(self, capsys, tmp_path, near_unit_plants):
        # A plant that validation passes must not then fail the solvers'
        # own instability check: bounds succeeds, or validation rejects the
        # plant with its report.
        for i, sys in enumerate(near_unit_plants[:40]):
            doc = base_doc()
            doc["system"] = {name: getattr(sys, name).tolist()
                             for name in ("A", "C", "Q", "R", "Sigma0")}
            path = write_cfg(tmp_path, doc, name=f"cfg{i}.json")
            code, out, err = run_cli(capsys, "bounds", "--config", path, "--p", "0.5")
            if code == 0:
                assert out["result"]["p_lower"] >= 0.0
            else:
                assert code == 1 and "report" in err["error"], err
                assert not err["error"]["report"]["ok"]

    def test_indefinite_noise_reports_failures(self, capsys, tmp_path):
        doc = base_doc()
        doc["system"]["Q"] = [[1.0, 0.0], [0.0, 0.0]]
        doc["system"]["A"] = [[1.2, 0.0], [0.0, 1.1]]
        doc["system"]["C"] = [[1.0, 0.0]]
        doc["system"]["Sigma0"] = [[1.0, 0.0], [0.0, 1.0]]
        code, _, err = run_cli(capsys, "bounds", "--config",
                               write_cfg(tmp_path, doc))
        assert code == 1
        assert any("positive definite" in f for f in err["error"]["report"]["failures"])

    def test_asymmetric_noise_is_config_error(self, capsys, tmp_path):
        # no plant holds an asymmetric covariance, so it is rejected with the
        # system, before validation
        doc = base_doc()
        doc["system"].update(A=[[1.2, 1.0], [0.0, 1.1]], C=[[1.0, 0.0]],
                             Q=[[1.0, 0.9], [0.1, 2.0]], Sigma0=[[1.0, 0.0], [0.0, 1.0]])
        code, out, err = run_cli(capsys, "bounds", "--config", write_cfg(tmp_path, doc),
                                 "--p", "0.9")
        assert code == 1 and out is None
        assert err["error"]["type"] == "ConfigError"
        assert err["error"]["pointer"] == "/system"
        assert err["error"]["message"] == "/system: Q must be symmetric, got max |Q - Q'| = 0.8"

    def test_pointer_surfaces_in_error_json(self, capsys, tmp_path):
        doc = base_doc()
        doc["channel"]["p1"] = 1.5
        code, _, err = run_cli(capsys, "bounds", "--config",
                               write_cfg(tmp_path, doc))
        assert code == 1
        assert err["error"]["type"] == "ConfigError"
        assert err["error"]["pointer"] == "/channel"

    def test_missing_p_for_bounds(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "bounds", "--config",
                               write_cfg(tmp_path, base_doc()))
        assert code == 1
        assert "--p" in err["error"]["message"]

    def test_missing_floor_for_design(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "design", "--config",
                               write_cfg(tmp_path, base_doc()))
        assert code == 1
        assert "--secrecy-floor" in err["error"]["message"]

    def test_sweep_needs_grid(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--config", SCALAR_CFG)
        assert code == 1
        assert "M_grid" in err["error"]["message"]

    def test_sweep_partial_flags(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--config", SCALAR_CFG,
                               "--m-min", "2")
        assert code == 1
        assert "together" in err["error"]["message"]

    @pytest.mark.parametrize("flag,value", [("--m-min", "nan"), ("--m-max", "inf"),
                                            ("--m-min", "-inf"), ("--m-max", "nan")])
    def test_sweep_non_finite_grid_end_rejected(self, capsys, flag, value):
        # a numpy warning on stderr would break the JSON parse of run_cli
        bounds = {"--m-min": "25", "--m-max": "400", flag: value}
        code, out, err = run_cli(capsys, "sweep", "--config", SECOND_CFG,
                                 *(f"{k}={v}" for k, v in bounds.items()), "--m-points", "5")
        assert code == 1 and out is None
        assert err["error"]["type"] == "ConfigError"
        assert err["error"]["message"] == f"{flag} must be finite, got {float(value)}"

    def test_sweep_nan_grid_entry_rejected(self, capsys, tmp_path):
        doc = dict(base_doc(), M_grid=[2.0, float("nan")])
        code, out, err = run_cli(capsys, "sweep", "--config", write_cfg(tmp_path, doc))
        assert code == 1 and out is None
        assert err["error"]["type"] == "ConfigError"
        assert err["error"]["pointer"] == "/M_grid/1"

    @pytest.mark.parametrize("edit, pointer", [
        (lambda doc: [doc], ""),
        (lambda doc: dict(doc, system=3), "/system"),
        (lambda doc: dict(doc, system=dict(doc["system"], A=[])), "/system/A"),
        (lambda doc: dict(doc, system=dict(doc["system"], A=[[1.2], []])), "/system/A/1"),
        (lambda doc: dict(doc, system=dict(doc["system"], A=[[1.2, "x"]])), "/system/A/0/1"),
        # Q stays 1x1 on a two-state plant
        (lambda doc: dict(doc, system=dict(doc["system"], A=[[1.2, 0.0], [0.0, 1.1]],
                                           C=[[1.0, 1.0]], Sigma0=[[1.0, 0.0], [0.0, 1.0]])),
         "/system"),
        # R 2x2 for one output
        (lambda doc: dict(doc, system=dict(doc["system"], R=[[1.0, 0.0], [0.0, 1.0]])),
         "/system"),
        (lambda doc: dict(doc, channel=[0.9, 0.7]), "/channel"),
        (lambda doc: dict(doc, channel={"p2": 0.7}), "/channel/p1"),
        (lambda doc: dict(doc, out=3), "/out"),
    ], ids=["top-level-list", "system-number", "empty-matrix", "empty-row", "string-cell",
            "noise-size", "R-size", "channel-list", "missing-p1", "out-number"])
    def test_malformed_config_points_at_its_field(self, capsys, tmp_path, edit, pointer):
        code, out, err = run_cli(capsys, "interval", "--config",
                                 write_cfg(tmp_path, edit(base_doc())))
        assert code == 1 and out is None
        assert err["error"]["type"] == "ConfigError"
        assert err["error"]["pointer"] == pointer

    def test_sweep_single_point_rejected(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--config", SCALAR_CFG, "--m-min", "2",
                                 "--m-max", "4", "--m-points", "1")
        assert code == 1 and out is None
        assert err["error"]["type"] == "ConfigError" and "pointer" not in err["error"]
        assert "--m-points >= 2" in err["error"]["message"]

    def test_infinite_horizon_is_config_error(self, capsys, tmp_path):
        doc = dict(base_doc(), p=0.5, T=float("inf"))
        code, out, err = run_cli(capsys, "simulate", "--config", write_cfg(tmp_path, doc))
        assert code == 1 and out is None
        assert err["error"]["type"] == "ConfigError"
        assert err["error"]["pointer"] == "/T"

    def test_nan_seed_is_config_error(self, capsys, tmp_path):
        doc = dict(base_doc(), p=0.5, seed=float("nan"))
        code, out, err = run_cli(capsys, "simulate", "--config", write_cfg(tmp_path, doc))
        assert code == 1 and out is None
        assert err["error"]["type"] == "ConfigError"
        assert err["error"]["pointer"] == "/seed"

    def test_negative_seed_flag_rejected(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--config", SCALAR_CFG,
                                 "--p", "0.5", "--steps", "5", "--seed", "-1")
        assert code == 1 and out is None
        assert err["error"]["type"] == "ValidationError"
        assert "seed" in err["error"]["message"]

    def test_negative_seed_in_config_rejected(self, capsys, tmp_path):
        doc = dict(base_doc(), p=0.5, T=5, seed=-1)
        code, out, err = run_cli(capsys, "simulate", "--config", write_cfg(tmp_path, doc))
        assert code == 1 and out is None
        assert err["error"]["type"] == "ValidationError"
        assert "seed" in err["error"]["message"]

    def test_scalar_command_rejects_matrix_system(self, capsys):
        code, _, err = run_cli(capsys, "scalar", "--config", SECOND_CFG)
        assert code == 1
        assert "1x1" in err["error"]["message"]
