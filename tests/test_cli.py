"""Command-line interface."""

import concurrent.futures
import json
import math
from pathlib import Path

import pytest

from bqlab import cli, evolve, harness
from bqlab.cli import main
from layout import set_mode

RUN_CFG = {
    "grid": {"nx": 16, "ny": 32, "Ly": 4 * math.pi},
    "params": {"nu": 1e-3, "mu": 1e-3, "alpha": 0.0, "T_end": 0.1, "dt": 0.01},
    "initial": {"family": "single_mode", "eps1": 1e-4, "eps2": 1e-7,
                "seed": 1, "width": 2.0},
    "observe": {"stride": 5},
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_run_stable_exit_zero(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    cfg = write_cfg(tmp_path, RUN_CFG)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "summary.json").exists()
    assert "label=stable" in capsys.readouterr().out


def test_run_env_out_override(tmp_path, monkeypatch):
    monkeypatch.setenv("BQLAB_OUT", str(tmp_path / "envout"))
    cfg = write_cfg(tmp_path, RUN_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "ignored")]) == 0
    assert (tmp_path / "envout" / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_run_seed_override_changes_hash(tmp_path, monkeypatch):
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    cfg_payload = json.loads(json.dumps(RUN_CFG))
    cfg_payload["initial"]["family"] = "random"
    cfg = write_cfg(tmp_path, cfg_payload)
    main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "2"])
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert sa["config_hash"] != sb["config_hash"]


def test_bad_config_exit_three(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"grid": {"nx": 33}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("section, key, value", [
    ("observe", "stride", "x"), ("observe", "snapshot_stride", "q"),
    ("params", "nu", "0.1"), ("params", "mu", "a"), ("grid", "Ly", "a"),
    ("initial", "eps1", None), ("grid", "nx", 16.0), ("initial", "seed", True),
    ("params", "dt", False), ("initial", "family", []), ("shear", "kind", {}),
    ("shear", "path", 5), ("observe", "budgets", "no"), ("initial", "width", math.inf),
    ("monitor", "bound", math.nan)])
def test_value_of_wrong_type_exits_three(tmp_path, capsys, command, section, key, value):
    # a config error, never a traceback with the exit code 1 of "unstable"
    payload = json.loads(json.dumps(RUN_CFG))
    payload.setdefault(section, {})[key] = value
    argv = [command, "--config", write_cfg(tmp_path, payload)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert f"error: {section}.{key} must be" in capsys.readouterr().err


def test_negative_sobolev_index_exits_three(tmp_path, capsys):
    # N < 0 failed in the initial data's H^N scaling: a traceback with the
    # exit code 1 of "unstable"
    payload = json.loads(json.dumps(RUN_CFG))
    payload["params"]["N"] = -1.0
    assert main(["run", "--config", write_cfg(tmp_path, payload),
                 "--out", str(tmp_path / "o")]) == 3
    assert "error: params.N must be >= 0, got -1.0" in capsys.readouterr().err


def test_missing_config_exit_three(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("command", ["run", "validate", "scan"])
def test_config_path_naming_a_directory_exits_three(tmp_path, capsys, command):
    # open() raised IsADirectoryError: a traceback with the exit code 1 of
    # "unstable"
    argv = [command, "--config", str(tmp_path)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_shear_path_naming_a_directory_exits_three(tmp_path, capsys, command):
    payload = json.loads(json.dumps(RUN_CFG))
    (tmp_path / "shear").mkdir()
    payload["shear"] = {"kind": "file", "path": str(tmp_path / "shear")}
    argv = [command, "--config", write_cfg(tmp_path, payload)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert "error: " in capsys.readouterr().err


def test_scan_synthetic_requires_physical(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    spec = {"nu_list": [1e-2], "bracket": [1e-6, 1e-4],
            "grid": [16, 32, 4 * math.pi], "T_end_rule": 0.1, "dt_rule": 5e-3}
    cfg = write_cfg(tmp_path, spec)
    # non-straddling bracket surfaces as a clean error, not a traceback
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("T_end_rule", "x"), ("T_end_rule", 0.0), ("T_end_rule", True), ("dt_rule", "fast"),
    ("dt_rule", -5e-3), ("bracket", [1]), ("bracket", [1e-6, "1e-4"]), ("grid", [32, 64]),
    ("grid", [32.0, 64, 4.0]), ("grid", [32, 64, None]), ("mu_rule", "fixed:x"),
    ("mu_rule", "scale:-1"), ("mu_rule", 1), ("eps2_scale", "x")])
def test_malformed_sweep_spec_exits_three(tmp_path, capsys, monkeypatch, key, value):
    # a config error before any probe, never a traceback with the exit code 1
    # of "unstable"
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    steps = count_steps(monkeypatch)
    spec = {"nu_list": [1e-2], "bracket": [1e-6, 1e-4], "grid": [16, 32, 4 * math.pi],
            "T_end_rule": 0.1, "dt_rule": 5e-3, key: value}
    assert main(["scan", "--config", write_cfg(tmp_path, spec),
                 "--out", str(tmp_path / "o")]) == 3
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not steps


@pytest.mark.parametrize("width", [0.0, -1.0])
def test_nonpositive_width_exits_three(tmp_path, capsys, monkeypatch, width):
    # width 0 made NaN data that a run labelled unstable and exited 4 on;
    # a negative width ran only because the Gaussian is even in it.  A
    # scan's probes go through the same check.
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    steps = count_steps(monkeypatch)
    payload = json.loads(json.dumps(RUN_CFG))
    payload["initial"]["width"] = width
    spec = {"nu_list": [1e-2], "bracket": [1e-6, 1e-4], "grid": [16, 32, 4 * math.pi],
            "T_end_rule": 0.1, "dt_rule": 5e-3, "width": width}
    for command, cfg in (("run", payload), ("scan", spec)):
        assert main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / command)]) == 3
        assert "error: initial.width must be positive" in capsys.readouterr().err
    assert not steps


@pytest.mark.parametrize("kx", [6, -6, 1000])
def test_kx_outside_the_band_exits_three(tmp_path, capsys, monkeypatch, kx):
    # at 16x32, kx = 6 ran on round-off scaled up to eps1 and exited 2, and
    # kx = 1000 ended in a traceback with exit 1, the code of "unstable"
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    steps = count_steps(monkeypatch)
    payload = json.loads(json.dumps(RUN_CFG))
    payload["initial"]["kx"] = kx
    assert main(["run", "--config", write_cfg(tmp_path, payload),
                 "--out", str(tmp_path / "o")]) == 3
    assert "error: initial.kx must be within |kx| <= nx/3" in capsys.readouterr().err
    assert not steps


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("key, value, message", [
    ("family", "vortex", "initial.family must be one of"),
    ("kx", "x", "initial.kx must be an integer"),
    ("kx", 1000, "initial.kx must be within |kx| <= nx/3 = 5.33333, got 1000")])
def test_bad_probe_key_exits_three_before_out_dir(tmp_path, capsys, monkeypatch,
                                                  key, value, message, workers):
    # the sweep spec's probe keys were checked at the first probe, after the
    # output directory had been made
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    steps = count_steps(monkeypatch)
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda **kw: pools.append(kw))
    spec = {"nu_list": [1e-2], "bracket": [1e-6, 1e-4], "grid": [16, 32, 4 * math.pi],
            "T_end_rule": 0.1, "dt_rule": 5e-3, key: value}
    out = tmp_path / "o"
    assert main(["scan", "--config", write_cfg(tmp_path, spec), "--out", str(out),
                 "--workers", str(workers)]) == 3
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
    assert not steps and not pools


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_exits_three(tmp_path, capsys, monkeypatch, workers):
    # both ran the scan serially and exited 0
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    steps = count_steps(monkeypatch)
    spec = {"nu_list": [1e-2], "bracket": [1e-6, 1e-4], "grid": [16, 32, 4 * math.pi],
            "T_end_rule": 0.1, "dt_rule": 5e-3}
    out = tmp_path / "o"
    assert main(["scan", "--config", write_cfg(tmp_path, spec),
                 "--out", str(out), "--workers", str(workers)]) == 3
    assert f"error: workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()
    assert not steps


def shear_table(tmp_path, rows, header=""):
    """A run config whose shear is the text table ``rows`` (y, U per row)."""
    path = tmp_path / "shear.txt"
    path.write_text(header + "".join(f"{y!r} {u!r}\n" for y, u in rows))
    payload = json.loads(json.dumps(RUN_CFG))
    payload["shear"] = {"kind": "file", "path": str(path)}
    return write_cfg(tmp_path, payload)


COUETTE_ROWS = [(y, y) for y in (-4.0 * math.pi - 0.5 + 0.05 * j for j in range(523))]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("case, message", [
    ("nan_row", "holds a non-finite value"),
    ("inf_u", "holds a non-finite value"),
    ("text_header", "not a table of numbers"),
    ("y_not_increasing", "y is not strictly increasing"),
])
def test_bad_shear_table_exits_three(tmp_path, capsys, command, case, message):
    # each failed inside numpy or scipy: a ValueError traceback with the exit
    # code 1 of "unstable"
    rows, header = list(COUETTE_ROWS), ""
    if case == "nan_row":
        rows[100] = (math.nan, math.nan)
    elif case == "inf_u":
        rows[100] = (rows[100][0], math.inf)
    elif case == "text_header":
        header = "y U\n"
    else:
        rows[100], rows[101] = rows[101], rows[100]
    argv = [command, "--config", shear_table(tmp_path, rows, header)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert message in capsys.readouterr().err


def test_good_shear_table_runs(tmp_path, capsys):
    assert main(["run", "--config", shear_table(tmp_path, COUETTE_ROWS),
                 "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("argv, payload, what", [
    (["run", "--seed", "1"], [1, 2], "config"),
    (["run", "--snapshot-stride", "1"], [1, 2], "config"),
    (["run", "--seed", "1"], {"initial": [1, 2]}, "section 'initial'"),
    (["run", "--snapshot-stride", "1"], {"observe": [1, 2]}, "section 'observe'"),
    (["compare-oracle", "--seed", "1"], {"initial": 5}, "section 'initial'"),
    (["scan", "--seed", "1"], [1, 2], "sweep spec"),
    (["scan"], [1, 2], "sweep spec"),
])
def test_override_on_a_non_object_exits_three(tmp_path, capsys, argv, payload, what):
    # the override failed with AttributeError or TypeError: exit code 1
    cfg = write_cfg(tmp_path, payload)
    argv = [argv[0], "--config", cfg, "--out", str(tmp_path / "o"), *argv[1:]]
    assert main(argv) == 3
    assert f"error: {what} must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_shear_delta_over_cap_exits_three(tmp_path, capsys):
    payload = json.loads(json.dumps(RUN_CFG))
    payload["shear"] = {"kind": "couette_plus_sine", "amplitude": 0.5, "wavenumber": 0.25}
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "error: measured delta" in capsys.readouterr().err


def test_cfl_violation_exits_four(tmp_path, capsys):
    payload = {
        "grid": {"nx": 16, "ny": 32, "Ly": 4 * math.pi},
        "params": {"nu": 1e-2, "mu": 1e-2, "T_end": 2.0, "dt": 1.0},
        "initial": {"eps1": 100.0},
    }
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "error: numerical failure" in err and "stability limit" in err


def test_validate_reports_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RUN_CFG)
    code = main(["validate", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "config: ok" in out
    assert "FAIL" not in out


def test_check_multiplier_passes(capsys):
    # it reads no config, so it needs none
    code = main(["check-multiplier"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", "--config", "c.json", "--workers", "2"],
    ["scan", "--config", "c.json", "--snapshot-stride", "5"],
    ["validate", "--config", "c.json", "--out", "o"],
    ["compare-oracle", "--config", "c.json", "--workers", "2"],
    ["check-multiplier", "--config", "c.json"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_flag_the_command_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_compare_oracle_writes_report(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    payload = {
        "grid": {"nx": 32, "ny": 32, "Ly": 2 * math.pi},
        "params": {"nu": 1e-2, "mu": 1e-2, "alpha": 0.0, "T_end": 0.05, "dt": 2e-3},
        "initial": {"family": "single_mode", "eps1": 1e-3, "eps2": 0.0,
                    "seed": 1, "width": 1.0},
    }
    cfg = write_cfg(tmp_path, payload)
    code = main(["compare-oracle", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    report = json.loads((tmp_path / "o" / "compare_oracle.json").read_text())
    assert report["rel_l2_diff"] < 0.05


def test_compare_oracle_fd_instability_exits_four(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    payload = {
        "grid": {"nx": 16, "ny": 32, "Ly": 2 * math.pi},
        "params": {"nu": 1e-2, "mu": 1e-2, "alpha": 0.0, "T_end": 0.2, "dt": 0.1},
        "initial": {"family": "single_mode", "eps1": 1e-3, "eps2": 0.0,
                    "seed": 1, "width": 1.0},
    }
    cfg = write_cfg(tmp_path, payload)
    code = main(["compare-oracle", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert "error: numerical failure" in err and "explicit limit" in err


def test_compare_oracle_checks_fd_limit_before_spectral_run(tmp_path, capsys, monkeypatch):
    # the oracle's limit is checked on its initial state: the spectral run
    # never starts
    monkeypatch.delenv("BQLAB_OUT", raising=False)

    def no_run(*args, **kwargs):
        raise AssertionError("the spectral run started")

    monkeypatch.setattr(cli, "run", no_run)
    payload = {
        "grid": {"nx": 16, "ny": 32, "Ly": 2 * math.pi},
        "params": {"nu": 1e-2, "mu": 1e-2, "alpha": 0.0, "T_end": 2.0, "dt": 0.1},
        "initial": {"family": "single_mode", "eps1": 1e-3, "eps2": 0.0,
                    "seed": 1, "width": 1.0},
    }
    cfg = write_cfg(tmp_path, payload)
    code = main(["compare-oracle", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert "error: numerical failure: dt = 1.000e-01 above the explicit limit" in err


def scan_two_columns(tmp_path, capsys, monkeypatch) -> str:
    """What ``bqlab scan`` prints on the benchmark's two columns, with the
    verdict eps <= sqrt(nu) in place of the solver."""
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    scan = harness.scan_threshold
    monkeypatch.setattr(harness, "scan_threshold", lambda spec, workers: scan(
        spec, verdict_fn=lambda nu, mu, eps: "stable" if eps <= math.sqrt(nu) else "unstable"))
    cfg = write_cfg(tmp_path, {"nu_list": [4.64e-2, 2.15e-2], "bracket": [0.01, 1.0],
                               "bracket_rtol": 0.75})
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    return capsys.readouterr().out


def test_scan_prints_the_slope_range(tmp_path, capsys, monkeypatch):
    out = scan_two_columns(tmp_path, capsys, monkeypatch)
    assert "gamma = 0.7483, brackets admit [0.0000, 1.4966] (10 runs)" in out
    assert "r2" not in out


def test_readme_shows_the_scan_line_as_printed(tmp_path, capsys, monkeypatch):
    # the README's sample line is this case's first line of output, verbatim
    first = scan_two_columns(tmp_path, capsys, monkeypatch).splitlines()[0]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"\n```\n{first}\n```\n" in readme


def test_scan_says_when_no_power_law_fits(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    monkeypatch.setattr(harness, "scan_threshold", lambda spec, workers: harness.ThresholdResult(
        points=[], gamma=None, gamma_range=None))
    cfg = write_cfg(tmp_path, {"nu_list": [1e-1, 1e-2], "bracket": [1e-4, 1.0]})
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "no power law passes through every bracket (0 runs)" in out
    assert "gamma =" not in out


def count_steps(monkeypatch):
    """Count evolve.step calls, so a test can assert that nothing ran."""
    steps = []
    step = evolve.step
    monkeypatch.setattr(evolve, "step", lambda *a: steps.append(1) or step(*a))
    return steps


def test_out_dir_below_a_file_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    steps = count_steps(monkeypatch)
    cfg = write_cfg(tmp_path, RUN_CFG)
    (tmp_path / "afile").write_text("")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "afile" / "sub")])
    assert code == 3
    assert "error: cannot create output directory" in capsys.readouterr().err
    assert not steps  # the directory is made before the run, not after


def test_scan_out_dir_below_a_file_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    steps = count_steps(monkeypatch)
    spec = {"nu_list": [1e-2], "bracket": [1e-6, 1e-4],
            "grid": [16, 32, 4 * math.pi], "T_end_rule": 0.1, "dt_rule": 5e-3}
    cfg = write_cfg(tmp_path, spec)
    (tmp_path / "afile").write_text("")
    code = main(["scan", "--config", cfg, "--out", str(tmp_path / "afile" / "sub")])
    assert code == 3
    assert "error: cannot create output directory" in capsys.readouterr().err
    assert not steps


def test_non_finite_initial_data_exits_four(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BQLAB_OUT", raising=False)
    make_initial = harness.make_initial

    def with_nan(*args, **kwargs):
        f = make_initial(*args, **kwargs)
        set_mode(f, 1, 0, math.nan)
        return f

    monkeypatch.setattr(harness, "make_initial", with_nan)
    cfg = write_cfg(tmp_path, RUN_CFG)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 4
    assert "error: numerical failure" in capsys.readouterr().err
    # strict JSON: no bare NaN or Infinity token; non-finite values are null
    summary = json.loads((tmp_path / "o" / "summary.json").read_text(),
                         parse_constant=reject_constant)
    assert summary["stop_reason"] == "non_finite"
    assert summary["sup_hN_omega"] is None


def test_non_finite_near_couette_data_stop_at_step_zero(tmp_path, capsys, monkeypatch):
    # the elliptic solve does not iterate on NaN data: before, it spun 50
    # iterations and raised EllipticError, and no summary was written
    import bqlab.shear as shear

    monkeypatch.delenv("BQLAB_OUT", raising=False)
    make_initial = harness.make_initial

    def with_nan(*args, **kwargs):
        f = make_initial(*args, **kwargs)
        set_mode(f, 1, 0, math.nan)
        return f

    calls = []
    laplace_t = shear.laplace_t
    monkeypatch.setattr(harness, "make_initial", with_nan)
    monkeypatch.setattr(shear, "laplace_t", lambda *a: calls.append(1) or laplace_t(*a))
    cfg = dict(RUN_CFG, grid={"nx": 32, "ny": 64, "Ly": 4 * math.pi},
               shear={"kind": "couette_plus_sine", "amplitude": 0.05, "wavenumber": 0.25})
    code = main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "error: numerical failure" in capsys.readouterr().err
    summary = json.loads((tmp_path / "o" / "summary.json").read_text(),
                         parse_constant=reject_constant)
    assert (summary["stop_reason"], summary["n_steps"]) == ("non_finite", 0)
    assert not calls


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")
