"""Config handling, single runs, threshold sweeps, emission."""

import csv
import json
import math

import numpy as np
import pytest

from bqlab import harness
from bqlab.grid import make_grid, sobolev_norm
from bqlab.harness import (
    _SCHEMA,
    BracketError,
    ConfigError,
    SweepSpec,
    config_hash,
    emit_outputs,
    exit_code_for,
    resolve_out_dir,
    run_single,
    scan_threshold,
    validate_config,
)
from bqlab.initial_data import make_initial, random_field, single_mode
from layout import parse_threshold_csv, set_mode

BASE_CFG = {
    "grid": {"nx": 32, "ny": 64, "Ly": 4 * math.pi},
    "params": {"nu": 1e-3, "mu": 1e-3, "alpha": 0.0, "T_end": 0.3, "dt": 0.01},
    "initial": {"family": "single_mode", "eps1": 1e-4, "eps2": 1e-7,
                "seed": 3, "width": 2.0},
    "observe": {"stride": 5},
}


def synthetic_verdict(nu, mu, eps):
    return "stable" if eps <= math.sqrt(nu) else "unstable"


class TestConfig:
    def test_defaults_filled(self):
        cfg = validate_config({"params": {"nu": 1e-2, "mu": 1e-2}})
        assert cfg["grid"]["nx"] == 64
        assert cfg["initial"]["family"] == "single_mode"

    @pytest.mark.parametrize("bad,msg", [
        ({"gird": {}}, "unknown config sections"),
        ({"grid": {"nx": 33}}, "even"),
        ({"grid": {"Ly": -1.0}}, "positive"),
        ({"params": {"dt": 0.0}}, "dt"),
        ({"initial": {"family": "vortex"}}, "family"),
        ({"shear": {"kind": "tanh"}}, "shear.kind"),
        ({"observe": {"stride": 0}}, "stride"),
        ({"params": {"stop_factor": 0.0}}, "stop_factor"),
        ({"params": {"T_end": math.inf}}, "T_end must be a finite real number"),
    ])
    def test_validation_messages(self, bad, msg):
        with pytest.raises(ConfigError, match=msg):
            validate_config(bad)

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, keys in _SCHEMA.items() for key in keys])
    def test_every_schema_key_is_checked(self, section, key):
        # derived from the schema, so a key added to it is tested here too
        kind, _, bound = _SCHEMA[section][key]
        wrong_type = 5 if kind[0]("x") else "x"
        bad_values = [wrong_type]
        if bound:  # the first value of the right type that the bound rejects
            bad_values += [next(v for v in (-1, 0, 3, -1.5, "no-such-option")
                                if kind[0](v) and not bound[0](v))]
        for value in bad_values:
            with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be "):
                validate_config({section: {key: value}})

    def test_hash_stable_under_key_order(self):
        a = {"params": {"nu": 1e-3, "mu": 1e-3}}
        b = {"params": {"mu": 1e-3, "nu": 1e-3}}
        assert config_hash(a) == config_hash(b)


class TestRunSingle:
    def test_stable_run_summary(self, tmp_path):
        s = run_single(BASE_CFG, out_dir=tmp_path)
        assert s["label"] == "stable" and s["stop_reason"] == "T_end"
        assert "stop_factor" not in s["config"]["params"]
        assert s["thm1"]["status"] == "pass"
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "series.csv").exists()

    def test_determinism_bit_identical(self, tmp_path):
        run_single(BASE_CFG, out_dir=tmp_path / "a")
        run_single(BASE_CFG, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()
        assert (tmp_path / "a" / "series.csv").read_bytes() == \
            (tmp_path / "b" / "series.csv").read_bytes()

    def test_budget_csv_emitted(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["observe"]["budgets"] = True
        run_single(cfg, out_dir=tmp_path)
        header = (tmp_path / "budget.csv").read_text().splitlines()[0]
        assert header.startswith("t,")
        assert "bud_T_omega" in header and "residual_omega" in header

    def test_budget_csv_residuals_match_discrete_budget(self, tmp_path):
        # both budget paths, mu != nu and alpha > 0 so every term is live
        from bqlab.diagnostics import discrete_budget_residual
        from bqlab.evolve import make_state
        from bqlab.harness import build_problem

        cfg = {
            "grid": {"nx": 16, "ny": 32, "Ly": 4 * math.pi},
            "shear": {"kind": "couette_plus_sine", "amplitude": 0.05, "wavenumber": 0.25},
            "params": {"nu": 2e-3, "mu": 5e-3, "alpha": 0.3, "T_end": 0.03, "dt": 0.01},
            "initial": {"family": "random", "eps1": 1e-2, "eps2": 1e-3, "seed": 4},
            "observe": {"stride": 1, "budgets": True},
        }
        run_single(cfg, out_dir=tmp_path)
        with open(tmp_path / "budget.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 and rows[-1]["residual_theta"] == ""

        _, _, profile, params, om0, th0, table = build_problem(cfg)
        r_om, r_th, _ = discrete_budget_residual(
            make_state(om0, th0, profile, params), params, table)
        assert r_om != 0.0 and r_th != 0.0
        assert float(rows[0]["residual_omega"]) == pytest.approx(r_om, rel=1e-9, abs=0)
        assert float(rows[0]["residual_theta"]) == pytest.approx(r_th, rel=1e-9, abs=0)

    def test_snapshots_written_and_readable(self, tmp_path):
        from bqlab.io import read_snapshot

        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["observe"]["snapshot_stride"] = 10
        run_single(cfg, out_dir=tmp_path)
        snaps = sorted(tmp_path.glob("omega_*.bqsf"))
        assert len(snaps) >= 2
        field, t = read_snapshot(snaps[0])
        assert t == 0.0
        assert field.grid.nx == 32

    def test_zero_amplitude_stable(self):
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["initial"]["eps1"] = 0.0
        cfg["initial"]["eps2"] = 0.0
        s = run_single(cfg)
        assert s["label"] == "stable"
        assert s["thm1"]["status"] == "pass"
        assert exit_code_for(s) == 0

    def test_exit_codes(self):
        s = {"label": "stable", "thm1": {"status": "pass"},
             "thm2": {"status": "out-of-regime"}}
        assert exit_code_for(s) == 0
        s["label"] = "unstable"
        assert exit_code_for(s) == 1
        s["thm1"]["status"] = "out-of-regime"
        assert exit_code_for(s) == 2
        # a non-finite state is a numerical failure, not the outcome "unstable"
        s["stop_reason"] = "non_finite"
        assert exit_code_for(s) == 4
        s["stop_reason"] = "guard"
        assert exit_code_for(s) == 2


class TestInitialData:
    def test_prescribed_norms_exact(self):
        g = make_grid(32, 64, 4 * math.pi)
        for eps in (1e-6, 1e-2):
            f = single_mode(g, eps, 5.0, width=2.0)
            assert abs(sobolev_norm(f, 5.0) - eps) <= 1e-12 * eps
            r = random_field(g, eps, 5.0, seed=7)
            assert abs(sobolev_norm(r, 5.0) - eps) <= 1e-12 * eps

    def test_single_mode_k_zero_row_is_exactly_zero(self):
        # cos(kx X) data have no X-mean: no transform round-off is left there
        for nx, ny, Ly in ((32, 64, 4 * math.pi), (16, 32, 2.5)):
            g = make_grid(nx, ny, Ly)
            f = single_mode(g, 1e-3, 5.0, width=2.0)
            assert np.all(f.coeffs[0] == 0.0)  # the row k = 0
            assert np.any(f.coeffs[1] != 0.0)

    @pytest.mark.parametrize("kx", [6, -6, 1000])
    def test_single_mode_outside_the_band_rejected(self, kx):
        # at 16x32 the 2/3 rule keeps |kx| <= 5: the data were round-off
        # scaled up to eps (kx = 6), or a zero field that could not be scaled
        with pytest.raises(ValueError, match="outside the dealiased band"):
            single_mode(make_grid(16, 32, math.pi), 1e-3, 5.0, kx=kx)
        assert np.any(single_mode(make_grid(16, 32, math.pi), 1e-3, 5.0, kx=5).coeffs[5])

    def test_random_field_deterministic_in_seed(self):
        g = make_grid(16, 32, math.pi)
        a = random_field(g, 1.0, 3.0, seed=5)
        b = random_field(g, 1.0, 3.0, seed=5)
        c = random_field(g, 1.0, 3.0, seed=6)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_unknown_family_rejected(self):
        g = make_grid(16, 32, math.pi)
        with pytest.raises(ValueError, match="family"):
            make_initial("vortex", g, 1.0, 5.0)


class TestScan:
    def test_synthetic_slope_recovered(self):
        spec = SweepSpec(nu_list=list(np.logspace(-1, -5, 9)),
                         bracket=(1e-4, 1.0), bracket_rtol=0.02)
        res = scan_threshold(spec, verdict_fn=synthetic_verdict)
        assert abs(res.gamma - 0.5) <= 0.01
        assert not res.non_monotone

    def test_gamma_is_the_centre_of_the_slope_range(self):
        # criterion 9's scan: a least-squares line through the midpoints had
        # slope 0.49922, outside the range [0.5, 0.5] its brackets admit
        spec = SweepSpec(nu_list=list(np.logspace(-1, -5, 9)),
                         bracket=(1e-4, 1.0), bracket_rtol=0.02)
        res = scan_threshold(spec, verdict_fn=synthetic_verdict)
        lo, hi = res.gamma_range
        assert lo <= res.gamma <= hi
        assert res.gamma == 0.5 * (lo + hi)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_is_a_config_error(self, workers):
        spec = SweepSpec(nu_list=[1e-1, 1e-2], bracket=(1e-4, 1.0))
        with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
            scan_threshold(spec, verdict_fn=synthetic_verdict, workers=workers)

    def test_single_nu_insufficient_data(self):
        spec = SweepSpec(nu_list=[1e-2], bracket=(1e-4, 1.0))
        res = scan_threshold(spec, verdict_fn=synthetic_verdict)
        assert res.insufficient_data
        assert res.gamma is None and res.gamma_range is None
        assert len(res.points) == 1
        assert res.points[0]["eps_crit"] == pytest.approx(0.1, rel=0.1)

    def test_two_columns_bound_the_slope(self, tmp_path):
        # the benchmark's columns: any two midpoints fit a line exactly, but
        # the brackets admit every slope in [0, 1.4966]
        spec = SweepSpec(nu_list=[4.64e-2, 2.15e-2], bracket=(0.01, 1.0), bracket_rtol=0.75)
        res = scan_threshold(spec, verdict_fn=synthetic_verdict)
        assert res.gamma_range == pytest.approx([0.0, 1.4966496570733], abs=1e-9)
        _, json_path, _ = emit_outputs(res, tmp_path)
        payload = json.loads(json_path.read_text())
        assert payload["gamma_range"] == res.gamma_range
        assert "gamma_stderr" not in payload and "gamma_ci95" not in payload
        assert "r2" not in payload
        # two columns: the centre is the slope through the two midpoints
        (p, q) = res.points
        assert res.gamma == pytest.approx(
            math.log(p["eps_crit"] / q["eps_crit"]) / math.log(p["nu"] / q["nu"]), rel=1e-12)

    @pytest.mark.parametrize("bracket, admitted", [((0.01, 1.0), [0.375, 0.625]),
                                                   ((1e-3, 1.0), [0.375, 0.5625])])
    def test_slope_range_is_what_the_brackets_admit(self, bracket, admitted):
        spec = SweepSpec(nu_list=[1e-1, 1e-2, 1e-3], bracket=bracket, bracket_rtol=0.75)
        res = scan_threshold(spec, verdict_fn=synthetic_verdict)
        assert res.gamma_range == pytest.approx(admitted, abs=1e-9)

    def test_no_power_law_through_the_brackets_is_null(self, tmp_path, monkeypatch):
        brackets = {1e-1: (0.30, 0.31), 1e-2: (0.10, 0.11), 1e-3: (0.10, 0.11)}

        def preset_column(spec, verdict_fn, nu):
            lo, hi = brackets[nu]
            return {"nu": nu, "mu": nu, "alpha": 0.0, "eps_crit": math.sqrt(lo * hi),
                    "bracket_lo": lo, "bracket_hi": hi, "n_stable": 1, "n_unstable": 1,
                    "runs": []}

        monkeypatch.setattr(harness, "_bisect_column", preset_column)
        res = scan_threshold(SweepSpec(nu_list=list(brackets)), verdict_fn=synthetic_verdict)
        assert res.gamma is None and res.gamma_range is None
        _, json_path, _ = emit_outputs(res, tmp_path)
        payload = json.loads(json_path.read_text())
        assert payload["gamma"] is None and payload["gamma_range"] is None

    def test_non_straddling_bracket_rejected(self):
        spec = SweepSpec(nu_list=[1e-2], bracket=(0.5, 1.0))
        with pytest.raises(BracketError, match="lower bracket"):
            scan_threshold(spec, verdict_fn=synthetic_verdict)
        spec2 = SweepSpec(nu_list=[1e-2], bracket=(1e-6, 1e-3))
        with pytest.raises(BracketError, match="upper bracket"):
            scan_threshold(spec2, verdict_fn=synthetic_verdict)

    def test_non_monotone_verdict_is_not_reported(self):
        # stable below 0.01 and again on [0.02, 0.05]: the first midpoint,
        # 0.0316, lands on the island, so the bisection closes on its upper
        # edge and never probes the unstable gap.  The probes it made are
        # monotone, so no column is reported non-monotone: this records the
        # limit of a bisection that sees only its own probes.
        def island(nu, mu, eps):
            return "stable" if eps <= 0.01 or 0.02 <= eps <= 0.05 else "unstable"

        res = scan_threshold(SweepSpec(nu_list=[1e-2], bracket=(1e-3, 1.0)),
                             verdict_fn=island)
        assert res.points[0]["bracket_lo"] <= 0.05 < res.points[0]["bracket_hi"]
        assert res.non_monotone == []
        stable = [r["eps"] for r in res.runs if r["verdict"] == "stable"]
        unstable = [r["eps"] for r in res.runs if r["verdict"] == "unstable"]
        assert max(stable) < min(unstable)

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="descending"):
            SweepSpec(nu_list=[1e-3, 1e-2])
        with pytest.raises(ConfigError, match="bracket"):
            SweepSpec(nu_list=[1e-2], bracket=(1.0, 0.5))

    def test_repeated_viscosity_rejected(self):
        # two equal abscissae would fit a slope with zero spread
        with pytest.raises(ConfigError, match="descending"):
            SweepSpec(nu_list=[1e-2, 1e-2])
        with pytest.raises(ConfigError, match="descending"):
            SweepSpec(nu_list=[1e-1, 1e-2, 1e-2, 1e-3])

    def test_eps_crit_within_bracket(self):
        spec = SweepSpec(nu_list=[1e-2, 1e-3], bracket=(1e-4, 1.0))
        res = scan_threshold(spec, verdict_fn=synthetic_verdict)
        for p in res.points:
            assert 1e-4 <= p["eps_crit"] <= 1.0
            assert p["bracket_lo"] <= p["eps_crit"] <= p["bracket_hi"]

    def test_run_ledger_records_every_probe(self):
        spec = SweepSpec(nu_list=[1e-2], bracket=(1e-4, 1.0))
        res = scan_threshold(spec, verdict_fn=synthetic_verdict)
        assert len(res.runs) == res.points[0]["n_stable"] + res.points[0]["n_unstable"]
        assert all(r["verdict"] in ("stable", "unstable") for r in res.runs)

    def test_worker_count_does_not_change_result(self):
        spec = SweepSpec(nu_list=[1e-1, 1e-2, 1e-3], bracket=(1e-4, 1.0))
        serial = scan_threshold(spec, verdict_fn=synthetic_verdict, workers=1)
        multi = scan_threshold(spec, verdict_fn=synthetic_verdict, workers=4)
        assert serial.gamma == multi.gamma
        assert serial.points == multi.points

    def test_process_pool_matches_serial_scan(self):
        # the physical verdict fans out over a process pool when workers > 1;
        # each column straddles its bracket, so both verdicts reach the merge
        spec = SweepSpec(nu_list=[4.64e-2, 2.15e-2], bracket=(17.0, 68.0),
                         bracket_rtol=0.99, grid=(16, 32, 4 * math.pi))
        serial = scan_threshold(spec, workers=1)
        pooled = scan_threshold(spec, workers=2)
        assert {r["verdict"] for r in serial.runs} == {"stable", "unstable"}
        assert pooled.points == serial.points
        assert pooled.runs == serial.runs

    def test_physical_verdict_path(self):
        # real runs through the default verdict; a tame bracket cannot straddle,
        # which must surface as the bracket error after two genuine runs
        spec = SweepSpec(nu_list=[1e-2], bracket=(1e-6, 1e-4),
                         grid=(16, 32, 4 * math.pi), T_end_rule=0.2, dt_rule=5e-3)
        with pytest.raises(BracketError, match="upper bracket"):
            scan_threshold(spec)
        from bqlab.harness import physical_verdict
        assert physical_verdict(spec, 1e-2, 1e-6) == "stable"

    def test_bootstrap_stop_keeps_every_verdict(self, monkeypatch, tmp_path):
        # each probe stops at its first step past stability_factor * eps1;
        # rerun without the stop and sampled on every step, the full run's
        # sup against the same level must give the same verdict
        spec = SweepSpec(nu_list=[4.64e-2], bracket=(4.0, 150.0), bracket_rtol=0.99,
                         grid=(16, 32, 4 * math.pi), T_end_rule=2.0)
        probes = []
        real_run_single = harness.run_single

        def captured(cfg, out_dir=None):
            probes.append((cfg, real_run_single(cfg, out_dir)))
            return probes[-1][1]

        monkeypatch.setattr(harness, "run_single", captured)
        res = scan_threshold(spec)
        assert {r["verdict"] for r in res.runs} == {"stable", "unstable"}
        assert len(probes) == len(res.runs)
        for idx, (run, (cfg, stopped)) in enumerate(zip(res.runs, probes)):
            assert cfg["params"]["stop_factor"] == spec.stability_factor
            full_cfg = json.loads(json.dumps(cfg))
            del full_cfg["params"]["stop_factor"]
            full_cfg["observe"]["stride"] = 1
            full = real_run_single(full_cfg, tmp_path / str(idx))
            assert full["stop_reason"] in ("T_end", "guard")
            with open(tmp_path / str(idx) / "series.csv", newline="") as fh:
                hN = [float(row["hN_omega"]) for row in csv.DictReader(fh)]
            assert full["sup_hN_omega"] == max(hN)
            level = spec.stability_factor * max(full["eps1"], 1e-300)
            past = full["sup_hN_omega"] > level
            today = "unstable" if full["stop_reason"] == "guard" or past else "stable"
            assert run["verdict"] == stopped["label"] == today
            if today == "stable":
                assert stopped["n_steps"] == full["n_steps"]
                assert stopped["stop_reason"] == "T_end"
            else:
                assert stopped["stop_reason"] == "bootstrap"
                first = next(step for step, h in enumerate(hN) if h > level)
                assert stopped["n_steps"] == first < full["n_steps"]
                assert stopped["sup_hN_omega"] == hN[first]

    def test_probe_verdict_and_sup_do_not_depend_on_the_stride(self):
        # the benchmark's nu = 2.15e-2 column at 32x64.  The eps = 27.378
        # probe first passes the bootstrap level at step 203, between two of
        # the scan's 50-step samples, where it was labelled stable; the
        # eps = 26 probe peaks at t = 2.3, also between samples, where the
        # sampled sup read 196.080
        spec = SweepSpec(nu_list=[4.64e-2, 2.15e-2], bracket=(17.0, 68.0), bracket_rtol=0.75)
        assert harness.physical_verdict(spec, 2.15e-2, 27.378) == "unstable"
        for eps, label, reason, n_steps in ((27.378, "unstable", "bootstrap", 203),
                                            (26.0, "stable", "T_end", 720)):
            summaries = []
            for stride in (1, 10, 50):
                cfg = harness._run_config_for(spec, 2.15e-2, eps)
                cfg["observe"]["stride"] = stride
                summaries.append(run_single(cfg))
            for s in summaries:
                assert (s["label"], s["stop_reason"], s["n_steps"]) == (label, reason, n_steps)
            assert len({(s["sup_hN_omega"], s["t_sup_hN_omega"]) for s in summaries}) == 1
        assert summaries[0]["sup_hN_omega"] == pytest.approx(201.509, abs=5e-4)
        assert summaries[0]["t_sup_hN_omega"] == pytest.approx(2.3, abs=1e-9)

    def test_near_couette_sup_is_its_initial_value(self):
        # the benchmark's near-Couette run: its H^N vorticity norm falls from
        # t = 0, so the sup is eps1 at t = 0 and the run never tested a bound
        cfg = {"grid": {"nx": 64, "ny": 128, "Ly": 4 * math.pi},
               "shear": {"kind": "couette_plus_sine", "amplitude": 0.05,
                         "wavenumber": 0.25},
               "params": {"nu": 1e-3, "mu": 1e-3, "T_end": 0.5, "dt": 0.01},
               "initial": {"family": "random", "eps1": 1.6e-3, "eps2": 5e-7,
                           "width": 2.0},
               "observe": {"stride": 5}}
        summary = run_single(cfg)
        assert summary["n_steps"] == 50
        assert summary["sup_hN_omega"] == summary["eps1"] == pytest.approx(1.6e-3, rel=1e-12)
        assert summary["t_sup_hN_omega"] == 0.0

    def test_non_finite_probe_is_unstable(self, monkeypatch):
        from bqlab import harness

        def poisoned(family, grid, *args, **kwargs):
            f = make_initial(family, grid, *args, **kwargs)
            set_mode(f, 1, 0, np.nan)
            return f

        monkeypatch.setattr(harness, "make_initial", poisoned)
        spec = SweepSpec(nu_list=[1e-2], bracket=(1e-6, 1e-4),
                         grid=(16, 32, 4 * math.pi), T_end_rule=0.2, dt_rule=5e-3)
        assert harness.physical_verdict(spec, 1e-2, 1e-6) == "unstable"
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["grid"] = {"nx": 16, "ny": 32, "Ly": 4 * math.pi}
        summary = run_single(cfg)
        assert summary["label"] == "unstable"
        assert summary["stop_reason"] == "non_finite"


class TestEmission:
    def test_empty_result_header_only(self, tmp_path):
        from bqlab.harness import ThresholdResult

        paths = emit_outputs(ThresholdResult(), tmp_path)
        lines = paths[0].read_text().splitlines()
        assert lines == ["nu,mu,alpha,eps_crit,gamma_local_lo,gamma_local_hi,"
                         "n_stable,n_unstable"]

    def test_csv_roundtrip(self, tmp_path):
        spec = SweepSpec(nu_list=[1e-1, 1e-2, 1e-3], bracket=(1e-4, 1.0))
        res = scan_threshold(spec, verdict_fn=synthetic_verdict)
        csv_path, json_path, plot_path = emit_outputs(res, tmp_path)
        rows = parse_threshold_csv(csv_path)
        assert len(rows) == 3
        for row, point in zip(rows, res.points):
            assert row["nu"] == point["nu"]
            assert row["eps_crit"] == point["eps_crit"]
        assert rows[0]["gamma_local"] is None
        for prev, row, point in zip(res.points, rows[1:], res.points[1:]):
            lo, hi = row["gamma_local"]
            assert (lo, hi) == harness._slope_bounds([prev, point])
            assert lo <= 0.5 <= hi
        payload = json.loads(json_path.read_text())
        assert payload["gamma"] == res.gamma
        assert "import matplotlib" in plot_path.read_text()

    @pytest.mark.parametrize("gamma", [None, 0.4375])
    def test_plot_script_compiles(self, tmp_path, gamma):
        # the template's doubled braces must leave valid Python; compiled,
        # not run: the script imports matplotlib
        from bqlab.harness import ThresholdResult

        *_, plot_path = emit_outputs(ThresholdResult(gamma=gamma), tmp_path)
        source = plot_path.read_text()
        compile(source, str(plot_path), "exec")
        assert f"gamma = {gamma}\n" in source
        assert 'f"slope {gamma:.3f}"' in source

    def test_non_finite_values_written_as_null(self, tmp_path):
        from bqlab.harness import ThresholdResult

        res = ThresholdResult(gamma=0.5, gamma_range=[-math.inf, math.nan])
        _, json_path, _ = emit_outputs(res, tmp_path)

        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        payload = json.loads(json_path.read_text(), parse_constant=reject)
        assert payload["gamma"] == 0.5
        assert payload["gamma_range"] == [None, None]

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BQLAB_OUT", str(tmp_path / "env"))
        assert resolve_out_dir("cli_dir") == tmp_path / "env"
        monkeypatch.delenv("BQLAB_OUT")
        assert str(resolve_out_dir("cli_dir")) == "cli_dir"
        assert str(resolve_out_dir(None)) == "bqlab_out"
