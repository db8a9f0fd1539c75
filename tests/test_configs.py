"""The example configs shipped in ``configs/`` and the README's defaults stay valid."""

import json
from pathlib import Path

import pytest

from bqlab.cli import main
from bqlab.harness import (
    SweepSpec,
    ThresholdResult,
    _slope_bounds,
    emit_outputs,
    load_config,
    validate_config,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_run_example_validates(capsys):
    assert main(["validate", "--config", str(CONFIGS / "run_example.json")]) == 0
    assert "config: ok" in capsys.readouterr().out


def test_readme_lists_the_schema_defaults():
    readme = (CONFIGS.parent / "README.md").read_text()
    block = readme.split("the defaults from `harness._SCHEMA`:\n\n```json\n", 1)[1]
    assert json.loads(block.split("```", 1)[0]) == validate_config({})


def test_readme_names_every_scan_output(tmp_path):
    # every threshold.json key, every point key and every threshold.csv column
    readme = (CONFIGS.parent / "README.md").read_text()
    readme = readme.split("`bqlab scan` writes three files:", 1)[1].split("\n## ", 1)[0]
    point = {"nu": 1e-2, "mu": 1e-2, "alpha": 0.0, "eps_crit": 0.1, "bracket_lo": 0.09,
             "bracket_hi": 0.11, "n_stable": 1, "n_unstable": 1}
    csv_path, json_path, _ = emit_outputs(ThresholdResult(points=[point]), tmp_path)
    payload = json.loads(json_path.read_text())
    names = [*payload, *payload["points"][0],
             *csv_path.read_text().splitlines()[0].split(",")]
    assert [name for name in names if f"`{name}`" not in readme] == []


def test_scan_example_builds_a_sweep_spec():
    # building the spec also validates each column's probe config
    SweepSpec(**load_config(CONFIGS / "scan_example.json"))


# per-column brackets of the shipped scan (nu = 1e-2, 3.16e-3, 1e-3), measured
# by bisection at 64x128 and at 64x256 with dt = 5e-3 and bracket_rtol = 0.25
MEASURED_BRACKETS = [(4.861, 5.657), (3.084, 3.589), (2.278, 2.650)]


def test_scan_example_bracket_straddles_every_column():
    # a bracket below every threshold made `bqlab scan` exit 3 on the
    # example; this guard runs no scan
    spec = load_config(CONFIGS / "scan_example.json")
    lo, hi = spec["bracket"]
    assert len(spec["nu_list"]) == len(MEASURED_BRACKETS)
    for below, above in MEASURED_BRACKETS:
        assert lo < below and above < hi


def test_scan_example_brackets_bound_the_slope():
    # the slopes the shipped scan's measured brackets admit; no scan runs
    nu_list = load_config(CONFIGS / "scan_example.json")["nu_list"]
    points = [{"nu": nu, "bracket_lo": lo, "bracket_hi": hi}
              for nu, (lo, hi) in zip(nu_list, MEASURED_BRACKETS)]
    assert _slope_bounds(points) == pytest.approx((0.2635, 0.3950), abs=5e-5)
