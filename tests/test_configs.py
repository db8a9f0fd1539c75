"""The example configs shipped in ``configs/`` and the README's defaults stay valid."""

import json
from pathlib import Path

from bqlab.cli import main
from bqlab.harness import SweepSpec, load_config, validate_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_run_example_validates(capsys):
    assert main(["validate", "--config", str(CONFIGS / "run_example.json")]) == 0
    assert "config: ok" in capsys.readouterr().out


def test_readme_lists_the_schema_defaults():
    readme = (CONFIGS.parent / "README.md").read_text()
    block = readme.split("the defaults from `harness._SCHEMA`:\n\n```json\n", 1)[1]
    assert json.loads(block.split("```", 1)[0]) == validate_config({})


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
