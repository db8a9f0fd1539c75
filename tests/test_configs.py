"""The example configs shipped in ``configs/`` stay valid."""

from pathlib import Path

from bqlab.cli import main
from bqlab.harness import SweepSpec, load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_run_example_validates(capsys):
    assert main(["validate", "--config", str(CONFIGS / "run_example.json")]) == 0
    assert "config: ok" in capsys.readouterr().out


def test_scan_example_builds_a_sweep_spec():
    # building the spec also validates each column's probe config
    SweepSpec(**load_config(CONFIGS / "scan_example.json"))
