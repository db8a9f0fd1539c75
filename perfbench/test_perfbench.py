"""Fast self-test of the benchmark at toy sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that span self-time arithmetic is right, that tracing leaves outputs
byte-identical, and that a probe raising CflError counts as a failed
operation without crashing the benchmark.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

assert bench.load_bqlab(HERE.parent) is not None, "bqlab sources not found"

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def toy(name: str, seed: int = 3):
    """Each workload at a size that runs in about a second."""
    if name == workloads.NearCouette.name:
        return workloads.NearCouette(seed, nx=16, ny=32, T_end=0.04, snapshot_stride=2)
    if name == workloads.Inviscid.name:
        return workloads.Inviscid(seed, n=32, T_end=0.02)
    # a low stability factor makes amplitude 30 unstable within T_end
    return workloads.Scan(seed, grid=(16, 32, 4 * math.pi), T_end_rule=0.1,
                          stability_factor=1.001, bracket=(7.5, 30.0), bracket_rtol=0.9)


def measured(wl, tmp_path, trace: bool):
    run = bench.Run(wl, seconds=0.0, trace=trace, work_dir=tmp_path)
    run.measure(reference=None)
    return run


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_emitted(tmp_path):
    for name in workloads.WORKLOADS:
        run = measured(toy(name), tmp_path / name, trace=True)
        assert run.failures == [], (name, run.failures)
        assert run.tracer.missing == []
        e2e = bench._metric_block(run.end_to_end(), bench.END_TO_END_UNITS)
        layer = bench._metric_block(run.per_layer(), tracer.LAYER_UNITS)
        assert set(e2e) == set(bench.END_TO_END_UNITS)
        assert set(layer) == set(tracer.LAYER_UNITS)
        assert all(math.isfinite(m["value"]) for m in (*e2e.values(), *layer.values()))
        assert e2e["steps_per_s"]["value"] > 0 and e2e["setup_s"]["value"] > 0
        assert layer["grid.fft2.calls_per_step"]["value"] > 0
        if name == workloads.Scan.name:
            assert layer["harness.physical_verdict.calls"]["value"] == 6
            assert layer["harness.steps_per_probe.stable"]["value"] == 10
        if name == workloads.NearCouette.name:
            assert layer["io.write_snapshot.calls"]["value"] == 6
            assert layer["shear.invert_laplace_t.iters_per_solve"]["value"] > 1


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["a", 0, 100, -1, None],
        ["b", 10, 30, 0, None],
        ["c", 25, 50, 0, None],   # overlaps b: a's children cover [10, 50)
        ["d", 40, 45, 2, None],
        ["e", 60, 70, 0, None],
    ]
    assert tracer.self_times(spans) == [50, 20, 20, 5, 10]


def test_tracer_records_parents_and_restores_bindings():
    from bqlab import evolve, grid, shear

    original = grid.to_physical
    t = tracer.Tracer()
    with t.installed():
        assert evolve.to_physical is not original
        assert shear.build_frame is evolve.build_frame
    assert evolve.to_physical is original and grid.to_physical is original
    assert t.spans == []

    inner_t = t.wrap("inner", lambda: 1)
    outer_t = t.wrap("outer", lambda: inner_t() + inner_t())
    assert outer_t() == 2
    assert [(s[0], s[3]) for s in t.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]


def test_traced_outputs_byte_identical(tmp_path):
    wl = toy(workloads.NearCouette.name)
    wl.work(tmp_path / "plain")
    t = tracer.Tracer()
    with t.installed():
        wl.work(tmp_path / "traced")
    assert t.spans
    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert plain == sorted(p.name for p in (tmp_path / "traced").iterdir())
    assert "summary.json" in plain
    for name in plain:
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "traced" / name).read_bytes(), name


def test_cfl_error_probe_counts_as_failed(tmp_path):
    # amplitude 100 at nu = 1e-2 on 32x64 with dt = 0.01 exceeds the CFL limit
    wl = workloads.Scan(0, nu_list=[1e-2], bracket=(100.0, 200.0))
    run = measured(wl, tmp_path, trace=False)
    assert (run.attempted, run.failed) == (1, 1)
    assert "CflError" in run.failures[0]
    assert run.records == []
    assert set(run.end_to_end()) == set(bench.END_TO_END_UNITS)


def test_nonfinite_state_labelled_stable_is_a_failure(tmp_path):
    # one NaN coefficient on the Couette path: the solver still says stable
    wl = toy(workloads.Inviscid.name)
    omega = wl.problem[0]
    omega.coeffs[omega.grid.nx // 2 + 1, omega.grid.ny // 2 + 1] = float("nan")
    result = wl.audit(tmp_path)
    assert "non-finite final state labelled 'stable'" in result.failures


def test_nonfinite_stable_probe_is_a_failure():
    summary = {"label": "stable", "sup_hN_omega": float("nan"), "thm1": {"ratios": [1.0]}}
    assert workloads._check_summary(summary, "probe") == ["probe: non-finite .sup_hN_omega"]


def test_reference_comparison():
    want = {"exact": {"n_steps": 50}, "close": {"E_omega": 1.0}}
    ok = {"exact": {"n_steps": 50}, "close": {"E_omega": 1.0 + 1e-12}}
    assert workloads.compare_reference(ok, want) == []
    bad = {"exact": {"n_steps": 49}, "close": {"E_omega": 1.0 + 1e-6}}
    assert len(workloads.compare_reference(bad, want)) == 2
