"""Spans around calls into bqlab's modules, recorded from the benchmark's side.

Tracing replaces each traced function with a wrapper that records a span:
its name, start, end, parent span and an optional tag (bytes computed, a
verdict).  A module that did ``from .grid import to_physical`` holds its own
binding of the name, so the wrapper is installed at every import site: every
module-level name in the package bound to the original function, and the
class attribute for methods.  Leaving :meth:`Tracer.installed` puts the
originals back; the untraced run never enters it.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager

# Span names that mark one unit of work, one RK3 step, one probe and one
# observer sample; per-step figures count only spans inside a step.
OP = "bench.op"
STEP = "evolve.step"
PROBE = "harness.physical_verdict"
SAMPLE = "diagnostics.observer"
SAMPLE_SPANS = (SAMPLE, "diagnostics.budget_snapshot")
FFT2 = "grid.fft2"


# Unit of every figure :func:`summarize` returns, plus the trace overhead.
LAYER_UNITS = {
    "grid.fft2.calls_per_step": "count/step",
    "grid.fft2.bytes_per_step_computed": "B/step",
    "grid.fft2.self_ms_per_step": "ms/step",
    "grid.multiply_y_profile.calls_per_step": "count/step",
    "grid.multiply_y_profile.self_ms_per_step": "ms/step",
    "shear.invert_laplace_t.calls_per_step": "count/step",
    "shear.invert_laplace_t.iters_per_solve": "count/solve",
    "shear.invert_laplace_t.self_ms_per_step": "ms/step",
    "shear.laplace_t.self_ms_per_step": "ms/step",
    "shear.build_frame.calls_per_step": "count/step",
    "shear.build_frame.ms_per_step": "ms/step",
    "shear.velocity_from_psi.ms_per_step": "ms/step",
    "evolve.step.ms_p50": "ms",
    "evolve.step.ms_p99": "ms",
    "evolve.step.samples": "count",
    "evolve.step.self_ms_per_step": "ms/step",
    "evolve.rhs_explicit.self_ms_per_step": "ms/step",
    "evolve.advection_term.self_ms_per_step": "ms/step",
    "evolve.cfl_limit.ms_per_step": "ms/step",
    "evolve.diffusion_integral.calls_per_step": "count/step",
    "evolve.diffusion_integral.ms_per_step": "ms/step",
    "evolve.make_state.ms": "ms",
    "harness.build_problem.ms": "ms",
    "initial_data.make_initial.ms": "ms",
    "multiplier.weights.calls_per_sample": "count/sample",
    "multiplier.weights.ms_per_sample": "ms/sample",
    "diagnostics.observer.ms_per_sample": "ms/sample",
    "diagnostics.budget_snapshot.ms_per_sample": "ms/sample",
    "diagnostics.energy_functionals.ms": "ms",
    "harness.physical_verdict.calls": "count/op",
    "harness.steps_per_probe.stable": "count/probe",
    "harness.steps_per_probe.unstable": "count/probe",
    "io.write_snapshot.calls": "count/op",
    "io.write_snapshot.bytes": "B/op",
    "io.write_snapshot.ms_per_call": "ms/call",
    "trace.overhead_pct": "%",
}


def _fft_bytes_to_physical(args, kwargs, out):
    return args[0].coeffs.nbytes + out.nbytes


def _fft_bytes_from_physical(args, kwargs, out):
    return args[1].nbytes + out.coeffs.nbytes


def _verdict(args, kwargs, out):
    return out


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


# (span name, module of bqlab, attribute, tag).  An attribute "Class.method"
# is wrapped on the class.  standard_observer is a factory: the observers it
# returns are traced, the factory call itself is not.
TARGETS = (
    (FFT2, "grid", "to_physical", _fft_bytes_to_physical),
    (FFT2, "grid", "field_from_physical", _fft_bytes_from_physical),
    ("grid.multiply_y_profile", "grid", "multiply_y_profile", None),
    ("shear.invert_laplace_t", "shear", "invert_laplace_t", None),
    ("shear.laplace_t", "shear", "laplace_t", None),
    ("shear.build_frame", "shear", "build_frame", None),
    ("shear.velocity_from_psi", "shear", "velocity_from_psi", None),
    ("evolve.make_state", "evolve", "make_state", None),
    ("evolve.run", "evolve", "run", None),
    (STEP, "evolve", "step", None),
    ("evolve.rhs_explicit", "evolve", "rhs_explicit", None),
    ("evolve.advection_term", "evolve", "advection_term", None),
    ("evolve.cfl_limit", "evolve", "cfl_limit", None),
    ("evolve.diffusion_integral", "evolve", "diffusion_integral", None),
    ("multiplier.weights", "multiplier", "MultiplierTable.A_weights", None),
    ("multiplier.weights", "multiplier", "MultiplierTable.dissipation_weights", None),
    (SAMPLE, "diagnostics", "standard_observer", None),
    ("diagnostics.budget_snapshot", "diagnostics", "budget_snapshot", None),
    ("diagnostics.energy_functionals", "diagnostics", "energy_functionals", None),
    ("harness.build_problem", "harness", "build_problem", None),
    ("harness.run_single", "harness", "run_single", None),
    (PROBE, "harness", "physical_verdict", _verdict),
    ("harness.scan_threshold", "harness", "scan_threshold", None),
    ("io.write_snapshot", "io", "write_snapshot", _file_bytes),
    ("initial_data.make_initial", "initial_data", "make_initial", None),
)
FACTORIES = {"standard_observer"}


PACKAGE = "bqlab"


@contextmanager
def rebound(module: str, attr: str, make_wrapper):
    """Replace ``bqlab.<module>.<attr>`` by ``make_wrapper(original)`` at
    every import site for the duration of the block."""
    undo = _rebind(module, attr, make_wrapper)
    try:
        yield
    finally:
        _restore(undo)


def _rebind(module, attr, make_wrapper) -> list:
    """Install the wrapper; returns ``(owner, name, original)`` to undo."""
    mod = sys.modules[f"{PACKAGE}.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = vars(mod)[cls_name]
        original = vars(cls)[meth]
        setattr(cls, meth, make_wrapper(original))
        return [(cls, meth, original)]
    original = vars(mod)[attr]
    wrapper = make_wrapper(original)
    undo = []
    for name, m in list(sys.modules.items()):
        if m is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(m).items()):
            if value is original:
                setattr(m, key, wrapper)
                undo.append((m, key, original))
    return undo


def _restore(undo) -> None:
    for owner, name, value in reversed(undo):
        setattr(owner, name, value)


class Tracer:
    """Records spans ``[name, start_ns, end_ns, parent, tag]`` in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if tag is not None:
                spans[idx][4] = tag(args, kwargs, out)
            return out

        return traced

    def _wrap_factory(self, name, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return traced_factory

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for name, module, attr, tag in TARGETS:
                if attr in FACTORIES:
                    make = functools.partial(self._wrap_factory, name)
                else:
                    make = functools.partial(self.wrap, name, tag=tag)
                try:
                    undo.extend(_rebind(module, attr, make))
                except (AttributeError, KeyError):
                    # a renamed or removed function: its figures read 0
                    if f"{module}.{attr}" not in self.missing:
                        self.missing.append(f"{module}.{attr}")
            yield
        finally:
            _restore(undo)

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps([name, start, end, parent, tag]) + "\n")


def self_times(spans) -> list[int]:
    """Duration of each span minus the time its child spans cover.

    Children of one parent start in order, so a running end mark merges
    any overlap between them.
    """
    covered = [0] * len(spans)
    reach = [s[1] for s in spans]  # end of the children seen so far
    for _name, start, end, parent, _tag in spans:
        if parent < 0:
            continue
        lo = max(start, reach[parent])
        if end > lo:
            covered[parent] += end - lo
            reach[parent] = end
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def _p99(values):
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def summarize(spans) -> dict:
    """Per-layer figures from the spans of one or more traced units of work.

    Per-step figures count only spans inside an ``evolve.step`` span,
    per-sample figures only spans inside an observer sample; counts per op
    are divided by the number of traced units of work.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    parent = [s[3] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    own = self_times(spans)
    step_of, sample_of, probe_of = [-1] * n, [-1] * n, [-1] * n
    by_name: dict[str, list[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            step_of[i] = p if names[p] == STEP else step_of[p]
            sample_of[i] = p if names[p] in SAMPLE_SPANS else sample_of[p]
            probe_of[i] = p if names[p] == PROBE else probe_of[p]
        by_name.setdefault(names[i], []).append(i)

    def every(name):
        return by_name.get(name, [])

    def in_step(name):
        return [i for i in every(name) if step_of[i] >= 0]

    ms = 1e-6
    steps = every(STEP)
    n_steps = len(steps)
    n_ops = max(len(every(OP)), 1)
    samples = len(every(SAMPLE))

    def per_step(x):
        return x / n_steps if n_steps else 0.0

    def per_sample(x):
        return x / samples if samples else 0.0

    def self_ms_per_step(name):
        return per_step(sum(own[i] for i in in_step(name))) * ms

    def ms_per_step(name):
        return per_step(sum(dur[i] for i in in_step(name))) * ms

    def median_ms(name):
        calls = every(name)
        return statistics.median(dur[i] for i in calls) * ms if calls else 0.0

    solves = in_step("shear.invert_laplace_t")
    iters = [i for i in in_step("shear.laplace_t")
             if names[parent[i]] == "shear.invert_laplace_t"]
    weights = [i for i in every("multiplier.weights") if sample_of[i] >= 0]
    step_ms = [dur[i] * ms for i in steps]

    probe_steps: dict[int, int] = {}
    for i in steps:
        if probe_of[i] >= 0:
            probe_steps[probe_of[i]] = probe_steps.get(probe_of[i], 0) + 1

    def steps_per_probe(verdict):
        counts = [probe_steps.get(i, 0) for i in every(PROBE) if spans[i][4] == verdict]
        return statistics.mean(counts) if counts else 0.0

    writes = every("io.write_snapshot")
    return {
        "grid.fft2.calls_per_step": per_step(len(in_step(FFT2))),
        "grid.fft2.bytes_per_step_computed": per_step(sum(spans[i][4] for i in in_step(FFT2))),
        "grid.fft2.self_ms_per_step": self_ms_per_step(FFT2),
        "grid.multiply_y_profile.calls_per_step": per_step(len(in_step("grid.multiply_y_profile"))),
        "grid.multiply_y_profile.self_ms_per_step": self_ms_per_step("grid.multiply_y_profile"),
        "shear.invert_laplace_t.calls_per_step": per_step(len(solves)),
        "shear.invert_laplace_t.iters_per_solve": len(iters) / len(solves) if solves else 0.0,
        "shear.invert_laplace_t.self_ms_per_step": self_ms_per_step("shear.invert_laplace_t"),
        "shear.laplace_t.self_ms_per_step": self_ms_per_step("shear.laplace_t"),
        "shear.build_frame.calls_per_step": per_step(len(in_step("shear.build_frame"))),
        "shear.build_frame.ms_per_step": ms_per_step("shear.build_frame"),
        "shear.velocity_from_psi.ms_per_step": ms_per_step("shear.velocity_from_psi"),
        "evolve.step.ms_p50": statistics.median(step_ms) if step_ms else 0.0,
        "evolve.step.ms_p99": _p99(step_ms) if step_ms else 0.0,
        "evolve.step.samples": n_steps,
        "evolve.step.self_ms_per_step": per_step(sum(own[i] for i in steps)) * ms,
        "evolve.rhs_explicit.self_ms_per_step": self_ms_per_step("evolve.rhs_explicit"),
        "evolve.advection_term.self_ms_per_step": self_ms_per_step("evolve.advection_term"),
        "evolve.cfl_limit.ms_per_step": ms_per_step("evolve.cfl_limit"),
        "evolve.diffusion_integral.calls_per_step":
            per_step(len(in_step("evolve.diffusion_integral"))),
        "evolve.diffusion_integral.ms_per_step": ms_per_step("evolve.diffusion_integral"),
        "evolve.make_state.ms": median_ms("evolve.make_state"),
        "harness.build_problem.ms": median_ms("harness.build_problem"),
        "initial_data.make_initial.ms": median_ms("initial_data.make_initial"),
        "multiplier.weights.calls_per_sample": per_sample(len(weights)),
        "multiplier.weights.ms_per_sample": per_sample(sum(dur[i] for i in weights)) * ms,
        "diagnostics.observer.ms_per_sample": per_sample(sum(dur[i] for i in every(SAMPLE))) * ms,
        "diagnostics.budget_snapshot.ms_per_sample":
            per_sample(sum(dur[i] for i in every("diagnostics.budget_snapshot"))) * ms,
        "diagnostics.energy_functionals.ms": median_ms("diagnostics.energy_functionals"),
        "harness.physical_verdict.calls": len(every(PROBE)) / n_ops,
        "harness.steps_per_probe.stable": steps_per_probe("stable"),
        "harness.steps_per_probe.unstable": steps_per_probe("unstable"),
        "io.write_snapshot.calls": len(writes) / n_ops,
        "io.write_snapshot.bytes": sum(spans[i][4] for i in writes) / n_ops,
        "io.write_snapshot.ms_per_call":
            statistics.mean(dur[i] for i in writes) * ms if writes else 0.0,
    }
