"""The benchmark's tracer names functions of bqlab; they must all exist.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` of its
``TARGETS`` at every import site.  A traced function that is renamed or
moved is reported there only as "missing", and its per-layer figures read
zero; this test fails instead.  The tracer imports only the standard
library, so it is loaded by path; its targets are read, and two tests
install it around a step to see that every 2D transform is traced and
nests under the span that makes it.  The workloads are loaded by path too,
and each one's checked first unit of work must match the benchmark's
seed-0 reference.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bqlab import evolve, grid, shear
from bqlab.evolve import Params, make_state, step

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = BENCH / "tracer.py"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize("module, attr", [(m, a) for _, m, a, _ in TARGETS],
                         ids=[f"{m}.{a}" for _, m, a, _ in TARGETS])
def test_traced_target_resolves(module, attr):
    owner = importlib.import_module(f"bqlab.{module}")
    for name in attr.split("."):
        assert name in vars(owner), f"bqlab.{module} has no {attr}"
        owner = vars(owner)[name]
    assert callable(owner)


def test_rebinding_reaches_the_stepper():
    # the tracer rebinds a function at every module-level name bound to it;
    # the benchmark's own self-test relies on these two bindings
    assert evolve.to_physical is grid.to_physical
    assert evolve.build_frame is shear.build_frame


@pytest.mark.parametrize("nx, ny", [(32, 64), (64, 128)])
def test_fft_byte_tags_read_real_transform_calls(nx, ny):
    # the tracer tags each traced transform with the bytes it reads and
    # writes, from the call's arguments and result
    tr = load_tracer()
    g = grid.make_grid(nx, ny, 1.0)
    values = np.random.default_rng(0).standard_normal((nx, ny))
    f = grid.field_from_physical(g, values)
    back = grid.to_physical(f)
    spectral = (nx // 2 + 1) * ny * 16
    physical = nx * ny * 8
    assert tr._fft_bytes_from_physical((g, values), {}, f) == physical + spectral
    assert tr._fft_bytes_to_physical((f,), {}, back) == spectral + physical
    # the stepper's keyword forms pass the same arguments and results
    kw = {"dealias": True}
    f = grid.field_from_physical(g, values, **kw)
    assert tr._fft_bytes_from_physical((g, values), kw, f) == physical + spectral
    f.coeffs[g._kept_rows.stop:] = 0.0
    kw = {"out": np.empty((nx, ny))}
    back = grid.to_physical(f, **kw)
    assert tr._fft_bytes_to_physical((f,), kw, back) == spectral + physical


def traced_step(tr, nx, ny):
    """The spans of one step with live theta, traced with the tracer ``tr``."""
    g = grid.make_grid(nx, ny, 4 * np.pi)
    p = Params(nu=1e-3, mu=1e-3, alpha=0.1, T_end=1.0, dt=0.01)
    omega = grid.field_from_function(g, lambda X, Y: 0.05 * np.cos(X) * np.exp(-Y**2))
    theta = grid.field_from_function(g, lambda X, Y: 0.01 * np.sin(X) * np.exp(-(Y - 1) ** 2))
    st = make_state(omega, theta, shear.couette(g), p)
    tracer = tr.Tracer()
    with tracer.installed():
        step(st, p)
    return tracer.spans


@pytest.mark.parametrize("nx, ny", [(32, 64), (64, 128), (256, 256)])
def test_tracer_sees_every_transform_of_a_step(nx, ny):
    # each stage transforms its velocity pair, the gradients of omega and
    # theta and their two products, at every grid size as a stack of 6
    # fields and one of 2, tagged with the bytes of the whole stack and its
    # result
    tr = load_tracer()
    spans = traced_step(tr, nx, ny)
    tags = [tag for name, _, _, _, tag in spans if name == tr.FFT2]
    one = (nx // 2 + 1) * ny * 16 + nx * ny * 8
    assert tags == [6 * one, 2 * one] * 3


@pytest.mark.parametrize("nx, ny, nested", [(32, 64, 6), (64, 128, 6), (256, 256, 6)])
def test_advection_span_covers_its_transforms(nx, ny, nested):
    # every transform of a step, of the velocity, the gradients and the
    # products, runs inside the advection_term span, so its self time is
    # the products' and no transform's
    tr = load_tracer()
    spans = traced_step(tr, nx, ny)

    def under_advection(i):
        while i >= 0:
            if spans[i][0] == "evolve.advection_term":
                return True
            i = spans[i][3]
        return False

    ffts = [i for i, span in enumerate(spans) if span[0] == tr.FFT2]
    assert sum(map(under_advection, ffts)) == len(ffts) == nested


@pytest.mark.parametrize("name", list(REFERENCE))
def test_seed0_audit_matches_the_reference(name, tmp_path, monkeypatch):
    # the benchmark refuses a run whose first, checked unit of work fails a
    # check or departs from reference.json; this is that unit at seed 0
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports tracer by name
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    wls = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, wls)  # dataclasses look it up
    spec.loader.exec_module(wls)
    audit = wls.WORKLOADS[name](wls.DEFAULT_SEED).audit(tmp_path / "audit")
    assert audit.failures == []
    assert wls.compare_reference(audit.reference, REFERENCE[name]) == []
