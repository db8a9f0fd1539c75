"""The benchmark's tracer names functions of bqlab; they must all exist.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` of its
``TARGETS`` at every import site.  A traced function that is renamed or
moved is reported there only as "missing", and its per-layer figures read
zero; this test fails instead.  The tracer imports only the standard
library, so it is loaded by path; its targets are read, and one test
installs it around a step to see that every 2D transform is traced.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bqlab import evolve, grid, shear
from bqlab.evolve import Params, make_state, step

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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


@pytest.mark.parametrize("nx, ny", [(32, 64), (64, 128)])
def test_tracer_sees_every_transform_of_a_step(nx, ny):
    # one step with live theta: each stage transforms its velocity pair, the
    # gradients of omega and theta and their two products; on the small
    # grid as stacks of 2, 4 and 2 fields, tagged with the bytes of the
    # whole stack and its result
    tr = load_tracer()
    g = grid.make_grid(nx, ny, 4 * np.pi)
    p = Params(nu=1e-3, mu=1e-3, alpha=0.1, T_end=1.0, dt=0.01)
    omega = grid.field_from_function(g, lambda X, Y: 0.05 * np.cos(X) * np.exp(-Y**2))
    theta = grid.field_from_function(g, lambda X, Y: 0.01 * np.sin(X) * np.exp(-(Y - 1) ** 2))
    st = make_state(omega, theta, shear.couette(g), p)
    tracer = tr.Tracer()
    with tracer.installed():
        step(st, p)
    tags = [tag for name, _, _, _, tag in tracer.spans if name == tr.FFT2]
    one = (nx // 2 + 1) * ny * 16 + nx * ny * 8
    stage = [2, 4, 2] if g.stacks_transforms else [1] * 8
    assert len(tags) == {(32, 64): 9, (64, 128): 24}[nx, ny]
    assert tags == [m * one for m in stage] * 3
