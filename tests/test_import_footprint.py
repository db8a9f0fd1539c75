"""A run loads only what it executes: ``import bqlab`` alone loads no
submodule, and importing its CLI, one run, a serial scan and two oracle
steps leave scipy and the process pool unloaded.  Only ``shear.kind: file``
imports scipy, when it runs (its own tests cover that path)."""

import os
import subprocess
import sys
from pathlib import Path

import bqlab

SRC = Path(bqlab.__file__).resolve().parent.parent

SCRIPT = """
import math, sys
import bqlab
loaded = sorted(name for name in sys.modules if name.startswith("bqlab."))
assert not loaded, loaded
import bqlab.cli
from bqlab.harness import BracketError, SweepSpec, run_single, scan_threshold

summary = run_single({"grid": {"nx": 8, "ny": 16},
                      "params": {"T_end": 0.02, "dt": 0.01},
                      "observe": {"stride": 1}})
assert summary["n_steps"] == 2, summary["n_steps"]
spec = SweepSpec(nu_list=[1e-2], bracket=(1e-6, 1e-4), grid=(8, 16, 4 * math.pi),
                 T_end_rule=0.02, dt_rule=0.01)
try:
    scan_threshold(spec, workers=1)
except BracketError:
    pass  # the tame bracket does not straddle; both probes ran serially

from bqlab.evolve import Params, make_state
from bqlab.grid import make_grid
from bqlab.initial_data import single_mode
from bqlab.oracle import fd_run, make_fd_initial
from bqlab.shear import couette
g = make_grid(8, 16, 4 * math.pi)
p = Params(nu=1e-2, mu=1e-2, alpha=0.0, T_end=0.02, dt=0.01)
st = make_state(single_mode(g, 1e-3, 5.0), single_mode(g, 1e-4, 5.0), couette(g), p)
fd = fd_run(make_fd_initial(st), p, couette(g), g, p.T_end)
assert abs(fd.t - p.T_end) < 1e-12, fd.t
print(" ".join(sorted(name for name in sys.modules
                      if name.split(".")[0] in ("scipy", "multiprocessing")
                      or name == "concurrent.futures.process")))
"""


def test_run_and_serial_scan_load_neither_scipy_nor_multiprocessing():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
