"""The benchmark's workloads: inputs made from a seed, one unit of work each,
and the checks every unit of work must pass.

Each workload is a closed loop: one caller runs a unit of work, waits for
it, checks it and starts the next.  ``setup`` repeats the set-up a user pays
before the first step (config validation, grid tables, shear profile and
frame, initial data, the first elliptic solve).  ``work`` is the timed unit
of work and ``check`` inspects its outputs outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bqlab import evolve, grid, harness, shear
from bqlab import io as snap_io

from tracer import rebound

DEFAULT_SEED = 0
REFERENCE_RTOL = 1e-9  # allows round-off from reordered sums, nothing more

# Errors a unit of work may raise; each counts as a failed operation.
SOLVER_ERRORS = (evolve.CflError, shear.EllipticError, shear.ShearError,
                 harness.BracketError)


@dataclass
class OpResult:
    """What one checked unit of work produced."""

    steps: int | None          # RK3 steps; None when the work cannot see them
    ops: int                   # runs or probes attempted
    failures: list = field(default_factory=list)
    digest: str = ""           # hash of every output, for run-to-run identity
    reference: dict = field(default_factory=dict)
    raised: bool = False       # the work raised one of SOLVER_ERRORS

    @classmethod
    def from_error(cls, exc: Exception, ops: int = 1) -> "OpResult":
        return cls(steps=None, ops=ops, raised=True,
                   failures=[f"{type(exc).__name__}: {exc}"])


def _nonfinite(value, path="") -> list:
    """Paths of every non-finite number inside a JSON-like value."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _nonfinite(v, f"{path}.{k}")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in _nonfinite(v, f"{path}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [path]
    return []


def _check_summary(summary: dict, what: str) -> list:
    failures = [f"{what}: non-finite {p}" for p in _nonfinite(summary)]
    if summary["label"] not in ("stable", "unstable"):
        failures.append(f"{what}: label {summary['label']!r}")
    return failures


class _Workload:
    def audit(self, out_dir: Path) -> OpResult:
        """The untimed first unit of work, checked."""
        return self.check(self.work(out_dir), out_dir)


class NearCouette(_Workload):
    """``configs/run_example.json`` over a short horizon with random data.

    The only workload with a non-Couette frame: it runs the elliptic
    iteration (``shear.invert_laplace_t``), the Y-profile products
    (``grid.multiply_y_profile``), the budget observers and snapshot output
    (``io``).
    """

    name = "near_couette_64x128"

    def __init__(self, seed: int, nx: int = 64, ny: int = 128, T_end: float = 0.5,
                 snapshot_stride: int = 25):
        self.cfg = {
            "grid": {"nx": nx, "ny": ny, "Ly": 4 * math.pi},
            "shear": {"kind": "couette_plus_sine", "amplitude": 0.05, "wavenumber": 0.25},
            "params": {"nu": 1e-3, "mu": 1e-3, "alpha": 0.0, "N": 5,
                       "T_end": T_end, "dt": 0.01},
            "initial": {"family": "random", "eps1": 1.6e-3, "eps2": 5e-7,
                        "seed": seed, "kx": 1, "width": 2.0},
            "observe": {"stride": 5, "budgets": True, "snapshot_stride": snapshot_stride},
            "monitor": {"gamma1": 0.1, "gamma2": 0.1, "bound": 8.0},
        }

    def setup(self):
        _, _, profile, params, omega0, theta0, _ = harness.build_problem(self.cfg)
        evolve.make_state(omega0, theta0, profile, params)

    def work(self, out_dir: Path):
        return harness.run_single(self.cfg, out_dir=out_dir)

    def check(self, summary: dict, out_dir: Path) -> OpResult:
        failures = _check_summary(summary, "run")
        files = sorted(p for p in out_dir.iterdir())
        for path in files:
            if path.suffix == ".csv":
                failures += _check_csv(path)
            elif path.suffix == ".bqsf":
                f, _ = snap_io.read_snapshot(path)
                if not np.all(np.isfinite(f.coeffs)):
                    failures.append(f"{path.name}: non-finite coefficients")
        snapshots = [p for p in files if p.suffix == ".bqsf"]
        n, stride = summary["n_steps"], self.cfg["observe"]["snapshot_stride"]
        expected = 2 * (1 + n // stride + (1 if n % stride else 0))
        if len(snapshots) != expected:
            failures.append(f"{len(snapshots)} snapshot files, expected {expected}")
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return OpResult(
            steps=summary["n_steps"], ops=1, failures=failures,
            digest=digest.hexdigest(),
            reference={"exact": {"label": summary["label"], "n_steps": summary["n_steps"]},
                       "close": {"E_omega": summary["E_omega"],
                                 "sup_hN_omega": summary["sup_hN_omega"]}})


def _check_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    bad = [f"{path.name} row {r}" for r, row in enumerate(rows[1:], 1)
           for cell in row if cell and not math.isfinite(float(cell))]
    return [f"non-finite value in {b}" for b in bad[:5]]


class Inviscid(_Workload):
    """Acceptance criterion 4 (inviscid conservation) at 256^2, Couette shear.

    ``nu = mu = 0`` is reachable only through the library (the config path
    rejects ``nu = 0``).  FFT-bound: with zero coefficients the diffusion
    propagators are 1.0, and Couette has no elliptic iteration and no
    Y-profile products.
    """

    name = "inviscid_256sq"
    DRIFT_MAX = 1e-6         # enstrophy drift per unit time
    DIVERGENCE_MAX = 1e-12

    def __init__(self, seed: int, n: int = 256, T_end: float = 0.1):
        rng = np.random.default_rng(seed)
        self.n = n
        self.phases = rng.uniform(0.0, 2.0 * math.pi, 2)
        self.centres = rng.uniform(-1.0, 1.0, 2)
        self.params = evolve.Params(nu=0.0, mu=0.0, alpha=0.0, T_end=T_end, dt=5e-3,
                                    check_divergence=True)
        self.problem = self._problem()

    def _problem(self):
        """Grid, Couette profile and two Gaussian packets with seeded phases
        and centres."""
        g = grid.make_grid(self.n, self.n, 2 * math.pi)
        (p0, p1), (c0, c1) = self.phases, self.centres
        omega = grid.dealias(grid.field_from_function(
            g, lambda X, Y: 0.05 * np.cos(X + p0) * np.exp(-((Y - c0) ** 2))
            + 0.03 * np.sin(2 * X + p1) * np.exp(-((Y - c1) ** 2))))
        omega.coeffs[g.nx // 2, g.ny // 2] = 0.0
        return omega, grid.zero_field(g), shear.couette(g)

    def setup(self):
        omega, theta, profile = self._problem()
        evolve.make_state(omega, theta, profile, self.params)

    def work(self, out_dir: Path):
        omega, theta, profile = self.problem
        state = evolve.make_state(omega, theta, profile, self.params)
        return state, evolve.run(state, self.params, stride=1000)

    def check(self, result, out_dir: Path) -> OpResult:
        state, traj = result
        final = traj.final_state
        failures = []
        if not (np.all(np.isfinite(final.omega.coeffs))
                and np.all(np.isfinite(final.theta.coeffs))):
            failures.append(f"non-finite final state labelled {traj.label!r}")
        e0 = grid.l2_norm(state.omega)
        e1 = grid.l2_norm(final.omega)
        drift = abs(e1 - e0) / e0 / self.params.T_end
        if not drift <= self.DRIFT_MAX:
            failures.append(f"enstrophy drift {drift:.3e} > {self.DRIFT_MAX:g} per unit time")
        if not traj.max_divergence <= self.DIVERGENCE_MAX:
            failures.append(f"divergence {traj.max_divergence:.3e} > {self.DIVERGENCE_MAX:g}")
        digest = hashlib.sha256()
        digest.update(str(traj.n_steps).encode())
        for f in (final.omega, final.theta, final.psi):
            digest.update(f.coeffs.tobytes())
        return OpResult(
            steps=traj.n_steps, ops=1, failures=failures, digest=digest.hexdigest(),
            reference={"exact": {"label": traj.label, "n_steps": traj.n_steps},
                       "close": {"l2_omega_final": e1,
                                 "hN_omega_final": grid.sobolev_norm(final.omega,
                                                                     self.params.N)}})


class Scan(_Workload):
    """``harness.scan_threshold`` with ``workers=1`` on the default grid.

    Two Couette columns with auto ``T_end``, so a bracket seeded from the
    previous column could show.  ``single_mode`` data ignore the seed: the
    inputs are the same for every seed.
    """

    name = "scan_couette_32x64"

    SPEC = {"nu_list": [4.64e-2, 2.15e-2], "bracket": (17.0, 68.0), "bracket_rtol": 0.75}

    def __init__(self, seed: int, **spec_fields):
        self.spec = harness.SweepSpec(seed=seed, **{**self.SPEC, **spec_fields})

    def setup(self):
        cfg = harness._run_config_for(self.spec, self.spec.nu_list[0], self.spec.bracket[0])
        _, _, profile, params, omega0, theta0, _ = harness.build_problem(cfg)
        evolve.make_state(omega0, theta0, profile, params)

    def work(self, out_dir: Path):
        return harness.scan_threshold(self.spec, workers=1)

    def audit(self, out_dir: Path) -> OpResult:
        """One scan with every probe's summary captured.

        The summaries give the steps of each probe and let the check catch
        a probe whose state went non-finite but whose verdict says stable.
        """
        summaries = []

        def capture(run_single):
            def captured(cfg, out_dir=None):
                summaries.append(run_single(cfg, out_dir))
                return summaries[-1]
            return captured

        try:
            with rebound("harness", "run_single", capture):
                result = self.work(out_dir)
        except SOLVER_ERRORS as exc:
            # the probe that raised is the one after the last summary
            return OpResult.from_error(exc, ops=len(summaries) + 1)
        checked = self.check(result, out_dir)
        for probe, summary in zip(result.runs, summaries):
            what = f"probe nu={probe['nu']:g} eps={probe['eps']:g}"
            bad = _check_summary(summary, what)
            if bad and probe["verdict"] == "stable":
                bad.append(f"{what}: non-finite state passed as stable")
            checked.failures += bad
        checked.steps = sum(s["n_steps"] for s in summaries)
        # an early stop may shorten unstable probes, never stable ones
        checked.reference["exact"]["stable_probe_steps"] = [
            s["n_steps"] for probe, s in zip(result.runs, summaries)
            if probe["verdict"] == "stable"]
        return checked

    def check(self, result, out_dir: Path) -> OpResult:
        # guards a future change to the bisection: today's _bisect_column keeps
        # lo stable and hi unstable, so it cannot report a non-monotone column
        failures = [f"non-monotone column {v}" for v in result.non_monotone]
        failures += [f"non-finite point {p}" for p in _nonfinite(result.points)]
        if result.gamma is None or not math.isfinite(result.gamma):
            failures.append(f"scaling exponent {result.gamma!r}")
        outputs = {"points": result.points, "runs": result.runs,
                   "non_monotone": result.non_monotone, "gamma": result.gamma}
        digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
        return OpResult(
            steps=None, ops=len(result.runs), failures=failures, digest=digest,
            reference={"exact": {"verdicts": [[r["nu"], r["eps"], r["verdict"]]
                                              for r in result.runs]},
                       "close": {"eps_crit": [p["eps_crit"] for p in result.points]}})


WORKLOADS = {w.name: w for w in (NearCouette, Inviscid, Scan)}


def compare_reference(got: dict, want: dict) -> list:
    """Failures where ``got`` departs from the recorded reference values."""
    failures = []
    for key, value in want["exact"].items():
        if got["exact"].get(key) != value:
            failures.append(f"reference {key}: {got['exact'].get(key)!r} != {value!r}")
    for key, value in want["close"].items():
        mine = np.asarray(got["close"].get(key, np.nan), dtype=float)
        ref = np.asarray(value, dtype=float)
        if mine.shape != ref.shape or not np.allclose(mine, ref, rtol=REFERENCE_RTOL, atol=0.0):
            failures.append(f"reference {key}: {mine.tolist()!r} != {ref.tolist()!r} "
                            f"at rtol {REFERENCE_RTOL:g}")
    return failures
