"""Run configuration, single runs, threshold sweeps and result emission.

A run is described by a JSON config with sections ``grid``, ``shear``,
``params``, ``initial``, ``observe`` and ``monitor``; ``run_single``
executes it and writes a deterministic summary (same config + seed gives
byte-identical output).  ``scan_threshold`` bisects the initial amplitude
per viscosity until the stable/unstable boundary is bracketed, then bounds
the scaling exponent of the critical size against viscosity by the brackets.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import io as snap_io
from .diagnostics import (
    budget_residuals,
    energy_functionals,
    standard_observer,
    thm1_monitor,
    thm2_monitor,
)
from .evolve import Params, Trajectory, make_state, run
from .grid import make_grid
from .initial_data import FAMILIES, make_initial
from .multiplier import make_multiplier
from .shear import ShearProfile, couette, couette_plus_sine, load_profile


class ConfigError(ValueError):
    """Malformed run configuration."""


class BracketError(RuntimeError):
    """Bisection bracket does not straddle the stability boundary."""


# ---------------------------------------------------------------------------
# configuration


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def require_object(value, what: str) -> dict:
    """``value`` if it is a JSON object, else a ConfigError naming ``what``."""
    _require(isinstance(value, dict), f"{what} must be a JSON object")
    return value


def _finite_real(v) -> bool:
    """A bool is not a number, and a real number is finite (Python's json
    reads NaN and Infinity); numpy's scalars count as numbers."""
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) and math.isfinite(v))


# a type or a bound is a (test, "what the value must be") pair
_INTEGER = (lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool),
            "an integer")
_REAL = (_finite_real, "a finite real number")
_STRING = (lambda v: isinstance(v, str), "a string")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_POSITIVE = (lambda v: v > 0, "positive")
_AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_EVEN_4 = (lambda v: v >= 4 and v % 2 == 0, "even >= 4")


def _one_of(options):
    return (lambda v: v in options, f"one of {sorted(options)}")


def _row(*kinds):
    """A list or tuple whose entries hold ``kinds`` in turn."""
    return lambda v: (isinstance(v, (list, tuple)) and len(v) == len(kinds)
                      and all(test(x) for (test, _), x in zip(kinds, v)))


def _check(name: str, value, kind, bound=None):
    """Raise a ConfigError naming ``name`` unless ``value`` passes ``kind``,
    then ``bound``."""
    for test, what in filter(None, (kind, bound)):
        if not test(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}")


# section -> key -> (type, default or None if optional, bound or None)
_SCHEMA = {
    "grid": {"nx": (_INTEGER, 64, _EVEN_4), "ny": (_INTEGER, 64, _EVEN_4),
             "Ly": (_REAL, 2 * math.pi, _POSITIVE)},
    "shear": {"kind": (_STRING, "couette", _one_of({"couette", "couette_plus_sine", "file"})),
              "amplitude": (_REAL, None, None), "wavenumber": (_REAL, None, None),
              "path": (_STRING, None, None)},
    "params": {"nu": (_REAL, 1e-3, _POSITIVE), "mu": (_REAL, 1e-3, _AT_LEAST_0),
               "alpha": (_REAL, 0.0, _AT_LEAST_0), "N": (_REAL, 5.0, _AT_LEAST_0),
               "T_end": (_REAL, 1.0, _AT_LEAST_0), "dt": (_REAL, 0.01, _POSITIVE),
               "stop_factor": (_REAL, None, _POSITIVE)},
    "initial": {"family": (_STRING, "single_mode", _one_of(FAMILIES)),
                "eps1": (_REAL, 1e-4, _AT_LEAST_0), "eps2": (_REAL, 0.0, _AT_LEAST_0),
                "seed": (_INTEGER, 0, None), "kx": (_INTEGER, 1, None),
                "width": (_REAL, 1.0, _POSITIVE), "decay": (_REAL, None, None)},
    "observe": {"stride": (_INTEGER, 10, _AT_LEAST_1), "budgets": (_BOOL, False, None),
                "snapshot_stride": (_INTEGER, 0, _AT_LEAST_0)},
    "monitor": {"gamma1": (_REAL, 0.1, None), "gamma2": (_REAL, 0.1, None),
                "bound": (_REAL, 8.0, None)},
}


def validate_config(cfg: dict) -> dict:
    """Fill defaults and check every field against ``_SCHEMA``; raises
    ConfigError with the path."""
    require_object(cfg, "config")
    unknown = set(cfg) - set(_SCHEMA)
    _require(not unknown, f"unknown config sections: {sorted(unknown)}")

    out = {}
    for section, schema in _SCHEMA.items():
        user = require_object(cfg.get(section, {}), f"section {section!r}")
        bad = set(user) - set(schema)
        _require(not bad, f"unknown keys in {section!r}: {sorted(bad)}")
        out[section] = {key: default for key, (_, default, _) in schema.items()
                        if default is not None} | user
        for key, value in out[section].items():
            kind, _, bound = schema[key]
            _check(f"{section}.{key}", value, kind, bound)

    s = out["shear"]
    if s["kind"] == "couette_plus_sine":
        _require("amplitude" in s and "wavenumber" in s,
                 "shear.couette_plus_sine needs amplitude and wavenumber")
    if s["kind"] == "file":
        _require("path" in s, "shear.kind=file needs shear.path")
    i, nx = out["initial"], out["grid"]["nx"]
    if i["family"] == "single_mode":  # a mode the 2/3 rule drops holds no data
        _check("initial.kx", i["kx"],
               (lambda kx: abs(kx) <= nx / 3, f"within |kx| <= nx/3 = {nx / 3:g}"))
    return out


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _build_shear(cfg: dict, grid) -> ShearProfile:
    s = cfg["shear"]
    if s["kind"] == "couette":
        return couette(grid)
    hs = cfg["params"]["N"] + 2.0
    if s["kind"] == "couette_plus_sine":
        return couette_plus_sine(grid, s["amplitude"], s["wavenumber"], s=hs)
    return load_profile(s["path"], grid, s=hs)


def build_problem(cfg: dict):
    """(grid, profile, params, omega0, theta0, table) from a validated config."""
    cfg = validate_config(cfg)
    g = cfg["grid"]
    grid = make_grid(g["nx"], g["ny"], g["Ly"])
    profile = _build_shear(cfg, grid)
    p = cfg["params"]
    params = Params(nu=p["nu"], mu=p["mu"], alpha=p["alpha"], N=p["N"],
                    T_end=p["T_end"], dt=p["dt"], stop_factor=p.get("stop_factor"))
    i = cfg["initial"]
    fam_kwargs = {"kx": i["kx"], "width": i["width"]}
    if "decay" in i:
        fam_kwargs["decay"] = i["decay"]
    omega0 = make_initial(i["family"], grid, i["eps1"], p["N"], seed=i["seed"],
                          **fam_kwargs)
    theta0 = make_initial(i["family"], grid, i["eps2"], p["N"], seed=i["seed"] + 1,
                          **fam_kwargs)
    table = make_multiplier(p["N"])
    return cfg, grid, profile, params, omega0, theta0, table


# ---------------------------------------------------------------------------
# single runs


def run_single(cfg: dict, out_dir=None) -> dict:
    """Execute one configured run; returns (and optionally writes) the summary."""
    cfg, grid, profile, params, omega0, theta0, table = build_problem(cfg)
    obs = cfg["observe"]

    out = make_out_dir(out_dir) if out_dir is not None else None
    state = make_state(omega0, theta0, profile, params)
    traj = run(state, params, observer=standard_observer(table, obs["budgets"]),
               stride=obs["stride"], snapshot_stride=obs["snapshot_stride"])
    report = energy_functionals(traj, params)
    mon = cfg["monitor"]
    v1 = thm1_monitor(report, params, mon["gamma1"], mon["gamma2"], mon["bound"])
    v2 = thm2_monitor(report, params, bound=mon["bound"])

    summary = {
        "config": cfg,
        "config_hash": config_hash(cfg),
        "label": traj.label,
        "stop_reason": traj.stop_reason,
        "n_steps": traj.n_steps,
        "eps1": report.eps1,
        "eps2": report.eps2,
        "E_omega": report.E_omega,
        "E_theta": report.E_theta,
        "mean_flow": list(report.mean_flow),
        "nonzero_integrals": list(report.nonzero_integrals),
        "thm2_functional": report.thm2_functional,
        "sup_hN_omega": traj.sup_hN_omega,
        "t_sup_hN_omega": traj.t_sup_hN_omega,
        "thm1": {"status": v1.status, "ratios": v1.ratios, "notes": v1.notes},
        "thm2": {"status": v2.status, "ratios": v2.ratios, "notes": v2.notes},
    }

    if out is not None:
        _write_json(out / "summary.json", summary)
        _write_series_csv(out / "series.csv", traj)
        if obs["budgets"]:
            _write_budget_csv(out / "budget.csv", traj)
        if obs["snapshot_stride"]:
            for idx, (t, om, th) in enumerate(traj.snapshots):
                snap_io.write_snapshot(out / f"omega_{idx:05d}.bqsf", om, t)
                snap_io.write_snapshot(out / f"theta_{idx:05d}.bqsf", th, t)
    return summary




def _write_json(path, obj) -> None:
    """Strict JSON: each non-finite float, at any depth, is written as null."""
    def finite(x):
        if isinstance(x, float):
            return x if math.isfinite(x) else None
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        return [finite(v) for v in x] if isinstance(x, (list, tuple)) else x

    with open(path, "w") as fh:
        json.dump(finite(obj), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _write_series_csv(path, traj: Trajectory):
    names = sorted(k for k in traj.columns if not k.startswith("bud_"))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + names)
        for idx, t in enumerate(traj.times):
            w.writerow([repr(float(t))] + [repr(float(traj.columns[n][idx]))
                                           for n in names])


def _write_budget_csv(path, traj: Trajectory):
    """Budget columns plus the residuals of each sample's interval to the
    next (blank on the last sample)."""
    names = sorted(k for k in traj.columns if k.startswith("bud_"))
    resid = np.full((2, len(traj.times)), np.nan)
    resid[:, :-1] = budget_residuals(traj.times, traj.columns)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + names + ["residual_omega", "residual_theta"])
        for idx, t in enumerate(traj.times):
            row = [repr(float(t))] + [repr(float(traj.columns[n][idx])) for n in names]
            row += ["" if math.isnan(r) else repr(float(r)) for r in resid[:, idx]]
            w.writerow(row)


def exit_code_for(summary: dict) -> int:
    """0 stable, 1 unstable, 2 out-of-regime (both monitors), 4 a state
    that stopped being finite (numerical failure, not the outcome
    "unstable").

    3 (configuration error) and the other numerical failures are set by
    the CLI.
    """
    if summary.get("stop_reason") == "non_finite":
        return 4
    if summary["thm1"]["status"] == "out-of-regime" and \
            summary["thm2"]["status"] == "out-of-regime":
        return 2
    return 1 if summary["label"] == "unstable" else 0


# ---------------------------------------------------------------------------
# threshold sweeps


@dataclass
class SweepSpec:
    """Amplitude-threshold sweep over a viscosity list."""

    nu_list: list
    mu_rule: str = "equal"            # "equal" | "fixed:<v>" | "scale:<c>"
    alpha: float = 0.0
    bracket: tuple = (1e-6, 1e-1)
    family: str = "single_mode"
    seed: int = 0
    grid: tuple = (32, 64, 4 * math.pi)
    T_end_rule: object = "auto"       # 2 nu^(-1/3), or a number
    dt_rule: object = "auto"
    N: float = 5.0
    stability_factor: float = 8.0
    bracket_rtol: float = 0.1
    eps2_scale: float = 1.0           # eps2 = scale * eps1 * sqrt(nu*mu)
    kx: int = 1
    width: float = 1.0

    def __post_init__(self):
        _check("nu_list", self.nu_list,
               (lambda v: len(v) >= 1 and all(_finite_real(n) and n > 0 for n in v),
                "a non-empty list of positive real numbers"),
               (lambda v: all(a > b for a, b in zip(v, v[1:])), "strictly descending"))
        _check("bracket", self.bracket, (_row(_REAL, _REAL), "two real numbers"),
               (lambda b: 0 < b[0] < b[1], "a pair lo, hi with 0 < lo < hi"))
        _check("bracket_rtol", self.bracket_rtol, _REAL, (lambda v: 0 < v < 1, "in (0, 1)"))
        _check("grid", self.grid, (_row(_INTEGER, _INTEGER, _REAL),
                                   "[nx, ny, Ly], two integers and a real number"))
        for name in ("T_end_rule", "dt_rule"):
            _check(name, getattr(self, name),
                   (lambda r: r == "auto" or (_finite_real(r) and r > 0),
                    '"auto" or a positive real number'))

        def mu_rule_ok(rule) -> bool:
            try:
                return isinstance(rule, str) and all(
                    math.isfinite(mu) and mu >= 0 for mu in map(self.mu_of, self.nu_list))
            except ValueError:  # a value float() cannot read, or an unknown rule
                return False

        _check("mu_rule", self.mu_rule, (mu_rule_ok, '"equal", "fixed:<v>" or "scale:<c>" '
                                         "with v, c finite and >= 0"))
        _check("eps2_scale", self.eps2_scale, _REAL, _AT_LEAST_0)
        for nu in self.nu_list:  # the probes' own keys: family, kx, width, ...
            validate_config(_run_config_for(self, nu, self.bracket[1]))

    def mu_of(self, nu: float) -> float:
        if self.mu_rule == "equal":
            return nu
        kind, _, value = self.mu_rule.partition(":")
        if kind == "fixed":
            return float(value)
        if kind == "scale":
            return float(value) * nu
        raise ConfigError(f"unknown mu_rule {self.mu_rule!r}")

    def T_end_of(self, nu: float) -> float:
        if self.T_end_rule == "auto":
            return 2.0 * nu ** (-1.0 / 3.0)
        return float(self.T_end_rule)

    def dt_of(self, nu: float) -> float:
        if self.dt_rule == "auto":
            return 0.01
        return float(self.dt_rule)


@dataclass
class ThresholdResult:
    points: list = field(default_factory=list)
    runs: list = field(default_factory=list)
    # bisection keeps every stable eps below every unstable one, so no
    # column is reported here yet
    non_monotone: list = field(default_factory=list)
    gamma: float | None = None
    gamma_range: list | None = None
    insufficient_data: bool = False
    spec_echo: dict = field(default_factory=dict)
    config_hash: str = ""


def _run_config_for(spec: SweepSpec, nu: float, eps: float) -> dict:
    mu = spec.mu_of(nu)
    nx, ny, Ly = spec.grid
    return {
        "grid": {"nx": int(nx), "ny": int(ny), "Ly": float(Ly)},
        "shear": {"kind": "couette"},
        "params": {"nu": nu, "mu": mu, "alpha": spec.alpha, "N": spec.N,
                   "T_end": spec.T_end_of(nu), "dt": spec.dt_of(nu),
                   "stop_factor": spec.stability_factor},
        "initial": {"family": spec.family, "eps1": eps,
                    "eps2": spec.eps2_scale * eps * math.sqrt(nu * mu),
                    "seed": spec.seed, "kx": spec.kx, "width": spec.width},
        "observe": {"stride": 50},
    }


def physical_verdict(spec: SweepSpec, nu: float, eps: float) -> str:
    """Stable iff the H^N vorticity norm never exceeds the bootstrap factor.

    Every step is tested: the probe stops at the first past ``stability_factor
    * eps1`` (``params.stop_factor``), the blow-up guard or a non-finite
    state, each labelled "unstable"; only a run reaching T_end is stable.
    """
    return run_single(_run_config_for(spec, nu, eps))["label"]


def _bisect_column(spec: SweepSpec, verdict_fn, nu: float) -> dict:
    """Bisect one column; a None ``verdict_fn`` runs :func:`physical_verdict`."""
    lo, hi = spec.bracket
    mu = spec.mu_of(nu)
    runs = []

    def verdict(eps):
        v = verdict_fn(nu, mu, eps) if verdict_fn else physical_verdict(spec, nu, eps)
        if v not in ("stable", "unstable"):
            raise BracketError(f"verdict function returned {v!r}")
        runs.append({"nu": nu, "mu": mu, "eps": eps, "verdict": v})
        return v

    if verdict(lo) != "stable":
        raise BracketError(
            f"nu={nu:g}: lower bracket eps={lo:g} is not stable; widen the bracket down")
    if verdict(hi) != "unstable":
        raise BracketError(
            f"nu={nu:g}: upper bracket eps={hi:g} is not unstable; widen the bracket up")

    while (hi - lo) / math.sqrt(lo * hi) > spec.bracket_rtol:
        mid = math.sqrt(lo * hi)
        if verdict(mid) == "stable":
            lo = mid
        else:
            hi = mid

    n_stable = sum(r["verdict"] == "stable" for r in runs)
    return {
        "nu": nu, "mu": mu, "alpha": spec.alpha,
        "eps_crit": math.sqrt(lo * hi), "bracket_lo": lo, "bracket_hi": hi,
        "n_stable": n_stable, "n_unstable": len(runs) - n_stable, "runs": runs,
    }


def _slope_bounds(points) -> tuple:
    """(lo, hi): the slopes of the lines in (log nu, log eps) through every
    column's bracket, for points in the scan's order (nu descending).

    Each eps_crit is interval-censored (Manski & Tamer, Econometrica 70,
    2002).  Columns p before q admit log(lo_p/hi_q)/log(nu_p/nu_q) <= g <=
    log(hi_p/lo_q)/log(nu_p/nu_q); the intersection over all pairs is the
    exact feasible set, empty when lo > hi, and (-inf, inf) for one column.
    """
    lo, hi = -math.inf, math.inf
    for p, q in itertools.combinations(points, 2):
        d = math.log(p["nu"] / q["nu"])
        lo = max(lo, math.log(p["bracket_lo"] / q["bracket_hi"]) / d)
        hi = min(hi, math.log(p["bracket_hi"] / q["bracket_lo"]) / d)
    return lo, hi


def scan_threshold(spec: SweepSpec, verdict_fn=None, workers: int = 1
                   ) -> ThresholdResult:
    """Bisect the critical amplitude per nu, bound the slope of log eps* on
    log nu by the brackets (``gamma_range``) and take its centre, the minimax
    point, as ``gamma``; both are None when no power law passes through every
    bracket.

    ``verdict_fn(nu, mu, eps) -> "stable" | "unstable"`` may be injected for
    self-tests; the default runs the solver.  Columns are independent, so
    the physical sweep can fan out over processes, in ``nu_list``'s order.
    """
    column = functools.partial(_bisect_column, spec, verdict_fn)
    if verdict_fn is None and workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial scan skips it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            columns = list(pool.map(column, spec.nu_list))
    else:
        columns = list(map(column, spec.nu_list))

    result = ThresholdResult(spec_echo=asdict(spec))
    result.spec_echo["nu_list"] = list(map(float, result.spec_echo["nu_list"]))
    result.config_hash = config_hash(result.spec_echo)
    for col in columns:
        result.runs.extend(col.pop("runs"))
        result.points.append(col)

    if len(result.points) < 2:
        result.insufficient_data = True
        return result
    lo, hi = _slope_bounds(result.points)
    if lo <= hi:
        result.gamma = 0.5 * (lo + hi)
        result.gamma_range = [lo, hi]
    return result


# ---------------------------------------------------------------------------
# emission


def resolve_out_dir(cli_value=None) -> Path:
    """BQLAB_OUT overrides --out, which overrides ./bqlab_out."""
    env = os.environ.get("BQLAB_OUT")
    return Path(env if env else (cli_value if cli_value else "bqlab_out"))


def make_out_dir(out_dir) -> Path:
    """Create the output directory; an unusable path is a ConfigError."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


CSV_FIELDS = ["nu", "mu", "alpha", "eps_crit", "gamma_local_lo", "gamma_local_hi",
              "n_stable", "n_unstable"]


def emit_outputs(result: ThresholdResult, out_dir) -> list:
    """Write threshold.csv, threshold.json and plot_threshold.py; returns the
    paths written."""
    out = make_out_dir(out_dir)

    csv_path = out / "threshold.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_FIELDS)
        prev = None
        for p in result.points:
            # the slopes this column's bracket and the previous one admit
            local = map(repr, _slope_bounds([prev, p])) if prev else ("", "")
            w.writerow([repr(float(p["nu"])), repr(float(p["mu"])),
                        repr(float(p["alpha"])), repr(float(p["eps_crit"])),
                        *local, p["n_stable"], p["n_unstable"]])
            prev = p

    json_path = out / "threshold.json"
    payload = {
        "gamma": result.gamma,
        "gamma_range": result.gamma_range,
        "insufficient_data": result.insufficient_data,
        "points": result.points,
        "non_monotone": result.non_monotone,
        "n_runs": len(result.runs),
        "spec": result.spec_echo,
        "config_hash": result.config_hash,
    }
    _write_json(json_path, payload)

    plot_path = out / "plot_threshold.py"
    plot_path.write_text(_PLOT_TEMPLATE.format(csv=csv_path.name,
                                               gamma=result.gamma))
    return [csv_path, json_path, plot_path]


_PLOT_TEMPLATE = '''"""Log-log critical amplitude vs viscosity (generated)."""
import csv

import matplotlib.pyplot as plt
import numpy as np

nu, eps = [], []
with open("{csv}") as fh:
    for row in csv.DictReader(fh):
        nu.append(float(row["nu"]))
        eps.append(float(row["eps_crit"]))
nu, eps = np.array(nu), np.array(eps)

fig, ax = plt.subplots(figsize=(5, 4))
ax.loglog(nu, eps, "o", label="measured")
gamma = {gamma}
if gamma is not None and len(nu) >= 2:
    ref = eps[0] * (nu / nu[0]) ** gamma
    ax.loglog(nu, ref, "--", label=f"slope {{gamma:.3f}}")
ax.set_xlabel(r"$\\nu$")
ax.set_ylabel(r"$\\epsilon_{{crit}}$")
ax.legend()
fig.tight_layout()
fig.savefig("threshold.png", dpi=150)
'''
