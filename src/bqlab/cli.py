"""Command-line entry points: run, scan, validate, compare-oracle, check-multiplier."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .evolve import CflError, make_state, run
from .harness import BracketError, ConfigError
from .oracle import FdStabilityError, compare_runs, fd_first_stage, fd_run, make_fd_initial
from .shear import EllipticError, ShearError


def _load(args) -> dict:
    cfg = harness.load_config(args.config)
    # a subcommand that does not take a flag leaves it out of args; each
    # flag sets the key of its name
    for key, section in (("seed", "initial"), ("snapshot_stride", "observe")):
        value = getattr(args, key, None)
        if value is not None:
            part = harness.require_object(cfg, "config").setdefault(section, {})
            harness.require_object(part, f"section {section!r}")[key] = value
    return cfg


def _cmd_run(args) -> int:
    out = harness.resolve_out_dir(args.out)
    summary = harness.run_single(_load(args), out_dir=out)
    print(f"label={summary['label']} thm1={summary['thm1']['status']} "
          f"thm2={summary['thm2']['status']} eps1={summary['eps1']:.4g} "
          f"E_omega={summary['E_omega']:.4g} -> {out}")
    code = harness.exit_code_for(summary)
    if code == 4:
        print(f"error: numerical failure: the state stopped being finite "
              f"(step {summary['n_steps']})", file=sys.stderr)
    return code


def _cmd_scan(args) -> int:
    raw = harness.require_object(harness.load_config(args.config), "sweep spec")
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        spec = harness.SweepSpec(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad sweep spec: {exc}") from exc
    out = harness.make_out_dir(harness.resolve_out_dir(args.out))
    result = harness.scan_threshold(spec, workers=args.workers)
    paths = harness.emit_outputs(result, out)
    if result.insufficient_data:
        print(f"eps_crit measured for {len(result.points)} nu value(s); "
              "slope marked insufficient data")
    elif result.gamma_range is None:
        print(f"no power law passes through every bracket ({len(result.runs)} runs)")
    else:
        lo, hi = result.gamma_range
        print(f"gamma = {result.gamma:.4f}, brackets admit [{lo:.4f}, {hi:.4f}] "
              f"({len(result.runs)} runs)")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_validate(args) -> int:
    import numpy as np

    from .grid import field_from_function, l2_norm, make_grid, to_physical, field_from_physical
    from .multiplier import property_report

    cfg = harness.validate_config(_load(args))
    print("config: ok")

    g = cfg["grid"]
    grid = make_grid(g["nx"], g["ny"], g["Ly"])
    f = field_from_function(grid, lambda X, Y: np.cos(X) * np.exp(-np.cos(np.pi * Y / grid.Ly)))
    rt = field_from_physical(grid, to_physical(f))
    err = grid.rms(rt.coeffs - f.coeffs) / l2_norm(f)
    print(f"transform roundtrip: {err:.3e} {'ok' if err < 1e-12 else 'FAIL'}")

    profile = harness._build_shear(cfg, grid)
    from .grid import fft_y, ifft_y
    from .shear import build_frame

    frame = build_frame(profile, cfg["params"]["nu"], 0.5)
    da = np.real(ifft_y(1j * grid.xi * fft_y(frame.a - 1.0)))
    ident = float(np.max(np.abs(frame.b - frame.a * da)))
    print(f"shear delta: {profile.delta:.4g}; frame identity residual: {ident:.3e} "
          f"{'ok' if ident < 1e-6 else 'FAIL'}")

    rep = property_report(n_samples=20_000)
    print(f"multiplier spot check: {'ok' if rep['pass'] else 'FAIL'}")
    ok = err < 1e-12 and ident < 1e-6 and rep["pass"]
    return 0 if ok else 3


def _cmd_compare_oracle(args) -> int:
    cfg, grid, profile, params, om0, th0, table = harness.build_problem(_load(args))
    out = harness.make_out_dir(harness.resolve_out_dir(args.out))
    state = make_state(om0, th0, profile, params)
    fd0 = make_fd_initial(state)
    # a dt above the oracle's limit fails at its first step: before the
    # spectral run, not after it
    fd_first_stage(fd0, params, profile, grid, min(params.dt, params.T_end - fd0.t))
    traj = run(state, params, stride=10**9)
    fd = fd_run(fd0, params, profile, grid, params.T_end)
    diff = compare_runs(traj.final_state, fd)
    print(f"relative L2 difference at t={params.T_end:g}: {diff:.4e}")
    harness._write_json(out / "compare_oracle.json",
                        {"t": params.T_end, "rel_l2_diff": diff,
                         "config_hash": harness.config_hash(cfg)})
    return 0


def _cmd_check_multiplier(args) -> int:
    from .multiplier import property_report

    rep = property_report()
    labels = [
        ("normalization at t=0", "norm_t0", "< 1e-12"),
        ("normalization on k=0", "norm_k0", "< 1e-12"),
        ("bounds (min M)", "min_M", f">= {rep['c']:.5f}"),
        ("decay-rate identity", "ratio_identity", "< 1e-12"),
        ("finite-difference check", "ratio_fd", "< 1e-6"),
        ("monotone in t", "monotone", "<= 0"),
        ("nu^-1/6 constant", "nu16_constant", "finite, nu-uniform"),
        ("shift constant", "shift_constant", "finite"),
    ]
    for label, key, target in labels:
        print(f"{label:28s} {rep[key]:.6g}   (target {target})")
    print(f"overall: {'PASS' if rep['pass'] else 'FAIL'}")
    return 0 if rep["pass"] else 1


_FLAGS = {
    "--config": {"required": True, "help": "path to a JSON config file"},
    "--out": {"default": None, "help": "output directory (BQLAB_OUT overrides)"},
    "--seed": {"type": int, "default": None, "help": "override the config seed"},
    "--snapshot-stride": {"type": int, "default": None,
                          "help": "override observe.snapshot_stride"},
    "--workers": {"type": int, "default": 1, "help": "processes that run scan probes"},
}

# name, help, handler and the flags the handler reads
_COMMANDS = [
    ("run", "execute a single configured run", _cmd_run,
     ("--config", "--out", "--seed", "--snapshot-stride")),
    ("scan", "threshold sweep: bisect the critical amplitude per nu", _cmd_scan,
     ("--config", "--out", "--seed", "--workers")),
    ("validate", "validate a config and run quick structural self-checks", _cmd_validate,
     ("--config",)),
    ("compare-oracle", "cross-validate against the finite-difference solver",
     _cmd_compare_oracle, ("--config", "--out", "--seed")),
    ("check-multiplier", "verify the weight's sampled properties", _cmd_check_multiplier,
     ()),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqlab",
        description="Sheared-frame Boussinesq solver and measurement harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, handler, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    """Exit codes: 0-2 and 4 as ``harness.exit_code_for``, 3 configuration
    error (bad config, shear profile, scan bracket or output directory; a
    path that is missing or names a directory), 4 numerical failure (CFL
    limit of either solver, elliptic solve)."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, FileNotFoundError, IsADirectoryError, ShearError,
            BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CflError, EllipticError, FdStabilityError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
