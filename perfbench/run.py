#!/usr/bin/env python3
"""bqlab's benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload near_couette_64x128 --seed 0 \\
        --seconds 20 --trace 0

Imports bqlab from ``src/`` of the checkout that holds this script and
exits with code 2 if it is not there.  A run

1. runs one unit of work untimed, which also warms caches, checks it and
   keeps its output digest (every later unit of work must match it byte for
   byte) and, at the default seed, compares it with ``reference.json``;
2. repeats the timed unit of work for ``--seconds`` seconds, checking each;
3. times the workload's set-up ``SETUP_REPEATS`` times before and after the
   untimed unit of work and after each timed one, so that set-up and work
   samples span the same stretch of time on a machine whose speed drifts.
   One untimed set-up first pays the costs of a first call.

With ``--trace 0`` no timed unit of work runs with anything rebound, and the
last line of standard output holds the end-to-end metrics.  With ``--trace 1`` untraced and traced units
of work alternate; the last line holds the per-layer metrics from the
traced ones and ``trace.overhead_pct`` from the pair.  Results, provenance
and spans go to ``.perfbench_out/`` in the checkout.  The exit code is 1 if
any operation failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "steps_per_s": "1/s",
    "solve_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_bqlab(root: Path):
    """Import bqlab from ``root/src``; None if the sources are not there."""
    src = root / "src"
    if not (src / "bqlab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import bqlab

    if Path(bqlab.__file__).resolve().parent != (src / "bqlab").resolve():
        return None
    return bqlab


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"l{level}_cache"] = size
    return sizes


def _git_sha(root: Path):
    """HEAD's commit read from ``.git``; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path) -> dict:
    import numpy
    import scipy

    files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# measurement


class Run:
    """One measured run of one workload; collects timings and failures."""

    def __init__(self, workload, seconds: float, trace: bool, work_dir: Path):
        import workloads  # imports bqlab, so only after load_bqlab

        self.wl = workload
        self.seconds = seconds
        self.tracer = tracer.Tracer() if trace else None
        self.work_dir = work_dir
        self.setup_s: list[float] = []
        self.records: list[dict] = []      # one per timed unit of work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._workloads = workloads

    def _count(self, result, label: str):
        self.attempted += result.ops
        if result.failures:
            self.failed += 1
            self.failures += [f"{label}: {f}" for f in result.failures]

    def _work(self, i: int, traced: bool):
        out_dir = self.work_dir / f"op{i}"
        context = contextlib.ExitStack()
        if traced:
            context.enter_context(self.tracer.installed())
            context.enter_context(self.tracer.span(tracer.OP))
        try:
            with context:
                t0 = time.perf_counter()
                raw = self.wl.work(out_dir)
                elapsed = time.perf_counter() - t0
        except self._workloads.SOLVER_ERRORS as exc:
            return None, self._workloads.OpResult.from_error(exc)
        result = self.wl.check(raw, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return elapsed, result

    def _setup(self):
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.wl.setup()
            self.setup_s.append(time.perf_counter() - t0)

    def measure(self, reference: dict | None):
        wls = self._workloads
        self.wl.setup()
        self._setup()
        out_dir = self.work_dir / "audit"
        try:
            audit = self.wl.audit(out_dir)
        except wls.SOLVER_ERRORS as exc:
            audit = wls.OpResult.from_error(exc)
        shutil.rmtree(out_dir, ignore_errors=True)
        if reference is not None and not audit.raised:
            audit.failures += wls.compare_reference(audit.reference, reference)
        self._count(audit, "first run")
        if audit.raised:
            return  # the same inputs would raise again
        self._setup()

        start = time.perf_counter()
        i = 0
        while True:
            traced = self.tracer is not None and i % 2 == 1
            elapsed, result = self._work(i, traced)
            if not result.raised and result.digest != audit.digest:
                result.failures.append("outputs differ from the first run's")
            self._count(result, f"run {i}{' (traced)' if traced else ''}")
            if result.raised:
                return
            self.records.append({
                "traced": traced, "solve_s": elapsed, "ops": result.ops,
                "steps": result.steps if result.steps is not None else audit.steps,
            })
            self._setup()
            i += 1
            if time.perf_counter() - start >= self.seconds and (
                    self.tracer is None or i % 2 == 0):
                return

    def _rates(self, traced: bool) -> dict:
        """Totals over the run's units of work, which all do the same work.

        The machine's speed drifts by up to 40% in phases of ten seconds to
        minutes; over ten runs the mean moved less than the median or the
        fastest unit of work did.
        """
        recs = [r for r in self.records if r["traced"] == traced]
        total = sum(r["solve_s"] for r in recs)
        if not recs or total <= 0:
            return {"steps_per_s": 0.0, "solve_s": 0.0, "ops_per_s": 0.0}
        return {
            "steps_per_s": sum(r["steps"] for r in recs) / total,
            "solve_s": total / len(recs),
            "ops_per_s": sum(r["ops"] for r in recs) / total,
        }

    def end_to_end(self) -> dict:
        rates = self._rates(traced=False)
        return {
            "steps_per_s": rates["steps_per_s"],
            "solve_s": rates["solve_s"],
            # the fastest of many set-ups spread over the run, so a brief slow
            # phase of the machine does not set it; their median moved twice as
            # much between two sets of ten runs
            "setup_s": min(self.setup_s) if self.setup_s else 0.0,
            "ops_per_s": rates["ops_per_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        layer = tracer.summarize(self.tracer.spans)
        plain = self._rates(traced=False)["steps_per_s"]
        traced = self._rates(traced=True)["steps_per_s"]
        layer["trace.overhead_pct"] = (plain / traced - 1.0) * 100.0 if traced else 0.0
        return layer


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if load_bqlab(ROOT) is None:
        print(f"perfbench: bqlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(Path(__file__).with_name("reference.json")) as fh:
            reference = json.load(fh)[wl.name]

    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    run = Run(wl, args.seconds, bool(args.trace), work_dir)
    try:
        run.measure(reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e = run.end_to_end()
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    error_rate = run.failed / run.attempted
    for name, unit in END_TO_END_UNITS.items():
        print(f"{wl.name} {name} {e2e[name]:.6g} {unit}")
    if isinstance(wl, workloads.Scan):
        print(f"{wl.name} probes_per_s {e2e['ops_per_s']:.6g} 1/s")
    print(f"{wl.name} error_rate {error_rate:.6g} ({run.failed}/{run.attempted})")
    if args.trace:
        metrics = _metric_block(run.per_layer(), tracer.LAYER_UNITS)
        for name, m in metrics.items():
            print(f"{wl.name} {name} {m['value']:.6g} {m['unit']}")
        if run.tracer.missing:
            print(f"perfbench: not found, figures read 0: {run.tracer.missing}")
        run.tracer.dump(OUT / f"spans-{tag}.jsonl.gz")
    else:
        metrics = _metric_block(e2e, END_TO_END_UNITS)
    for failure in run.failures:
        print(f"FAILED {failure}")

    prov = provenance(ROOT)
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({**result, "workload": wl.name, "seed": args.seed,
                   "seconds": args.seconds, "error_rate": error_rate,
                   "setup_samples_s": run.setup_s, "units_of_work": run.records,
                   "failures": run.failures, "provenance": prov}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
