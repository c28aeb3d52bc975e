"""primtrack benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload nav-forest --seed 0 --seconds 12 --trace 0

Run from the root of a primtrack checkout; the program is imported from its
src/ directory. Each workload runs in this one process: set-up five times
(the median is setup_s), then whole rounds until --seconds have passed,
then the output checks. The last line of standard output is one JSON object
with correct, attempted, failed and metrics. --workload all runs every
workload in turn, each in a child process of its own.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
NAMES = ("nav-forest", "track-evader", "train-head")


def _import_program():
    """Import primtrack from this checkout's src/, or exit with code 2."""
    if not (SRC / "primtrack" / "__init__.py").is_file():
        sys.exit(f"error: no primtrack sources under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import primtrack
    if Path(primtrack.__file__).resolve().parent != SRC / "primtrack":
        sys.exit(f"error: imported primtrack from {primtrack.__file__}")


# -- environment stamp ---------------------------------------------------------

def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()
                and ".so" in line}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def _cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def stamp() -> dict:
    from primtrack import kernels
    from primtrack.costs import CostEngine
    use_kernel = CostEngine.__dataclass_fields__["use_kernel"].default
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "cost_backend": "numba kernel" if kernels.HAVE_NUMBA and use_kernel
        else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
    }


# -- measurement ---------------------------------------------------------------

@contextmanager
def plan_timer(samples: list):
    """One perf_counter pair around every planning cycle (_Planner.plan)."""
    from primtrack import simulator
    plan = simulator._Planner.plan

    def timed(self, *args, **kw):
        t0 = perf_counter()
        try:
            return plan(self, *args, **kw)
        finally:
            samples.append(perf_counter() - t0)

    simulator._Planner.plan = timed
    try:
        yield
    finally:
        simulator._Planner.plan = plan


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        wl = WORKLOADS[name](seed, workdir)
        setup_tracer = tracing.Tracer()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            with tracing.installed(setup_tracer) if trace else nullcontext():
                t0 = perf_counter()
                inputs = wl.setup()
                setup_times.append(perf_counter() - t0)

        rounds, cycles, traced_wall = [], [], []
        tracer = tracing.Tracer()
        untraced_wall = None
        t_start = perf_counter()
        while True:
            k = len(rounds)
            if trace and k > 0:
                with tracing.installed(tracer), tracer.span("bench.round"):
                    t0 = perf_counter()
                    rounds.append(wl.round(inputs, k, cycles))
                traced_wall.append(perf_counter() - t0)
            else:
                # in a traced run, one untraced round first: the baseline
                # for the tracing overhead
                with plan_timer(cycles):
                    t0 = perf_counter()
                    rounds.append(wl.round(inputs, k, cycles))
                untraced_wall = perf_counter() - t0
            if perf_counter() - t_start >= seconds and (not trace or k > 0):
                break

        violations = wl.check(inputs, rounds)
        ops = [op for ops in rounds for op in ops]
        failed = [op for op in ops if not op.ok]
        result = {"correct": not violations, "attempted": len(ops),
                  "failed": len(failed)}
        notes = {
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "rounds": len(rounds),
            "stamp": stamp(), "violations": violations,
            "failed_ops": sorted({f"{op.label}: {op.note}" for op in failed}),
        }
        if trace:
            metrics, errors = tracing.round_metrics(tracer.spans,
                                                    len(traced_wall))
            metrics.update(tracing.setup_metrics(setup_tracer.spans,
                                                 SETUP_REPEATS))
            overhead = statistics.fmean(traced_wall) / untraced_wall - 1.0
            metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
            if errors:
                result["correct"] = False
                violations += [f"trace: {e}" for e in errors]
            path = OUT / f"trace-{name}-seed{seed}.csv.gz"
            tracer.write(path)
            notes["trace_file"] = str(path.relative_to(ROOT))
        else:
            wall = sum(op.wall_s for op in ops)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "cycle_ms_p50": (np.percentile(cycles, 50) * 1e3, "ms"),
                "cycle_ms_p95": (np.percentile(cycles, 95) * 1e3, "ms"),
                "realtime_factor": (sum(op.sim_s for op in ops) / wall,
                                    "sim-s/wall-s"),
                "train_frames_per_s": (sum(op.frames for op in ops) / wall,
                                       "frames/s"),
                "peak_rss_mb": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            notes["cycle_samples"] = len(cycles)
            notes["setup_times_s"] = setup_times
            notes["program_mean_latency_ms"] = [
                op.data["metrics"].mean_latency_ms for op in ops
                if "metrics" in op.data]
        result["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}
        notes["result"] = result
        (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(notes, indent=1) + "\n")
        _report(notes)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(notes: dict) -> None:
    """Human-readable summary ahead of the JSON line."""
    print(f"workload {notes['workload']} seed {notes['seed']} "
          f"trace {notes['trace']}: {notes['rounds']} rounds")
    print("stamp " + json.dumps(notes["stamp"]))
    if "cycle_samples" in notes:
        lat = notes["program_mean_latency_ms"]
        print(f"cycle samples {notes['cycle_samples']}")
        if lat:
            print("program's own refine-only mean_latency_ms "
                  + " ".join(f"{v:.3f}" for v in lat))
    for k, m in notes["result"]["metrics"].items():
        print(f"  {k:44s} {m['value']:14.6f} {m['unit']}")
    for f in notes["failed_ops"]:
        print(f"failed: {f}")
    for v in notes["violations"]:
        print(f"VIOLATION: {v}")


def run_all(args) -> dict:
    """Every workload in turn, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v
                                 for k, v in res["metrics"].items()})
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
