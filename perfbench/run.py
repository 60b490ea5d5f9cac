"""Benchmark harness for wpdcert: one closed-loop caller, no threads.

    python3 perfbench/run.py --workload depth-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run sets up (import, input generation, one warm-up task) three
times and reports the median as ``setup_s``.  It then runs whole passes over
the seed's task list for at most ``--seconds`` (always at least one pass).

Every reported time is scaled to the nominal speed of a reference loop
sampled during the run (see speed.py); raw times stay in the record.  The
process and its children are pinned to one CPU, the one the loop samples.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one untraced
pass and one traced pass, prints the per-layer metrics and writes the spans.
Both write a full record (environment, per-task times, scaling curves) to
``perfbench/out/``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import speed
from perftrace import Tracer
from workloads import WORKLOADS, CliCanonical

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
LAYER_MODULES = ("lattice", "fields", "polymaps", "action", "hyperbolic", "certifier", "report", "cli")
SETUP_REPS = 3


def load_package() -> SimpleNamespace:
    """Import wpdcert afresh from src/ (dropping any loaded copy)."""
    for name in [m for m in sys.modules if m == "wpdcert" or m.startswith("wpdcert.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("wpdcert")
    if Path(package.__file__).resolve().parent != SRC / "wpdcert":
        raise ImportError(f"wpdcert was imported from {package.__file__}, not from {SRC}")
    mods = SimpleNamespace(package=package)
    for name in LAYER_MODULES:
        setattr(mods, name, importlib.import_module(f"wpdcert.{name}"))
    kernel = "_ffbrute" if mods.certifier.kernel_name() == "compiled" else "_bruteforce"
    mods.kernel = importlib.import_module(f"wpdcert.{kernel}")
    return mods


def make_workload(name: str, seed: int, tiny: bool = False):
    if name == CliCanonical.name:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return CliCanonical(seed, tiny, root=ROOT, env=env)
    return WORKLOADS[name](seed, tiny)


def set_up(name: str, seed: int, gauge, tiny: bool = False):
    """Median time of import + input generation + one warm-up task, and the last set-up."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        mods = load_package()
        workload = make_workload(name, seed, tiny)
        _, _, misses = workload.run(mods, workload.warmup)
        times.append(gauge.scaled(t0, perf_counter()))
        if misses:
            raise RuntimeError(f"warm-up task {workload.warmup} failed: {misses}")
    return statistics.median(times), mods, workload


def run_one(mods, workload, task, task_id, gauge, tracer=None) -> dict:
    def call():
        return workload.run(mods, task)

    t0 = perf_counter()
    try:
        start, end, misses = tracer.run_task(task_id, workload.label(task), call) if tracer else call()
    except Exception as exc:  # a crash inside the program counts as a failed task
        start, end, misses = t0, perf_counter(), [f"{type(exc).__name__}: {exc}"]
    return {
        "task": workload.label(task),
        "key": workload.scaling_key(task),
        "s": gauge.scaled(start, end),
        "raw_s": end - start,
        "work": workload.work(task),
        "misses": misses,
    }


def run_passes(mods, workload, seconds: float, gauge, tracer=None, max_passes=None):
    """Whole passes over the task list until another would overrun `seconds`."""
    records = []
    start = perf_counter()
    longest = 0.0
    passes = 0
    while True:
        t0 = perf_counter()
        for task in workload.tasks:
            records.append(run_one(mods, workload, task, len(records), gauge, tracer))
        passes += 1
        longest = max(longest, perf_counter() - t0)
        if passes == max_passes or perf_counter() - start + longest > seconds:
            return records, perf_counter() - start


def per_key_medians(records) -> dict:
    times = defaultdict(list)
    for r in records:
        times[tuple(r["key"])].append(r["s"])
    return {key: statistics.median(ts) for key, ts in times.items()}


def depth_slopes(records) -> dict:
    """Least-squares slope of log(task time) against log(depth), for each n."""
    points = defaultdict(list)
    for key, s in per_key_medians(records).items():
        if key[0] == "depth":
            points[key[1]].append((math.log(key[2]), math.log(s)))
    slopes = {}
    for n, pts in sorted(points.items()):
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        slopes[n] = sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0
    return slopes


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliCanonical) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end_metrics(records, setup_s: float, workload) -> dict:
    failed = sum(1 for r in records if r["misses"])
    task_medians = per_key_medians(records).values()
    return {
        "setup_s": (setup_s, "s"),
        "work_per_s": (sum(r["work"] for r in records) / sum(r["s"] for r in records), "1/s"),
        "task_p50_s": (statistics.median(task_medians), "s"),
        "task_max_s": (max(task_medians), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        "ok_frac": (1.0 - failed / len(records), "ratio"),
    }


def trace_run(mods, workload, seed: int, gauge):
    """One untraced and one traced pass: their records, the per-layer metrics, a summary."""
    cli = isinstance(workload, CliCanonical)
    workload.in_process = cli
    untraced, wall_untraced = run_passes(mods, workload, 0.0, gauge, max_passes=1)
    if cli:
        workload.bytes_out = 0  # count the traced pass only
    tracer = Tracer(mods).install()
    try:
        traced, wall_traced = run_passes(mods, workload, 0.0, gauge, tracer=tracer, max_passes=1)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    slopes = depth_slopes(untraced)
    for n in (2, 3, 5):
        metrics[f"certifier.depth_slope.n{n}"] = (slopes.get(n, 0.0), "log/log")
    interpreter_s, import_s = workload.startup_probe(gauge) if cli else (0.0, 0.0)
    metrics["cli.interpreter_s"] = (interpreter_s, "s")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["report.bytes_out"] = (workload.bytes_out if cli else 0, "B")
    overhead = sum(r["s"] for r in traced) / sum(r["s"] for r in untraced)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"{workload.name}-seed{seed}.spans.jsonl")
    return untraced + traced, metrics, {
        "wall_untraced_s": wall_untraced,
        "wall_traced_s": wall_traced,
        "layer_self_share": tracer.layer_shares(wall_traced),
    }


def environment(mods) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "kernel": mods.certifier.kernel_name(),
    }


def scaling_curve(records) -> list:
    return [{"key": list(key), "median_s": s} for key, s in sorted(per_key_medians(records).items())]


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full record (see module docstring)."""
    with speed.Gauge() as gauge:
        setup_s, mods, workload = set_up(name, seed, gauge, tiny)
        return run_measured(mods, workload, setup_s, seed, seconds, trace, gauge)


def run_measured(mods, workload, setup_s: float, seed: int, seconds: float, trace: bool, gauge) -> dict:
    extra = {}
    if trace:
        records, metrics, extra = trace_run(mods, workload, seed, gauge)
    else:
        records, _ = run_passes(mods, workload, seconds, gauge)
        metrics = end_to_end_metrics(records, setup_s, workload)
        if len(records) >= 100:
            extra["task_p90_s"] = statistics.quantiles([r["s"] for r in records], n=10)[-1]
    failures = [r for r in records if r["misses"]]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "work_unit": workload.work_unit,
        "env": environment(mods),
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "depth_slope": {str(n): s for n, s in depth_slopes(records).items()},
        "scaling": scaling_curve(records),
        "failures": failures[:20],
        "gauge_loop_s": {
            "samples": len(gauge.samples),
            "quartiles": statistics.quantiles([s for _, s in gauge.samples], n=4),
        },
        "tasks": [{"task": r["task"], "s": r["s"], "raw_s": r["raw_s"]} for r in records],
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and its children, so that the speed gauge
    # samples the CPU the CLI subprocesses run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        sys.stderr.write(f"cannot import wpdcert from {SRC}: {exc}\n")
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    sys.stderr.write(f"env {json.dumps(record['env'])}\nrecord {path}\n")
    for key in ("task_p90_s", "wall_untraced_s", "wall_traced_s", "layer_self_share"):
        if key in record:
            sys.stderr.write(f"{key} {json.dumps(record[key])}\n")
    for failure in record["failures"]:
        sys.stderr.write(f"FAILED {failure['task']}: {failure['misses']}\n")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
