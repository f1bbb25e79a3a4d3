"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign-serial --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` times one untraced and one traced iteration and
prints the per-layer metrics plus the tracing overhead. The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it stamps the run (machine, seed, package versions, quality
guards, raw samples), which is also saved under ``.perfbench/results``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (caches, traces, result stamps) stays here.
OUT = os.path.join(ROOT, ".perfbench")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: Warm (cache-served) passes after each cold pass.
WARM_REPEATS = 20
#: Timed end-to-end metrics, each the median of its host-speed-normalized
#: samples in the run.
E2E_TIMINGS = (("setup_s", "s"), ("wall_s", "s"), ("throughput_per_s", "1/s"), ("warm_wall_s", "s"))

clock = time.perf_counter


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def _iteration(workload, workdir: str, raw: dict, norm: dict) -> None:
    """One cold pass and :data:`WARM_REPEATS` warm passes.

    Appends each host-speed-normalized sample (see ``hostspeed.py``) to
    ``norm`` and each raw time to ``raw``, both keyed by metric name.
    """
    raw_s, norm_s, items, items_s = workload.cold(workdir)
    raw["wall_s"].append(raw_s)
    norm["wall_s"].append(norm_s)
    norm["throughput_per_s"].append(items / items_s)
    for _ in range(WARM_REPEATS):
        raw_s, norm_s = workload.warm()
        raw["warm_wall_s"].append(raw_s)
        norm["warm_wall_s"].append(norm_s)


def _stamp(workload, args, samples) -> dict:
    import numpy
    import repro
    from repro.experiments.reporting import machine_info

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "repro": repro.__version__,
        },
        "guards": workload.guards(),
        "errors": workload.errors,
        "samples": samples,
    }


def run(args) -> tuple:
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(OUT, "work", f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        raw = {name: [] for name in ("setup_s", "wall_s", "warm_wall_s")}
        norm = {name: [] for name, _ in E2E_TIMINGS}
        for _ in range(SETUP_REPEATS):
            raw_s, norm_s, _ = workload.timed("bench.setup", workload.setup)
            raw["setup_s"].append(raw_s)
            norm["setup_s"].append(norm_s)
        start = clock()
        while True:
            _iteration(workload, os.path.join(workdir, f"cold{len(raw['wall_s'])}"), raw, norm)
            # Stop before an iteration that would overrun --seconds.
            elapsed = clock() - start
            if args.trace or elapsed + elapsed / len(raw["wall_s"]) > args.seconds:
                break
        samples = {"raw": raw, "normalized": norm}
        if args.trace:
            metrics = _traced(workload, args, workdir, norm["wall_s"])
        else:
            metrics = {name: (statistics.median(norm[name]), unit) for name, unit in E2E_TIMINGS}
        workload.check()
        if not args.trace:
            metrics["success_frac"] = (1.0 - workload.failed / workload.attempted, "ratio")
            metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stamp = _stamp(workload, args, samples)
    return stamp, {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _traced(workload, args, workdir: str, untraced_walls) -> dict:
    """One set-up and one iteration under the span shims -> per-layer metrics."""
    import layers
    import shims
    from spans import Tracer, read_records

    trace_dir = os.path.join(OUT, "traces")
    run_id = f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    for name in os.listdir(trace_dir) if os.path.isdir(trace_dir) else ():
        if name.startswith(run_id + "-"):
            os.remove(os.path.join(trace_dir, name))
    tracer = workload.tracer = Tracer(trace_dir, run_id)
    try:
        with shims.installed(tracer):
            workload.timed("bench.setup", workload.setup)
            raw = {name: [] for name in ("setup_s", "wall_s", "warm_wall_s")}
            norm = {name: [] for name, _ in E2E_TIMINGS}
            _iteration(workload, os.path.join(workdir, "traced"), raw, norm)
    finally:
        workload.tracer = None
    tracer.flush()
    records = read_records(trace_dir, run_id)
    values = layers.layer_metrics(records, workload.workers)
    wall = norm["wall_s"][0]
    untraced = statistics.median(untraced_walls)
    values.update(
        {
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced,
            "trace.overhead_frac": wall / untraced - 1.0,
        }
    )
    print(f"trace: {tracer.path()} ({len(records)} records); top self time:")
    for name, seconds, calls in layers.top_self(records):
        print(f"  {name:<24} {seconds:9.4f} s  {calls:>9} calls")
    return {name: (values[name], layers.UNITS[name]) for name in layers.UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    stamp, result = run(args)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(
        OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**stamp, "result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps(stamp, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
