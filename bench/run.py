#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: the package is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics: set-up time,
throughput and peak resident memory.  Throughput is counted in work items
per calibration unit, the time a fixed kernel takes (``workloads.calibrate``).
With ``--trace 1`` it measures the per-layer metrics instead: a third of the
time untraced, the rest with spans around the package's calls, and it
writes the spans to ``.bench_out/trace-<workload>-<seed>.json``.  Every run checks the
package's outputs against ``reference``; the last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from spawning a fresh interpreter to the end of set-up.

    Each sample starts ``setup_probe.py``, which imports the package, builds
    the workload's inputs and prints the system-wide monotonic clock.  A
    first, uncounted sample lets the byte-code cache fill.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i:
            samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def run_rounds(wl, seconds: float) -> list[float]:
    """Closed loop of at least one round for ``seconds``; the throughput of
    each round that did not fail, in work items per calibration unit."""
    rates = []
    deadline = time.perf_counter() + seconds
    while True:
        try:
            items, units = wl.round()
            rates.append(items / units)
        except Exception:
            wl.failed += 1
            traceback.print_exc(file=sys.stderr)
        if time.perf_counter() >= deadline:
            return rates


def traced_rounds(wl, seconds: float, tracers: dict) -> tuple[list[float], dict]:
    import spans

    tracer = tracers[wl.name] = spans.Tracer()
    tracer.install()
    try:
        rates = run_rounds(wl, seconds)
    finally:
        tracer.uninstall()
    return rates, wl.layer_metrics(tracer.totals, len(rates))


def traced_metrics(wl, seed: int, seconds: float, run: list) -> dict:
    """Per-layer metrics: the workload's own layers from its traced rounds,
    every other layer from one traced round of the workload it belongs to.

    The untraced third of the time gives the tracing overhead."""
    import spans
    import workloads

    untraced = run_rounds(wl, seconds / 3)
    tracers: dict = {}
    traced, metrics = traced_rounds(wl, 2 * seconds / 3, tracers)
    for home in workloads.LAYER_HOMES:
        if set(home.LAYERS) <= set(metrics):
            continue
        other = home(seed)
        run.append(other)
        other.prepare()
        metrics = {**traced_rounds(other, 0, tracers)[1], **metrics}
    overhead = (statistics.median(untraced) / statistics.median(traced) - 1) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    spans.dump(
        ROOT / ".bench_out" / f"trace-{wl.name}-{seed}.json",
        {"workload": wl.name, "seed": seed, "overhead_pct": overhead},
        tracers,
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "bbp_secrecy" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("BBP_THREADS", None)  # one worker process
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.prepare()
    run = [wl]
    try:
        if args.trace:
            metrics = traced_metrics(wl, args.seed, args.seconds, run)
        else:
            rates = run_rounds(wl, args.seconds)
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (setup_s, "s"),
                "items_per_cal": (statistics.median(rates), "items/cal"),
                "peak_rss_mib": (peak_mib, "MiB"),
            }
    finally:
        for w in run:
            w.finish()
    problems = [p for w in run for p in w.problems]
    for p in problems:
        print(p, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(w.attempted for w in run),
        "failed": sum(w.failed for w in run),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
