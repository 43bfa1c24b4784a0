#!/usr/bin/env python3
"""Benchmark of the repro scheduler: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is imported from
its ``src/``.  The workload's inputs come from ``--seed`` only.  Every time
is taken in reference seconds (``hostspeed.py``): wall time rescaled by the
speed of the shared host, sampled while the benchmark runs.  Set-up
(inputs, reference values, warm-up) runs three times and ``setup_s`` is the
import time plus the median set-up.  Then passes over the inputs repeat
until ``--seconds`` have elapsed (at least two passes).  Throughput
divides the work of one pass by the sum, over its timed units (a stream, an
instance, a campaign), of each unit's median time over the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (ABBA order) and prints the per-layer metrics
of the traced passes, read from spans and from the program's own ``obs``
counters; the spans of the last traced pass are written to
``.perfbench-work/spans-<workload>.tsv``.  The last line of standard output
is one JSON object; see ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
MIN_PASSES = 2

#: A p99 is reported (else 0) only with ten samples beyond it.
P99_MIN_SAMPLES = 1000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    import numpy as np

    if q == 99 and len(values) < P99_MIN_SAMPLES:
        return 0.0
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer, snapshot, outcome) -> dict:
    """Per-layer metrics of one traced pass (all but the tracing overhead).

    Times are scaled from wall to reference seconds by the pass's ratio.
    """
    scale = outcome.wall / outcome.raw_wall
    self_time = {name: seconds * scale for name, seconds in tracer.self_times().items()}
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    decide = tracer.durations("heuristics.decide") * 1e6 * scale
    lp = tracer.durations("lp.solve") * 1e3 * scale
    probes = counters.get("replan.probes", 0.0)
    attributed = sum(self_time.values())
    return {
        "workload.gen_s": self_time.get("workload.gen", 0.0),
        "simulation.self_s": self_time.get("simulation.run", 0.0),
        "simulation.events": (
            counters.get("stream.events", 0.0) + counters.get("kernel.decisions", 0.0)
        ),
        "simulation.compactions": counters.get("stream.compactions", 0.0),
        "simulation.peak_window": gauges.get("stream.peak_window", {}).get("peak", 0.0),
        "heuristics.decide_s": self_time.get("heuristics.decide", 0.0),
        "heuristics.decisions": float(len(decide)),
        "heuristics.decide_p50_us": percentile(decide, 50),
        "heuristics.decide_p90_us": percentile(decide, 90),
        "heuristics.decide_p99_us": percentile(decide, 99),
        "heuristics.compact_s": self_time.get("heuristics.compact", 0.0),
        "core.probe_check_s": self_time.get("core.probe_check", 0.0),
        "core.probe_checks": float(len(tracer.durations("core.probe_check"))),
        "core.model_builds": counters.get("replan.template_builds", 0.0),
        "core.cache_hit_rate": counters.get("replan.cache_hits", 0.0) / probes if probes else 0.0,
        "core.offline_search_s": self_time.get("core.offline_search", 0.0),
        "core.feasibility_checks": tracer.counts.get("core.feasibility_checks", 0.0),
        "lp.solve_s": self_time.get("lp.solve", 0.0),
        "lp.solves": float(len(lp)),
        "lp.pivots": tracer.counts.get("lp.pivots", 0.0),
        "lp.warm_hit_rate": tracer.counts.get("lp.warm_hits", 0.0) / len(lp) if len(lp) else 0.0,
        "lp.solve_p50_ms": percentile(lp, 50),
        "lp.solve_p99_ms": percentile(lp, 99),
        "store.write_s": self_time.get("store.write", 0.0),
        "store.commits": counters.get("store.batch_commits", 0.0),
        "store.records_inserted": counters.get("store.records_inserted", 0.0),
        "store.lookup_s": self_time.get("store.lookup", 0.0),
        "store.skip_rate": gauges.get("store.skip_rate", {}).get("last", 0.0),
        "obs.journal_s": self_time.get("obs.journal", 0.0),
        "obs.journal_events": tracer.counts.get("obs.journal_events", 0.0),
        "analysis.self_s": self_time.get("analysis.campaign", 0.0),
        "analysis.cells": float(outcome.cells) if "analysis.campaign" in self_time else 0.0,
        "trace.unattributed_frac": (outcome.wall - attributed) / outcome.wall,
        "trace.root_self_frac": tracer.root_self_time() * scale / outcome.wall,
    }


def unit_seconds(passes) -> float:
    """Sum over timed units of each unit's median time over the passes."""
    return sum(
        statistics.median(walls) for walls in zip(*(outcome.item_walls for outcome in passes))
    )


def run_untraced(workload, seconds: float):
    clock = workload.clock
    passes = []
    started = clock.mark()
    while len(passes) < MIN_PASSES or clock.wall(started, clock.mark()) < seconds:
        passes.append(workload.run_pass())
    return passes


def run_traced(workload, seconds: float):
    """Untraced and traced passes in ABBA order; per-layer medians."""
    from repro.obs import collecting
    from tracing import Tracer, instrumented

    clock = workload.clock
    untraced, traced, per_pass = [], [], []
    started = clock.mark()
    index = 0
    while len(traced) < MIN_PASSES - 1 or clock.wall(started, clock.mark()) < seconds:
        if index % 4 in (1, 2):
            tracer = Tracer()
            clock.tracer = tracer
            try:
                with collecting() as recorder, instrumented(tracer):
                    outcome = workload.run_pass(tracer)
            finally:
                clock.tracer = None
            traced.append(outcome)
            per_pass.append(layer_metrics(tracer, recorder.snapshot(), outcome))
        else:
            untraced.append(workload.run_pass())
        index += 1
    tracer.write(WORKDIR / f"spans-{workload.name}.tsv")
    metrics = {name: statistics.median(values[name] for values in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_frac"] = unit_seconds(traced) / unit_seconds(untraced) - 1.0
    return untraced + traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: {source}/repro not found; run from a checkout root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    from hostspeed import HostClock

    clock = HostClock()
    clock.start()
    try:
        return measure(args, clock)
    finally:
        clock.stop()


def measure(args, clock) -> int:
    import_started = clock.mark()
    import repro  # noqa: F401  (timed: part of set-up)
    from workloads import WORKLOADS

    import_s = clock.seconds(import_started, clock.mark())
    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORKDIR, clock)
    setups = []
    for _ in range(SETUP_REPEATS):
        started = clock.mark()
        workload.setup()
        setups.append(clock.seconds(started, clock.mark()))

    if args.trace:
        passes, metrics = run_traced(workload, args.seconds)
    else:
        passes = run_untraced(workload, args.seconds)

    attempted = sum(outcome.ops for outcome in passes)
    failed = sum(outcome.failed for outcome in passes)
    work = unit_seconds(passes)
    if not args.trace:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "correct_frac": 1.0 - failed / attempted,
            "arrivals_per_s": passes[0].arrivals / work,
            "cells_per_s": passes[0].cells / work,
        }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = {entry["name"] for entry in declared} - set(metrics)
    if missing:
        raise RuntimeError(f"BENCHMARK.json metrics not measured: {sorted(missing)}")

    for outcome in passes:
        for message in outcome.failures:
            print(f"perfbench: check failed: {message}", file=sys.stderr)
    golden = workload.golden is not None
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} golden={golden}")
    for key in sorted(passes[-1].info):
        print(f"# {key} = {statistics.median(p.info[key] for p in passes):.6g}")
    wall = sum(outcome.raw_wall for outcome in passes)
    print(f"# reference seconds per wall second = {sum(p.wall for p in passes) / wall:.4f}")
    print(f"# cells per wall second = {sum(p.cells for p in passes) / wall:.6g}")
    for entry in declared:
        print(f"{entry['name']:28s} {metrics[entry['name']]:14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
                    for entry in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
