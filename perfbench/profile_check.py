#!/usr/bin/env python3
"""Cross-check the traced layer split of each workload against cProfile.

    python3 perfbench/profile_check.py [--seed 1] [--workload NAME ...]

For each workload: set up, run one warm pass, one traced pass and one pass
under ``cProfile``, then print each layer's share of the pass as the spans
attribute it (self time per span layer) and as the profiler does (own time
of each function, by the ``repro`` sub-package that defines it; time in
numpy, scipy, sqlite or builtins goes to the layers of its callers).  The
two splits are drawn differently -- spans cut at public entry points, the
profiler at module boundaries -- so they agree only to within a few points;
``README.md`` records one run.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402  (path set above)
from tracing import Tracer, instrumented  # noqa: E402

LAYERS = ("workload", "simulation", "heuristics", "core", "lp", "store", "obs", "analysis")


def module_layer(filename: str):
    """Layer of a function defined in ``filename``; ``None`` outside repro."""
    parts = Path(filename).parts
    if "repro" not in parts:
        return "harness" if HERE.name in parts else None
    rest = parts[parts.index("repro") + 1 :]
    return rest[0] if len(rest) > 1 else "repro"


def profile_shares(stats: pstats.Stats) -> dict:
    """Own time per layer, pushing non-repro functions' time to callers."""
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    memo = {}

    def split(func, depth=0):
        """Fractions of ``func``'s own time per layer."""
        if func in memo:
            return memo[func]
        layer = module_layer(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        memo[func] = {"unattributed": 1.0}  # breaks call cycles
        callers = table[func][4] if func in table else {}
        total = sum(entry[2] for entry in callers.values())
        if depth > 50 or total <= 0:
            return memo[func]
        shares = {}
        for caller, entry in callers.items():
            for name, frac in split(caller, depth + 1).items():
                shares[name] = shares.get(name, 0.0) + frac * entry[2] / total
        memo[func] = shares
        return shares

    totals = {}
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        for name, frac in split(func).items():
            totals[name] = totals.get(name, 0.0) + frac * tt
    whole = sum(totals.values())
    return {name: value / whole for name, value in totals.items()}


def trace_shares(tracer: Tracer, wall: float) -> dict:
    shares = {}
    for name, seconds in tracer.self_times().items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + seconds / wall
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    workdir = HERE.parent / ".perfbench-work"
    workdir.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name](args.seed, workdir)
        workload.setup()
        workload.run_pass()
        tracer = Tracer()
        with instrumented(tracer):
            traced = trace_shares(tracer, workload.run_pass(tracer).wall)
        profiler = cProfile.Profile()
        profiler.enable()
        workload.run_pass()
        profiler.disable()
        profiled = profile_shares(pstats.Stats(profiler))
        print(f"\n{name} (seed {args.seed}): share of the pass, traced vs cProfile")
        for layer in LAYERS + tuple(sorted(set(profiled) - set(LAYERS))):
            print(f"  {layer:14s} {traced.get(layer, 0.0):7.1%} {profiled.get(layer, 0.0):7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
