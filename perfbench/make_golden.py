#!/usr/bin/env python3
"""Regenerate the committed golden outputs the benchmark checks against.

    python3 perfbench/make_golden.py [--seeds 0-31] [--workload NAME ...]

Run from the root of a checkout whose outputs are known good.  For every
seed it records the stream fingerprints, the campaign records digest and
headline table, and the re-planning workload's off-line optima and
scipy-backend reference max stretches; other seeds' entries are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import GOLDEN_PATH, WORKLOADS  # noqa: E402  (path set above)


def parse_seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    workdir = HERE.parent / ".perfbench-work"
    workdir.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        table = golden.setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            started = time.perf_counter()
            workload = WORKLOADS[name](seed, workdir)
            workload.golden = None  # regenerate: do not check against old values
            table[str(seed)] = workload.golden_values()
            print(f"{name} seed {seed}: {time.perf_counter() - started:.1f}s", flush=True)
            # Written after every seed, so an interrupted run keeps its work.
            GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
