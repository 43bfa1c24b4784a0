"""Regenerate or check the golden behaviour corpus, ``corpus.json``.

The corpus is the behaviour contract behind ``CODE_EPOCH``: sha256
fingerprints (and exact ``repr`` values) of everything a stored cell's value
rests on, stamped with the epoch that produced them.  It records

* ``simulate/<policy>/<workload>/<seed>``: :func:`simulation_fingerprint` of
  every registered on-line policy plus three LP variants over the five
  scenarios × seeds 0–2 and three unrelated 8-job × 3-machine instances
  (``unrelated-8x3``);
* ``stream/<policy>/<compact_min>``: :meth:`StreamResult.fingerprint` of the
  LP-free policies on one load point at three compaction thresholds;
* ``replanning/<label>``: revised-backend online-offline runs, pivots
  included;
* ``optimum/<divisible|preemptive>/<scenario>/<seed>``: exact ``repr`` of
  the off-line optima (scipy backend);
* ``campaign/...`` and ``stream-sweep/...``: the records a tiny
  ``stream_campaign`` and a tiny ``run_stream_sweep`` persist, less the
  sweep report's wall-clock throughput;
* ``lp/<program>/<backend>``: verdict, objective and ``x`` (hex) of two
  fixed programs on both LP backends;
* ``lp/warm-sequence/<program>/<step>``: one fixed series of warm re-solves
  of three degenerate System (2) feasibility programs through one
  ``ProgramHandle`` on the revised backend: each step's verdict, warm use
  and pivot count, plus a sha256 over ``x`` (hex) on witness steps.

Usage (from the repository root)::

    python tests/golden/regenerate.py --check              # recompute all, compare
    python tests/golden/regenerate.py --check --slice fast # the tier-1 slice
    python tests/golden/regenerate.py                      # rewrite after a bump

``--check`` exits non-zero and prints every differing key with its old and
new value; with the fast slice it also fails when a non-excluded
``SEMANTIC_MANIFEST`` module was never imported or a registered policy has
no entry.  A plain run recomputes everything and refuses to rewrite changed
entries while ``CODE_EPOCH`` still equals the corpus stamp: a behaviour
change needs a ``CODE_EPOCH`` bump first.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
if str(ROOT) not in sys.path:  # for the ``tests.reference`` LP DSL
    sys.path.append(str(ROOT))

from repro.heuristics import available_schedulers, make_scheduler  # noqa: E402
from repro.lint.epoch import semantic_modules  # noqa: E402
from repro.simulation import StreamingSimulator, simulate  # noqa: E402
from repro.store.digest import CODE_EPOCH  # noqa: E402
from repro.workload import (  # noqa: E402
    StreamSpec,
    make_scenario,
    open_stream,
    random_unrelated_instance,
)

CORPUS = Path(__file__).with_name("corpus.json")

LP_FREE_POLICIES = (
    "fifo",
    "spt",
    "mct",
    "srpt",
    "greedy-weighted-flow",
    "round-robin",
    "deadline-driven",
)
LP_POLICIES = (
    "online-offline",
    "online-offline:period=0.5",
    "online-offline:backend=revised",
)
LP_TARGETS = "deadline-driven:lp_targets=true"
SCENARIOS = ("bursty-batch", "hotspot", "replicated-portal", "small-cluster", "unrelated-stress")
SEEDS = (0, 1, 2)
COMPACT_MINS = (1, 64, 10**9)

Entries = Dict[str, str]


class Refused(Exception):
    """A rewrite would change entries under an unchanged ``CODE_EPOCH``."""


# --------------------------------------------------------------------------- #
# Fingerprints                                                                #
# --------------------------------------------------------------------------- #
def simulation_fingerprint(result, iterations: Optional[float] = None) -> str:
    """sha256 over the pieces, events, completion times and decision count.

    With ``iterations`` (the summed LP pivots of the run) the events and the
    decision count are left out and the pivot total closes the digest
    instead: the form the revised-backend replanning entries are pinned in.
    """
    digest = hashlib.sha256()
    for piece in result.schedule.pieces:
        digest.update(
            f"{piece.job_index},{piece.machine_index},{piece.start.hex()},"
            f"{piece.end.hex()},{piece.fraction.hex()};".encode()
        )
    if iterations is None:
        for event in result.events:
            digest.update(f"{event.time.hex()},{event.kind},{event.job_index};".encode())
    for job, time in sorted(result.completion_times.items()):
        digest.update(f"{job}:{time.hex()};".encode())
    if iterations is None:
        digest.update(f"calls={result.num_scheduler_calls}".encode())
    else:
        digest.update(f"iterations={iterations!r}".encode())
    return digest.hexdigest()


def _record_fingerprint(payload) -> str:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


# --------------------------------------------------------------------------- #
# Producers: each returns its entries in a fixed order                        #
# --------------------------------------------------------------------------- #
def _workloads():
    """``(<workload>/<seed>, instance)`` for every simulate entry."""
    for scenario in SCENARIOS:
        for seed in SEEDS:
            yield f"{scenario}/{seed}", make_scenario(scenario, seed)
    for seed in SEEDS:
        yield f"unrelated-8x3/{seed}", random_unrelated_instance(
            8, 3, seed=seed, cost_range=(2.0, 12.0)
        )


def _simulate_entries(policies: Sequence[str]) -> Entries:
    return {
        f"simulate/{policy}/{workload}": simulation_fingerprint(
            simulate(instance, make_scheduler(policy))
        )
        for policy in policies
        for workload, instance in _workloads()
    }


def lp_free_simulations() -> Entries:
    return _simulate_entries(LP_FREE_POLICIES + (LP_TARGETS,))


def lp_simulations() -> Entries:
    return _simulate_entries(LP_POLICIES)


def streams() -> Entries:
    spec = StreamSpec(label="pin", scenario="small-cluster", seed=0).with_utilisation(0.7)
    return {
        f"stream/{policy}/{compact_min}": StreamingSimulator(compact_min=compact_min)
        .run(open_stream(spec), make_scheduler(policy), max_arrivals=1500)
        .fingerprint()
        for policy in LP_FREE_POLICIES
        for compact_min in COMPACT_MINS
    }


def replanning() -> Entries:
    from repro.obs.metrics import collecting

    instances = {
        f"unrelated-{seed}": random_unrelated_instance(10, 3, seed=seed, cost_range=(2, 12))
        for seed in range(4)
    }
    instances["small-cluster-3"] = make_scenario("small-cluster", 3)
    entries = {}
    for label, instance in instances.items():
        with collecting() as recorder:
            result = simulate(instance, make_scheduler("online-offline:backend=revised"))
        iterations = recorder.snapshot()["histograms"]["lp.iterations"]["total"]
        entries[f"replanning/{label}"] = simulation_fingerprint(result, iterations)
    return entries


def optima() -> Entries:
    from repro.core import minimize_max_weighted_flow

    entries = {}
    for kind in ("divisible", "preemptive"):
        for scenario in SCENARIOS:
            for seed in SEEDS:
                result = minimize_max_weighted_flow(
                    make_scenario(scenario, seed),
                    preemptive=kind == "preemptive",
                )
                entries[f"optimum/{kind}/{scenario}/{seed}"] = repr(result.objective)
    return entries


def campaign() -> Entries:
    from repro.analysis import WorkloadSpec, stream_campaign

    specs = [
        WorkloadSpec(label=f"{scenario}/{seed}", scenario=scenario, seed=seed)
        for scenario, seed in (("small-cluster", 0), ("unrelated-stress", 1))
    ]
    return {
        f"campaign/{record.workload}/{record.policy}": _record_fingerprint(
            dataclasses.asdict(record)
        )
        for record in stream_campaign(specs, ("mct", "srpt", LP_TARGETS))
    }


def stream_sweep() -> Entries:
    from repro.analysis import run_stream_sweep

    spec = StreamSpec(label="golden", scenario="small-cluster", seed=5)
    result = run_stream_sweep(spec, ("srpt", "fifo"), rhos=(0.5, 0.9), max_arrivals=400)
    entries = {}
    for record in result.records:
        extra = record.extra_payload()
        del extra["report"]["arrivals_per_second"]  # wall-clock throughput
        entries[f"stream-sweep/{record.workload}/{record.policy}"] = _record_fingerprint(
            [dataclasses.asdict(record.to_campaign_record()), extra]
        )
    return entries


#: Fixed programs: (costs, <= rows, rhs), every variable in [0, 10].
LP_PROGRAMS = {
    # The hypothesis-found 1e-10 coefficient (tests/lp/test_simplex.py).
    "tiny-coefficient": (
        [0.0, -1.0, 0.0, -1.0],
        [[1.0, 0.0, -1.0, -1.5], [1.0, 1e-10, 0.0625, 0.0]],
        [0.0, 0.0],
    ),
    # A hypothesis draw with a 1e-8 coefficient: HiGHS's feasibility
    # tolerance admits x0 = 10 (objective -10), the revised simplex does not.
    "tolerance-draw": ([-1.0, 0.0, 1e-300], [[0.0, 0.0, 1.0], [1e-8, 0.0, 1.0]], [0.0, 0.0]),
}


#: Degenerate System (2) feasibility programs, the LPs the replanning probes
#: warm-start: (instance seed, active jobs, preemptive, base rhs scale).  The
#: base scale puts each program near its feasibility threshold.
WARM_PROGRAMS = {
    "divisible-8": (0, 8, False, 0.97),
    "preemptive-6": (1, 6, True, 3.08),
    "divisible-10": (2, 10, False, 0.5),
}
#: The re-solve series, one token per solve: the rhs factor (times the base
#: scale), then ``v`` for a verdict-only solve (``verdict_only=True``) or
#: ``w`` for a witness solve.
#: A ``*`` suffix first refreshes every coefficient (x 1.1, a new matrix
#: object with the same structure, as a new replanning event does); a ``!``
#: suffix refreshes with the first coefficient at 1e-10, below the solver's
#: drop threshold.  Every other step is an rhs-only re-solve; the long
#: infeasible runs carry the basis inverse past the solver's periodic
#: refactorisation between solves.
WARM_STEPS = (
    "1.6w 0.7v 1.2v 0.9v 1.05v 0.97v 1.01v 0.99v 1.01w 3.0v 0.5v 0.6v 0.3v 0.4v 0.8v "
    "0.2v 0.45v 1.3w 0.8v 1.1v 0.95v 1.02w 2.2v* 0.6v 1.4v 0.85v 1.15w 0.98v 1.5v! "
    "0.75v 1.25w 1.25v* 0.9v 1.1v 1.0w 0.7v 0.2v 0.9v 0.3v 0.95v 0.25v 0.85v 0.1v "
    "0.9v 0.2v 0.95v 0.15v 0.9v 0.05v 0.97v 0.1v 0.9v 0.5v 2.0v 1.2w"
).split()


def _warm_program(seed: int, jobs: int, preemptive: bool):
    """The System (2) program of ``jobs`` equal-release remaining jobs."""
    from repro.core.affine import Affine
    from repro.core.formulations import build_allocation_model
    from repro.core.intervals import build_constant_intervals
    from repro.core.replanning import remaining_subinstance

    instance = random_unrelated_instance(jobs + 2, 3, seed=seed, cost_range=(2.0, 12.0))
    remaining = [1.0 - 0.11 * k for k in range(jobs)]
    sub, _ = remaining_subinstance(instance, 1.0, list(range(jobs)), remaining)
    deadlines = [1.0 + 3.0 * (k + 1) for k in range(jobs)]
    return build_allocation_model(
        sub,
        build_constant_intervals(sub.release_dates + deadlines),
        deadlines=[Affine.const(d) for d in deadlines],
        objective_bounds=None,
        sample_objective=0.0,
        preemptive=preemptive,
    ).form


def warm_sequences() -> Entries:
    import scipy.sparse as sp

    from repro.lp.revised_simplex import ProgramHandle, solve_matrix_form_revised

    entries = {}
    for name, (seed, jobs, preemptive, base) in WARM_PROGRAMS.items():
        form = _warm_program(seed, jobs, preemptive)
        a_ub, handle, basis = form.a_ub, ProgramHandle(), None
        for step, token in enumerate(WARM_STEPS):
            refresh = token[-1] if token[-1] in "*!" else ""
            token = token.rstrip("*!")
            if refresh:
                data = form.a_ub.data * 1.1
                if refresh == "!":
                    data[0] = 1e-10
                a_ub = sp.csr_matrix((data, form.a_ub.indices, form.a_ub.indptr), shape=a_ub.shape)
            witness = token[-1] == "w"
            result = solve_matrix_form_revised(
                dataclasses.replace(form, a_ub=a_ub, b_ub=form.b_ub * (base * float(token[:-1]))),
                warm_basis=basis,
                handle=handle,
                verdict_only=not witness,
            )
            if result.basis is not None:
                basis = result.basis
            solution = result.solution
            value = (
                f"{token[-1]}{refresh};{solution.status.value};warm={int(result.warm_used)};"
                f"iterations={solution.iterations}"
            )
            if witness and solution.is_optimal:
                x = ",".join(float(solution.values[k]).hex() for k in sorted(solution.values))
                value += f";x={hashlib.sha256(x.encode()).hexdigest()}"
            entries[f"lp/warm-sequence/{name}/{step:02d}"] = value
    return entries


def lp_programs() -> Entries:
    from tests.reference.lp import LinearProgram

    entries = warm_sequences()
    for name, (costs, rows, rhs) in LP_PROGRAMS.items():
        lp = LinearProgram(sense="min")
        variables = lp.add_variables(len(costs), prefix="x", upper=10.0)
        for row, bound in zip(rows, rhs):
            lp.add_constraint(sum(c * v for c, v in zip(row, variables)) <= bound)
        lp.set_objective(sum(c * v for c, v in zip(costs, variables)))
        for backend in ("scipy", "revised"):
            solution = lp.solve(backend=backend)
            objective = solution.objective_value
            x = ",".join(float(solution.values[k]).hex() for k in sorted(solution.values))
            entries[f"lp/{name}/{backend}"] = (
                f"{solution.status.value};"
                f"objective={'-' if objective is None else float(objective).hex()};x={x}"
            )
    return entries


#: Slice name → {key prefix: producer}.  ``fast`` runs in tier-1, ``slow``
#: in tier-2; within a slice every producer owns one key prefix.
SLICES: Dict[str, Dict[str, Callable[[], Entries]]] = {
    "fast": {
        "simulate/": lp_free_simulations,
        "stream/": streams,
        "replanning/": replanning,
        "optimum/": optima,
        "campaign/": campaign,
        "stream-sweep/": stream_sweep,
        "lp/": lp_programs,
    },
    "slow": {"simulate/": lp_simulations},
}


def slice_of(key: str) -> str:
    """Which slice produces ``key``."""
    policy = key.split("/")[1] if key.startswith("simulate/") else ""
    return "slow" if policy in LP_POLICIES else "fast"


def compute(slices: Iterable[str]) -> Tuple[Entries, Dict[Tuple[str, str], str]]:
    """The slices' entries, and ``{(slice, prefix): error}`` for producers that raised."""
    entries: Entries = {}
    failures: Dict[Tuple[str, str], str] = {}
    for name in slices:
        for prefix, producer in SLICES[name].items():
            try:
                entries.update(producer())
            except Exception as error:  # report it and go on comparing the rest
                failures[name, prefix] = (
                    f"{producer.__name__} raised {type(error).__name__}: {error}\n"
                    + traceback.format_exc().rstrip()
                )
    return entries, failures


# --------------------------------------------------------------------------- #
# Comparison, coverage and rewriting                                          #
# --------------------------------------------------------------------------- #
def differences(old: Mapping[str, str], new: Mapping[str, str]) -> List[str]:
    """``key: old -> new`` for every key whose value differs, sorted."""
    missing = "<absent>"
    return [
        f"{key}: {old.get(key, missing)} -> {new.get(key, missing)}"
        for key in sorted(set(old) | set(new))
        if old.get(key) != new.get(key)
    ]


def coverage_problems(
    entries: Mapping[str, str], imported: Iterable[str], policies: Iterable[str]
) -> List[str]:
    """Manifest modules never imported and registered policies with no entry."""
    imported = set(imported)
    problems = [
        f"manifest module {name} was never imported while computing the corpus"
        for name in semantic_modules(ROOT)
        if name not in imported
    ]
    pinned = {key.split("/")[1].split(":")[0] for key in entries if key.startswith("simulate/")}
    problems.extend(
        f"registered policy {policy!r} has no simulate entry"
        for policy in policies
        if policy not in pinned
    )
    return problems


def refresh(corpus: Mapping, entries: Entries, code_epoch: str) -> Dict:
    """The rewritten corpus; raises :class:`Refused` on a same-epoch change."""
    old = corpus.get("entries", {})
    changed = [key for key in entries if key in old and old[key] != entries[key]]
    if changed and corpus.get("code_epoch") == code_epoch:
        raise Refused(
            "\n".join(differences({k: old[k] for k in changed}, {k: entries[k] for k in changed}))
        )
    return {"code_epoch": code_epoch, "entries": dict(sorted(entries.items()))}


def load() -> Dict:
    if not CORPUS.exists():
        return {"code_epoch": None, "entries": {}}
    return json.loads(CORPUS.read_text())


def check(slices: Sequence[str]) -> List[str]:
    """Problems found by recomputing ``slices`` against the corpus."""
    corpus = load()
    problems = []
    if corpus["code_epoch"] != CODE_EPOCH:
        problems.append(
            f"corpus stamped {corpus['code_epoch']!r} but CODE_EPOCH is {CODE_EPOCH!r}"
        )
    entries, failures = compute(slices)
    problems.extend(failures.values())
    recorded = {
        key: value
        for key, value in corpus["entries"].items()
        if slice_of(key) in slices and (slice_of(key), key.split("/")[0] + "/") not in failures
    }
    problems.extend(differences(recorded, entries))
    if "fast" in slices:
        problems.extend(
            coverage_problems(corpus["entries"], sys.modules, available_schedulers())
        )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="recompute and compare only")
    parser.add_argument(
        "--slice",
        choices=("fast", "slow", "all"),
        default="all",
        help="with --check: the part of the corpus to recompute (default: all)",
    )
    args = parser.parse_args(argv)
    slices = tuple(SLICES) if args.slice == "all" else (args.slice,)
    if args.check:
        problems = check(slices)
        for line in problems:
            print(line)
        if problems:
            print(f"{len(problems)} problem(s): bump CODE_EPOCH and regenerate")
            return 1
        print(f"golden corpus matches ({', '.join(slices)} slice)")
        return 0
    if args.slice != "all":
        parser.error("--slice only applies to --check; a rewrite recomputes everything")
    entries, failures = compute(SLICES)
    problems = list(failures.values())
    problems.extend(coverage_problems(entries, sys.modules, available_schedulers()))
    if problems:
        print("\n".join(problems))
        print("not written: fix the failing producers, or extend them or SEMANTIC_EXCLUDES")
        return 1
    try:
        corpus = refresh(load(), entries, CODE_EPOCH)
    except Refused as refused:
        print(refused)
        print(f"refusing to rewrite changed entries under CODE_EPOCH {CODE_EPOCH!r}: "
              "bump it first")
        return 1
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus['entries'])} entries stamped {CODE_EPOCH!r} to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
