"""Command-line interface.

The CLI exposes the library's main workflows without writing any Python:

``repro-sched info``
    Version, registered policies, registered scenarios.
``repro-sched scenario list`` / ``repro-sched scenario build NAME``
    Inspect and materialise named workload scenarios (JSON instance files).
``repro-sched solve INSTANCE.json``
    Off-line optimisation (max weighted flow by default; makespan and
    max-stretch via ``--objective``; ``--preemptive`` for Section 4.4).
``repro-sched simulate INSTANCE.json --policy mct`` (or ``--all-policies``)
    On-line replay of the instance with one or all policies.
``repro-sched campaign --scenarios ... --policies ... --base-seed N``
    Scenario × seed × policy sweep through the streaming campaign
    dispatcher (``--chunk-size``).  Policies accept parameterised variant
    tokens — ``--policies online-offline:period=2,mct`` sweeps a named
    variant whose parameters flow into the stored cell digests.
``repro-sched stream --scenario ... --rho 0.3:0.9:7 --arrivals N``
    Steady-state load sweep over an open-ended arrival stream: utilisation
    ρ (offered load over the platform's fluid capacity) × policy, with
    batch-means confidence intervals and saturation flags.

    Both share the run flags: ``--max-workers`` fans cells out over a
    process pool, ``--store PATH`` persists every cell into a
    content-addressed experiment store and ``--resume`` computes only the
    cells missing from it; ``--metrics`` collects and prints obs counters
    (``stream`` also snapshots each computed cell, persisted with
    ``--store`` outside the digests), ``--trace PATH`` writes a
    deterministic trace (JSON lines, or Chrome/Perfetto JSON when PATH
    ends in ``.json``), ``--profile`` prints a wall-clock phase profile,
    ``--journal PATH`` appends run-lifecycle events, ``--output`` writes
    JSON.
``repro-sched obs report PATH``
    Render an observability artefact: a metrics snapshot, a trace file
    (either export format), a run journal, or a sweep/campaign
    ``--output`` JSON — auto-detected by shape.  Sweep reports surface
    the MSER-5 saturation evidence (truncation point, occupancy
    trajectory) per cell; journal reports show, per run, the lifecycle
    timeline, per-phase wall-clock totals, heartbeat gaps and a status
    block (progress, throughput, median cell time, per-policy counts),
    all from the journal's own timestamps.
``repro-sched store ls|show|diff|gc PATH ...``
    Query an experiment store: list runs, dump one run's records and
    headline metrics, diff two runs policy by policy (``--cells`` joins
    them on workload key and localises changes to individual scenarios),
    or prune epoch-orphaned records and incomplete runs (``gc``, dry-run
    by default).
``repro-sched lint [--format json] [--baseline .reprolint.json] [--fail-on warning]``
    Project-invariant static analyzer (see :mod:`repro.lint`): determinism
    rules, the digest-epoch guard and policy-protocol conformance over
    ``src/repro``; ``--types`` additionally runs the (optional) mypy policy
    from ``setup.cfg``.  Also available as ``python -m repro.lint``.
``repro-sched divisibility --dimension sequences|motifs``
    Regenerate the Figure 1 series and its regression.

Every command prints human-readable tables; ``--output`` writes machine-readable
JSON next to them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .analysis import (
    format_table,
    linear_regression,
    render_cross_run_diff,
    run_scenario_campaign,
)
from .core import (
    Instance,
    minimize_makespan,
    minimize_max_stretch,
    minimize_max_weighted_flow,
    render_gantt,
)
from .exceptions import ReproError
from .gripps import motif_divisibility_experiment, sequence_divisibility_experiment
from .heuristics import (
    available_policies,
    available_schedulers,
    make_scheduler,
    policy_spec,
    resolve_policies,
)
from .simulation import simulate
from .workload import (
    available_scenarios,
    load_instance,
    make_scenario,
    save_instance,
    save_schedule,
)

__all__ = ["main", "build_parser"]


# --------------------------------------------------------------------------- #
# Parser                                                                       #
# --------------------------------------------------------------------------- #
def _run_flags() -> argparse.ArgumentParser:
    """The run flags ``campaign`` and ``stream`` share (an argparse parent)."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="parallel worker processes (0 = one per CPU; default: in-process); "
        "records and store cells are identical either way",
    )
    flags.add_argument(
        "--store",
        metavar="PATH",
        help="persist records into this experiment store (SQLite, created on demand)",
    )
    flags.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already present in --store; compute only the missing ones",
    )
    flags.add_argument(
        "--run-label",
        default=None,
        help="label of the run registered in --store (default: 'campaign' or "
        "'stream-sweep')",
    )
    flags.add_argument("--output", help="write records and run stats to this JSON file")
    flags.add_argument(
        "--metrics",
        action="store_true",
        help="collect obs counters around the run and print the metrics table; "
        "stream also snapshots each computed cell (persisted with --store in "
        "the records' extra JSON, outside the digests)",
    )
    flags.add_argument(
        "--trace",
        metavar="PATH",
        help="write a deterministic trace (JSON lines; Chrome/Perfetto JSON "
        "when PATH ends in .json): a span per campaign record, or every "
        "computed stream cell (which forces in-process cells)",
    )
    flags.add_argument(
        "--profile",
        action="store_true",
        help="print a coarse wall-clock phase profile of the command",
    )
    flags.add_argument(
        "--journal",
        metavar="PATH",
        help="append run-lifecycle events (cells, heartbeats, commits) to "
        "this JSONL journal; read it with 'repro-sched obs report PATH'",
    )
    return flags


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description="Off-line and on-line scheduling of divisible requests "
        "(reproduction of Legrand, Su & Vivien, IPPS 2005).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # info ------------------------------------------------------------------
    info = subparsers.add_parser("info", help="show version, policies and scenarios")
    info.add_argument(
        "--lp-backends",
        action="store_true",
        help="list LP solver backends with availability and warm-start support",
    )

    # scenario ---------------------------------------------------------------
    scenario = subparsers.add_parser("scenario", help="inspect or build named scenarios")
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="list available scenarios")
    scenario_build = scenario_sub.add_parser("build", help="materialise a scenario to JSON")
    scenario_build.add_argument("name", help="scenario name (see 'scenario list')")
    scenario_build.add_argument("--seed", type=int, default=None, help="RNG seed")
    scenario_build.add_argument("--output", help="write the instance to this JSON file")

    # solve -------------------------------------------------------------------
    solve = subparsers.add_parser("solve", help="off-line optimisation of an instance file")
    solve.add_argument("instance", help="instance JSON file (see 'scenario build')")
    solve.add_argument(
        "--objective",
        choices=("max-weighted-flow", "max-stretch", "makespan"),
        default="max-weighted-flow",
        help="objective to optimise (default: max-weighted-flow)",
    )
    solve.add_argument(
        "--preemptive",
        action="store_true",
        help="use the preemptive (non-divisible) model of Section 4.4",
    )
    solve.add_argument("--output", help="write the optimal schedule to this JSON file")
    solve.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")

    # simulate ------------------------------------------------------------------
    simulate_cmd = subparsers.add_parser("simulate", help="on-line replay of an instance file")
    simulate_cmd.add_argument("instance", help="instance JSON file, or a scenario name")
    simulate_cmd.add_argument("--policy", default="online-offline",
                              help="policy name (see 'info'); default: online-offline")
    simulate_cmd.add_argument("--all-policies", action="store_true",
                              help="run every registered policy and rank them")
    simulate_cmd.add_argument("--seed", type=int, default=None,
                              help="seed when the instance argument is a scenario name")

    # campaign -------------------------------------------------------------------
    run_flags = _run_flags()
    campaign = subparsers.add_parser(
        "campaign",
        parents=[run_flags],
        help="scenario x seed x policy sweep through the streaming dispatcher",
    )
    campaign.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario names (default: every registered scenario)",
    )
    campaign.add_argument(
        "--policies",
        default="mct,greedy-weighted-flow,online-offline",
        help="comma-separated policy names, or 'all' for every on-line policy; "
        "parameterised variants use name:key=value[,key=value...] syntax, "
        "e.g. online-offline:period=2 (see 'repro-sched info' for each "
        "policy's sweepable parameters)",
    )
    campaign.add_argument(
        "--seeds", default=None, help="comma-separated integer seeds (one instance per seed)"
    )
    campaign.add_argument(
        "--base-seed",
        type=int,
        default=None,
        help="spawn per-scenario seeds from this base (reproducible "
        "independent of workers/chunking); combine with --num-seeds",
    )
    campaign.add_argument(
        "--num-seeds",
        type=int,
        default=1,
        help="seeds per scenario spawned from --base-seed (default 1)",
    )
    campaign.add_argument(
        "--chunk-size",
        type=int,
        default=1,
        help="policies per dispatched task (default 1: per-policy granularity)",
    )
    campaign.add_argument(
        "--no-offline",
        action="store_true",
        help="skip the offline-optimal records (the optimum is still computed "
        "for normalisation)",
    )

    # stream ---------------------------------------------------------------------
    stream = subparsers.add_parser(
        "stream",
        parents=[run_flags],
        help="steady-state load sweep over an open-ended arrival stream",
    )
    stream.add_argument(
        "--scenario",
        default="small-cluster",
        help="named scenario supplying the stream's platform (default: small-cluster)",
    )
    stream.add_argument(
        "--policies",
        default="mct,srpt,greedy-weighted-flow",
        help="comma-separated on-line policy names (variant tokens accepted)",
    )
    stream.add_argument(
        "--rho",
        default="0.3:0.9:4",
        help="utilisation sweep, 'start:stop:count' (linear) or comma-separated "
        "values; rho is offered load over the platform's fluid capacity",
    )
    stream.add_argument(
        "--arrivals",
        type=int,
        default=1500,
        help="arrival budget per cell (default 1500); the horizon of each stream",
    )
    stream.add_argument(
        "--arrival-process",
        choices=("poisson", "mmpp"),
        default="poisson",
        help="arrival process of the stream (default: poisson)",
    )
    stream.add_argument(
        "--sizes",
        choices=("uniform", "pareto"),
        default="uniform",
        help="job-size distribution (default: uniform)",
    )
    stream.add_argument("--seed", type=int, default=0, help="stream base seed")
    stream.add_argument(
        "--warmup",
        type=float,
        default=0.25,
        help="fraction of completions discarded as warmup (default 0.25)",
    )
    stream.add_argument(
        "--batches",
        type=int,
        default=16,
        help="batch-means batches for the confidence intervals (default 16)",
    )
    stream.add_argument(
        "--max-active",
        type=int,
        default=10_000,
        help="saturation cap on simultaneously live jobs (default 10000)",
    )

    # store ----------------------------------------------------------------------
    store = subparsers.add_parser(
        "store", help="query a campaign experiment store (runs, records, diffs)"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser("ls", help="list the runs of a store")
    store_ls.add_argument("path", help="experiment store file")
    store_show = store_sub.add_parser(
        "show", help="show one run: headline metrics (and records with --records)"
    )
    store_show.add_argument("path", help="experiment store file")
    store_show.add_argument(
        "run", help="run reference: an id, a label (latest match), or 'latest'"
    )
    store_show.add_argument(
        "--records", action="store_true", help="also list the run's individual records"
    )
    store_diff = store_sub.add_parser(
        "diff", help="per-policy metric deltas between two runs, with tolerance flags"
    )
    store_diff.add_argument("path", help="experiment store file")
    store_diff.add_argument("baseline", help="baseline run (id, label or 'latest')")
    store_diff.add_argument("current", help="current run (id, label or 'latest')")
    store_diff.add_argument(
        "--tolerance",
        type=float,
        default=1e-6,
        help="relative tolerance under which a delta is 'ok' (default 1e-6)",
    )
    store_diff.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit with status 1 when any metric regressed beyond the tolerance",
    )
    store_diff.add_argument(
        "--cells",
        action="store_true",
        help="also join the two runs on workload key and report per-cell "
        "deltas, localising changes to individual scenarios",
    )
    store_gc = store_sub.add_parser(
        "gc",
        help="prune records orphaned by a CODE_EPOCH bump and vacuum "
        "incomplete runs (dry-run unless --apply)",
    )
    store_gc.add_argument("path", help="experiment store file")
    store_gc.add_argument(
        "--epoch",
        default=None,
        help="prune exactly this code epoch (default: every epoch that is "
        "not the current one)",
    )
    store_gc.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="only touch records/runs whose provenance run is older than "
        "DAYS days",
    )
    store_gc.add_argument(
        "--apply",
        action="store_true",
        help="actually delete and VACUUM (default: dry-run report only)",
    )

    # lint -----------------------------------------------------------------------
    lint = subparsers.add_parser(
        "lint",
        help="run the project-invariant static analyzer (repro.lint)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to analyze (default: the whole src/repro package)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file of justified, allowlisted findings "
        "(default: .reprolint.json at the project root, when present)",
    )
    lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "note", "never"),
        default="error",
        help="lowest severity of non-baselined findings that fails the run "
        "(default: error)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule subset (default: every registered rule; "
        "see --list)",
    )
    lint.add_argument(
        "--list",
        action="store_true",
        dest="list_rules",
        help="list the registered rules and exit",
    )
    lint.add_argument(
        "--diff-range",
        default=None,
        metavar="A..B",
        help="git range for the diff-aware rules (epoch guard); default: "
        "working tree vs HEAD",
    )
    lint.add_argument(
        "--show-baselined",
        action="store_true",
        help="also list the baseline-suppressed findings and their justifications",
    )
    lint.add_argument(
        "--types",
        action="store_true",
        help="additionally run the mypy policy from setup.cfg (strict on "
        "repro.store and repro.core.replanning); skipped explicitly when "
        "mypy is not installed",
    )

    # obs ------------------------------------------------------------------------
    obs = subparsers.add_parser(
        "obs",
        help="render observability artefacts (metrics snapshots, traces, "
        "sweep/campaign reports)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="pretty-print a metrics snapshot, a trace file, a run "
        "journal, or a stream/campaign --output JSON (auto-detected by shape)",
    )
    obs_report.add_argument("path", help="artefact file to render")
    obs_report.add_argument(
        "--trajectories",
        action="store_true",
        help="for sweep reports: also plot each cell's occupancy "
        "trajectory (the MSER-5 scan evidence) as an ASCII series",
    )

    # divisibility ---------------------------------------------------------------
    divisibility = subparsers.add_parser(
        "divisibility", help="regenerate the Figure 1 divisibility series"
    )
    divisibility.add_argument(
        "--dimension", choices=("sequences", "motifs"), default="sequences"
    )
    divisibility.add_argument("--repetitions", type=int, default=10)

    return parser


# --------------------------------------------------------------------------- #
# Command implementations                                                      #
# --------------------------------------------------------------------------- #
def _cmd_info(args: Optional[argparse.Namespace] = None) -> int:
    if args is not None and getattr(args, "lp_backends", False):
        return _cmd_info_lp_backends()
    print(f"repro {__version__} — reproduction of Legrand, Su & Vivien (IPPS 2005)")
    print()
    print("on-line policies:  " + ", ".join(available_schedulers()))
    print("off-line policies: " + ", ".join(available_policies(kind="offline")))
    print("scenarios:         " + ", ".join(available_scenarios()))
    parameterised = [
        (name, policy_spec(name).params)
        for name in available_policies()
        if policy_spec(name).params
    ]
    if parameterised:
        print()
        print("sweepable parameters (variant syntax: name:key=value[,key=value...]):")
        for name, params in parameterised:
            listing = ", ".join(
                f"{param.name}={param.default!r} ({param.type.__name__})"
                for param in params
            )
            print(f"  {name}: {listing}")
    return 0


def _cmd_info_lp_backends() -> int:
    """Render the LP backend inventory: accepted names and solution labels."""
    from .lp.backends import backend_inventory

    rows = backend_inventory()
    name_w = max(len(info.name) for info in rows)
    label_w = max(len(info.label) for info in rows)
    print(
        "LP backends for the backend= parameter of online-offline and "
        "deadline-driven (off-line searches always use scipy-highs):"
    )
    for info in rows:
        warm = "warm-start" if info.warm_start else "cold only"
        print(
            f"  {info.name:<{name_w}}  {info.label:<{label_w}}  "
            f"{warm:<10}  {info.description}"
        )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.scenario_command == "list":
        for name in available_scenarios():
            print(name)
        return 0
    instance = make_scenario(args.name, seed=args.seed)
    print(instance.describe())
    if args.output:
        save_instance(instance, args.output)
        print(f"instance written to {args.output}")
    return 0


def _load_instance_argument(argument: str, seed: Optional[int]) -> Instance:
    """Interpret an instance argument as a file path or a scenario name."""
    if argument in available_scenarios():
        return make_scenario(argument, seed=seed)
    return load_instance(argument)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    print(instance.describe())

    if args.objective == "makespan":
        result = minimize_makespan(instance, preemptive=args.preemptive)
        schedule = result.schedule
        print(f"optimal makespan: {result.makespan:.6g}")
    elif args.objective == "max-stretch":
        result = minimize_max_stretch(instance, preemptive=args.preemptive)
        schedule = result.schedule
        print(f"optimal max stretch: {result.objective:.6g}")
    else:
        result = minimize_max_weighted_flow(instance, preemptive=args.preemptive)
        schedule = result.schedule
        print(f"optimal max weighted flow: {result.objective:.6g}")

    schedule.validate()
    metrics = schedule.metrics()
    print(metrics.summary())
    if args.gantt:
        print()
        print(render_gantt(schedule))
    if args.output:
        save_schedule(schedule, args.output)
        print(f"schedule written to {args.output}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    policy_names = available_schedulers() if args.all_policies else [args.policy]
    if not _check_policies(policy_names):
        return 1
    instance = _load_instance_argument(args.instance, args.seed)
    print(instance.describe())
    offline = minimize_max_weighted_flow(instance).objective
    print(f"off-line optimal max weighted flow: {offline:.6g}")
    print()

    rows = []
    for name in policy_names:
        scheduler = make_scheduler(name)
        result = simulate(instance, scheduler)
        metrics = result.metrics()
        rows.append(
            (
                scheduler.name,  # the canonical variant label, not the raw token
                metrics.max_weighted_flow,
                metrics.max_weighted_flow / offline,
                metrics.makespan,
                result.num_preemptions,
            )
        )
    rows.sort(key=lambda row: row[1])
    print(
        format_table(
            ["policy", "max weighted flow", "vs optimum", "makespan", "preemptions"],
            rows,
            float_format=".4g",
        )
    )
    return 0


def _split_policy_tokens(text: str) -> list:
    """Split a --policies list, keeping multi-parameter variants together.

    A comma normally separates policies, but inside a variant token it
    separates parameters: a ``key=value`` segment without a ``:`` of its own
    continues the previous token (policy names never contain ``=``), so
    ``"online-offline:period=2,preemptive=true,mct"`` yields the
    variant and ``mct``.
    """
    tokens: list = []
    for piece in text.split(","):
        if tokens and "=" in piece and ":" not in piece:
            tokens[-1] += "," + piece
        elif piece:
            tokens.append(piece)
    return tokens


def _check_policies(policies: Sequence[str]) -> bool:
    """Build every policy token once: a bad value is an ``error:`` line.

    Unknown policies and parameters raise ``KeyError``, which :func:`main`
    reports the same way.
    """
    try:
        resolve_policies(policies)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return False
    return True


def _check_run_args(args: argparse.Namespace, policies: Sequence[str]) -> bool:
    """Fail fast on bad policy tokens and a store-less --resume."""
    if not _check_policies(policies):
        return False
    if args.resume and not args.store:
        print("error: --resume needs --store PATH to resume from", file=sys.stderr)
        return False
    return True


def _run_observed(args: argparse.Namespace, phase: str, run, report) -> int:
    """Run a driver with the shared run flags' observability around it.

    ``run()`` executes the driver; ``report(result)`` prints its summary and
    returns the ``--output`` payload and a trace builder.  The rest is the
    epilogue both run commands share: the ``--profile`` phases, the
    ``--metrics`` recorder and table, the journal note, the ``--trace`` file
    and the ``--output`` JSON.
    """
    from .obs import PhaseProfiler, collecting, render_metrics

    profiler = PhaseProfiler()
    snapshot = None
    with profiler.phase(phase):
        if args.metrics:
            with collecting() as recorder:
                result = run()
            snapshot = recorder.snapshot()
        else:
            result = run()
    payload, trace = report(result)
    if snapshot is not None:
        print()
        print(render_metrics(snapshot))
        payload["metrics"] = snapshot
    if args.journal:
        print(f"journal appended to {args.journal}")
    if args.trace:
        with profiler.phase("trace"):
            tracer = trace()
            _write_trace(tracer, args.trace)
        print(f"trace written to {args.trace} ({len(tracer)} events)")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"{phase} written to {args.output}")
    if args.profile:
        print()
        print(profiler.render())
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .obs import trace_campaign_records

    scenarios = args.scenarios.split(",") if args.scenarios else None
    if args.policies == "all":
        policies = available_schedulers()
    else:
        policies = _split_policy_tokens(args.policies)
    if not _check_run_args(args, policies):
        return 1
    seeds = None
    if args.seeds:
        try:
            seeds = tuple(int(seed) for seed in args.seeds.split(","))
        except ValueError:
            print(f"error: --seeds must be comma-separated integers, got {args.seeds!r}",
                  file=sys.stderr)
            return 1
    if args.num_seeds != 1 and args.base_seed is None:
        print("error: --num-seeds only applies to spawned seeding; pass --base-seed "
              "(or list the seeds explicitly with --seeds)", file=sys.stderr)
        return 1

    def run():
        return run_scenario_campaign(
            scenarios,
            policies,
            seeds=seeds
            if seeds is not None
            else ((None,) if args.base_seed is None else None),
            base_seed=args.base_seed,
            seeds_per_scenario=args.num_seeds,
            include_offline=not args.no_offline,
            max_workers=args.max_workers,
            chunk_size=args.chunk_size,
            store=args.store,
            resume=args.resume,
            run_label=args.run_label,
            journal=args.journal,
        )

    def report(result):
        print(result.as_table())
        stats = result.stats
        if stats is not None:
            print()
            print(
                f"{stats.workloads} workloads, {stats.records} records in "
                f"{stats.elapsed_seconds:.2f}s "
                f"({stats.scenarios_per_second:.2f} scenarios/s, "
                f"{stats.probe_constructions} probe constructions, "
                f"{stats.offline_solves} offline solves, "
                f"peak in-flight {stats.peak_in_flight})"
            )
            if args.store:
                print(
                    f"store {args.store}: run #{stats.store_run_id}, "
                    f"{stats.store_new_records} new cells, "
                    f"{stats.resumed_records} resumed "
                    f"(skip rate {stats.resume_skip_rate:.0%})"
                )
        payload = {
            "records": [dataclasses.asdict(record) for record in result.records],
            "stats": stats.as_dict() if stats is not None else None,
        }
        return payload, lambda: trace_campaign_records(result.records)

    return _run_observed(args, "campaign", run, report)


def _write_trace(tracer, path: str) -> None:
    """Write a trace in the format the file name asks for.

    ``.json`` gets the Chrome trace-event export (Perfetto-loadable);
    anything else gets the byte-identity JSON-lines export.
    """
    if path.endswith(".json"):
        text = tracer.to_chrome() + "\n"
    else:
        text = tracer.to_jsonl()
    with open(path, "w") as handle:
        handle.write(text)


def _parse_rho_sweep(text: str) -> list:
    """Parse a --rho argument: 'start:stop:count' (inclusive) or comma values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"--rho expects start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("--rho count must be at least 1")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + index * step for index in range(count)]
    return [float(part) for part in text.split(",") if part]


def _cmd_stream(args: argparse.Namespace) -> int:
    from .analysis import run_stream_sweep
    from .obs import Tracer
    from .workload import StreamSpec

    policies = _split_policy_tokens(args.policies)
    if not _check_run_args(args, policies):
        return 1
    try:
        rhos = _parse_rho_sweep(args.rho)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    max_workers = args.max_workers
    tracer = None
    if args.trace:
        tracer = Tracer()
        if max_workers is not None:
            print(
                "note: --trace builds traces from in-process result series; "
                "ignoring --max-workers",
                file=sys.stderr,
            )
            max_workers = None

    spec = StreamSpec(
        label=args.scenario,
        scenario=args.scenario,
        seed=args.seed,
        arrivals=args.arrival_process,
        sizes=args.sizes,
    )

    def run():
        return run_stream_sweep(
            spec,
            policies,
            rhos=rhos,
            max_arrivals=args.arrivals,
            warmup_fraction=args.warmup,
            num_batches=args.batches,
            max_active=args.max_active,
            max_workers=max_workers,
            store=args.store,
            resume=args.resume,
            run_label=args.run_label,
            collect_metrics=args.metrics,
            tracer=tracer,
            journal=args.journal,
        )

    def report(result):
        print(result.as_table())
        stats = result.stats
        if stats is not None:
            print()
            print(
                f"{stats.cells} cells ({stats.computed_cells} computed, "
                f"{stats.resumed_cells} resumed, skip rate {stats.resume_skip_rate:.0%}), "
                f"{stats.arrivals} arrivals in {stats.elapsed_seconds:.2f}s "
                f"({stats.arrivals_per_second:.0f} arrivals/s), "
                f"{stats.saturated_cells} saturated cell(s)"
            )
            if args.store:
                print(f"store {args.store}: run #{stats.store_run_id}")
        cells = []
        for record in result.records:
            cell = {
                "workload": record.workload,
                "policy": record.policy,
                "rho": record.rho,
                "report": record.report.as_dict(),
            }
            if record.metrics is not None:
                cell["metrics"] = record.metrics
            cells.append(cell)
        payload = {"cells": cells, "stats": stats.as_dict() if stats is not None else None}
        return payload, lambda: tracer

    return _run_observed(args, "sweep", run, report)


def _cmd_store(args: argparse.Namespace) -> int:
    from .analysis import render_cell_diff
    from .store import ExperimentStore, diff_run_cells, diff_runs

    with ExperimentStore(args.path, create=False) as store:
        if args.store_command == "gc":
            report = store.gc(
                epoch=args.epoch,
                older_than_days=args.older_than,
                dry_run=not args.apply,
            )
            mode = "dry-run (pass --apply to delete)" if report.dry_run else "applied"
            print(f"store gc on {args.path}: {mode}")
            if report.empty:
                print("nothing to prune: every record is current-epoch and "
                      "every run completed")
                return 0
            for epoch, count in sorted(report.stale_by_epoch.items()):
                print(f"  stale epoch {epoch!r}: {count} record(s)")
            if report.incomplete_runs:
                runs = ", ".join(f"#{run_id}" for run_id in report.incomplete_runs)
                print(f"  incomplete run(s): {runs}")
            print(f"  membership rows affected: {report.membership_rows}")
            if not report.dry_run:
                print("  pruned and vacuumed")
            return 0

        if args.store_command == "ls":
            rows = [
                (
                    run.run_id,
                    run.label,
                    run.created_at,
                    "yes" if run.completed else "no",
                    run.num_records,
                )
                for run in store.runs()
            ]
            print(
                format_table(
                    ["run", "label", "created", "completed", "records"],
                    rows,
                    title=f"Runs in {args.path} ({store.num_records()} distinct cells)",
                )
            )
            return 0

        if args.store_command == "show":
            run_id = store.resolve_run(args.run)
            info = next(run for run in store.runs() if run.run_id == run_id)
            print(
                f"run #{info.run_id} {info.label!r}, created {info.created_at}, "
                f"{'completed' if info.completed else 'INCOMPLETE'}, "
                f"{info.num_records} records"
            )
            metrics = store.headline_metrics(run_id)
            if metrics:
                rows = [
                    (policy, metric, value)
                    for policy, per_metric in sorted(metrics.items())
                    for metric, value in sorted(per_metric.items())
                ]
                print(
                    format_table(
                        ["policy", "metric", "value"],
                        rows,
                        title="Headline metrics",
                        float_format=".6g",
                    )
                )
            if args.records:
                rows = [
                    (
                        record.workload,
                        record.policy,
                        record.max_weighted_flow,
                        record.normalised,
                        record.preemptions,
                        record.digest[:12],
                    )
                    for record in store.run_records(run_id)
                ]
                print(
                    format_table(
                        ["workload", "policy", "max w-flow", "vs optimum", "preempt", "digest"],
                        rows,
                        title="Records (emission order)",
                        float_format=".4g",
                    )
                )
            return 0

        # diff
        diff = diff_runs(store, args.baseline, args.current)
        print(render_cross_run_diff(diff, tolerance=args.tolerance))
        regressed = bool(diff.regressions(args.tolerance))
        if args.cells:
            cells = diff_run_cells(store, args.baseline, args.current)
            print()
            print(render_cell_diff(cells, tolerance=args.tolerance))
            regressed = regressed or bool(cells.regressions(args.tolerance))
        if args.fail_on_regression and regressed:
            return 1
        return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .lint import (
        available_rules,
        find_project_root,
        rule_spec,
        run_lint,
        run_typecheck,
    )

    if args.list_rules:
        for name in available_rules():
            spec = rule_spec(name)
            print(f"{name:22s} {spec.severity:8s} [{spec.scope}] {spec.description}")
        return 0

    rules = None
    if args.rules:
        rules = [token.strip() for token in args.rules.split(",") if token.strip()]
        for name in rules:
            rule_spec(name)  # fail fast on unknown rule names
    root = find_project_root()
    report = run_lint(
        root,
        paths=[Path(path) for path in args.paths] or None,
        rules=rules,
        baseline_path=Path(args.baseline) if args.baseline else None,
        diff_range=args.diff_range,
    )
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text(show_baselined=args.show_baselined))

    exit_code = 0
    if args.fail_on != "never" and report.failed(args.fail_on):
        exit_code = 1

    if args.types:
        result = run_typecheck(root)
        print()
        print(result.output or "mypy: no output")
        if result.available and result.returncode != 0:
            exit_code = 1
    return exit_code


def _load_obs_artefact(path: str):
    """Load an obs artefact file: ``(json_value, None)`` or ``(None, events)``.

    A whole-file JSON document comes back as the first element; a
    JSON-lines artefact (a trace, a run journal, or a single trace event,
    which is both) comes back as a list of event dicts in the second.
    Unparseable lines are tolerated — a crash-truncated journal tail is a
    skipped line, not a rendering failure — but a file with *no* parseable
    line is still an error.
    """
    with open(path) as handle:
        text = handle.read()
    stripped = text.strip()
    if not stripped:
        raise ReproError(f"{path} is empty")
    try:
        value = json.loads(stripped)
    except json.JSONDecodeError:
        value = None
    if value is not None and not (isinstance(value, dict) and "ph" in value):
        return value, None
    events = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail of a killed writer
        if isinstance(event, dict):
            events.append(event)
    if not events:
        raise ReproError(f"{path}: no parseable JSON lines")
    return None, events


def _render_trace_summary(events, *, source: str, chrome: bool = False) -> str:
    """Per-track event counts and simulated time span of a trace file."""
    thread_names: dict = {}
    per_track: dict = {}
    total = 0
    for event in events:
        phase = event.get("ph")
        if chrome and phase == "M":
            if event.get("name") == "thread_name":
                thread_names[event.get("tid")] = event.get("args", {}).get("name")
            continue
        total += 1
        if chrome:
            time = float(event.get("ts", 0.0)) / 1e6
            duration = float(event.get("dur", 0.0)) / 1e6
            track = thread_names.get(event.get("tid"), f"tid-{event.get('tid')}")
        else:
            time = float(event.get("time", 0.0))
            duration = float(event.get("duration", 0.0))
            track = event.get("track", "main")
        stats = per_track.get(track)
        if stats is None:
            stats = per_track[track] = {
                "X": 0, "I": 0, "C": 0,
                "start": float("inf"), "end": float("-inf"),
            }
        stats[phase] = stats.get(phase, 0) + 1
        stats["start"] = min(stats["start"], time)
        stats["end"] = max(stats["end"], time + (duration if phase == "X" else 0.0))
    rows = [
        (track, stats["X"], stats["I"], stats["C"], stats["start"], stats["end"])
        for track, stats in per_track.items()
    ]
    form = "Chrome trace-event" if chrome else "JSON-lines"
    header = f"trace {source}: {total} event(s) on {len(per_track)} track(s) ({form})"
    table = format_table(
        ["track", "spans", "instants", "counters", "t0 [s]", "t1 [s]"],
        rows,
        float_format=".4g",
    )
    return header + "\n\n" + table


def _render_sweep_report(data, *, trajectories: bool = False) -> int:
    """Render a ``stream --output`` JSON: the MSER-5 evidence per cell."""
    from .analysis import ascii_series
    from .obs import render_metrics

    cells = data.get("cells", [])
    rows = []
    for cell in cells:
        report = cell.get("report", {})
        trajectory = report.get("occupancy_trajectory") or []
        truncation = report.get("mser_truncation")
        rows.append(
            (
                cell.get("workload", "?"),
                cell.get("policy", "?"),
                report.get("mean_stretch", {}).get("mean", float("nan")),
                report.get("utilisation", float("nan")),
                "SATURATED" if report.get("saturated") else "ok",
                "-" if truncation is None else f"{truncation}/{len(trajectory)}",
                f"{trajectory[0]:.1f}->{trajectory[-1]:.1f}" if trajectory else "-",
                "yes" if cell.get("metrics") else "-",
            )
        )
    print(
        format_table(
            ["workload", "policy", "mean stretch", "util", "state",
             "MSER-5 cut", "occupancy", "obs"],
            rows,
            title="Stream sweep report (MSER-5 saturation evidence per cell)",
            float_format=".3f",
        )
    )
    stats = data.get("stats")
    if stats:
        print()
        print(
            f"{stats.get('cells', 0)} cells, {stats.get('arrivals', 0)} arrivals, "
            f"{stats.get('saturated_cells', 0)} saturated, "
            f"{stats.get('elapsed_seconds', 0.0):.2f}s"
        )
    if trajectories:
        for cell in cells:
            report = cell.get("report", {})
            trajectory = report.get("occupancy_trajectory") or []
            if len(trajectory) < 2:
                continue
            print()
            print(
                ascii_series(
                    range(len(trajectory)),
                    {"occupancy": trajectory},
                    title=f"{cell.get('workload', '?')} {cell.get('policy', '?')}: "
                    f"queue-occupancy batch means (MSER-5 scan evidence)",
                    x_label="batch",
                    height=12,
                )
            )
    snapshot = data.get("metrics")
    if snapshot:
        print()
        print(render_metrics(snapshot))
    return 0


def _render_campaign_report(data) -> int:
    """Render a ``campaign --output`` JSON: records plus any obs snapshot."""
    from .obs import render_metrics

    rows = [
        (
            record.get("workload", "?"),
            record.get("policy", "?"),
            record.get("max_weighted_flow", float("nan")),
            record.get("normalised", float("nan")),
            record.get("makespan", float("nan")),
            record.get("preemptions", 0),
        )
        for record in data.get("records", [])
    ]
    print(
        format_table(
            ["workload", "policy", "max w-flow", "vs optimum", "makespan", "preempt"],
            rows,
            title="Campaign report",
            float_format=".4g",
        )
    )
    stats = data.get("stats")
    if stats:
        print()
        print(
            f"{stats.get('workloads', 0)} workloads, {stats.get('records', 0)} "
            f"records, {stats.get('elapsed_seconds', 0.0):.2f}s"
        )
    snapshot = data.get("metrics")
    if snapshot:
        print()
        print(render_metrics(snapshot))
    return 0


def _render_journal_report(events, *, source: str) -> int:
    """Render a run journal: timeline, phases, heartbeat gaps, status block.

    Phases live on the journal clock: *planning* spans run start to the
    first dispatch, *compute* the first dispatch to the last completion,
    *finalise* the last completion to the run-finished event.  Nothing
    here reads the host clock, so a journal always renders the same.
    """
    from .obs import analyse_journal, render_fleet_status

    runs: dict = {}
    for event in events:
        runs.setdefault(str(event.get("run", "?")), []).append(event)
    print(f"journal {source}: {len(events)} event(s), {len(runs)} run(s)")
    for run, run_events in runs.items():
        counts: dict = {}
        for event in run_events:
            name = str(event.get("event", "?"))
            counts[name] = counts.get(name, 0) + 1
        stamps = [
            float(e["ts"]) for e in run_events if isinstance(e.get("ts"), (int, float))
        ]
        span = (max(stamps) - min(stamps)) if stamps else 0.0
        print()
        timeline = ", ".join(f"{name} x{counts[name]}" for name in sorted(counts))
        print(f"run {run}: {timeline} over {span:.2f}s")

        def _times(name: str) -> list:
            return [
                float(e["ts"])
                for e in run_events
                if e.get("event") == name and isinstance(e.get("ts"), (int, float))
            ]

        started = _times("run-started")
        dispatches = _times("cell-dispatched")
        completions = _times("cell-completed")
        finished = _times("run-finished")
        rows = []
        if started and dispatches:
            rows.append(("planning", min(dispatches) - started[0]))
        if dispatches and completions:
            rows.append(("compute", max(completions) - min(dispatches)))
        if completions and finished:
            rows.append(("finalise", finished[0] - max(completions)))
        if rows:
            print(format_table(["phase", "wall-clock [s]"], rows, float_format=".3f"))

        beats: dict = {}
        for event in run_events:
            if event.get("event") != "worker-heartbeat":
                continue
            if isinstance(event.get("ts"), (int, float)):
                beats.setdefault(str(event.get("worker", "?")), []).append(
                    float(event["ts"])
                )
        if beats:
            rows = []
            for worker in sorted(beats):
                series = sorted(beats[worker])
                gaps = [b - a for a, b in zip(series, series[1:])]
                rows.append((worker, len(series), max(gaps) if gaps else 0.0))
            print(
                format_table(
                    ["worker", "heartbeats", "max gap [s]"],
                    rows,
                    title="Heartbeat gaps",
                    float_format=".3f",
                )
            )
        print(render_fleet_status(analyse_journal(run_events, run=run)))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs import render_metrics

    value, events = _load_obs_artefact(args.path)
    if events is not None:
        if events and "event" in events[0]:
            return _render_journal_report(events, source=args.path)
        print(_render_trace_summary(events, source=args.path))
        return 0
    if isinstance(value, dict) and "traceEvents" in value:
        print(_render_trace_summary(value["traceEvents"], source=args.path, chrome=True))
        return 0
    if isinstance(value, dict) and {"counters", "gauges", "histograms"} <= value.keys():
        print(render_metrics(value))
        return 0
    if isinstance(value, dict) and "cells" in value:
        return _render_sweep_report(value, trajectories=args.trajectories)
    if isinstance(value, dict) and "records" in value:
        return _render_campaign_report(value)
    raise ReproError(
        f"{args.path}: unrecognised observability artefact (expected a metrics "
        "snapshot, a trace in either export format, a run journal, or a "
        "stream/campaign --output JSON)"
    )


def _cmd_divisibility(args: argparse.Namespace) -> int:
    if args.dimension == "sequences":
        study = sequence_divisibility_experiment(repetitions=args.repetitions)
        paper_overhead = 1.1
    else:
        study = motif_divisibility_experiment(repetitions=args.repetitions)
        paper_overhead = 10.5
    fit = linear_regression(*study.as_arrays())
    print(
        format_table(
            [f"{args.dimension} block size", "mean time [s]"],
            list(zip(study.block_sizes(), study.mean_times())),
            title=f"Divisibility study ({args.dimension})",
            float_format=".2f",
        )
    )
    print()
    print(f"linear fit: {fit.summary()}")
    print(f"fixed overhead: {fit.intercept:.2f} s (paper: {paper_overhead} s)")
    return 0


# --------------------------------------------------------------------------- #
# Entry point                                                                  #
# --------------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "stream":
            return _cmd_stream(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "obs":
            return _cmd_obs(args)
        if args.command == "divisibility":
            return _cmd_divisibility(args)
    except (ReproError, FileNotFoundError, json.JSONDecodeError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises SystemExit


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
