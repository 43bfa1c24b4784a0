"""Experiment campaigns: a streaming dispatcher over (workload, policy) tasks.

The benches of this repository each reproduce one paper artefact; a *campaign*
is the general-purpose version a downstream user needs: sweep a family of
workloads, run the off-line optimum and a set of policies on each, collect
normalised metrics and render a report.

The campaign layer is the dispatcher of the unified policy runtime
(:mod:`repro.heuristics.registry` resolves policies by name, the
:mod:`repro.simulation` event loop executes the on-line ones):

* **Lazy workloads** — a sweep is enumerated as cheap :class:`WorkloadSpec`
  descriptors (a scenario name and seed, or a concrete instance); scenario
  grids are materialised inside the workers, so a 10k-scenario sweep never
  holds 10k instances in the parent process.
* **Streaming chunked dispatch** — work is cut into per-(workload,
  policy-chunk) items (``chunk_size=1`` gives per-policy parallelism) that
  the shared cell executor (:mod:`repro.analysis._cells`) runs: at most
  ``max_inflight`` items are submitted to the process pool at any time,
  and finished records are aggregated incrementally in deterministic order,
  so memory stays bounded no matter how large the sweep is.
* **Shared probes, one optimum per workload** — every item of a workload
  reuses one :class:`~repro.core.maxflow.FeasibilityProbe` (and one off-line
  optimum) through a per-process LRU context cache; in parallel dispatch the
  first finished item of a workload ships the pinned optimum back to the
  parent, which pre-seeds it into the workload's later items, so the LP
  optimum is solved **exactly once per workload at any worker count**.
* **Durable results** — pass ``store=`` (an
  :class:`~repro.store.ExperimentStore` or a path) and every record is
  persisted under its content digest while streaming; ``resume=True`` skips
  already-present digests *before* dispatch, turning a killed or
  re-parameterised sweep into an incremental top-up that computes only the
  missing cells.

:func:`run_policy_campaign` and :func:`run_scenario_campaign` keep their
pre-dispatcher APIs (sequential and parallel runs produce identical records
in identical order); :func:`stream_campaign` exposes the incremental record
stream, and :class:`CampaignStats` reports the throughput trajectory
(scenarios/sec, peak in-flight items, probe constructions, off-line solves,
resumed records) that the CLI's ``--output`` JSON carries.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.instance import Instance
from ..core.maxflow import FeasibilityProbe
from ..exceptions import WorkloadError
from ..obs.journal import RunJournal
from ..obs.metrics import get_recorder
from ..heuristics import PolicyOutcome, make_policy
from ..heuristics.registry import (
    OFFLINE_OPTIMAL,
    SchedulingPolicy,
    policy_spec,
    resolve_policy_variant,
)
from ..workload.scenarios import ScenarioSpec, make_scenario, scenario_grid
from ._cells import Cell, CellResult, RunTotals, execute_cells
from .stats import geometric_mean, summarize
from .tables import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only (runtime import would cycle)
    from ..store import ExperimentStore, StoredRecord

__all__ = [
    "CampaignRecord",
    "CampaignResult",
    "CampaignStats",
    "WorkloadSpec",
    "run_policy_campaign",
    "run_scenario_campaign",
    "stream_campaign",
]


@dataclass(frozen=True)
class CampaignRecord:
    """One (workload, policy) measurement.

    Attributes
    ----------
    workload:
        Label of the workload (e.g. ``"seed 3"`` or a scenario name).
    policy:
        Policy name (``"offline-optimal"`` for the LP optimum itself).
    max_weighted_flow, max_stretch, makespan:
        Raw metric values of the executed (or optimal) schedule.
    normalised:
        ``max_weighted_flow`` divided by the off-line optimum of the same
        workload (1.0 for the optimum itself).
    preemptions:
        Preemption count (0 for off-line schedules).
    """

    workload: str
    policy: str
    max_weighted_flow: float
    max_stretch: float
    makespan: float
    normalised: float
    preemptions: int = 0


@dataclass
class CampaignStats:
    """Throughput trajectory of one campaign dispatch.

    Attributes
    ----------
    workloads, items, records:
        Work volume: distinct workloads, dispatched (workload, policy-chunk)
        items, and emitted records.
    probe_constructions:
        Total :class:`FeasibilityProbe` constructions across all workers —
        strictly fewer than ``workloads × policies`` whenever the per-
        workload sharing pays off.
    offline_solves:
        Off-line optimum LP searches performed — exactly one per computed
        workload at any worker count (the parent ships the pinned optimum
        into a workload's later items), and zero for workloads fully
        resumed from a store.  Explicitly requested ``offline-optimal``
        cells reuse the context's outcome where possible; when a pinned
        parallel item cannot, its extra solve is counted here too.
    resumed_records, computed_records:
        Split of ``records`` into cells loaded from the experiment store
        (``resume=True``) and cells actually computed this dispatch.
    store_new_records:
        Content rows newly inserted into the store (0 without a store).
    store_run_id:
        Run id allocated in the store for this dispatch (``None`` without).
    peak_in_flight:
        Maximum number of items simultaneously submitted to the pool (0 for
        in-process runs); bounded by ``max_inflight`` by construction.
    peak_pending_records:
        Maximum number of records buffered while waiting for an earlier item
        to finish (deterministic emission order), also bounded.
    elapsed_seconds:
        Wall-clock time of the dispatch.
    max_workers, chunk_size:
        The dispatch parameters, for the bench trajectory record.
    """

    workloads: int = 0
    items: int = 0
    records: int = 0
    probe_constructions: int = 0
    offline_solves: int = 0
    resumed_records: int = 0
    computed_records: int = 0
    store_new_records: int = 0
    store_run_id: Optional[int] = None
    peak_in_flight: int = 0
    peak_pending_records: int = 0
    elapsed_seconds: float = 0.0
    max_workers: Optional[int] = None
    chunk_size: int = 1

    @property
    def scenarios_per_second(self) -> float:
        """Workloads processed per wall-clock second."""
        return self.workloads / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def records_per_second(self) -> float:
        """Records produced per wall-clock second."""
        return self.records / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def resume_skip_rate(self) -> float:
        """Fraction of records served from the store instead of computed."""
        return self.resumed_records / self.records if self.records > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly view (the ``stats`` of the CLI's ``--output`` JSON)."""
        return {
            "workloads": self.workloads,
            "items": self.items,
            "records": self.records,
            "probe_constructions": self.probe_constructions,
            "offline_solves": self.offline_solves,
            "resumed_records": self.resumed_records,
            "computed_records": self.computed_records,
            "resume_skip_rate": self.resume_skip_rate,
            "store_new_records": self.store_new_records,
            "store_run_id": self.store_run_id,
            "peak_in_flight": self.peak_in_flight,
            "peak_pending_records": self.peak_pending_records,
            "elapsed_seconds": self.elapsed_seconds,
            "scenarios_per_second": self.scenarios_per_second,
            "records_per_second": self.records_per_second,
            # None (in-process) stays null in JSON; 0 means "one per CPU".
            "max_workers": self.max_workers,
            "chunk_size": self.chunk_size,
        }


@dataclass(frozen=True)
class WorkloadSpec:
    """A lazy, picklable campaign workload.

    Either a concrete ``instance`` or a ``(scenario, seed)`` pointer that the
    worker materialises on demand (keeping huge sweeps out of the parent's
    memory).
    """

    label: str
    scenario: Optional[str] = None
    seed: Optional[int] = None
    instance: Optional[Instance] = None

    @classmethod
    def from_instance(cls, label: str, instance: Instance) -> "WorkloadSpec":
        """Wrap an already-built instance."""
        return cls(label=label, instance=instance)

    @classmethod
    def from_scenario(cls, spec: ScenarioSpec) -> "WorkloadSpec":
        """Wrap a lazy :class:`~repro.workload.scenarios.ScenarioSpec`."""
        return cls(label=spec.label, scenario=spec.scenario, seed=spec.seed)

    def materialise(self) -> Instance:
        """Build (or return) the instance."""
        if self.instance is not None:
            return self.instance
        if self.scenario is None:
            raise WorkloadError(f"workload {self.label!r} has neither instance nor scenario")
        return make_scenario(self.scenario, self.seed)

    def content_key(self) -> str:
        """Stable identity of the workload for content-addressed storage.

        Scenario workloads are keyed by (scenario name, seed) — the pair
        that fully determines the generated instance; concrete instances by
        a digest of their full payload (jobs, machines, costs).
        """
        if self.scenario is not None:
            # One format, owned by ScenarioSpec: diverging copies would
            # silently stop matching previously stored cells.
            return ScenarioSpec(
                label=self.label, scenario=self.scenario, seed=self.seed
            ).content_key()
        if self.instance is None:
            raise WorkloadError(f"workload {self.label!r} has neither instance nor scenario")
        from ..store.digest import instance_digest  # deferred: avoids module cycle

        return f"instance-sha256={instance_digest(self.instance)}"


# --------------------------------------------------------------------------- #
# Result container                                                             #
# --------------------------------------------------------------------------- #
@dataclass
class CampaignResult:
    """All the records of a campaign plus aggregation helpers."""

    records: List[CampaignRecord] = field(default_factory=list)
    stats: Optional[CampaignStats] = None

    def policies(self) -> List[str]:
        """Distinct policy names, off-line optimum first."""
        names = sorted({record.policy for record in self.records})
        if OFFLINE_OPTIMAL in names:
            names.remove(OFFLINE_OPTIMAL)
            names.insert(0, OFFLINE_OPTIMAL)
        return names

    def records_for(self, policy: str) -> List[CampaignRecord]:
        """All records of one policy."""
        return [record for record in self.records if record.policy == policy]

    def mean_degradation(self, policy: str) -> float:
        """Geometric-mean normalised max weighted flow of one policy."""
        values = [record.normalised for record in self.records_for(policy)]
        if not values:
            raise WorkloadError(f"no records for policy {policy!r}")
        return geometric_mean(values)

    def ranking(self) -> List[str]:
        """Policies ordered from best (lowest mean degradation) to worst."""
        return sorted(
            (p for p in self.policies() if p != OFFLINE_OPTIMAL),
            key=self.mean_degradation,
        )

    def as_table(self) -> str:
        """Aggregate table: one row per policy."""
        rows = []
        for policy in self.policies():
            values = [record.normalised for record in self.records_for(policy)]
            stats = summarize(values)
            rows.append((policy, geometric_mean(values), stats.minimum, stats.maximum))
        return format_table(
            ["policy", "geo-mean vs optimum", "min", "max"],
            rows,
            title="Campaign summary (max weighted flow normalised by the off-line optimum)",
            float_format=".3f",
        )


# --------------------------------------------------------------------------- #
# Work items and the per-process workload context                              #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _CampaignItem:
    """One dispatch unit: a chunk of policies over one workload.

    ``pinned_optimum`` carries a workload's already-known off-line optimum
    (published by the workload's first finished item, or read from a
    resumed store record) into the worker, which then skips the LP search
    entirely.
    """

    dispatch_id: int
    workload_index: int
    spec: WorkloadSpec
    policies: Tuple[str, ...]
    emit_offline: bool
    pinned_optimum: Optional[float] = None


@dataclass
class _ItemResult:
    records: List[CampaignRecord]
    probe_constructions: int
    offline_solves: int = 0
    optimum: Optional[float] = None


#: Per-process LRU of workload contexts: (dispatch id, workload index) ->
#: (instance, offline outcome or None, optimum, probe or None).  Small by
#: design — consecutive items of the same workload are what it exists for.
_CONTEXT_CACHE: "OrderedDict[Tuple[int, int], Tuple[Instance, Optional[PolicyOutcome], float, Optional[FeasibilityProbe]]]" = (
    OrderedDict()
)
_CONTEXT_CACHE_SIZE = 4
#: Guards the cache's dict operations only (concurrent in-process campaigns);
#: the LP work itself runs unlocked, so two threads may build the same
#: context redundantly — wasteful but correct.
_CONTEXT_LOCK = threading.Lock()

def _item_needs_probe(item: _CampaignItem) -> bool:
    """Whether any of the item's policies is off-line (wants a shared probe)."""
    for name in item.policies:
        try:
            if policy_spec(name.partition(":")[0]).kind == "offline":
                return True
        except KeyError:
            return True  # unknown name: build the probe, let make_policy raise
    return False


def _workload_context(
    item: _CampaignItem,
) -> Tuple[Instance, Optional[PolicyOutcome], float, Optional[FeasibilityProbe], int, int]:
    """Instance, off-line optimum and shared probe of the item's workload.

    Returns two trailing counters: probe constructions and off-line LP
    solves performed by this call (both 0 on a context-cache hit).  Items
    carrying a ``pinned_optimum`` skip the LP search — and the probe
    construction, unless one of their policies is itself off-line.
    """
    key = (item.dispatch_id, item.workload_index)
    with _CONTEXT_LOCK:
        cached = _CONTEXT_CACHE.get(key)
        # A pinned context (offline outcome None) cannot serve an item that
        # must emit the off-line record; fall through and solve.
        if cached is not None and not (item.emit_offline and cached[1] is None):
            _CONTEXT_CACHE.move_to_end(key)
            return cached[0], cached[1], cached[2], cached[3], 0, 0
    instance = cached[0] if cached is not None else item.spec.materialise()
    probe = cached[3] if cached is not None else None
    constructed = 0
    solved = 0
    if item.pinned_optimum is not None and not item.emit_offline:
        offline: Optional[PolicyOutcome] = None
        optimum = item.pinned_optimum
        if probe is None and _item_needs_probe(item):
            probe = FeasibilityProbe(instance)
            constructed = 1
    else:
        if probe is None:
            probe = FeasibilityProbe(instance)
            constructed = 1
        offline = make_policy(OFFLINE_OPTIMAL).run(instance, probe=probe)
        solved = 1
        if offline.objective is None or offline.objective <= 0:
            raise WorkloadError(
                f"degenerate workload {item.spec.label!r}: zero optimal objective"
            )
        optimum = offline.objective
    with _CONTEXT_LOCK:
        _CONTEXT_CACHE[key] = (instance, offline, optimum, probe)
        while len(_CONTEXT_CACHE) > _CONTEXT_CACHE_SIZE:
            _CONTEXT_CACHE.popitem(last=False)
    return instance, offline, optimum, probe, constructed, solved


def _record_from_outcome(
    label: str, outcome: PolicyOutcome, optimum: float
) -> CampaignRecord:
    return CampaignRecord(
        workload=label,
        policy=outcome.policy,
        max_weighted_flow=outcome.max_weighted_flow,
        max_stretch=outcome.max_stretch,
        makespan=outcome.makespan,
        normalised=1.0 if outcome.kind == "offline" else outcome.max_weighted_flow / optimum,
        preemptions=outcome.preemptions,
    )


def _compatible_probe(
    probe: Optional[FeasibilityProbe], policy: SchedulingPolicy
) -> Optional[FeasibilityProbe]:
    """The shared workload probe, unless the policy's LP model mismatches it.

    Parameterised off-line variants (``offline-optimal:preemptive=true``) use
    a different parametric model than the workload's shared probe; handing
    them the mismatched probe would raise, so they solve standalone instead.
    """
    if probe is None or policy.kind != "offline":
        return probe
    if getattr(policy, "preemptive", False) != probe.preemptive:
        return None
    return probe


def _run_campaign_item(item: _CampaignItem) -> _ItemResult:
    """Measure one item: (workload, policy chunk) over a shared context.

    Module-level so the process pool can pickle it; also the in-process
    execution path.
    """
    instance, offline, optimum, probe, constructed, solved = _workload_context(item)
    records: List[CampaignRecord] = []
    if item.emit_offline:
        records.append(_record_from_outcome(item.spec.label, offline, optimum))
    for name in item.policies:
        if name == OFFLINE_OPTIMAL:
            # An explicitly requested optimum cell reuses the context's
            # outcome; a pinned context (no outcome) solves once — counted —
            # and backfills the cache for the workload's later items.
            if offline is None:
                if probe is None:
                    probe = FeasibilityProbe(instance)
                    constructed += 1
                offline = make_policy(OFFLINE_OPTIMAL).run(instance, probe=probe)
                solved += 1
                with _CONTEXT_LOCK:
                    _CONTEXT_CACHE[(item.dispatch_id, item.workload_index)] = (
                        instance,
                        offline,
                        optimum,
                        probe,
                    )
            records.append(_record_from_outcome(item.spec.label, offline, optimum))
            continue
        policy = make_policy(name)
        outcome = policy.run(instance, probe=_compatible_probe(probe, policy))
        records.append(_record_from_outcome(item.spec.label, outcome, optimum))
    return _ItemResult(
        records=records,
        probe_constructions=constructed,
        offline_solves=solved,
        optimum=optimum,
    )


_DISPATCH_COUNTER = itertools.count()


@dataclass
class _RecordSlot:
    """One output record of an item: its policy, digest and (maybe) stored copy."""

    policy: str
    digest: str = ""
    stored: Optional[CampaignRecord] = None


@dataclass
class _ItemOutputs:
    """Parent-side view of one item's output records, in emission order."""

    spec: WorkloadSpec
    workload_index: int
    workload_key: str
    slots: List[_RecordSlot]


def _campaign_cells(
    specs: Iterable[WorkloadSpec],
    policies: Sequence[str],
    *,
    include_offline: bool,
    chunk_size: int,
    digester: Optional[Callable[[str, str], str]],
    dispatch_id: int,
) -> Iterator[Cell]:
    """Lazily cut a sweep into per-(workload, policy-chunk) cells.

    Every cell of a workload waits on the workload index: the first one
    runs the LP search and its result publishes the optimum the others are
    pinned to, so the search runs once per workload at any worker count.
    """
    chunks: List[Tuple[str, ...]] = [
        tuple(policies[start : start + chunk_size])
        for start in range(0, len(policies), chunk_size)
    ] or [()]
    index = 0
    for workload_index, spec in enumerate(specs):
        # content_key() digests a concrete instance's full payload: once
        # per workload, not once per chunk.
        key = spec.content_key() if digester is not None else ""
        offline_digest = digester(key, OFFLINE_OPTIMAL) if digester is not None else ""
        for position, chunk in enumerate(chunks):
            emit_offline = include_offline and position == 0
            names = ((OFFLINE_OPTIMAL,) if emit_offline else ()) + chunk
            slots = [
                _RecordSlot(name, digester(key, name) if digester is not None else "")
                for name in names
            ]
            yield Cell(
                task=_CampaignItem(dispatch_id, workload_index, spec, chunk, emit_offline),
                labels={
                    "cell": f"{spec.label}#{index}",
                    "workload": spec.label,
                    "item": index,
                    "policies": list(names),
                },
                size=len(slots),
                # The off-line digest pins the optimum even for items that
                # do not emit it.
                lookups=tuple(slot.digest for slot in slots) + (offline_digest,),
                waits_on=workload_index,
                data=_ItemOutputs(spec, workload_index, key, slots),
            )
            index += 1


def _plan_cell(cell: Cell, found: Mapping[str, "StoredRecord"]) -> None:
    """Shrink a cell to the records missing from the store (resume)."""
    item: _CampaignItem = cell.task
    slots = cell.data.slots
    for slot in slots:
        hit = found.get(slot.digest)
        if hit is not None:
            # The digest deliberately ignores labels (same content, any
            # label); re-label the cell for the *current* sweep.
            slot.stored = replace(hit.to_campaign_record(), workload=item.spec.label)
    offline_hit = found.get(cell.lookups[-1])  # the workload's off-line digest
    pinned = offline_hit.objective if offline_hit is not None else None
    offline_needed = item.emit_offline and slots[0].stored is None
    missing = tuple(
        slot.policy for slot in slots[int(item.emit_offline) :] if slot.stored is None
    )
    if not missing and not offline_needed:
        cell.task = None
        return
    cell.task = replace(
        item, policies=missing, emit_offline=offline_needed, pinned_optimum=pinned
    )
    cell.size = len(missing) + int(offline_needed)
    cell.labels["policies"] = ([OFFLINE_OPTIMAL] if offline_needed else []) + list(missing)
    if pinned is not None:
        cell.waits_on = None


# --------------------------------------------------------------------------- #
# The streaming dispatcher                                                     #
# --------------------------------------------------------------------------- #
def stream_campaign(
    specs: Iterable[WorkloadSpec],
    policies: Sequence[str],
    *,
    include_offline: bool = True,
    max_workers: Optional[int] = None,
    chunk_size: int = 1,
    max_inflight: Optional[int] = None,
    stats: Optional[CampaignStats] = None,
    store: Optional[Union[str, Path, "ExperimentStore"]] = None,
    resume: bool = False,
    run_label: Optional[str] = None,
    journal: Optional[Union[str, Path, RunJournal]] = None,
) -> Iterator[CampaignRecord]:
    """Yield campaign records incrementally, in deterministic order.

    Parameters
    ----------
    specs:
        Lazy workload descriptors; consumed incrementally, so generators of
        arbitrarily large sweeps are fine.
    policies:
        Policy names (variant tokens accepted) resolved through the registry;
        custom policies register through
        :func:`~repro.heuristics.register_online_scheduler`.
    include_offline:
        Also emit the off-line optimum record of every workload (the optimum
        is computed either way — every normalisation is relative to it).
    max_workers:
        ``None`` runs in-process; any other value fans items out over the
        cell executor's process pool (``0`` means "one per CPU").
    chunk_size:
        Policies per dispatched item.  ``1`` (default) gives per-(workload,
        policy) granularity; larger chunks trade parallelism for less
        shipping of workload state.
    max_inflight:
        Cap on items submitted-but-not-yet-aggregated (default
        ``4 × workers``); bounds parent-side memory on huge sweeps.
    stats:
        Optional :class:`CampaignStats` filled in while streaming (counters
        update live; ``elapsed_seconds`` is set when the stream closes).
    store:
        Persist every record into this :class:`~repro.store.ExperimentStore`
        (a path opens — and closes — a store for the duration).  The
        dispatch registers as a new *run*; records are content-addressed, so
        re-computing a known cell never duplicates data.  Batches commit
        incrementally: a killed process loses at most one batch.
    resume:
        Skip cells whose digests are already present in ``store`` *before*
        dispatch — stored records are emitted in place (flagged in
        ``stats.resumed_records``) and only the missing cells are computed.
    run_label:
        Label of the run registered in the store (default ``"campaign"``).
    journal:
        Append lifecycle events (run started/finished, cell dispatched /
        completed / skipped-by-resume, worker heartbeats, batch commits)
        to this :class:`~repro.obs.journal.RunJournal` (a path opens — and
        closes — one for the duration).  The journal is a reporting
        artefact on the wall clock: records, digests and fingerprints are
        byte-identical with journaling on or off.

    Yields
    ------
    CampaignRecord
        In the same order a sequential run would produce: workload-major,
        off-line optimum first, then ``policies`` in the given order.
    """
    own_stats = stats if stats is not None else CampaignStats()
    own_stats.max_workers = max_workers
    own_stats.chunk_size = chunk_size
    if chunk_size < 1:
        raise WorkloadError("chunk_size must be at least 1")
    if resume and store is None:
        raise WorkloadError("resume=True needs a store to resume from")

    # Deferred import: repro.store depends on this module for CampaignRecord,
    # so the dependency must not be circular at import time.
    from ..store.digest import record_digest

    digester = None
    if store is not None:
        # Cell identity is (base policy, non-default params): parameterised
        # variants digest distinct cells while bare names keep their
        # historical digests.
        identities: Dict[str, Tuple[str, Dict]] = {}

        def digester(key: str, token: str) -> str:
            identity = identities.get(token)
            if identity is None:
                variant = resolve_policy_variant(token)
                identity = identities[token] = (variant.base, dict(variant.params))
            return record_digest(key, identity[0], params=identity[1])

    recorder = get_recorder()

    def emit(cell: Cell, result: Optional[CellResult]):
        """Interleave stored and computed records in slot order."""
        outputs: _ItemOutputs = cell.data
        computed: Iterator[CampaignRecord] = iter(())
        optimum = None
        if result is not None:
            item: _ItemResult = result.value
            own_stats.items += 1
            own_stats.probe_constructions += item.probe_constructions
            own_stats.offline_solves += item.offline_solves
            if recorder.enabled:
                recorder.count("campaign.items")
                recorder.count("campaign.probe_constructions", float(item.probe_constructions))
                recorder.count("campaign.offline_solves", float(item.offline_solves))
            computed, optimum = iter(item.records), item.optimum
        own_stats.workloads = max(own_stats.workloads, outputs.workload_index + 1)
        for slot in outputs.slots:
            if slot.stored is not None:
                record = slot.stored
                own_stats.resumed_records += 1
            else:
                record = next(computed)
                own_stats.computed_records += 1
            own_stats.records += 1
            yield record, slot.digest, record, {
                "workload_key": outputs.workload_key,
                "scenario": outputs.spec.scenario,
                "seed": outputs.spec.seed,
                "objective": optimum if slot.policy == OFFLINE_OPTIMAL else None,
                "computed": slot.stored is None,
            }

    def finish(totals: RunTotals) -> Dict:
        own_stats.elapsed_seconds = totals.elapsed
        own_stats.store_run_id = totals.store_run_id
        own_stats.store_new_records = totals.inserted
        own_stats.peak_in_flight = totals.peak_in_flight
        own_stats.peak_pending_records = totals.peak_pending
        return own_stats.as_dict()

    meta: Dict[str, object] = {
        "policies": list(policies),
        "include_offline": include_offline,
        "chunk_size": chunk_size,
        "max_workers": max_workers,
        "resume": resume,
    }
    config = dict(meta)
    total: Optional[int] = None
    try:
        spec_count = len(specs)  # type: ignore[arg-type]
    except TypeError:
        pass  # generator sweep: cell count unknown up front
    else:
        total = spec_count * max(1, -(-len(policies) // chunk_size))
        config["total_cells"] = spec_count * (len(policies) + int(include_offline))
    label = run_label or "campaign"
    yield from execute_cells(
        _campaign_cells(
            specs,
            policies,
            include_offline=include_offline,
            chunk_size=chunk_size,
            digester=digester,
            dispatch_id=next(_DISPATCH_COUNTER),
        ),
        _run_campaign_item,
        plan=_plan_cell,
        emit=emit,
        finish=finish,
        kind="campaign",
        run_labels=(label, label),
        meta=meta,
        config=config,
        timer="campaign.chunk_seconds",
        gauge="campaign.in_flight",
        publish=lambda item: item.optimum,
        bind=lambda item, optimum: replace(item, pinned_optimum=optimum),
        store=store,
        resume=resume,
        journal=journal,
        max_workers=max_workers,
        max_inflight=max_inflight,
        total=total,
    )


# --------------------------------------------------------------------------- #
# Public campaign runners                                                      #
# --------------------------------------------------------------------------- #
def run_policy_campaign(
    instances: Iterable[Instance],
    policies: Sequence[str],
    *,
    labels: Optional[Sequence[str]] = None,
    include_offline: bool = True,
    max_workers: Optional[int] = None,
    chunk_size: int = 1,
    max_inflight: Optional[int] = None,
    store: Optional[Union[str, Path, "ExperimentStore"]] = None,
    resume: bool = False,
    run_label: Optional[str] = None,
    journal: Optional[Union[str, Path, RunJournal]] = None,
) -> CampaignResult:
    """Run every policy on every instance and collect normalised metrics.

    Parameters
    ----------
    instances:
        The workloads to schedule.
    policies:
        Policy names understood by the registry.
    labels:
        Optional workload labels (defaults to ``"workload 0"``, ...).
    include_offline:
        Also record the off-line optimum itself (policy ``"offline-optimal"``),
        which every normalisation is relative to.
    max_workers:
        ``None`` (default) runs sequentially in-process.  Any other value
        fans the (workload, policy) items out over a process pool with
        that many workers (``0`` means "one per CPU").  Record order is deterministic and identical to the
        sequential path.
    chunk_size, max_inflight:
        Streaming-dispatch knobs, see :func:`stream_campaign`.
    store, resume, run_label, journal:
        Experiment-store sink, resume mode and run-journal sink, see
        :func:`stream_campaign`.
    """
    instances = list(instances)
    if not instances:
        raise WorkloadError("a campaign needs at least one instance")
    if labels is None:
        labels = [f"workload {index}" for index in range(len(instances))]
    if len(labels) != len(instances):
        raise WorkloadError("labels and instances must have the same length")

    specs = [
        WorkloadSpec.from_instance(label, instance)
        for label, instance in zip(labels, instances)
    ]
    stats = CampaignStats()
    records = stream_campaign(
        specs,
        policies,
        include_offline=include_offline,
        max_workers=max_workers,
        chunk_size=chunk_size,
        max_inflight=max_inflight,
        stats=stats,
        store=store,
        resume=resume,
        run_label=run_label,
        journal=journal,
    )
    return CampaignResult(records=list(records), stats=stats)


def run_scenario_campaign(
    scenario_names: Optional[Sequence[str]],
    policies: Sequence[str],
    *,
    seeds: Optional[Sequence[Optional[int]]] = (None,),
    base_seed: Optional[int] = None,
    seeds_per_scenario: int = 1,
    include_offline: bool = True,
    max_workers: Optional[int] = None,
    chunk_size: int = 1,
    max_inflight: Optional[int] = None,
    store: Optional[Union[str, Path, "ExperimentStore"]] = None,
    resume: bool = False,
    run_label: Optional[str] = None,
    journal: Optional[Union[str, Path, RunJournal]] = None,
) -> CampaignResult:
    """Sweep named workload scenarios (optionally over several seeds).

    Enumerates the ``(scenario, seed)`` grid lazily via
    :func:`repro.workload.scenarios.scenario_grid` — instances are built
    inside the workers — and streams the records through
    :func:`stream_campaign`.  Labels are ``"<scenario>#<seed>"`` (just the
    scenario name when a single default seed is used).  Pass ``base_seed``
    (with ``seeds_per_scenario``) instead of explicit ``seeds`` to spawn
    per-scenario seed streams that are reproducible independent of worker
    count and chunking.  ``store``/``resume`` persist the sweep and top up a
    partial one (see :func:`stream_campaign`).
    """
    if base_seed is not None and seeds == (None,):
        seeds = None  # the default sentinel must not conflict with base_seed
    grid = scenario_grid(
        scenario_names, seeds, base_seed=base_seed, seeds_per_scenario=seeds_per_scenario
    )
    specs = [WorkloadSpec.from_scenario(spec) for spec in grid]
    stats = CampaignStats()
    records = stream_campaign(
        specs,
        policies,
        include_offline=include_offline,
        max_workers=max_workers,
        chunk_size=chunk_size,
        max_inflight=max_inflight,
        stats=stats,
        store=store,
        resume=resume,
        run_label=run_label,
        journal=journal,
    )
    return CampaignResult(records=list(records), stats=stats)
