"""Live fleet monitoring: analyse and tail a run journal.

``repro-sched watch JOURNAL`` polls a journal (possibly still being
written), folds its events into a :class:`FleetStatus` and renders a
compact status block: throughput, per-policy progress, an ETA from the
completed-cell trajectory, and straggler/stall detection — a running cell
with no completion for more than ``stall_factor`` times the rolling median
cell time is flagged.

All times here are journal timestamps (``repro.obs.clock.unix_time``)
and driver-measured ``elapsed`` fields — reporting-channel data that
never feeds a digest.  The analysis itself is pure (events in, status
out) so tests drive it without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from pathlib import Path

from .clock import unix_time
from .journal import tail_journal

__all__ = [
    "FleetStatus",
    "StragglerInfo",
    "analyse_journal",
    "render_fleet_status",
    "watch_journal",
]


@dataclass
class StragglerInfo:
    """A running-but-uncompleted cell that exceeded the stall bound."""

    label: str
    age_seconds: float
    bound_seconds: float


@dataclass
class FleetStatus:
    """Aggregated view of one run's journal events."""

    run_id: str = ""
    kind: str = ""
    label: str = ""
    status: str = "unknown"
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    total_cells: Optional[int] = None
    dispatched: int = 0
    completed: int = 0
    skipped: int = 0
    records: Optional[int] = None
    commits: int = 0
    per_policy: Dict[str, Dict[str, int]] = field(default_factory=dict)
    workers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cell_seconds: List[float] = field(default_factory=list)
    throughput_cells_per_sec: Optional[float] = None
    eta_seconds: Optional[float] = None
    median_cell_seconds: Optional[float] = None
    stragglers: List[StragglerInfo] = field(default_factory=list)

    @property
    def done(self) -> int:
        return self.completed + self.skipped

    @property
    def progress(self) -> Optional[float]:
        if not self.total_cells:
            return None
        return min(1.0, self.done / self.total_cells)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _policies_of(event: Mapping[str, object]) -> List[str]:
    policies = event.get("policies")
    if isinstance(policies, list):
        return [str(p) for p in policies]
    return []


def analyse_journal(
    events: Sequence[Mapping[str, object]],
    *,
    now: Optional[float] = None,
    stall_factor: float = 4.0,
    run: Optional[str] = None,
) -> FleetStatus:
    """Fold journal events into a :class:`FleetStatus`.

    ``run`` selects a run id; by default the last ``run-started`` event
    wins (the active run of a multi-run journal).  Straggler detection
    needs at least three completed-cell durations before it trusts the
    rolling median; ``now`` defaults to the current wall clock.
    """
    if run is None:
        for event in events:
            if event.get("event") == "run-started":
                candidate = event.get("run")
                if isinstance(candidate, str):
                    run = candidate
    status = FleetStatus(run_id=run or "")
    # A pool queues cells before it runs them: with the run's worker count W
    # known, only the W oldest pending cells are running, each aged from the
    # event that let it into that set.  Without W every pending cell runs.
    workers: Optional[int] = None
    pending: Dict[str, float] = {}  # dispatched, not completed; dispatch order
    running: Dict[str, float] = {}  # label -> start of its stall clock
    completion_ts: List[float] = []

    def start_oldest(ts: float) -> None:
        for label in pending:
            if workers is not None and len(running) >= workers:
                break
            running.setdefault(label, ts)

    for event in events:
        if run is not None and event.get("run") != run:
            continue
        name = event.get("event")
        ts = event.get("ts")
        ts = float(ts) if isinstance(ts, (int, float)) else None
        if name == "run-started":
            status.status = "running"
            status.started_ts = ts
            status.kind = str(event.get("kind", ""))
            status.label = str(event.get("label", ""))
            config = event.get("config")
            if isinstance(config, dict):
                total = config.get("total_cells")
                if isinstance(total, int):
                    status.total_cells = total
                count = config.get("workers")
                if isinstance(count, int) and count > 0:
                    workers = count
        elif name == "cell-dispatched":
            status.dispatched += 1
            label = str(event.get("cell", event.get("seq")))
            if ts is not None:
                pending[label] = ts
                start_oldest(ts)
            for policy in _policies_of(event):
                entry = status.per_policy.setdefault(
                    policy, {"dispatched": 0, "completed": 0, "skipped": 0}
                )
                entry["dispatched"] += 1
        elif name == "cell-completed":
            # A dispatch unit may cover several output cells (policy chunks,
            # the synthetic off-line cell); progress counts cells so it lines
            # up with the run config's ``total_cells``.
            cells = event.get("cells")
            status.completed += int(cells) if isinstance(cells, int) and cells > 0 else 1
            label = str(event.get("cell", event.get("seq")))
            pending.pop(label, None)
            running.pop(label, None)
            if ts is not None:
                completion_ts.append(ts)
                start_oldest(ts)
            elapsed = event.get("elapsed")
            if isinstance(elapsed, (int, float)):
                status.cell_seconds.append(float(elapsed))
            for policy in _policies_of(event):
                entry = status.per_policy.setdefault(
                    policy, {"dispatched": 0, "completed": 0, "skipped": 0}
                )
                entry["completed"] += 1
        elif name == "cell-skipped":
            cells = event.get("cells")
            status.skipped += int(cells) if isinstance(cells, int) and cells > 0 else 1
            for policy in _policies_of(event):
                entry = status.per_policy.setdefault(
                    policy, {"dispatched": 0, "completed": 0, "skipped": 0}
                )
                entry["skipped"] += 1
        elif name == "worker-heartbeat":
            worker = str(event.get("worker", "?"))
            entry = status.workers.setdefault(worker, {"items": 0.0})
            items = event.get("items")
            if isinstance(items, (int, float)):
                entry["items"] = float(items)
            if ts is not None:
                entry["last_ts"] = ts
        elif name == "batch-commit":
            status.commits += 1
        elif name == "run-finished":
            status.finished_ts = ts
            status.status = str(event.get("status", "finished"))
            records = event.get("records")
            if isinstance(records, int):
                status.records = records

    if now is None:
        now = unix_time()
    end = status.finished_ts if status.finished_ts is not None else now

    if completion_ts and status.started_ts is not None:
        span = max(completion_ts) - status.started_ts
        if span > 0:
            status.throughput_cells_per_sec = status.completed / span
    if (
        status.throughput_cells_per_sec
        and status.total_cells
        and status.finished_ts is None
    ):
        remaining = max(0, status.total_cells - status.done)
        status.eta_seconds = remaining / status.throughput_cells_per_sec

    if len(status.cell_seconds) >= 3:
        status.median_cell_seconds = _median(status.cell_seconds)
        bound = stall_factor * status.median_cell_seconds
        if status.finished_ts is None:
            for label, started_ts in sorted(running.items()):
                age = end - started_ts
                if age > bound:
                    status.stragglers.append(
                        StragglerInfo(
                            label=label, age_seconds=age, bound_seconds=bound
                        )
                    )
    return status


def _format_duration(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m{secs:02d}s"
    return f"{minutes}m{secs:02d}s"


def render_fleet_status(status: FleetStatus) -> str:
    """Plain-text status block for one :class:`FleetStatus`."""
    lines: List[str] = []
    header = f"run {status.run_id or '?'}"
    if status.kind:
        header += f" [{status.kind}]"
    header += f" — {status.status}"
    lines.append(header)
    if status.total_cells:
        progress = status.progress or 0.0
        lines.append(
            f"  progress: {status.done}/{status.total_cells} cells"
            f" ({100.0 * progress:.1f}%)"
            f" — {status.completed} completed, {status.skipped} resumed"
        )
    else:
        lines.append(
            f"  progress: {status.completed} completed,"
            f" {status.skipped} resumed"
        )
    if status.throughput_cells_per_sec is not None:
        lines.append(
            f"  throughput: {status.throughput_cells_per_sec:.2f} cells/s"
        )
    if status.eta_seconds is not None:
        lines.append(f"  eta: {_format_duration(status.eta_seconds)}")
    if status.median_cell_seconds is not None:
        lines.append(
            f"  median cell time: {status.median_cell_seconds * 1000.0:.1f}ms"
        )
    if status.per_policy:
        lines.append("  per-policy:")
        width = max(len(name) for name in status.per_policy)
        for name in sorted(status.per_policy):
            entry = status.per_policy[name]
            lines.append(
                f"    {name:<{width}}  completed={entry['completed']}"
                f" dispatched={entry['dispatched']}"
                f" resumed={entry['skipped']}"
            )
    if status.workers:
        parts = []
        for worker in sorted(status.workers):
            entry = status.workers[worker]
            parts.append(f"{worker}:{entry.get('items', 0):g}")
        lines.append(f"  workers: {' '.join(parts)}")
    if status.commits:
        lines.append(f"  batch commits: {status.commits}")
    for straggler in status.stragglers:
        lines.append(
            f"  STALL? {straggler.label} running for"
            f" {_format_duration(straggler.age_seconds)}"
            f" (bound {_format_duration(straggler.bound_seconds)})"
        )
    if status.records is not None:
        lines.append(f"  records: {status.records}")
    return "\n".join(lines)


def watch_journal(
    path: Union[str, Path],
    *,
    interval: float = 2.0,
    max_updates: Optional[int] = None,
    stall_factor: float = 4.0,
    out: Callable[[str], None] = print,
    sleep: Optional[Callable[[float], None]] = None,
) -> FleetStatus:
    """Tail ``path`` and render a status block per poll.

    Stops when the active run records ``run-finished`` or after
    ``max_updates`` polls.  ``sleep`` is injectable so tests can drive
    the loop without real delays; the events list accumulates across
    polls via :func:`tail_journal`'s byte offset, so a journal being
    appended to concurrently is read incrementally and torn final lines
    are deferred to the next poll.
    """
    if sleep is None:
        sleep = time.sleep
    offset = 0
    events: List[Dict[str, object]] = []
    updates = 0
    status = FleetStatus()
    while True:
        fresh, offset = tail_journal(path, offset)
        events.extend(fresh)
        status = analyse_journal(events, stall_factor=stall_factor)
        out(render_fleet_status(status))
        updates += 1
        if status.finished_ts is not None:
            break
        if max_updates is not None and updates >= max_updates:
            break
        sleep(interval)
    return status
