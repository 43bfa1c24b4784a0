"""Durable run journal: crash-tolerant append-only JSONL lifecycle log.

The journal is the flight recorder for long campaign/sweep runs: the
driver appends one JSON object per line for every lifecycle event (run
started, cell dispatched/completed/skipped, worker heartbeat, batch
commit, run finished).  ``repro-sched obs report JOURNAL`` reads it back
through :func:`read_journal` and folds each run with
:func:`analyse_journal` into the status block :func:`render_fleet_status`
prints.

Design constraints:

* **Strictly outside every digest.**  Timestamps come from
  :func:`repro.obs.clock.unix_time` (the reporting channel); nothing in
  the journal ever feeds a record digest, fingerprint or simulated-time
  series, so journaling on vs off is byte-identical in campaign output.
* **Crash tolerance.**  Every event is flushed as its own line.  A
  process killed mid-write leaves at most one truncated final line;
  :meth:`RunJournal._repair_tail` seals it with a newline on reopen so
  appended runs start on a fresh line, and readers skip unparseable
  lines instead of failing.
* **Multi-run files.**  Resumed runs append to the same journal under a
  fresh run id (:func:`new_run_id`), so one file records the whole
  history of a campaign across restarts.
* **Parent-only writes.**  Worker processes never touch the journal;
  they ship pid/elapsed telemetry back through the future plumbing and
  the driver writes heartbeats on their behalf.  One writer means no
  interleaving torn lines.
* **Clock-free reads.**  The fold uses only the timestamps recorded in
  the journal, so a report on a given file is the same whenever it is
  rendered, finished run or not.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, IO, Iterator, List, Mapping, Optional, Sequence, Union

from .clock import unix_time, utc_now

__all__ = [
    "JOURNAL_VERSION",
    "RunJournal",
    "JournalView",
    "FleetStatus",
    "analyse_journal",
    "new_run_id",
    "read_journal",
    "render_fleet_status",
]

JOURNAL_VERSION = 1

_run_counter = itertools.count(1)


def new_run_id(label: str) -> str:
    """Fresh journal run id: label, UTC stamp, pid, per-process counter.

    The id only needs to be unique *within one journal file*; pid plus a
    process-local counter covers concurrent drivers appending to
    distinct files and resumed runs appending to the same one.
    """
    stamp = utc_now().strftime("%Y%m%dT%H%M%SZ")
    return f"{label}-{stamp}-p{os.getpid()}n{next(_run_counter)}"


class RunJournal:
    """Append-only JSONL writer for one journal file.

    One instance is owned by one driver invocation; :meth:`begin_run`
    rotates the run id so a resumed campaign appends to the same file as
    a distinguishable new run.  Use as a context manager, or call
    :meth:`close` explicitly.
    """

    def __init__(self, path: Union[str, Path], *, run_id: Optional[str] = None):
        self.path = Path(path)
        self.run_id = run_id or ""
        self._seq = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._repair_tail()
        self._handle: Optional[IO[str]] = open(
            self.path, "a", encoding="utf-8"
        )

    def _repair_tail(self) -> None:
        """Seal a truncated final line left by a killed writer.

        Appending a newline is enough: the torn line becomes one
        unparseable record (which readers skip) instead of corrupting
        the first event of the next run.
        """
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return
        if size == 0:
            return
        with open(self.path, "rb+") as handle:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")

    def begin_run(
        self,
        kind: str,
        label: str,
        config: Optional[Dict[str, object]] = None,
    ) -> str:
        """Start a new run section: rotate the id, write ``run-started``."""
        self.run_id = new_run_id(label)
        fields: Dict[str, object] = {"kind": kind, "label": label}
        if config is not None:
            fields["config"] = config
        self.record("run-started", **fields)
        return self.run_id

    def record(self, event: str, **fields: object) -> None:
        """Append one event line and flush it to the OS immediately."""
        if self._handle is None:
            raise ValueError(f"journal {self.path} is closed")
        self._seq += 1
        entry: Dict[str, object] = {
            "v": JOURNAL_VERSION,
            "run": self.run_id,
            "seq": self._seq,
            "ts": unix_time(),
            "event": event,
        }
        entry.update(fields)
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class JournalView:
    """Parsed journal contents plus how many lines failed to parse."""

    def __init__(self, events: List[Dict[str, object]], truncated: int):
        self.events = events
        self.truncated = truncated

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def runs(self) -> List[str]:
        """Distinct run ids in first-seen order."""
        seen: Dict[str, None] = {}
        for event in self.events:
            run = event.get("run")
            if isinstance(run, str) and run not in seen:
                seen[run] = None
        return list(seen)


def read_journal(path: Union[str, Path]) -> JournalView:
    """Read a whole journal, tolerating torn/corrupt lines."""
    events: List[Dict[str, object]] = []
    truncated = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                truncated += 1
                continue
            if isinstance(entry, dict):
                events.append(entry)
            else:
                truncated += 1
    return JournalView(events, truncated)


@dataclass
class FleetStatus:
    """One run's journal events, folded by :func:`analyse_journal`."""

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
    median_cell_seconds: Optional[float] = None

    @property
    def done(self) -> int:
        return self.completed + self.skipped

    @property
    def progress(self) -> Optional[float]:
        if not self.total_cells:
            return None
        return min(1.0, self.done / self.total_cells)


def _cell_count(event: Mapping[str, object]) -> int:
    # A dispatch unit may cover several output cells (policy chunks, the
    # synthetic off-line cell); progress counts cells so it lines up with
    # the run config's ``total_cells``.
    cells = event.get("cells")
    return cells if isinstance(cells, int) and cells > 0 else 1


def _count_policies(
    status: FleetStatus, event: Mapping[str, object], key: str
) -> None:
    policies = event.get("policies")
    if not isinstance(policies, list):
        return
    for policy in policies:
        entry = status.per_policy.setdefault(
            str(policy), {"dispatched": 0, "completed": 0, "skipped": 0}
        )
        entry[key] += 1


def analyse_journal(
    events: Sequence[Mapping[str, object]], *, run: Optional[str] = None
) -> FleetStatus:
    """Fold journal events into a :class:`FleetStatus`.

    ``run`` selects a run id; by default the last ``run-started`` event
    wins (the newest run of a multi-run journal).  Only the events'
    own timestamps are read, never the clock.
    """
    if run is None:
        for event in events:
            if event.get("event") == "run-started":
                candidate = event.get("run")
                if isinstance(candidate, str):
                    run = candidate
    status = FleetStatus(run_id=run or "")
    completion_ts: List[float] = []

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
        elif name == "cell-dispatched":
            status.dispatched += 1
            _count_policies(status, event, "dispatched")
        elif name == "cell-completed":
            status.completed += _cell_count(event)
            if ts is not None:
                completion_ts.append(ts)
            elapsed = event.get("elapsed")
            if isinstance(elapsed, (int, float)):
                status.cell_seconds.append(float(elapsed))
            _count_policies(status, event, "completed")
        elif name == "cell-skipped":
            status.skipped += _cell_count(event)
            _count_policies(status, event, "skipped")
        elif name == "worker-heartbeat":
            worker = str(event.get("worker", "?"))
            entry = status.workers.setdefault(worker, {"items": 0.0})
            items = event.get("items")
            if isinstance(items, (int, float)):
                entry["items"] = float(items)
        elif name == "batch-commit":
            status.commits += 1
        elif name == "run-finished":
            status.finished_ts = ts
            status.status = str(event.get("status", "finished"))
            records = event.get("records")
            if isinstance(records, int):
                status.records = records

    if completion_ts and status.started_ts is not None:
        span = max(completion_ts) - status.started_ts
        if span > 0:
            status.throughput_cells_per_sec = status.completed / span
    if len(status.cell_seconds) >= 3:
        status.median_cell_seconds = statistics.median(status.cell_seconds)
    return status


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
    if status.records is not None:
        lines.append(f"  records: {status.records}")
    return "\n".join(lines)
