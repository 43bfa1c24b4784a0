"""SQLite-backed, content-addressed experiment store.

The store is the durable layer under the campaign dispatcher: every campaign
cell (one (workload, policy) measurement) is written under its content digest
(:mod:`repro.store.digest`), so

* a re-run of the same sweep inserts nothing new (``INSERT OR IGNORE``),
* a killed sweep resumed with ``resume=True`` computes only the missing
  digests,
* two runs — today's and last PR's — can be diffed policy by policy.

Schema (``user_version`` 2)
---------------------------
``runs``
    One row per campaign dispatch: label, creation time, JSON metadata,
    JSON throughput stats, and a ``completed`` flag (0 for killed runs).
``records``
    One row per *computed* cell, keyed by its content digest.  ``run_id``
    records provenance (the run that computed it); off-line rows carry the
    exact LP ``objective`` so resumed runs normalise against bit-identical
    optima; ``extra`` (added in v2, nullable JSON) carries subsystem
    payloads such as the streaming steady-state reports — v1 stores are
    migrated in place with an additive ``ALTER TABLE``.
``run_records``
    Membership: which cells (computed *or* reused) belong to which run, in
    emission order — a resumed run therefore shows its full record set.
``metrics``
    Headline per-(run, policy) aggregates, filled by :meth:`finish_run` and
    consumed by ``repro-sched store diff`` / :func:`diff_runs`.

Writes go through :class:`BulkWriter`, which batches ``executemany`` inserts
and commits incrementally, so a killed process loses at most one batch.
"""

from __future__ import annotations

import json
import math
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..analysis.campaign import CampaignRecord
from ..analysis.regression import CellDiff, CrossRunDiff, cross_run_cell_diff, cross_run_diff
from ..exceptions import StoreError
from ..obs.clock import utc_now, utc_timestamp
from ..obs.metrics import get_recorder
from .digest import CODE_EPOCH

__all__ = [
    "BulkWriter",
    "ExperimentStore",
    "GcReport",
    "RunInfo",
    "StoredRecord",
    "diff_run_cells",
    "diff_runs",
]

_SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id     INTEGER PRIMARY KEY AUTOINCREMENT,
    label      TEXT NOT NULL,
    created_at TEXT NOT NULL,
    completed  INTEGER NOT NULL DEFAULT 0,
    meta       TEXT NOT NULL DEFAULT '{}',
    stats      TEXT
);
CREATE TABLE IF NOT EXISTS records (
    digest            TEXT PRIMARY KEY,
    run_id            INTEGER NOT NULL REFERENCES runs(run_id),
    workload          TEXT NOT NULL,
    workload_key      TEXT NOT NULL,
    scenario          TEXT,
    seed              INTEGER,
    policy            TEXT NOT NULL,
    code_epoch        TEXT NOT NULL,
    max_weighted_flow REAL NOT NULL,
    max_stretch       REAL NOT NULL,
    makespan          REAL NOT NULL,
    normalised        REAL NOT NULL,
    preemptions       INTEGER NOT NULL,
    objective         REAL,
    extra             TEXT
);
CREATE INDEX IF NOT EXISTS idx_records_policy ON records(policy);
CREATE TABLE IF NOT EXISTS run_records (
    run_id   INTEGER NOT NULL REFERENCES runs(run_id),
    position INTEGER NOT NULL,
    digest   TEXT NOT NULL REFERENCES records(digest),
    PRIMARY KEY (run_id, position)
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    policy TEXT NOT NULL,
    metric TEXT NOT NULL,
    value  REAL NOT NULL,
    PRIMARY KEY (run_id, policy, metric)
);
"""

#: Max variables per ``IN (...)`` query (SQLite's historical limit is 999).
_LOOKUP_CHUNK = 500


@dataclass(frozen=True)
class StoredRecord:
    """One persisted campaign cell (a :class:`CampaignRecord` plus identity)."""

    digest: str
    run_id: int
    workload: str
    workload_key: str
    scenario: Optional[str]
    seed: Optional[int]
    policy: str
    code_epoch: str
    max_weighted_flow: float
    max_stretch: float
    makespan: float
    normalised: float
    preemptions: int
    objective: Optional[float] = None
    #: Subsystem-specific JSON payload (streaming steady-state reports);
    #: ``None`` for ordinary campaign cells.
    extra: Optional[Dict] = None

    def to_campaign_record(self) -> CampaignRecord:
        """Rebuild the in-memory :class:`CampaignRecord` this row persists."""
        return CampaignRecord(
            workload=self.workload,
            policy=self.policy,
            max_weighted_flow=self.max_weighted_flow,
            max_stretch=self.max_stretch,
            makespan=self.makespan,
            normalised=self.normalised,
            preemptions=self.preemptions,
        )


@dataclass(frozen=True)
class GcReport:
    """What a :meth:`ExperimentStore.gc` pass found (and, unless dry, removed).

    Attributes
    ----------
    stale_by_epoch:
        Records whose ``code_epoch`` no longer matches (orphaned by an epoch
        bump), counted by epoch.
    incomplete_runs:
        Ids of killed/unfinished runs selected for vacuuming.
    membership_rows:
        ``run_records`` rows removed alongside (stale digests plus the
        vacuumed runs' membership).
    dry_run:
        ``True`` when nothing was deleted (the default mode).
    """

    stale_by_epoch: Dict[str, int]
    incomplete_runs: List[int]
    membership_rows: int
    dry_run: bool

    @property
    def empty(self) -> bool:
        """True when the pass found nothing to prune."""
        return not self.stale_by_epoch and not self.incomplete_runs


@dataclass(frozen=True)
class RunInfo:
    """Summary row of one stored run."""

    run_id: int
    label: str
    created_at: str
    completed: bool
    num_records: int
    meta: Dict = field(default_factory=dict)
    stats: Optional[Dict] = None


def _row_to_record(row: sqlite3.Row) -> StoredRecord:
    return StoredRecord(
        digest=row["digest"],
        run_id=row["run_id"],
        workload=row["workload"],
        workload_key=row["workload_key"],
        scenario=row["scenario"],
        seed=row["seed"],
        policy=row["policy"],
        code_epoch=row["code_epoch"],
        max_weighted_flow=row["max_weighted_flow"],
        max_stretch=row["max_stretch"],
        makespan=row["makespan"],
        normalised=row["normalised"],
        preemptions=row["preemptions"],
        objective=row["objective"],
        extra=json.loads(row["extra"]) if row["extra"] else None,
    )


class ExperimentStore:
    """A content-addressed archive of campaign results in one SQLite file.

    Parameters
    ----------
    path:
        Database file; ``":memory:"`` gives an ephemeral store (tests).
    create:
        Create the file/schema when missing (default).  ``False`` raises
        :class:`~repro.exceptions.StoreError` on a missing file, which is
        what read-only consumers (``repro-sched store ls``) want.
    """

    def __init__(self, path: Union[str, Path], *, create: bool = True) -> None:
        self.path = str(path)
        if not create and self.path != ":memory:" and not Path(self.path).exists():
            raise StoreError(f"experiment store {self.path!r} does not exist")
        self._conn: Optional[sqlite3.Connection] = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        try:
            version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        except sqlite3.DatabaseError as error:
            self._conn.close()
            self._conn = None
            raise StoreError(
                f"{self.path!r} is not an experiment store ({error})"
            ) from error
        if version == 0:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(f"PRAGMA user_version = {_SCHEMA_VERSION}")
            self._conn.commit()
        elif version == 1:
            # v1 -> v2: records gained a nullable JSON side-channel (``extra``)
            # for subsystem-specific payloads (streaming steady-state cells).
            # Purely additive, so old stores migrate in place and old cells
            # keep their digests.
            self._conn.execute("ALTER TABLE records ADD COLUMN extra TEXT")
            self._conn.execute(f"PRAGMA user_version = {_SCHEMA_VERSION}")
            self._conn.commit()
        elif version != _SCHEMA_VERSION:
            raise StoreError(
                f"experiment store {self.path!r} has schema version {version}, "
                f"this build reads version {_SCHEMA_VERSION}"
            )

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #
    @property
    def connection(self) -> sqlite3.Connection:
        """The live connection (raises after :meth:`close`)."""
        if self._conn is None:
            raise StoreError(f"experiment store {self.path!r} is closed")
        return self._conn

    def close(self) -> None:
        """Commit and close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Runs                                                                #
    # ------------------------------------------------------------------ #
    def begin_run(self, label: str, meta: Optional[Dict] = None) -> int:
        """Open a new run and return its id."""
        created = utc_timestamp()
        cursor = self.connection.execute(
            "INSERT INTO runs (label, created_at, completed, meta) VALUES (?, ?, 0, ?)",
            (label, created, json.dumps(meta or {}, sort_keys=True)),
        )
        self.connection.commit()
        return int(cursor.lastrowid)

    def finish_run(
        self,
        run_id: int,
        *,
        completed: bool = True,
        stats: Optional[Dict] = None,
    ) -> None:
        """Seal a run: persist its stats and compute its headline metrics."""
        conn = self.connection
        conn.execute(
            "UPDATE runs SET completed = ?, stats = ? WHERE run_id = ?",
            (1 if completed else 0, json.dumps(stats, sort_keys=True) if stats else None, run_id),
        )
        conn.execute("DELETE FROM metrics WHERE run_id = ?", (run_id,))
        rows = conn.execute(
            "SELECT r.policy, r.normalised, r.preemptions FROM run_records m "
            "JOIN records r ON r.digest = m.digest WHERE m.run_id = ? "
            "ORDER BY m.position",
            (run_id,),
        ).fetchall()
        per_policy: Dict[str, List[sqlite3.Row]] = {}
        for row in rows:
            per_policy.setdefault(row["policy"], []).append(row)
        metric_rows: List[Tuple[int, str, str, float]] = []
        for policy, group in per_policy.items():
            normalised = [row["normalised"] for row in group]
            preemptions = [row["preemptions"] for row in group]
            geo_mean = math.exp(sum(math.log(v) for v in normalised) / len(normalised))
            metric_rows.extend(
                [
                    (run_id, policy, "geo_mean_normalised", geo_mean),
                    (run_id, policy, "max_normalised", max(normalised)),
                    (run_id, policy, "mean_preemptions", sum(preemptions) / len(group)),
                    (run_id, policy, "records", float(len(group))),
                ]
            )
        conn.executemany(
            "INSERT INTO metrics (run_id, policy, metric, value) VALUES (?, ?, ?, ?)",
            metric_rows,
        )
        conn.commit()

    def runs(self) -> List[RunInfo]:
        """Every stored run, oldest first."""
        rows = self.connection.execute(
            "SELECT r.*, (SELECT COUNT(*) FROM run_records m WHERE m.run_id = r.run_id) "
            "AS num_records FROM runs r ORDER BY r.run_id"
        ).fetchall()
        return [
            RunInfo(
                run_id=row["run_id"],
                label=row["label"],
                created_at=row["created_at"],
                completed=bool(row["completed"]),
                num_records=row["num_records"],
                meta=json.loads(row["meta"] or "{}"),
                stats=json.loads(row["stats"]) if row["stats"] else None,
            )
            for row in rows
        ]

    def resolve_run(self, token: Union[int, str]) -> int:
        """Resolve a run reference to a run id.

        Precedence: an ``int`` is always an id; a string is matched as a
        label first (latest run with that label — so runs labelled ``"123"``
        or ``"latest"`` stay reachable), then as the keyword ``"latest"`` /
        ``"last"``, then as a numeric id.
        """
        conn = self.connection
        if isinstance(token, str):
            row = conn.execute(
                "SELECT MAX(run_id) AS run_id FROM runs WHERE label = ?", (token,)
            ).fetchone()
            if row["run_id"] is not None:
                return int(row["run_id"])
            if token in ("latest", "last"):
                row = conn.execute("SELECT MAX(run_id) AS run_id FROM runs").fetchone()
                if row["run_id"] is None:
                    raise StoreError(f"store {self.path!r} has no runs")
                return int(row["run_id"])
            if not token.isdigit():
                raise StoreError(f"no run labelled {token!r} in store {self.path!r}")
        run_id = int(token)
        if conn.execute("SELECT 1 FROM runs WHERE run_id = ?", (run_id,)).fetchone():
            return run_id
        raise StoreError(f"no run #{run_id} in store {self.path!r}")

    # ------------------------------------------------------------------ #
    # Records                                                             #
    # ------------------------------------------------------------------ #
    def lookup(self, digests: Iterable[str]) -> Dict[str, StoredRecord]:
        """Map each present digest to its stored record (absent ones omitted)."""
        wanted = list(digests)
        found: Dict[str, StoredRecord] = {}
        conn = self.connection
        for start in range(0, len(wanted), _LOOKUP_CHUNK):
            chunk = wanted[start : start + _LOOKUP_CHUNK]
            placeholders = ",".join("?" * len(chunk))
            for row in conn.execute(
                f"SELECT * FROM records WHERE digest IN ({placeholders})", chunk
            ):
                found[row["digest"]] = _row_to_record(row)
        return found

    def __contains__(self, digest: str) -> bool:
        return bool(
            self.connection.execute(
                "SELECT 1 FROM records WHERE digest = ?", (digest,)
            ).fetchone()
        )

    def num_records(self) -> int:
        """Total number of distinct (content-addressed) cells."""
        return int(self.connection.execute("SELECT COUNT(*) FROM records").fetchone()[0])

    def run_records(self, run: Union[int, str]) -> List[StoredRecord]:
        """All cells of one run, in emission order (computed and reused)."""
        run_id = self.resolve_run(run)
        rows = self.connection.execute(
            "SELECT r.* FROM run_records m JOIN records r ON r.digest = m.digest "
            "WHERE m.run_id = ? ORDER BY m.position",
            (run_id,),
        ).fetchall()
        return [_row_to_record(row) for row in rows]

    def headline_metrics(self, run: Union[int, str]) -> Dict[str, Dict[str, float]]:
        """``policy -> metric -> value`` aggregates of one finished run."""
        run_id = self.resolve_run(run)
        result: Dict[str, Dict[str, float]] = {}
        for row in self.connection.execute(
            "SELECT policy, metric, value FROM metrics WHERE run_id = ? "
            "ORDER BY policy, metric",
            (run_id,),
        ):
            result.setdefault(row["policy"], {})[row["metric"]] = row["value"]
        return result

    def writer(self, run_id: int, *, batch_size: int = 256) -> "BulkWriter":
        """A batching writer appending cells to ``run_id``."""
        return BulkWriter(self, run_id, batch_size=batch_size)

    # ------------------------------------------------------------------ #
    # Garbage collection                                                  #
    # ------------------------------------------------------------------ #
    def gc(
        self,
        *,
        epoch: Optional[str] = None,
        older_than_days: Optional[float] = None,
        dry_run: bool = True,
    ) -> GcReport:
        """Prune epoch-orphaned records and vacuum incomplete runs.

        A ``CODE_EPOCH`` bump orphans every stored cell of older epochs: their
        digests can never match again, so they only cost space.  Killed runs
        (``completed = 0``) similarly accumulate half-finished membership.
        This pass selects both and — unless ``dry_run`` (the default) —
        deletes them and ``VACUUM``\\ s the database file.

        Parameters
        ----------
        epoch:
            Prune exactly the records of this code epoch.  Default: every
            record whose epoch differs from the current :data:`CODE_EPOCH`.
            Passing the current epoch is rejected — it would delete live
            cells.
        older_than_days:
            Only touch records/runs whose provenance run was created more
            than this many days ago (safety margin for concurrent sweeps).
        dry_run:
            ``True`` (default) reports without deleting.

        Notes
        -----
        Vacuuming an incomplete run removes the run row, its membership and
        its metrics; record rows it *computed* are kept when their epoch is
        current (they are the resumable cells a re-run tops up from) — their
        provenance ``run_id`` then refers to a vacuumed run, which nothing
        in the store joins against.
        """
        if epoch is not None and epoch == CODE_EPOCH:
            raise StoreError(
                f"refusing to gc the current code epoch {CODE_EPOCH!r}; "
                "pass an older epoch (or no --epoch for all stale ones)"
            )
        conn = self.connection
        cutoff: Optional[str] = None
        if older_than_days is not None:
            from datetime import timedelta

            cutoff = (utc_now() - timedelta(days=older_than_days)).isoformat(
                timespec="seconds"
            )

        # Stale-epoch records (joined to their provenance run for the age filter).
        epoch_clause = "r.code_epoch = ?" if epoch is not None else "r.code_epoch != ?"
        epoch_value = epoch if epoch is not None else CODE_EPOCH
        age_clause = ""
        age_params: Tuple = ()
        if cutoff is not None:
            # COALESCE to '' (which sorts before every ISO timestamp): a
            # record whose provenance run was vacuumed earlier has no
            # created_at left and must count as old, not as untouchable.
            age_clause = (
                " AND COALESCE((SELECT created_at FROM runs "
                "WHERE run_id = r.run_id), '') <= ?"
            )
            age_params = (cutoff,)
        stale_by_epoch: Dict[str, int] = {}
        for row in conn.execute(
            f"SELECT r.code_epoch AS epoch, COUNT(*) AS n FROM records r "
            f"WHERE {epoch_clause}{age_clause} GROUP BY r.code_epoch",
            (epoch_value, *age_params),
        ):
            stale_by_epoch[row["epoch"]] = int(row["n"])

        # Incomplete runs (killed sweeps) under the same age filter.
        run_clause = "completed = 0"
        run_params: Tuple = ()
        if cutoff is not None:
            run_clause += " AND created_at <= ?"
            run_params = (cutoff,)
        incomplete_runs = [
            int(row["run_id"])
            for row in conn.execute(
                f"SELECT run_id FROM runs WHERE {run_clause} ORDER BY run_id",
                run_params,
            )
        ]

        # Membership rows that would go: those of vacuumed runs plus those
        # pointing at stale digests from surviving runs.
        membership_rows = int(
            conn.execute(
                f"SELECT COUNT(*) FROM run_records m WHERE m.run_id IN "
                f"(SELECT run_id FROM runs WHERE {run_clause}) "
                f"OR m.digest IN (SELECT r.digest FROM records r "
                f"WHERE {epoch_clause}{age_clause})",
                (*run_params, epoch_value, *age_params),
            ).fetchone()[0]
        )

        report = GcReport(
            stale_by_epoch=stale_by_epoch,
            incomplete_runs=incomplete_runs,
            membership_rows=membership_rows,
            dry_run=dry_run,
        )
        if dry_run or report.empty:
            return report

        conn.execute(
            f"DELETE FROM run_records WHERE run_id IN "
            f"(SELECT run_id FROM runs WHERE {run_clause}) "
            f"OR digest IN (SELECT r.digest FROM records r "
            f"WHERE {epoch_clause}{age_clause})",
            (*run_params, epoch_value, *age_params),
        )
        conn.execute(
            f"DELETE FROM records WHERE digest IN (SELECT r.digest FROM records r "
            f"WHERE {epoch_clause}{age_clause})",
            (epoch_value, *age_params),
        )
        conn.execute(
            f"DELETE FROM metrics WHERE run_id IN "
            f"(SELECT run_id FROM runs WHERE {run_clause})",
            run_params,
        )
        conn.execute(f"DELETE FROM runs WHERE {run_clause}", run_params)
        conn.commit()
        conn.execute("VACUUM")
        return report


class BulkWriter:
    """Batched inserts of campaign cells into one run.

    Records are inserted with ``INSERT OR IGNORE`` on their content digest
    (re-computing a known cell is a no-op); membership rows tie every added
    cell — new or reused — to the run in emission order.  Batches are
    committed every ``batch_size`` rows and on :meth:`close`, so a killed
    process loses at most the current batch.
    """

    def __init__(self, store: ExperimentStore, run_id: int, *, batch_size: int = 256) -> None:
        if batch_size < 1:
            raise StoreError("batch_size must be at least 1")
        self.store = store
        self.run_id = run_id
        self.batch_size = batch_size
        self.inserted = 0  # new content rows actually written
        self.reused = 0  # cells already present under their digest
        self.added = 0  # membership rows (total cells of the run)
        self.commits = 0  # batch commits performed (journalled by drivers)
        self._record_batch: List[Tuple] = []
        self._member_batch: List[Tuple] = []
        self._position = int(
            store.connection.execute(
                "SELECT COALESCE(MAX(position), -1) + 1 FROM run_records WHERE run_id = ?",
                (run_id,),
            ).fetchone()[0]
        )

    def add(
        self,
        digest: str,
        record: CampaignRecord,
        *,
        workload_key: str,
        scenario: Optional[str] = None,
        seed: Optional[int] = None,
        objective: Optional[float] = None,
        computed: bool = True,
        code_epoch: str = CODE_EPOCH,
        extra: Optional[Dict] = None,
    ) -> None:
        """Append one cell to the run (insert its content when ``computed``)."""
        if computed:
            self._record_batch.append(
                (
                    digest,
                    self.run_id,
                    record.workload,
                    workload_key,
                    scenario,
                    seed,
                    record.policy,
                    code_epoch,
                    record.max_weighted_flow,
                    record.max_stretch,
                    record.makespan,
                    record.normalised,
                    record.preemptions,
                    objective,
                    json.dumps(extra, sort_keys=True) if extra is not None else None,
                )
            )
        else:
            self.reused += 1
        self._member_batch.append((self.run_id, self._position, digest))
        self._position += 1
        self.added += 1
        if len(self._member_batch) >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        """Write and commit the pending batch."""
        conn = self.store.connection
        recorder = get_recorder()
        if self._record_batch:
            before = conn.total_changes
            conn.executemany(
                "INSERT OR IGNORE INTO records (digest, run_id, workload, workload_key, "
                "scenario, seed, policy, code_epoch, max_weighted_flow, max_stretch, "
                "makespan, normalised, preemptions, objective, extra) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                self._record_batch,
            )
            written = conn.total_changes - before
            self.inserted += written
            self.reused += len(self._record_batch) - written
            if recorder.enabled:
                recorder.count("store.records_inserted", float(written))
                recorder.count(
                    "store.records_deduplicated", float(len(self._record_batch) - written)
                )
            self._record_batch.clear()
        if self._member_batch:
            conn.executemany(
                "INSERT OR REPLACE INTO run_records (run_id, position, digest) "
                "VALUES (?, ?, ?)",
                self._member_batch,
            )
            if recorder.enabled:
                recorder.count("store.cells_added", float(len(self._member_batch)))
            self._member_batch.clear()
        conn.commit()
        self.commits += 1
        if recorder.enabled:
            recorder.count("store.batch_commits")

    def close(self) -> None:
        """Flush the final batch."""
        self.flush()
        recorder = get_recorder()
        if recorder.enabled and self.added:
            # Resume skip rate: the fraction of cells answered from the
            # content-addressed store instead of recomputed.
            recorder.gauge("store.skip_rate", self.reused / self.added)

    def __enter__(self) -> "BulkWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def diff_runs(
    store: ExperimentStore,
    baseline: Union[int, str],
    current: Union[int, str],
) -> CrossRunDiff:
    """Cross-run regression diff: per-policy headline-metric deltas.

    Both runs must have been sealed by :meth:`ExperimentStore.finish_run`
    (campaign dispatches with a store sink do this automatically).  The
    result is deterministic: deltas are ordered by (policy, metric).
    """
    baseline_id = store.resolve_run(baseline)
    current_id = store.resolve_run(current)
    baseline_metrics = store.headline_metrics(baseline_id)
    current_metrics = store.headline_metrics(current_id)
    if not baseline_metrics:
        raise StoreError(f"run #{baseline_id} has no headline metrics (unfinished run?)")
    if not current_metrics:
        raise StoreError(f"run #{current_id} has no headline metrics (unfinished run?)")
    return cross_run_diff(
        baseline_metrics,
        current_metrics,
        baseline_label=f"run #{baseline_id}",
        current_label=f"run #{current_id}",
    )


def diff_run_cells(
    store: ExperimentStore,
    baseline: Union[int, str],
    current: Union[int, str],
    *,
    metric: str = "max_weighted_flow",
) -> CellDiff:
    """Per-cell regression diff: join two runs on (workload key, policy).

    Where :func:`diff_runs` compares per-policy headline aggregates, this
    joins the two runs' full record sets on the content identity the store
    digests and localises every change to an individual scenario cell —
    the computation behind ``repro-sched store diff --cells``.
    """
    baseline_id = store.resolve_run(baseline)
    current_id = store.resolve_run(current)
    return cross_run_cell_diff(
        store.run_records(baseline_id),
        store.run_records(current_id),
        metric=metric,
        baseline_label=f"run #{baseline_id}",
        current_label=f"run #{current_id}",
    )
