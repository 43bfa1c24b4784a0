"""Unit tests for the SQLite experiment store."""

from __future__ import annotations

import pytest

from repro.analysis.campaign import CampaignRecord
from repro.exceptions import StoreError
from repro.store import CODE_EPOCH, ExperimentStore, diff_runs, record_digest


def _record(workload: str, policy: str, normalised: float = 1.5) -> CampaignRecord:
    return CampaignRecord(
        workload=workload,
        policy=policy,
        max_weighted_flow=normalised * 10.0,
        max_stretch=2.0,
        makespan=30.0,
        normalised=normalised,
        preemptions=1,
    )


def _fill_run(store, label, cells, *, batch_size=256):
    """Write (workload, policy, normalised) cells as one finished run."""
    run_id = store.begin_run(label, {"cells": len(cells)})
    with store.writer(run_id, batch_size=batch_size) as writer:
        for workload, policy, normalised in cells:
            key = f"scenario={workload};seed=0"
            writer.add(
                record_digest(key, policy),
                _record(workload, policy, normalised),
                workload_key=key,
                scenario=workload,
                seed=0,
                objective=normalised * 10.0 if policy == "offline-optimal" else None,
            )
    store.finish_run(run_id, stats={"records": len(cells)})
    return run_id


class TestStoreLifecycle:
    def test_schema_created_and_reopened(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ExperimentStore(path) as store:
            run_id = _fill_run(store, "first", [("w0", "mct", 1.5)])
        with ExperimentStore(path, create=False) as store:
            assert [run.run_id for run in store.runs()] == [run_id]
            assert store.num_records() == 1

    def test_missing_store_without_create_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            ExperimentStore(tmp_path / "absent.sqlite", create=False)

    def test_closed_store_rejects_use(self, tmp_path):
        store = ExperimentStore(tmp_path / "store.sqlite")
        store.close()
        with pytest.raises(StoreError):
            store.runs()
        store.close()  # idempotent

    def test_schema_version_mismatch_rejected(self, tmp_path):
        import sqlite3

        path = tmp_path / "foreign.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError):
            ExperimentStore(path)


class TestRecordsAndRuns:
    def test_content_addressing_dedupes_across_runs(self, tmp_path):
        with ExperimentStore(tmp_path / "s.sqlite") as store:
            cells = [("w0", "mct", 1.5), ("w0", "fifo", 2.5)]
            first = _fill_run(store, "a", cells)
            second = _fill_run(store, "b", cells)
            assert store.num_records() == 2  # content stored once
            assert len(store.run_records(first)) == 2
            assert len(store.run_records(second)) == 2  # membership per run
            # Provenance points at the run that computed the cell.
            assert all(r.run_id == first for r in store.run_records(second))

    def test_lookup_returns_only_present_digests(self, tmp_path):
        with ExperimentStore(tmp_path / "s.sqlite") as store:
            _fill_run(store, "a", [("w0", "mct", 1.5)])
            key = "scenario=w0;seed=0"
            present = record_digest(key, "mct")
            absent = record_digest(key, "fifo")
            found = store.lookup([present, absent])
            assert set(found) == {present}
            stored = found[present]
            assert stored.policy == "mct"
            assert stored.code_epoch == CODE_EPOCH
            assert stored.to_campaign_record() == _record("w0", "mct", 1.5)
            assert present in store and absent not in store

    def test_small_batches_commit_incrementally(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ExperimentStore(path) as store:
            run_id = store.begin_run("partial", {})
            writer = store.writer(run_id, batch_size=2)
            for index in range(5):
                writer.add(
                    record_digest(f"w{index}", "mct"),
                    _record(f"w{index}", "mct"),
                    workload_key=f"w{index}",
                )
            # Writer never closed — simulates a killed process.  Two full
            # batches (4 rows) are already committed.
            with ExperimentStore(path, create=False) as reader:
                assert reader.num_records() == 4

    def test_resolve_run_by_id_label_and_latest(self, tmp_path):
        with ExperimentStore(tmp_path / "s.sqlite") as store:
            first = _fill_run(store, "alpha", [("w0", "mct", 1.5)])
            second = _fill_run(store, "alpha", [("w1", "mct", 1.5)])
            assert store.resolve_run(first) == first
            assert store.resolve_run(str(first)) == first
            assert store.resolve_run("alpha") == second  # latest match wins
            assert store.resolve_run("latest") == second
            with pytest.raises(StoreError):
                store.resolve_run("no-such-label")
            with pytest.raises(StoreError):
                store.resolve_run(99)

    def test_run_info_carries_meta_and_stats(self, tmp_path):
        with ExperimentStore(tmp_path / "s.sqlite") as store:
            _fill_run(store, "a", [("w0", "mct", 1.5)])
            info = store.runs()[0]
            assert info.completed
            assert info.meta == {"cells": 1}
            assert info.stats == {"records": 1}
            assert info.num_records == 1


    def test_latest_on_an_empty_store_is_an_error(self, tmp_path):
        with ExperimentStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(StoreError, match="has no runs"):
                store.resolve_run("latest")

    def test_writer_batch_size_must_be_positive(self, tmp_path):
        with ExperimentStore(tmp_path / "s.sqlite") as store:
            run_id = store.begin_run("a", {})
            with pytest.raises(StoreError, match="batch_size"):
                store.writer(run_id, batch_size=0)

    def test_writer_reports_inserts_reuse_and_skip_rate(self, tmp_path):
        from repro.obs import collecting

        with ExperimentStore(tmp_path / "s.sqlite") as store:
            _fill_run(store, "first", [("w0", "mct", 1.5), ("w1", "mct", 1.5)])
            with collecting() as recorder:
                _fill_run(
                    store, "second", [("w0", "mct", 1.5), ("w2", "mct", 1.5)], batch_size=1
                )
        counters = recorder.snapshot()["counters"]
        assert counters["store.records_inserted"] == 1.0
        assert counters["store.records_deduplicated"] == 1.0
        assert counters["store.cells_added"] == 2.0
        # Two full batches plus the (empty) final flush on close.
        assert counters["store.batch_commits"] == 3.0
        assert recorder.snapshot()["gauges"]["store.skip_rate"]["last"] == 0.5


class TestHeadlineMetricsAndDiff:
    def test_headline_metrics_aggregate_per_policy(self, tmp_path):
        with ExperimentStore(tmp_path / "s.sqlite") as store:
            run_id = _fill_run(
                store, "a", [("w0", "mct", 2.0), ("w1", "mct", 8.0), ("w0", "fifo", 3.0)]
            )
            metrics = store.headline_metrics(run_id)
            assert metrics["mct"]["geo_mean_normalised"] == pytest.approx(4.0)
            assert metrics["mct"]["max_normalised"] == pytest.approx(8.0)
            assert metrics["mct"]["records"] == 2
            assert metrics["fifo"]["records"] == 1

    def test_diff_runs_flags_regressions_deterministically(self, tmp_path):
        with ExperimentStore(tmp_path / "s.sqlite") as store:
            base = _fill_run(store, "base", [("w0", "mct", 2.0), ("w1", "mct", 2.0)])
            # mct got worse on one workload in the second run.
            curr = _fill_run(store, "curr", [("w2", "mct", 2.0), ("w3", "mct", 3.0)])
            diff = diff_runs(store, base, curr)
            assert [(d.policy, d.metric) for d in diff.deltas] == sorted(
                (d.policy, d.metric) for d in diff.deltas
            )
            regressed = {(d.policy, d.metric) for d in diff.regressions(1e-6)}
            assert ("mct", "geo_mean_normalised") in regressed
            assert ("mct", "max_normalised") in regressed
            assert not diff.is_clean()
            # The identical diff computed twice is byte-identical.
            assert diff == diff_runs(store, base, curr)

    def test_diff_of_unfinished_run_rejected(self, tmp_path):
        with ExperimentStore(tmp_path / "s.sqlite") as store:
            done = _fill_run(store, "done", [("w0", "mct", 2.0)])
            open_run = store.begin_run("open", {})
            with pytest.raises(StoreError):
                diff_runs(store, done, open_run)


    def test_diff_against_an_unfinished_baseline_rejected(self, tmp_path):
        with ExperimentStore(tmp_path / "s.sqlite") as store:
            open_run = store.begin_run("open", {})
            done = _fill_run(store, "done", [("w0", "mct", 2.0)])
            with pytest.raises(StoreError, match=f"run #{open_run} has no headline metrics"):
                diff_runs(store, open_run, done)


def test_non_sqlite_file_is_a_clean_store_error(tmp_path):
    path = tmp_path / "not_a_db.sqlite"
    path.write_text("plain text, not a database\n")
    with pytest.raises(StoreError):
        ExperimentStore(path)


def test_digit_and_keyword_labels_stay_reachable(tmp_path):
    with ExperimentStore(tmp_path / "s.sqlite") as store:
        first = _fill_run(store, "123", [("w0", "mct", 1.5)])
        second = _fill_run(store, "latest", [("w1", "mct", 1.5)])
        third = _fill_run(store, "plain", [("w2", "mct", 1.5)])
        # Labels win over numeric ids and over the 'latest' keyword.
        assert store.resolve_run("123") == first
        assert store.resolve_run("latest") == second
        assert store.resolve_run(str(third)) == third  # unlabelled digits -> id
        assert store.resolve_run(first) == first  # ints are always ids


class TestSchemaV2Migration:
    """v1 stores gain the ``extra`` JSON column in place; cells survive."""

    def _make_v1_store(self, path):
        import sqlite3

        # A faithful v1 store: the v2 schema minus the extra column.
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE runs (
                run_id INTEGER PRIMARY KEY AUTOINCREMENT, label TEXT NOT NULL,
                created_at TEXT NOT NULL, completed INTEGER NOT NULL DEFAULT 0,
                meta TEXT NOT NULL DEFAULT '{}', stats TEXT);
            CREATE TABLE records (
                digest TEXT PRIMARY KEY, run_id INTEGER NOT NULL,
                workload TEXT NOT NULL, workload_key TEXT NOT NULL,
                scenario TEXT, seed INTEGER, policy TEXT NOT NULL,
                code_epoch TEXT NOT NULL, max_weighted_flow REAL NOT NULL,
                max_stretch REAL NOT NULL, makespan REAL NOT NULL,
                normalised REAL NOT NULL, preemptions INTEGER NOT NULL,
                objective REAL);
            CREATE TABLE run_records (
                run_id INTEGER NOT NULL, position INTEGER NOT NULL,
                digest TEXT NOT NULL, PRIMARY KEY (run_id, position));
            CREATE TABLE metrics (
                run_id INTEGER NOT NULL, policy TEXT NOT NULL,
                metric TEXT NOT NULL, value REAL NOT NULL,
                PRIMARY KEY (run_id, policy, metric));
            """
        )
        conn.execute("INSERT INTO runs (label, created_at, completed) VALUES ('old', 't', 1)")
        conn.execute(
            "INSERT INTO records VALUES ('d1', 1, 'w', 'k', NULL, NULL, 'srpt', ?, "
            "1.0, 2.0, 3.0, 1.5, 0, NULL)",
            (CODE_EPOCH,),
        )
        conn.execute("INSERT INTO run_records VALUES (1, 0, 'd1')")
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()

    def test_v1_store_migrates_in_place_and_keeps_its_cells(self, tmp_path):
        import sqlite3

        path = tmp_path / "old.sqlite"
        self._make_v1_store(path)
        with ExperimentStore(path) as store:
            records = store.run_records(1)
            assert len(records) == 1
            assert records[0].digest == "d1"
            assert records[0].extra is None
            # And new cells can carry the v2 payload.
            run_id = store.begin_run("new")
            with store.writer(run_id) as writer:
                writer.add(
                    "d2",
                    _record("w2", "mct"),
                    workload_key="k2",
                    extra={"kind": "stream-cell", "rho": 0.5},
                )
            loaded = store.lookup(["d2"])["d2"]
            assert loaded.extra == {"kind": "stream-cell", "rho": 0.5}
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA user_version").fetchone()[0] == 2
        conn.close()

    def test_extra_round_trips_and_defaults_to_none(self, tmp_path):
        path = tmp_path / "v2.sqlite"
        with ExperimentStore(path) as store:
            run_id = store.begin_run("r")
            with store.writer(run_id) as writer:
                writer.add("plain", _record("w", "srpt"), workload_key="k")
                writer.add(
                    "rich",
                    _record("w", "mct"),
                    workload_key="k",
                    extra={"report": {"mean": 1.25}},
                )
            found = store.lookup(["plain", "rich"])
            assert found["plain"].extra is None
            assert found["rich"].extra == {"report": {"mean": 1.25}}
