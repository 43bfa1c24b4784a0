"""Tests for store garbage collection and the per-cell cross-run diff."""

from __future__ import annotations

import pytest

from repro.analysis.campaign import CampaignRecord
from repro.exceptions import StoreError
from repro.store import CODE_EPOCH, ExperimentStore, diff_run_cells, record_digest


def _record(workload: str, policy: str, mwf: float = 12.0) -> CampaignRecord:
    return CampaignRecord(
        workload=workload,
        policy=policy,
        max_weighted_flow=mwf,
        max_stretch=2.0,
        makespan=30.0,
        normalised=mwf / 10.0,
        preemptions=0,
    )


def _write_run(store, label, cells, *, epoch=CODE_EPOCH, completed=True):
    """Write (workload, policy, mwf) cells as one run under ``epoch``."""
    run_id = store.begin_run(label)
    with store.writer(run_id) as writer:
        for workload, policy, mwf in cells:
            key = f"scenario={workload};seed=0"
            writer.add(
                record_digest(key, policy, code_epoch=epoch),
                _record(workload, policy, mwf),
                workload_key=key,
                scenario=workload,
                seed=0,
                code_epoch=epoch,
            )
    if completed:
        store.finish_run(run_id)
    return run_id


class TestGc:
    def test_dry_run_reports_without_deleting(self, tmp_path):
        with ExperimentStore(tmp_path / "gc.sqlite") as store:
            _write_run(store, "old", [("w0", "mct", 12.0)], epoch="1999.1")
            _write_run(store, "new", [("w0", "mct", 12.0)])
            report = store.gc()  # dry-run default
            assert report.dry_run
            assert report.stale_by_epoch == {"1999.1": 1}
            assert sum(report.stale_by_epoch.values()) == 1
            assert store.num_records() == 2  # nothing deleted

    def test_apply_prunes_stale_epochs_and_incomplete_runs(self, tmp_path):
        with ExperimentStore(tmp_path / "gc.sqlite") as store:
            _write_run(store, "ancient", [("w0", "mct", 12.0), ("w1", "mct", 9.0)],
                       epoch="1999.1")
            _write_run(store, "killed", [("w2", "fifo", 8.0)], completed=False)
            keeper = _write_run(store, "current", [("w0", "mct", 12.0)])
            report = store.gc(dry_run=False)
            assert not report.dry_run
            assert sum(report.stale_by_epoch.values()) == 2
            assert len(report.incomplete_runs) == 1
            # Stale-epoch records gone; the killed run row gone; the current
            # cell (computed by the killed run? no — by 'current') survives.
            assert store.num_records() == 2  # current-epoch cells kept
            labels = [run.label for run in store.runs()]
            assert "killed" not in labels
            assert "ancient" in labels  # completed run row is kept (history)
            assert store.run_records(keeper)

    def test_epoch_filter_prunes_exactly_that_epoch(self, tmp_path):
        with ExperimentStore(tmp_path / "gc.sqlite") as store:
            _write_run(store, "a", [("w0", "mct", 12.0)], epoch="1999.1")
            _write_run(store, "b", [("w1", "mct", 12.0)], epoch="2001.2")
            report = store.gc(epoch="1999.1", dry_run=False)
            assert report.stale_by_epoch == {"1999.1": 1}
            remaining = {
                row["code_epoch"]
                for row in store.connection.execute("SELECT code_epoch FROM records")
            }
            assert remaining == {"2001.2"}

    def test_current_epoch_is_refused(self, tmp_path):
        with ExperimentStore(tmp_path / "gc.sqlite") as store:
            with pytest.raises(StoreError, match="current code epoch"):
                store.gc(epoch=CODE_EPOCH)

    def test_older_than_protects_recent_rows(self, tmp_path):
        with ExperimentStore(tmp_path / "gc.sqlite") as store:
            _write_run(store, "old-epoch", [("w0", "mct", 12.0)], epoch="1999.1")
            _write_run(store, "killed", [("w1", "mct", 12.0)], completed=False)
            # Everything was created just now: a 1-day age filter spares it all.
            report = store.gc(older_than_days=1.0, dry_run=False)
            assert report.empty
            assert store.num_records() == 2
            assert len(store.runs()) == 2

    def test_older_than_still_reaches_records_with_vacuumed_provenance(self, tmp_path):
        with ExperimentStore(tmp_path / "gc.sqlite") as store:
            _write_run(store, "killed", [("w0", "mct", 12.0)], completed=False)
            # First pass vacuums the killed run but keeps its current-epoch
            # record (the resumable cell) — its provenance run is now gone.
            store.gc(dry_run=False)
            assert store.num_records() == 1
            # An epoch bump later orphans that record; an age-filtered gc must
            # still see it (missing provenance counts as old, not untouchable).
            store.connection.execute("UPDATE records SET code_epoch = '1999.1'")
            store.connection.commit()
            report = store.gc(older_than_days=0.0, dry_run=False)
            assert sum(report.stale_by_epoch.values()) == 1
            assert store.num_records() == 0

    def test_empty_report_on_clean_store(self, tmp_path):
        with ExperimentStore(tmp_path / "gc.sqlite") as store:
            _write_run(store, "only", [("w0", "mct", 12.0)])
            report = store.gc(dry_run=False)
            assert report.empty


class TestCellDiff:
    def test_cells_join_on_workload_key_and_localise_regressions(self, tmp_path):
        # The realistic cross-run change is an epoch bump: same workload keys,
        # recomputed (different-digest) cells with drifted values.
        with ExperimentStore(tmp_path / "cells.sqlite") as store:
            base = _write_run(
                store, "base",
                [("w0", "mct", 12.0), ("w1", "mct", 8.0), ("w0", "fifo", 20.0)],
                epoch="2005.2",
            )
            curr = _write_run(
                store, "curr",
                [("w0", "mct", 12.0), ("w1", "mct", 9.5), ("w1", "fifo", 21.0)],
            )
            diff = diff_run_cells(store, base, curr)
            flags = {
                (delta.policy, delta.workload_key): delta.flag()
                for delta in diff.deltas
            }
            assert flags[("mct", "scenario=w0;seed=0")] == "ok"
            assert flags[("mct", "scenario=w1;seed=0")] == "regressed"
            assert flags[("fifo", "scenario=w0;seed=0")] == "removed"
            assert flags[("fifo", "scenario=w1;seed=0")] == "added"
            assert len(diff.regressions()) == 1
            assert not diff.is_clean()

    def test_identical_runs_are_clean(self, tmp_path):
        with ExperimentStore(tmp_path / "cells.sqlite") as store:
            cells = [("w0", "mct", 12.0), ("w1", "srpt", 7.0)]
            base = _write_run(store, "base", cells)
            curr = _write_run(store, "curr", cells)
            diff = diff_run_cells(store, base, curr)
            assert diff.is_clean()
            assert len(diff.deltas) == 2

    def test_rendering_lists_only_non_ok_cells(self, tmp_path):
        from repro.analysis import render_cell_diff

        with ExperimentStore(tmp_path / "cells.sqlite") as store:
            base = _write_run(
                store, "base", [("w0", "mct", 12.0), ("w1", "mct", 8.0)], epoch="2005.2"
            )
            curr = _write_run(store, "curr", [("w0", "mct", 12.0), ("w1", "mct", 9.0)])
            text = render_cell_diff(diff_run_cells(store, base, curr))
            assert "regressed" in text
            assert "1 of 2 clean" in text
            clean = render_cell_diff(diff_run_cells(store, base, base))
            assert "clean" in clean
