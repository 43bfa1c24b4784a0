"""Tests for the streaming load-sweep runner (repro.analysis.stream_sweep)."""

import pytest

from repro.analysis import run_stream_sweep
from repro.analysis.stream_sweep import StreamCellRecord
from repro.exceptions import WorkloadError
from repro.store import ExperimentStore
from repro.workload import StreamSpec

SPEC = StreamSpec(label="sweep", scenario="small-cluster", seed=5)
POLICIES = ("srpt", "greedy-weighted-flow")
RHOS = (0.3, 0.7)


def _sweep(**kwargs):
    kwargs.setdefault("max_arrivals", 400)
    return run_stream_sweep(SPEC, POLICIES, rhos=RHOS, **kwargs)


class TestSweep:
    def test_cells_cover_the_rho_by_policy_grid(self):
        result = _sweep()
        assert [(r.rho, r.policy) for r in result.records] == [
            (rho, policy) for rho in RHOS for policy in POLICIES
        ]
        assert result.stats.cells == 4
        assert result.stats.computed_cells == 4
        assert result.stats.arrivals == 4 * 400
        assert "mean stretch" in result.as_table()

    def test_load_monotonicity_is_visible(self):
        # Higher offered load should not make the steady-state stretch of a
        # policy better; assert the sweep exposes the load axis.
        result = _sweep()
        by_cell = {(r.rho, r.policy): r.report.mean_stretch.mean for r in result.records}
        for policy in POLICIES:
            assert by_cell[(0.7, policy)] >= by_cell[(0.3, policy)] * 0.9

    def test_variant_tokens_resolve_and_label_cells(self):
        result = run_stream_sweep(
            SPEC,
            ["deadline-driven:lp_targets=true"],
            rhos=[0.4],
            max_arrivals=150,
        )
        assert result.records[0].policy == "deadline-driven:lp_targets=true"

    @pytest.mark.parametrize(
        "token, error, message",
        [
            ("deadline-driven:backend=highs", ValueError, "unknown LP backend"),
            ("offline-optimal", WorkloadError, "on-line policies only"),
        ],
    )
    def test_rejected_token_fails_before_any_cell_is_stored(
        self, tmp_path, token, error, message
    ):
        path = tmp_path / "rejected.sqlite"
        with pytest.raises(error, match=message):
            run_stream_sweep(SPEC, ["srpt", token], rhos=[0.4], store=path)
        assert not path.exists()

    def test_parameter_validation(self):
        with pytest.raises(WorkloadError):
            run_stream_sweep(SPEC, [], rhos=[0.5])
        with pytest.raises(WorkloadError):
            run_stream_sweep(SPEC, ["srpt"], rhos=[])
        with pytest.raises(WorkloadError):
            run_stream_sweep(SPEC, ["srpt"], rhos=[0.5], max_arrivals=0)
        with pytest.raises(WorkloadError):
            run_stream_sweep(SPEC, ["srpt"], rhos=[0.5], resume=True)


class TestStoreResume:
    def test_resumed_sweep_reaches_full_skip_rate(self, tmp_path):
        path = tmp_path / "sweep.sqlite"
        cold = _sweep(store=path, run_label="cold")
        warm = _sweep(store=path, resume=True, run_label="warm")
        assert cold.stats.resume_skip_rate == 0.0
        assert warm.stats.resume_skip_rate == 1.0
        assert warm.stats.computed_cells == 0
        assert warm.stats.arrivals == 0
        # The resumed cells reconstruct the full rich reports, bit for bit.
        assert [r.report.as_dict() for r in warm.records] == [
            r.report.as_dict() for r in cold.records
        ]

    def test_partial_resume_tops_up_only_the_missing_cells(self, tmp_path):
        path = tmp_path / "sweep.sqlite"
        run_stream_sweep(SPEC, ["srpt"], rhos=RHOS, max_arrivals=400, store=path)
        topped = _sweep(store=path, resume=True)
        assert topped.stats.resumed_cells == 2  # the srpt cells
        assert topped.stats.computed_cells == 2  # the greedy cells

    def test_protocol_changes_are_different_cells(self, tmp_path):
        path = tmp_path / "sweep.sqlite"
        _sweep(store=path)
        different = run_stream_sweep(
            SPEC, POLICIES, rhos=RHOS, max_arrivals=300, store=path, resume=True
        )
        assert different.stats.resumed_cells == 0  # different arrival budget

    def test_stream_cells_round_trip_through_the_store(self, tmp_path):
        path = tmp_path / "sweep.sqlite"
        cold = _sweep(store=path, run_label="cells")
        with ExperimentStore(path) as store:
            stored = store.run_records("cells")
            assert len(stored) == 4
            for row, original in zip(stored, cold.records):
                rebuilt = StreamCellRecord.from_stored(row)
                assert rebuilt is not None
                assert rebuilt.rho == original.rho
                assert rebuilt.report == original.report
                # The lossy projection onto the fixed record columns.
                assert row.max_stretch == original.report.max_stretch
                assert row.normalised == pytest.approx(
                    original.report.mean_stretch.mean
                )

    def test_runs_are_sealed_with_headline_metrics(self, tmp_path):
        path = tmp_path / "sweep.sqlite"
        _sweep(store=path, run_label="sealed")
        with ExperimentStore(path) as store:
            run = [r for r in store.runs() if r.label == "sealed"][0]
            assert run.completed
            metrics = store.headline_metrics(run.run_id)
            assert set(metrics) == set(POLICIES)


class TestParallelWorkers:
    def _strip_wall_clock(self, report_dict):
        # The only field a worker pool may legitimately change: wall-clock
        # throughput.  Everything else must be bit-identical.
        return {k: v for k, v in report_dict.items() if k != "arrivals_per_second"}

    def test_parallel_sweep_is_digest_identical_to_sequential(self, tmp_path):
        sequential = _sweep(store=tmp_path / "seq.sqlite", run_label="seq")
        parallel = _sweep(
            store=tmp_path / "par.sqlite", run_label="par", max_workers=2
        )
        assert parallel.stats.max_workers == 2
        assert parallel.stats.computed_cells == 4
        with ExperimentStore(tmp_path / "seq.sqlite") as seq_store, ExperimentStore(
            tmp_path / "par.sqlite"
        ) as par_store:
            seq_rows = seq_store.run_records("seq")
            par_rows = par_store.run_records("par")
            assert [row.digest for row in seq_rows] == [row.digest for row in par_rows]
            for seq_row, par_row in zip(seq_rows, par_rows):
                assert seq_row.policy == par_row.policy
                assert seq_row.max_stretch == par_row.max_stretch
                assert seq_row.normalised == par_row.normalised
                assert self._strip_wall_clock(
                    seq_row.extra["report"]
                ) == self._strip_wall_clock(par_row.extra["report"])

    def test_parallel_sweep_records_match_sequential_in_order(self):
        sequential = _sweep()
        parallel = _sweep(max_workers=2)
        assert [(r.workload, r.policy) for r in parallel.records] == [
            (r.workload, r.policy) for r in sequential.records
        ]
        assert [
            self._strip_wall_clock(r.report.as_dict()) for r in parallel.records
        ] == [self._strip_wall_clock(r.report.as_dict()) for r in sequential.records]

    def test_parallel_resume_skips_without_spawning_workers(self, tmp_path):
        path = tmp_path / "resume.sqlite"
        _sweep(store=path, run_label="cold")
        warm = _sweep(store=path, resume=True, run_label="warm", max_workers=2)
        assert warm.stats.resume_skip_rate == 1.0
        assert warm.stats.computed_cells == 0

    def test_zero_means_one_worker_per_cpu(self):
        result = _sweep(max_workers=0, max_arrivals=100)
        assert result.stats.max_workers == 0
        assert result.stats.cells == 4


class TestDegenerateCells:
    def test_zero_completion_saturated_cell_persists_and_resumes(self, tmp_path):
        # A cell so overloaded that nothing completes post-warmup has NaN
        # estimates; it must still be stored (SQLite would otherwise bind
        # NaN as NULL and INSERT OR IGNORE would drop the row silently)
        # and must resume like any other cell.
        path = tmp_path / "degenerate.sqlite"
        kwargs = dict(rhos=[6.0], max_arrivals=200, max_active=4, store=path)
        cold = run_stream_sweep(SPEC, ["srpt"], **kwargs)
        assert cold.records[0].report.saturated
        with ExperimentStore(path) as store:
            rows = store.run_records(1)
            assert len(rows) == 1  # the row exists despite the NaN estimate
            assert rows[0].normalised >= 1e-9
        warm = run_stream_sweep(SPEC, ["srpt"], resume=True, **kwargs)
        assert warm.stats.resume_skip_rate == 1.0
        assert warm.records[0].report.saturated

    @pytest.mark.parametrize(
        "changed",
        [dict(confidence=0.99), dict(max_active=123)],
        ids=["confidence", "max_active"],
    )
    def test_every_protocol_knob_is_part_of_the_cell_digest(self, tmp_path, changed):
        path = tmp_path / "protocol.sqlite"
        _sweep(store=path)
        different = run_stream_sweep(
            SPEC,
            POLICIES,
            rhos=RHOS,
            max_arrivals=400,
            store=path,
            resume=True,
            **changed,
        )
        assert different.stats.resumed_cells == 0


class TestFlightRecorder:
    """ISSUE 10: sweep journaling and cross-process metrics aggregation."""

    def test_parallel_metrics_snapshot_is_byte_identical_to_sequential(self):
        import json

        from repro.obs import collecting
        from tests.reference.snapshots import snapshot_bytes

        with collecting() as recorder:
            sequential = _sweep()
        reference = snapshot_bytes(recorder.snapshot())
        with collecting() as recorder:
            parallel = _sweep(max_workers=2)
        # Records match up to the one field a worker pool may change —
        # wall-clock throughput (the digest-identity test above pins the rest).
        strip = TestParallelWorkers._strip_wall_clock
        assert [strip(self, r.report.as_dict()) for r in parallel.records] == [
            strip(self, r.report.as_dict()) for r in sequential.records
        ]
        assert snapshot_bytes(recorder.snapshot()) == reference
        counters = json.loads(reference.decode("utf-8"))["counters"]
        assert counters["sweep.cells"] == 4.0
        assert counters["stream.arrivals"] == 4 * 400.0

    def test_journal_lifecycle_and_caller_owned_journal_resume(self, tmp_path):
        from repro.obs import analyse_journal, read_journal
        from repro.obs.journal import RunJournal

        path = tmp_path / "sweep.jsonl"
        store = tmp_path / "sweep.sqlite"
        _sweep(store=store, journal=path)
        view = read_journal(path)
        assert view.truncated == 0
        status = analyse_journal(view.events)
        assert status.kind == "stream-sweep"
        assert status.status == "completed"
        assert status.total_cells == 4
        assert status.completed == 4

        # A caller-owned RunJournal is appended to, never closed, by the
        # driver: the warm resume lands in the same file as a new run.
        journal = RunJournal(path)
        _sweep(store=store, resume=True, journal=journal)
        journal.record("custom-note")  # still open — ours to close
        journal.close()

        view = read_journal(path)
        assert view.truncated == 0
        runs = view.runs()
        assert len(runs) == 2
        status = analyse_journal(view.events, run=runs[1])
        assert status.completed == 0
        assert status.skipped == 4
