"""The cell executor's abort path, through both drivers.

Closing a record stream early or a cell raising must leave the store run
sealed as not completed and the journal ending in an aborted
``run-finished`` event, with no torn lines.
"""

import pytest

from repro.analysis import run_stream_sweep, stream_campaign
from repro.analysis.campaign import WorkloadSpec
from repro.exceptions import WorkloadError
from repro.obs import read_journal
from repro.store import ExperimentStore
from repro.workload import StreamSpec, random_restricted_instance


def _assert_aborted(store_path, journal_path):
    with ExperimentStore(store_path, create=False) as store:
        assert [run.completed for run in store.runs()] == [False]
    view = read_journal(journal_path)
    assert view.truncated == 0
    last = list(view)[-1]
    assert last["event"] == "run-finished"
    assert last["status"] == "aborted"


def test_closing_a_parallel_campaign_early_seals_an_aborted_run(tmp_path):
    specs = [
        WorkloadSpec.from_instance(f"w{seed}", random_restricted_instance(4, 2, seed=seed))
        for seed in range(4)
    ]
    store, journal = tmp_path / "store.sqlite", tmp_path / "run.jsonl"
    records = stream_campaign(
        specs, ("mct", "fifo"), max_workers=2, store=store, journal=journal
    )
    first = next(records)
    assert first.policy == "offline-optimal"
    records.close()
    _assert_aborted(store, journal)


@pytest.mark.parametrize("max_workers", [None, 2])
def test_a_raising_sweep_cell_seals_an_aborted_run(tmp_path, max_workers):
    store, journal = tmp_path / "store.sqlite", tmp_path / "run.jsonl"
    with pytest.raises(WorkloadError, match="two batches"):
        # One batch is rejected inside the cell, by the steady-state analysis.
        run_stream_sweep(
            StreamSpec(label="s", scenario="small-cluster", seed=1),
            ("srpt",),
            rhos=(0.3, 0.5),
            max_arrivals=50,
            num_batches=1,
            max_workers=max_workers,
            store=store,
            journal=journal,
        )
    _assert_aborted(store, journal)
