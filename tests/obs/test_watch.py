"""Fleet monitoring: journal analysis, status rendering, live tailing."""

from __future__ import annotations

import json

from repro.obs.journal import RunJournal
from repro.obs.watch import analyse_journal, render_fleet_status, watch_journal


def _events(run="r1", base_ts=1000.0):
    """A small synthetic campaign journal: 4 cells, one still pending."""
    return [
        {
            "run": run,
            "event": "run-started",
            "ts": base_ts,
            "kind": "campaign",
            "label": "demo",
            "config": {"total_cells": 4},
        },
        {"run": run, "event": "cell-dispatched", "ts": base_ts + 1, "cell": "a#0", "policies": ["srpt"]},
        {"run": run, "event": "cell-dispatched", "ts": base_ts + 1, "cell": "a#1", "policies": ["srpt"]},
        {"run": run, "event": "cell-dispatched", "ts": base_ts + 2, "cell": "a#2", "policies": ["mct"]},
        {"run": run, "event": "cell-skipped", "ts": base_ts + 2, "cell": "a#3", "cells": 1, "policies": ["mct"]},
        {"run": run, "event": "cell-completed", "ts": base_ts + 3, "cell": "a#0", "cells": 1, "elapsed": 2.0, "policies": ["srpt"], "worker": "p7"},
        {"run": run, "event": "worker-heartbeat", "ts": base_ts + 3, "worker": "p7", "items": 1},
        {"run": run, "event": "cell-completed", "ts": base_ts + 5, "cell": "a#1", "cells": 1, "elapsed": 4.0, "policies": ["srpt"], "worker": "p7"},
        {"run": run, "event": "worker-heartbeat", "ts": base_ts + 5, "worker": "p7", "items": 2},
        {"run": run, "event": "batch-commit", "ts": base_ts + 5, "commits": 1, "records": 2},
    ]


def test_analyse_journal_counts_and_policies():
    status = analyse_journal(_events(), now=1010.0)
    assert status.run_id == "r1"
    assert status.kind == "campaign"
    assert status.status == "running"
    assert status.total_cells == 4
    assert (status.dispatched, status.completed, status.skipped) == (3, 2, 1)
    assert status.done == 3
    assert status.progress == 0.75
    assert status.per_policy["srpt"] == {"dispatched": 2, "completed": 2, "skipped": 0}
    assert status.per_policy["mct"] == {"dispatched": 1, "completed": 0, "skipped": 1}
    assert status.workers["p7"]["items"] == 2.0
    assert status.commits == 1
    # 2 completions over the 5s from run start to the last completion.
    assert status.throughput_cells_per_sec == 2 / 5
    assert status.eta_seconds == 1 / (2 / 5)


def test_completed_cells_use_the_cells_field():
    """A dispatch unit covering several output cells counts them all."""
    events = [
        {"run": "r", "event": "run-started", "ts": 0.0, "config": {"total_cells": 3}},
        {"run": "r", "event": "cell-completed", "ts": 1.0, "cell": "a", "cells": 3},
        {"run": "r", "event": "run-finished", "ts": 2.0, "status": "completed"},
    ]
    status = analyse_journal(events)
    assert status.completed == 3
    assert status.progress == 1.0
    assert status.finished_ts == 2.0
    assert status.eta_seconds is None


def test_straggler_detection():
    events = _events()
    # Three completed durations (2.0, 4.0, 3.0) -> median 3.0; the pending
    # a#2 was dispatched at t=1002 and it is now t=1060: age 58 > 4*3.
    events.append(
        {"run": "r1", "event": "cell-completed", "ts": 1006.0, "cell": "a#1b", "cells": 1, "elapsed": 3.0}
    )
    status = analyse_journal(events, now=1060.0, stall_factor=4.0)
    assert status.median_cell_seconds == 3.0
    assert [s.label for s in status.stragglers] == ["a#2"]
    straggler = status.stragglers[0]
    assert straggler.age_seconds == 58.0
    assert straggler.bound_seconds == 12.0
    # A finished run never reports stragglers.
    events.append({"run": "r1", "event": "run-finished", "ts": 1061.0, "status": "completed"})
    assert analyse_journal(events, now=1060.0).stragglers == []


def _queue_events(workers, completions):
    """A pool run: 8 cells dispatched at t=0, then ``(cell, ts)`` completions."""
    events = [
        {"run": "q", "event": "run-started", "ts": 0.0,
         "config": {"total_cells": 8, "workers": workers}},
    ]
    events += [
        {"run": "q", "event": "cell-dispatched", "ts": 0.0, "cell": f"a{i}"}
        for i in range(8)
    ]
    events += [
        {"run": "q", "event": "cell-completed", "ts": ts, "cell": cell, "cells": 1, "elapsed": 1.0}
        for cell, ts in completions
    ]
    return events


def test_queued_cells_of_a_healthy_pool_are_not_stragglers():
    """Cells waiting for a worker age from when a worker frees up."""
    pairs = [("a0", 1.0), ("a1", 1.0), ("a2", 2.0), ("a3", 2.0), ("a4", 3.0), ("a5", 3.0)]
    status = analyse_journal(_queue_events(2, pairs), now=4.5, stall_factor=4.0)
    assert status.median_cell_seconds == 1.0
    # a6/a7 were dispatched 4.5s ago but started running at t=3.
    assert status.stragglers == []


def test_a_stuck_cell_of_a_pool_is_still_flagged():
    pairs = [("a0", 1.0), ("a1", 1.0), ("a2", 2.0), ("a4", 3.0), ("a5", 3.0), ("a6", 4.0)]
    status = analyse_journal(_queue_events(2, pairs), now=7.5, stall_factor=4.0)
    # a3 took a worker at t=1 and never finished; a7 started at t=4.
    assert [s.label for s in status.stragglers] == ["a3"]
    assert status.stragglers[0].age_seconds == 6.5
    assert status.stragglers[0].bound_seconds == 4.0


def test_multi_run_journal_defaults_to_last_run():
    events = _events(run="old")
    events.append({"run": "old", "event": "run-finished", "ts": 1010.0, "status": "completed"})
    events += [
        {"run": "new", "event": "run-started", "ts": 2000.0, "kind": "campaign", "label": "demo", "config": {"total_cells": 4}},
        {"run": "new", "event": "cell-skipped", "ts": 2001.0, "cell": "a#0", "cells": 4},
    ]
    status = analyse_journal(events, now=2002.0)
    assert status.run_id == "new"
    assert status.skipped == 4
    assert status.completed == 0
    old = analyse_journal(events, now=2002.0, run="old")
    assert old.run_id == "old"
    assert old.completed == 2


def test_render_fleet_status_lines():
    text = render_fleet_status(analyse_journal(_events(), now=1010.0))
    assert "run r1 [campaign] — running" in text
    assert "progress: 3/4 cells (75.0%)" in text
    assert "2 completed, 1 resumed" in text
    assert "srpt" in text and "mct" in text
    assert "workers: p7:2" in text
    assert "batch commits: 1" in text


def test_watch_journal_follows_a_live_writer(tmp_path):
    """The poll loop reads a journal that is still being appended to."""
    path = tmp_path / "live.jsonl"
    journal = RunJournal(path)
    journal.begin_run("campaign", "live", {"total_cells": 2})

    script = iter(
        [
            lambda: journal.record("cell-completed", cell="a#0", cells=1, elapsed=0.1),
            lambda: (
                journal.record("cell-completed", cell="a#1", cells=1, elapsed=0.1),
                journal.record("run-finished", status="completed", records=2),
            ),
        ]
    )

    def fake_sleep(_interval):
        next(script)()

    outputs = []
    status = watch_journal(
        path, interval=0.0, out=outputs.append, sleep=fake_sleep, max_updates=10
    )
    journal.close()
    assert status.finished_ts is not None
    assert status.status == "completed"
    assert status.done == 2
    # One render per poll: empty-run, one cell, finished.
    assert len(outputs) == 3
    assert "progress: 2/2 cells (100.0%)" in outputs[-1]


def test_watch_journal_tolerates_torn_tail_mid_poll(tmp_path):
    """A torn final line is deferred, then consumed once completed."""
    path = tmp_path / "live.jsonl"
    started = {"run": "r", "event": "run-started", "ts": 1.0, "config": {"total_cells": 1}}
    completed = {"run": "r", "event": "cell-completed", "ts": 2.0, "cell": "a", "cells": 1}
    finished = {"run": "r", "event": "run-finished", "ts": 3.0, "status": "completed"}
    line = json.dumps(completed, sort_keys=True)
    path.write_text(json.dumps(started, sort_keys=True) + "\n" + line[: len(line) // 2])

    def finish_writer(_interval):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[len(line) // 2 :] + "\n")
            handle.write(json.dumps(finished, sort_keys=True) + "\n")

    outputs = []
    status = watch_journal(
        path, interval=0.0, out=outputs.append, sleep=finish_writer, max_updates=10
    )
    assert status.completed == 1
    assert status.status == "completed"
    assert len(outputs) == 2
