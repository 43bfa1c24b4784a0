"""Run journal: append-only JSONL with crash tolerance and multi-run files,
and the fold behind ``repro-sched obs report JOURNAL``."""

from __future__ import annotations

import json

import pytest

from repro.obs.journal import (
    JOURNAL_VERSION,
    RunJournal,
    analyse_journal,
    new_run_id,
    read_journal,
    render_fleet_status,
)


def test_round_trip_and_line_shape(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunJournal(path) as journal:
        run_id = journal.begin_run("campaign", "demo", {"total_cells": 3})
        journal.record("cell-dispatched", cell="w#0", policies=["srpt"])
        journal.record("cell-completed", cell="w#0", cells=1, elapsed=0.5)
        journal.record("run-finished", status="completed")

    view = read_journal(path)
    assert view.truncated == 0
    assert len(view) == 4
    assert view.runs() == [run_id]
    started = view.events[0]
    assert started["event"] == "run-started"
    assert started["v"] == JOURNAL_VERSION
    assert started["config"] == {"total_cells": 3}
    assert [event["seq"] for event in view] == [1, 2, 3, 4]
    assert all(isinstance(event["ts"], float) for event in view)
    # Canonical serialisation: sorted keys, one object per line.
    first_line = path.read_text().splitlines()[0]
    assert first_line == json.dumps(json.loads(first_line), sort_keys=True)


def test_truncated_final_line_is_skipped(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunJournal(path) as journal:
        journal.begin_run("campaign", "demo")
        journal.record("cell-completed", cell="w#0")
    # Simulate a writer killed mid-append: a torn, newline-less tail.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "run": "demo", "seq": 3, "eve')

    view = read_journal(path)
    assert view.truncated == 1
    assert [event["event"] for event in view] == ["run-started", "cell-completed"]


def test_reopen_seals_torn_tail_before_appending(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunJournal(path) as journal:
        first = journal.begin_run("campaign", "demo")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"torn": ')

    # The reopening writer must not concatenate its first event onto the
    # torn line — _repair_tail seals it with a newline first.
    with RunJournal(path) as journal:
        second = journal.begin_run("campaign", "demo")
        journal.record("run-finished", status="completed")

    view = read_journal(path)
    assert view.truncated == 1
    assert view.runs() == [first, second]
    assert [event["event"] for event in view] == [
        "run-started",
        "run-started",
        "run-finished",
    ]


def test_resumed_run_appends_under_fresh_run_id(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunJournal(path) as journal:
        cold = journal.begin_run("stream-sweep", "sweep")
        journal.record("cell-completed", cell="a", cells=1)
        journal.record("run-finished", status="completed")
    with RunJournal(path) as journal:
        warm = journal.begin_run("stream-sweep", "sweep")
        journal.record("cell-skipped", cell="a", cells=1)
        journal.record("run-finished", status="completed")

    assert cold != warm
    view = read_journal(path)
    assert view.truncated == 0
    assert view.runs() == [cold, warm]
    warm_events = [event for event in view if event["run"] == warm]
    assert [event["event"] for event in warm_events] == [
        "run-started",
        "cell-skipped",
        "run-finished",
    ]
    # seq restarts per journal instance: each run section is self-ordered.
    assert [event["seq"] for event in warm_events] == [1, 2, 3]


def test_record_after_close_raises(tmp_path):
    journal = RunJournal(tmp_path / "run.jsonl")
    journal.begin_run("campaign", "demo")
    journal.close()
    with pytest.raises(ValueError):
        journal.record("cell-completed")


def test_new_run_ids_are_unique():
    ids = {new_run_id("demo") for _ in range(10)}
    assert len(ids) == 10
    assert all(run_id.startswith("demo-") for run_id in ids)


def _events(run="r1", base_ts=1000.0):
    """A small synthetic campaign journal: 4 cells, one still pending.

    ``config.workers`` is the pool size older readers used to age queued
    cells; the writer still records it and the fold ignores it.
    """
    return [
        {
            "run": run,
            "event": "run-started",
            "ts": base_ts,
            "kind": "campaign",
            "label": "demo",
            "config": {"total_cells": 4, "workers": 2},
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
    status = analyse_journal(_events())
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
    # The median needs three completed-cell durations.
    assert status.median_cell_seconds is None


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


def test_median_cell_time():
    events = _events()
    events.append(
        {"run": "r1", "event": "cell-completed", "ts": 1006.0, "cell": "a#1b", "cells": 1, "elapsed": 3.0}
    )
    status = analyse_journal(events)
    assert status.median_cell_seconds == 3.0
    assert "median cell time: 3000.0ms" in render_fleet_status(status)


def test_multi_run_journal_defaults_to_last_run():
    events = _events(run="old")
    events.append({"run": "old", "event": "run-finished", "ts": 1010.0, "status": "completed"})
    events += [
        {"run": "new", "event": "run-started", "ts": 2000.0, "kind": "campaign", "label": "demo", "config": {"total_cells": 4}},
        {"run": "new", "event": "cell-skipped", "ts": 2001.0, "cell": "a#0", "cells": 4},
    ]
    status = analyse_journal(events)
    assert status.run_id == "new"
    assert status.skipped == 4
    assert status.completed == 0
    old = analyse_journal(events, run="old")
    assert old.run_id == "old"
    assert old.completed == 2


def test_render_fleet_status_lines():
    text = render_fleet_status(analyse_journal(_events()))
    assert "run r1 [campaign] — running" in text
    assert "progress: 3/4 cells (75.0%)" in text
    assert "2 completed, 1 resumed" in text
    assert "srpt" in text and "mct" in text
    assert "workers: p7:2" in text
    assert "batch commits: 1" in text


def test_reopening_a_clean_journal_adds_no_blank_line(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunJournal(path) as journal:
        journal.begin_run("campaign", "demo")
    before = path.read_bytes()
    with RunJournal(path) as journal:
        journal.begin_run("campaign", "demo")

    after = path.read_bytes()
    assert after.startswith(before)
    assert b"\n\n" not in after
    assert read_journal(path).truncated == 0


def test_writer_creates_missing_parent_directories(tmp_path):
    path = tmp_path / "nested" / "deeper" / "run.jsonl"
    with RunJournal(path) as journal:
        journal.begin_run("campaign", "demo")
    assert len(read_journal(path)) == 1


def test_begin_run_without_config_omits_the_field(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunJournal(path) as journal:
        journal.begin_run("stream-sweep", "sweep")
    (started,) = read_journal(path).events
    assert started["kind"] == "stream-sweep"
    assert started["label"] == "sweep"
    assert "config" not in started


def test_read_journal_skips_blank_lines_and_counts_non_objects(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text(
        '{"run": "r", "event": "run-started"}\n'
        "\n"
        "   \n"
        "[1, 2]\n"
        '"text"\n'
        '{"run": "r", "event": "run-finished"}\n'
    )
    view = read_journal(path)
    assert view.truncated == 2
    assert [event["event"] for event in view] == ["run-started", "run-finished"]


def test_runs_ignore_events_without_a_string_run_id():
    from repro.obs.journal import JournalView

    view = JournalView(
        [{"run": "b"}, {"event": "x"}, {"run": 7}, {"run": "a"}, {"run": "b"}],
        truncated=0,
    )
    assert view.runs() == ["b", "a"]


def test_empty_journal_folds_to_an_unknown_run():
    status = analyse_journal([])
    assert status.run_id == ""
    assert status.status == "unknown"
    assert status.progress is None
    assert status.throughput_cells_per_sec is None
    assert render_fleet_status(status).splitlines() == [
        "run ? — unknown",
        "  progress: 0 completed, 0 resumed",
    ]


def test_selecting_an_absent_run_folds_nothing():
    status = analyse_journal(_events(run="r1"), run="gone")
    assert status.run_id == "gone"
    assert status.status == "unknown"
    assert (status.dispatched, status.completed, status.skipped) == (0, 0, 0)
    assert status.per_policy == {}


def test_run_finished_sets_status_and_records():
    events = _events()
    events.append(
        {"run": "r1", "event": "run-finished", "ts": 1009.0, "status": "failed", "records": 2}
    )
    status = analyse_journal(events)
    assert status.status == "failed"
    assert status.finished_ts == 1009.0
    assert status.records == 2
    text = render_fleet_status(status)
    assert "run r1 [campaign] — failed" in text
    assert text.endswith("  records: 2")

    events[-1] = {"run": "r1", "event": "run-finished", "ts": 1009.0}
    status = analyse_journal(events)
    assert status.status == "finished"
    assert status.records is None
    assert "records:" not in render_fleet_status(status)


def test_malformed_fields_fall_back_to_defaults():
    events = [
        {"run": "r", "event": "run-started", "ts": "late", "config": {"total_cells": "4"}},
        {"run": "r", "event": "cell-dispatched", "policies": "srpt"},
        {"run": "r", "event": "cell-completed", "ts": None, "cells": 0, "elapsed": "1s"},
        {"run": "r", "event": "cell-skipped", "cells": "3"},
        {"run": "r", "event": "worker-heartbeat"},
        {"run": "r", "event": "worker-heartbeat", "worker": "p1", "items": "many"},
        {"run": "r", "event": "run-finished", "records": 2.0},
    ]
    status = analyse_journal(events)
    assert status.started_ts is None
    assert status.total_cells is None
    assert status.dispatched == 1
    assert status.per_policy == {}
    # Non-positive or non-integer ``cells`` counts as one cell.
    assert (status.completed, status.skipped) == (1, 1)
    assert status.cell_seconds == []
    assert status.throughput_cells_per_sec is None
    assert status.workers == {"?": {"items": 0.0}, "p1": {"items": 0.0}}
    assert status.records is None
    assert "workers: ?:0 p1:0" in render_fleet_status(status)


def test_throughput_needs_a_positive_span():
    events = [
        {"run": "r", "event": "run-started", "ts": 5.0},
        {"run": "r", "event": "cell-completed", "ts": 5.0, "cells": 1},
    ]
    status = analyse_journal(events)
    assert status.completed == 1
    assert status.throughput_cells_per_sec is None
    assert "throughput" not in render_fleet_status(status)


def test_progress_is_capped_at_one():
    events = [
        {"run": "r", "event": "run-started", "ts": 0.0, "config": {"total_cells": 2}},
        {"run": "r", "event": "cell-completed", "ts": 1.0, "cells": 2},
        {"run": "r", "event": "cell-skipped", "ts": 1.0, "cells": 1},
    ]
    status = analyse_journal(events)
    assert status.done == 3
    assert status.progress == 1.0
    assert "progress: 3/2 cells (100.0%)" in render_fleet_status(status)


def test_render_aligns_policy_names_and_omits_empty_sections():
    events = [
        {"run": "r", "event": "run-started", "ts": 0.0, "kind": "campaign"},
        {"run": "r", "event": "cell-completed", "ts": 2.0, "cells": 1, "policies": ["online-offline"]},
        {"run": "r", "event": "cell-skipped", "ts": 2.0, "cells": 1, "policies": ["mct"]},
    ]
    lines = render_fleet_status(analyse_journal(events)).splitlines()
    assert lines == [
        "run r [campaign] — running",
        "  progress: 1 completed, 1 resumed",
        "  throughput: 0.50 cells/s",
        "  per-policy:",
        "    mct             completed=0 dispatched=0 resumed=1",
        "    online-offline  completed=1 dispatched=0 resumed=0",
    ]
