"""End-to-end tests for the observability CLI surface.

Covers the PR 8 flags on ``stream``/``campaign`` (``--metrics``,
``--trace``, ``--profile``) and the ``obs report`` renderer over every
artefact shape it auto-detects: JSON-lines traces, Chrome trace-event
exports, metrics snapshots, stream sweep outputs and campaign outputs.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

_STREAM = [
    "stream",
    "--scenario", "small-cluster",
    "--policies", "srpt",
    "--rho", "0.5",
    "--arrivals", "200",
    "--seed", "3",
]

_CAMPAIGN = ["campaign", "--scenarios", "unrelated-stress", "--seed", "7"]


class TestStreamFlags:
    def test_metrics_flag_prints_and_stores_a_snapshot(self, tmp_path, capsys):
        output = tmp_path / "sweep.json"
        assert main(_STREAM + ["--metrics", "--output", str(output)]) == 0
        text = capsys.readouterr().out
        assert "counters:" in text and "sweep.cells" in text
        payload = json.loads(output.read_text())
        # The ambient snapshot carries the sweep-level counters; per-cell
        # stream counters are scoped into each cell's own snapshot, riding
        # next to (not inside) the report payload.
        assert payload["metrics"]["counters"]["sweep.cells"] == 1.0
        cell = payload["cells"][0]["metrics"]["counters"]
        assert cell["stream.arrivals"] == 200.0
        assert cell["stream.runs"] == 1.0

    def test_output_payload_is_unchanged_without_metrics(self, tmp_path, capsys):
        output = tmp_path / "sweep.json"
        assert main(_STREAM + ["--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        assert "metrics" not in payload
        assert "metrics" not in payload["cells"][0]

    def test_trace_flag_writes_jsonl_and_chrome(self, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        assert main(_STREAM + ["--trace", str(jsonl)]) == 0
        capsys.readouterr()
        events = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert any(e["name"] == "stream" and e["ph"] == "X" for e in events)

        chrome = tmp_path / "trace.json"
        assert main(_STREAM + ["--trace", str(chrome)]) == 0
        payload = json.loads(chrome.read_text())
        assert any(e["ph"] == "M" for e in payload["traceEvents"])

    def test_traces_are_byte_identical_across_invocations(self, tmp_path, capsys):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        assert main(_STREAM + ["--trace", str(first)]) == 0
        assert main(_STREAM + ["--trace", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_trace_forces_the_in_process_path(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(_STREAM + ["--trace", str(trace), "--max-workers", "2"]) == 0
        captured = capsys.readouterr()
        assert "--max-workers" in captured.err  # the note about ignoring it
        assert trace.exists()

    def test_profile_flag_prints_phase_table(self, capsys):
        assert main(_STREAM + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "sweep" in out


class TestCampaignFlags:
    def test_metrics_and_profile(self, tmp_path, capsys):
        output = tmp_path / "campaign.json"
        assert main(_CAMPAIGN + ["--metrics", "--profile", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "campaign" in out  # profiled phase
        payload = json.loads(output.read_text())
        counters = payload["metrics"]["counters"]
        assert counters["campaign.items"] >= 1.0
        assert counters["kernel.runs"] >= 1.0

    def test_trace_writes_a_span_per_record(self, tmp_path, capsys):
        trace = tmp_path / "campaign.jsonl"
        output = tmp_path / "campaign.json"
        assert main(_CAMPAIGN + ["--trace", str(trace), "--output", str(output)]) == 0
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        payload = json.loads(output.read_text())
        assert len(events) == len(payload["records"])
        assert all(e["ph"] == "X" for e in events)


class TestObsReport:
    @pytest.fixture(scope="class")
    def sweep_output(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "sweep.json"
        assert main(_STREAM + ["--metrics", "--output", str(path)]) == 0
        return path

    def test_jsonl_trace_summary(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(_STREAM + ["--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "JSON-lines" in out
        assert "track" in out and "spans" in out

    def test_chrome_trace_summary_resolves_track_names(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(_STREAM + ["--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Chrome trace-event" in out
        assert "srpt" in out  # thread_name metadata mapped back to the track

    def test_metrics_snapshot_renders_as_a_table(self, tmp_path, capsys, sweep_output):
        snapshot = json.loads(sweep_output.read_text())["metrics"]
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(snapshot))
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out and "sweep.cells" in out

    def test_sweep_report_shows_mser_evidence(self, capsys, sweep_output):
        assert main(["obs", "report", str(sweep_output)]) == 0
        out = capsys.readouterr().out
        assert "MSER-5" in out
        assert "srpt" in out
        assert "yes" in out  # the cell carries a metrics snapshot

    def test_sweep_report_plots_trajectories(self, capsys, sweep_output):
        assert main(["obs", "report", str(sweep_output), "--trajectories"]) == 0
        out = capsys.readouterr().out
        assert "batch means" in out
        assert "batch" in out  # the x-label of the ascii series

    def test_campaign_report(self, tmp_path, capsys):
        output = tmp_path / "campaign.json"
        assert main(_CAMPAIGN + ["--metrics", "--output", str(output)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(output)]) == 0
        out = capsys.readouterr().out
        assert "Campaign report" in out
        assert "counters:" in out

    def test_unrecognised_artefact_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps({"something": "else"}))
        assert main(["obs", "report", str(path)]) == 1
        assert "unrecognised" in capsys.readouterr().err

    def test_empty_file_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert main(["obs", "report", str(path)]) == 1
        assert "empty" in capsys.readouterr().err

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "missing.json")]) == 1
        assert "error" in capsys.readouterr().err


class TestFlightRecorderCli:
    """The flight-recorder surface: --journal and ``obs report JOURNAL``."""

    @pytest.fixture(scope="class")
    def journalled_campaign(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("journal")
        journal = base / "camp.jsonl"
        output = base / "camp.json"
        assert main(
            _CAMPAIGN
            + ["--journal", str(journal), "--metrics", "--output", str(output)]
        ) == 0
        return journal, output

    def test_campaign_journal_flag_writes_a_parseable_journal(
        self, journalled_campaign
    ):
        from repro.obs import read_journal

        journal, _ = journalled_campaign
        view = read_journal(journal)
        assert view.truncated == 0
        names = [event["event"] for event in view]
        assert names[0] == "run-started"
        assert names[-1] == "run-finished"
        assert "cell-completed" in names

    def test_stream_journal_flag_announces_the_file(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        assert main(_STREAM + ["--journal", str(journal)]) == 0
        assert f"journal appended to {journal}" in capsys.readouterr().out
        assert journal.exists()

    def test_obs_report_renders_journal_timeline_and_phases(
        self, journalled_campaign, capsys
    ):
        journal, _ = journalled_campaign
        assert main(["obs", "report", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "journal" in out and "run(s)" in out
        assert "run-started x1" in out and "run-finished x1" in out
        assert "planning" in out and "compute" in out
        assert "progress:" in out  # the fleet-status block per run

    def test_obs_report_tolerates_torn_journal_tail(
        self, journalled_campaign, tmp_path, capsys
    ):
        journal, _ = journalled_campaign
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(journal.read_bytes() + b'{"v": 1, "eve')
        assert main(["obs", "report", str(torn)]) == 0
        assert "run-finished x1" in capsys.readouterr().out

    def test_obs_report_of_an_unfinished_journal_reads_no_clock(
        self, tmp_path, capsys, monkeypatch
    ):
        """A killed run's report is the same whenever it is rendered."""
        import time

        events = [
            {"run": "r", "event": "run-started", "ts": 1000.0, "kind": "campaign",
             "config": {"total_cells": 4, "workers": 2}},
        ]
        events += [
            {"run": "r", "event": "cell-dispatched", "ts": 1001.0, "cell": f"c{i}",
             "policies": ["srpt"]}
            for i in range(4)
        ]
        events += [
            {"run": "r", "event": "cell-completed", "ts": 1002.0 + i, "cell": f"c{i}",
             "cells": 1, "elapsed": 1.0, "policies": ["srpt"]}
            for i in range(3)
        ]
        path = tmp_path / "killed.jsonl"
        path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in events))

        outputs = []
        for now in (1010.0, 4610.0):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            assert main(["obs", "report", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "progress: 3/4 cells (75.0%)" in outputs[0]

    def test_obs_report_renders_every_run_of_a_resumed_journal(
        self, tmp_path, capsys
    ):
        """One section per run: phases, heartbeat gaps and its own status."""
        events = [
            {"run": "cold", "event": "run-started", "ts": 10.0, "kind": "campaign",
             "config": {"total_cells": 2}},
            {"run": "cold", "event": "cell-dispatched", "ts": 11.0, "cell": "a"},
            {"run": "cold", "event": "cell-dispatched", "ts": 11.0, "cell": "b"},
            {"run": "cold", "event": "worker-heartbeat", "ts": 12.0, "worker": "p1", "items": 1},
            {"run": "cold", "event": "cell-completed", "ts": 12.0, "cell": "a", "cells": 1},
            {"run": "cold", "event": "worker-heartbeat", "ts": 14.5, "worker": "p1", "items": 2},
            {"run": "cold", "event": "cell-completed", "ts": 14.5, "cell": "b", "cells": 1},
            {"run": "cold", "event": "run-finished", "ts": 15.0, "status": "completed",
             "records": 2},
            {"run": "warm", "event": "run-started", "ts": 20.0, "kind": "campaign",
             "config": {"total_cells": 2}},
            {"run": "warm", "event": "cell-skipped", "ts": 20.5, "cell": "a", "cells": 2},
            {"run": "warm", "event": "run-finished", "ts": 21.0, "status": "completed",
             "records": 2},
        ]
        path = tmp_path / "resumed.jsonl"
        path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in events))

        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"journal {path}: 11 event(s), 2 run(s)")
        cold, warm = out.split("\nrun warm: ")
        assert "over 5.00s" in cold
        assert "planning" in cold and "compute" in cold and "finalise" in cold
        assert "Heartbeat gaps" in cold and "2.500" in cold
        assert "run cold [campaign] — completed" in cold
        assert "progress: 2/2 cells (100.0%) — 2 completed, 0 resumed" in cold
        # The resume pass dispatched nothing: no phase or heartbeat tables.
        assert "planning" not in warm and "Heartbeat gaps" not in warm
        assert "run warm [campaign] — completed" in warm
        assert "progress: 2/2 cells (100.0%) — 0 completed, 2 resumed" in warm
