"""Tests for the deterministic tracer (repro.obs.trace)."""

from __future__ import annotations

import json

from repro.analysis import run_scenario_campaign
from repro.heuristics import make_scheduler
from repro.obs import Tracer, TraceEvent, trace_campaign_records, trace_stream_result
from repro.simulation import StreamingSimulator
from repro.workload import StreamSpec, open_stream


def _stream_result(arrivals=200, seed=4):
    spec = StreamSpec(label="t", scenario="small-cluster", seed=seed).with_utilisation(0.6)
    return StreamingSimulator().run(
        open_stream(spec), make_scheduler("srpt"), max_arrivals=arrivals
    )


class TestTraceEvent:
    def test_as_dict_includes_duration_only_for_spans(self):
        span = TraceEvent("s", "X", 1.0, 2.0, track="a")
        instant = TraceEvent("i", "I", 1.0, track="a")
        assert span.as_dict()["duration"] == 2.0
        assert "duration" not in instant.as_dict()

    def test_args_are_omitted_when_empty(self):
        assert "args" not in TraceEvent("e", "I", 0.0).as_dict()
        event = TraceEvent("e", "I", 0.0, args={"k": 1})
        assert event.as_dict()["args"] == {"k": 1}


class TestTracer:
    def test_event_builders_cover_the_phases(self):
        tracer = Tracer()
        tracer.annotate_wall_clock("arrive", 1.0, track="q")
        tracer.complete("run", 1.0, 4.0, track="q")
        tracer.counter("depth", 2.0, 7.0, track="q")
        assert len(tracer) == 3
        assert [e.phase for e in tracer.events] == ["I", "X", "C"]
        assert tracer.events[2].args == {"value": 7.0}

    def test_jsonl_is_key_sorted_compact_with_trailing_newline(self):
        tracer = Tracer()
        tracer.complete("b", 1.0, 0.5, zeta=1, alpha=2)
        text = tracer.to_jsonl()
        assert text.endswith("\n")
        line = text.splitlines()[0]
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        assert line.index('"alpha"') < line.index('"zeta"')

    def test_empty_tracer_exports_cleanly(self):
        tracer = Tracer()
        assert tracer.to_jsonl() == ""
        payload = json.loads(tracer.to_chrome())
        assert payload["traceEvents"] == []

    def test_chrome_assigns_tids_in_first_seen_order(self):
        tracer = Tracer()
        tracer.counter("x", 0.5, 1.0, track="beta")
        tracer.complete("y", 0.0, 1.5, track="alpha")
        tracer.counter("z", 1.0, 2.0, track="beta")
        payload = json.loads(tracer.to_chrome())
        events = payload["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert [(m["tid"], m["args"]["name"]) for m in metadata] == [
            (1, "beta"), (2, "alpha"),
        ]
        spans = [e for e in events if e["ph"] == "X"]
        # Simulated seconds become microsecond ts/dur fields.
        assert spans[0]["ts"] == 0.0 and spans[0]["dur"] == 1.5e6

    def test_wall_clock_annotation_is_the_only_nondeterminism(self):
        tracer = Tracer()
        tracer.complete("deterministic", 1.0, 0.5)
        plain = tracer.to_jsonl()
        tracer.annotate_wall_clock("mark", 2.0)
        annotated = tracer.to_jsonl()
        assert annotated.startswith(plain)
        assert '"wall"' in annotated and '"wall"' not in plain


class TestTraceStreamResult:
    def test_trace_derives_from_the_result(self):
        result = _stream_result()
        tracer = trace_stream_result(result)
        run_spans = [e for e in tracer.events if e.name == "stream"]
        assert len(run_spans) == 1
        span = run_spans[0]
        assert span.args["completions"] == result.completions
        assert span.args["policy"] == "srpt"
        job_spans = [e for e in tracer.events if e.name.startswith("job-")]
        assert len(job_spans) == len(result.completed_jobs)
        counters = [e for e in tracer.events if e.phase == "C"]
        assert len(counters) == len(result.queue_lengths)

    def test_repeated_runs_trace_byte_identically(self):
        first = trace_stream_result(_stream_result()).to_jsonl()
        second = trace_stream_result(_stream_result()).to_jsonl()
        assert first == second and first

    def test_max_job_spans_caps_deterministically(self):
        result = _stream_result()
        capped = trace_stream_result(result, max_job_spans=10)
        jobs = [e for e in capped.events if e.name.startswith("job-")]
        assert len(jobs) == 10
        again = trace_stream_result(result, max_job_spans=10)
        assert capped.to_jsonl() == again.to_jsonl()

    def test_track_override_prefixes_every_lane(self):
        tracer = trace_stream_result(_stream_result(arrivals=50), track="custom")
        assert all(e.track.startswith("custom") for e in tracer.events)

    def test_appends_into_a_shared_tracer(self):
        shared = Tracer()
        out = trace_stream_result(_stream_result(arrivals=50), shared)
        assert out is shared and len(shared) > 0


class TestTraceCampaignRecords:
    def test_records_become_spans_on_workload_tracks(self):
        campaign = run_scenario_campaign(
            ("unrelated-stress",), ("srpt", "mct"), base_seed=5
        )
        tracer = trace_campaign_records(campaign.records)
        assert len(tracer) == len(campaign.records)
        for event, record in zip(tracer.events, campaign.records):
            assert event.phase == "X"
            assert event.name == record.policy
            assert event.track == record.workload
            assert event.duration == record.makespan
            assert event.args["max_stretch"] == record.max_stretch

    def test_campaign_traces_are_deterministic(self):
        def build():
            campaign = run_scenario_campaign(("unrelated-stress",), ("srpt",), base_seed=5)
            return trace_campaign_records(campaign.records).to_jsonl()

        assert build() == build() != ""
