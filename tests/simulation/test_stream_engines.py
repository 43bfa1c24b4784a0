"""Engine equivalence for the zero-copy streaming core (PR 7).

The streaming simulator runs the zero-copy view path over the pooled
kernel buffers; the frozen legacy rebuild-per-arrival loop
(``repro.simulation._stream_legacy.run_rebuild``) is the byte-identity
reference, called directly here.  These tests pin the core contract: **the
fast core is a performance change, never a semantics change** — every
registered policy, every compaction timing, every replayed trace and every
random spec must execute the exact same schedule on both.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics import available_schedulers, make_scheduler
from repro.simulation import StreamingSimulator
from repro.simulation._stream_legacy import run_rebuild
from repro.workload import (
    StreamSpec,
    open_stream,
    random_unrelated_instance,
    replay_stream,
)

# The LP-backed policies solve an offline model per replanning event; they
# get short streams so the full matrix stays tier-1 fast.
LP_BACKED = {"deadline-driven", "online-offline"}
FAST_POLICIES = [p for p in available_schedulers() if p not in LP_BACKED]


def _drive(engine, simulator, stream, scheduler, **run_kwargs):
    """Run ``engine`` ("view": the simulator, "rebuild": the reference)."""
    if engine == "rebuild":
        return run_rebuild(simulator, stream, scheduler, **run_kwargs)
    return simulator.run(stream, scheduler, **run_kwargs)


def _run(policy, engine, *, seed=11, rho=0.8, arrivals=200, **simulator_kwargs):
    spec = StreamSpec(
        label="engines", scenario="small-cluster", seed=seed
    ).with_utilisation(rho)
    return _drive(
        engine,
        StreamingSimulator(**simulator_kwargs),
        open_stream(spec),
        make_scheduler(policy),
        max_arrivals=arrivals,
    )


def _assert_identical(view, rebuild, context):
    assert view.fingerprint() == rebuild.fingerprint(), context
    assert view.queue_times.tobytes() == rebuild.queue_times.tobytes(), context
    assert view.queue_lengths.tobytes() == rebuild.queue_lengths.tobytes(), context


class TestEngineByteIdentity:
    @pytest.mark.parametrize("policy", FAST_POLICIES)
    @pytest.mark.parametrize(
        "compact_min", [1, 10**9], ids=["compact-early", "compact-never"]
    )
    def test_view_matches_rebuild_for_every_policy(self, policy, compact_min):
        view = _run(policy, "view", compact_min=compact_min)
        rebuild = _run(policy, "rebuild", compact_min=compact_min)
        _assert_identical(view, rebuild, f"{policy} @ compact_min={compact_min}")

    @pytest.mark.parametrize("policy", sorted(LP_BACKED))
    def test_lp_backed_policies_match_across_engines(self, policy):
        for compact_min in (1, 10**9):
            view = _run(policy, "view", arrivals=40, compact_min=compact_min)
            rebuild = _run(policy, "rebuild", arrivals=40, compact_min=compact_min)
            _assert_identical(view, rebuild, f"{policy} @ compact_min={compact_min}")

    @pytest.mark.parametrize("policy", ["srpt", "greedy-weighted-flow", "fifo"])
    def test_replayed_trace_matches_across_engines(self, policy):
        instance = random_unrelated_instance(25, 3, seed=9)
        runs = {
            engine: _drive(
                engine, StreamingSimulator(), replay_stream(instance), make_scheduler(policy)
            )
            for engine in ("view", "rebuild")
        }
        _assert_identical(runs["view"], runs["rebuild"], policy)

    def test_unknown_engine_is_rejected(self):
        # The reference loop is not selectable from the production API.
        with pytest.raises(TypeError):
            StreamingSimulator(engine="view")


class TestBatchedAdvancement:
    """The batched event loop must visit every decision point the legacy
    one-event-at-a-time loop visits — batching may only change *when* work
    is done, never *what* the policy sees."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rho=st.floats(min_value=0.3, max_value=1.1),
        arrivals=st.integers(min_value=10, max_value=120),
        policy=st.sampled_from(["srpt", "greedy-weighted-flow", "mct", "fifo"]),
    )
    def test_no_decision_point_is_ever_skipped(self, seed, rho, arrivals, policy):
        view = _run(policy, "view", seed=seed, rho=rho, arrivals=arrivals)
        rebuild = _run(policy, "rebuild", seed=seed, rho=rho, arrivals=arrivals)
        assert view.decisions == rebuild.decisions
        assert view.preemptions == rebuild.preemptions
        _assert_identical(view, rebuild, f"{policy} seed={seed} rho={rho}")


class TestTraceByteIdentity:
    """PR 8: traces join the engine contract.

    A trace is built from the finished :class:`StreamResult` (the frozen
    legacy engine carries no instrumentation), so trace byte-identity
    must hold wherever result byte-identity does: across repeated runs,
    and across the ``view``/``rebuild`` engines — on open streams and on
    replayed finite workloads, for every registered policy.
    """

    @pytest.mark.parametrize("policy", available_schedulers())
    def test_traces_identical_across_engines_and_repeats(self, policy):
        from repro.obs import trace_stream_result

        arrivals = 30 if policy in LP_BACKED else 150
        texts = {}
        for engine in ("view", "rebuild"):
            result = _run(policy, engine, arrivals=arrivals)
            texts[engine] = trace_stream_result(result).to_jsonl()
        assert texts["view"], policy  # non-trivial trace
        assert texts["view"] == texts["rebuild"], policy
        repeat = _run(policy, "view", arrivals=arrivals)
        assert trace_stream_result(repeat).to_jsonl() == texts["view"], policy

    @pytest.mark.parametrize("policy", available_schedulers())
    def test_replayed_stream_traces_identical_across_engines(self, policy):
        from repro.obs import trace_stream_result

        num_jobs = 10 if policy in LP_BACKED else 25
        instance = random_unrelated_instance(num_jobs, 3, seed=9)
        texts = {}
        for engine in ("view", "rebuild"):
            result = _drive(
                engine, StreamingSimulator(), replay_stream(instance), make_scheduler(policy)
            )
            texts[engine] = trace_stream_result(result).to_jsonl()
        assert texts["view"] == texts["rebuild"], policy

    def test_chrome_export_identical_across_engines(self):
        from repro.obs import trace_stream_result

        chromes = {
            engine: trace_stream_result(_run("srpt", engine)).to_chrome()
            for engine in ("view", "rebuild")
        }
        assert chromes["view"] == chromes["rebuild"]

