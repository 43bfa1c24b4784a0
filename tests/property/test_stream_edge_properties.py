"""Streaming edge cases: the event loop against the frozen rebuild loop.

Random finite workloads are replayed through ``replay_stream`` and driven
both by :class:`StreamingSimulator` and by
``tests.reference.stream_legacy.run_rebuild``; the two must agree on the
full :meth:`StreamResult.fingerprint` and on the queue trajectory, with
compaction as early as possible (``compact_min=1``) and at the default.
The same workload's ``simulate`` schedule must validate, which checks the
loop against the model itself rather than against a second loop.
The draws aim at the loop's edges:

* simultaneous arrivals — equal release dates, and dates within the
  admission threshold (``1e-12``) of each other, admitted as one batch;
* exact SRPT-key ties — equal sizes on machines with tied cycle times, so
  equal ``remaining × fastest cost`` keys and equal-cost machines meet the
  stable ranking and the lowest-index machine rule;
* sizes near ``core.tolerances.ABS_TOL`` — jobs that finish in one tiny
  window next to jobs a billion times larger.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Job
from repro.core.machine import Machine, Platform
from repro.core.tolerances import ABS_TOL
from repro.heuristics import make_scheduler
from repro.simulation import StreamingSimulator, simulate
from repro.simulation.stream import _COMPACT_MIN
from repro.workload import replay_stream
from tests.reference.stream_legacy import run_rebuild

#: Release dates with repeats and sub-threshold offsets (simultaneous arrivals).
_RELEASES = st.sampled_from([0.0, 0.0, 1e-13, 1.0, 1.0, 1.0 + 5e-13, 2.5, 4.0])
#: Few distinct sizes, so that equal sizes (SRPT-key ties) are common; the
#: smallest sit at the absolute tolerance.
_SIZES = st.sampled_from(
    [ABS_TOL, 2 * ABS_TOL, 10 * ABS_TOL, 1.0, 1.0, 2.0, 3.0, 5.0]
)
#: Few distinct cycle times, so that tied machines are common.
_CYCLE_TIMES = st.sampled_from([1.0, 1.0, 2.0, 0.5])
_BANKS = ("a", "b")


@st.composite
def _workloads(draw) -> Instance:
    m = draw(st.integers(min_value=1, max_value=4))
    machines = []
    for i in range(m):
        hosted = draw(st.sets(st.sampled_from(_BANKS)))
        # Machine 0 hosts every bank, so every job is runnable somewhere.
        machines.append(
            Machine(
                name=f"M{i}",
                cycle_time=draw(_CYCLE_TIMES),
                databanks=frozenset(_BANKS) if i == 0 else frozenset(hosted),
            )
        )
    n = draw(st.integers(min_value=1, max_value=14))
    jobs = []
    for j in range(n):
        size = draw(_SIZES)
        bank = draw(st.sampled_from((None,) + _BANKS))
        jobs.append(
            Job(
                name=f"J{j}",
                release_date=draw(_RELEASES),
                weight=1.0 / size,
                size=size,
                databanks=frozenset() if bank is None else frozenset({bank}),
            )
        )
    return Instance.from_platform(jobs, Platform(machines))


@settings(max_examples=150, deadline=None)
@given(
    instance=_workloads(),
    policy=st.sampled_from(["srpt", "greedy-weighted-flow", "mct", "fifo"]),
    compact_min=st.sampled_from([1, _COMPACT_MIN]),
)
def test_replayed_edge_workloads_match_the_rebuild_loop(instance, policy, compact_min):
    stream = replay_stream(instance)
    view = StreamingSimulator(compact_min=compact_min).run(stream, make_scheduler(policy))
    rebuild = run_rebuild(
        StreamingSimulator(compact_min=compact_min), stream, make_scheduler(policy)
    )
    assert view.completions == instance.num_jobs
    assert view.fingerprint() == rebuild.fingerprint()
    assert view.queue_times.tobytes() == rebuild.queue_times.tobytes()
    assert view.queue_lengths.tobytes() == rebuild.queue_lengths.tobytes()
    simulate(instance, make_scheduler(policy)).schedule.validate()
