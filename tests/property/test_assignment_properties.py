"""``fastest_free_assignment`` against the frozen strict-``<`` scan.

The assignment walks each job's machine preference order
(``machine_orders``) over free flags.  It must hand out exactly the shares
the ascending strict-``<`` scan in ``tests/reference/assignment.py`` hands
out, in the same insertion order, on a plain :class:`Instance` and on the
streaming :class:`InstanceView` (before and after a compaction).  The draws
favour the cases that separate the two: exact cost ties across machines
(the lowest index must win), ``inf`` entries (never assigned), jobs whose
runnable machines are all taken (skipped), and ranked lists shorter and
longer than the number of machines.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Job
from repro.heuristics.base import fastest_free_assignment
from repro.simulation.window import StreamWindow
from repro.workload import replay_stream
from tests.reference.assignment import strict_scan_assignment

#: A small pool of costs, so that exact ties across machines are common.
_COSTS = st.one_of(
    st.sampled_from([1.0, 2.0, 2.0, 3.0, math.inf, math.inf]),
    st.floats(min_value=0.5, max_value=4.0),
)


@st.composite
def _instances(draw) -> Instance:
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=9))
    columns = []
    for _ in range(n):
        column = draw(st.lists(_COSTS, min_size=m, max_size=m))
        # Every job needs one runnable machine; the others may be forbidden.
        runnable = draw(st.integers(min_value=0, max_value=m - 1))
        if math.isinf(column[runnable]):
            column[runnable] = draw(st.sampled_from([1.0, 2.0, 3.0]))
        columns.append(column)
    jobs = [Job(f"J{j}", float(j)) for j in range(n)]
    rows = [[column[i] for column in columns] for i in range(m)]
    return Instance.from_costs(jobs, rows)


def _rankings(num_jobs: int):
    """Distinct job indices in any order, from none up to all of them."""
    return st.permutations(range(num_jobs)).flatmap(
        lambda order: st.integers(min_value=0, max_value=num_jobs).map(
            lambda k: list(order[:k])
        )
    )


def _shares(decision):
    assert decision.all_exclusive
    # A list of items compares both the dict's content and its insertion order.
    return list(decision.shares.items())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_instance_assignment_matches_the_strict_scan(data):
    instance = data.draw(_instances())
    ranked = data.draw(_rankings(instance.num_jobs))
    expected = strict_scan_assignment(instance, ranked)
    assert _shares(fastest_free_assignment(instance, ranked)) == _shares(expected)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_view_assignment_matches_the_strict_scan(data):
    instance = data.draw(_instances())
    window = StreamWindow(instance.machines)
    window.admit_batch(list(replay_stream(instance).jobs()))
    dead = data.draw(
        st.lists(st.booleans(), min_size=instance.num_jobs, max_size=instance.num_jobs)
    )
    if not all(dead):
        for slot, is_dead in enumerate(dead):
            window.live[slot] = not is_dead
        window.compact()
    view = window.view
    ranked = data.draw(_rankings(view.num_jobs))
    expected = strict_scan_assignment(view.materialise(), ranked)
    assert _shares(fastest_free_assignment(view, ranked)) == _shares(expected)
