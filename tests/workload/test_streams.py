"""Tests for the open-ended workload streams (repro.workload.streams)."""

import itertools
import pickle

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.workload import StreamSpec, make_scenario, open_stream, replay_stream
from repro.workload.streams import WorkloadStream, spawn_stream_seeds


def _take(stream, count):
    return list(itertools.islice(stream.jobs(), count))


class TestStreamSpec:
    def test_specs_are_cheap_and_picklable(self):
        spec = StreamSpec(label="s", scenario="hotspot", seed=3, rate=2.0)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.content_key() == spec.content_key()

    def test_content_key_ignores_label_and_depends_on_parameters(self):
        base = StreamSpec(label="a", scenario="small-cluster", seed=1)
        relabelled = StreamSpec(label="b", scenario="small-cluster", seed=1)
        assert base.content_key() == relabelled.content_key()
        for changed in (
            base.with_rate(base.rate * 2),
            StreamSpec(label="a", scenario="small-cluster", seed=2),
            StreamSpec(label="a", scenario="hotspot", seed=1),
            StreamSpec(label="a", scenario="small-cluster", seed=1, sizes="pareto"),
            StreamSpec(label="a", scenario="small-cluster", seed=1, arrivals="mmpp"),
        ):
            assert changed.content_key() != base.content_key()

    def test_digest_is_hex_sha256_of_the_content_key(self):
        spec = StreamSpec(label="s", scenario="small-cluster", seed=0)
        assert len(spec.digest()) == 64
        int(spec.digest(), 16)  # hex

    def test_rejects_malformed_parameters(self):
        with pytest.raises(WorkloadError):
            StreamSpec(label="s", arrivals="weibull")
        with pytest.raises(WorkloadError):
            StreamSpec(label="s", sizes="lognormal")
        with pytest.raises(WorkloadError):
            StreamSpec(label="s", rate=0.0)
        with pytest.raises(WorkloadError):
            StreamSpec(label="s", size_range=(5.0, 1.0))
        with pytest.raises(WorkloadError):
            StreamSpec(label="s", burst_fraction=1.5)

    def test_utilisation_round_trips_through_the_rate(self):
        # rho = arrival rate * mean size / sum_i 1 / c_i, both as configured
        # and as realised by the stream's arrivals.
        spec = StreamSpec(label="s", scenario="small-cluster", seed=4)
        capacity = sum(1.0 / machine.cycle_time for machine in spec.platform_instance().machines)
        for rho in (0.25, 0.5, 1.0, 1.5):
            loaded = spec.with_utilisation(rho)
            assert loaded.rate * loaded.mean_size() / capacity == pytest.approx(rho)
            events = _take(open_stream(loaded), 4000)
            horizon = events[-1].job.release_date
            assert len(events) / horizon == pytest.approx(loaded.rate, rel=0.05)
            offered = sum(event.job.size for event in events) / horizon / capacity
            assert offered == pytest.approx(rho, rel=0.05)

    def test_mean_size_matches_empirical_mean(self):
        for sizes in ("uniform", "pareto"):
            spec = StreamSpec(label="s", seed=9, sizes=sizes)
            drawn = [event.job.size for event in _take(open_stream(spec), 20000)]
            assert np.mean(drawn) == pytest.approx(spec.mean_size(), rel=0.05)

    def test_trace_specs_have_no_offered_load(self):
        spec = StreamSpec(label="s", arrivals="trace")
        with pytest.raises(WorkloadError):
            spec.with_utilisation(0.5)


    def test_rejects_malformed_shape_parameters(self):
        with pytest.raises(WorkloadError, match="pareto_shape"):
            StreamSpec(label="s", pareto_shape=0.0)
        with pytest.raises(WorkloadError, match="burst_factor"):
            StreamSpec(label="s", burst_factor=0.5)
        with pytest.raises(WorkloadError, match="mean_cycle_time"):
            StreamSpec(label="s", mean_cycle_time=0.0)

    def test_utilisation_must_be_positive(self):
        with pytest.raises(WorkloadError, match="utilisation must be positive"):
            StreamSpec(label="s", scenario="small-cluster").with_utilisation(0.0)

    def test_pareto_mean_with_unit_tail_index(self):
        # alpha == 1 takes the logarithmic closed form of the bounded Pareto mean.
        spec = StreamSpec(label="s", seed=9, sizes="pareto", pareto_shape=1.0)
        low, high = spec.size_range
        assert spec.mean_size() == pytest.approx(low * np.log(high / low) / (1 - low / high))
        drawn = [event.job.size for event in _take(open_stream(spec), 20000)]
        assert np.mean(drawn) == pytest.approx(spec.mean_size(), rel=0.05)

    @pytest.mark.parametrize("sizes", ["uniform", "pareto"])
    def test_a_degenerate_size_range_draws_one_size(self, sizes):
        spec = StreamSpec(label="s", seed=2, sizes=sizes, size_range=(3.0, 3.0))
        assert spec.mean_size() == 3.0
        events = _take(open_stream(spec), 20)
        assert {event.job.size for event in events} == {3.0}
        assert {event.job.weight for event in events} == {1.0 / 3.0}

    def test_spawning_needs_at_least_one_seed(self):
        with pytest.raises(WorkloadError, match="count >= 1"):
            spawn_stream_seeds(1, "s", 0)


class TestWorkloadStream:
    def test_a_stream_needs_a_machine(self):
        with pytest.raises(WorkloadError, match="at least one machine"):
            WorkloadStream((), lambda machines: iter(()))

    def test_capacity_is_the_aggregate_fluid_rate(self):
        stream = open_stream(StreamSpec(label="s", scenario="small-cluster", seed=3))
        assert stream.num_machines == len(stream.machines)
        assert stream.capacity() == pytest.approx(
            sum(1.0 / machine.cycle_time for machine in stream.machines)
        )


class TestDeterminism:
    def test_equal_specs_produce_identical_streams(self):
        spec = StreamSpec(label="a", scenario="hotspot", seed=7, arrivals="mmpp")
        twin = StreamSpec(label="b", scenario="hotspot", seed=7, arrivals="mmpp")
        for ours, theirs in zip(_take(open_stream(spec), 200), _take(open_stream(twin), 200)):
            assert ours.job == theirs.job
            assert np.array_equal(ours.costs, theirs.costs)

    def test_restarting_the_iterator_replays_the_same_arrivals(self):
        stream = open_stream(StreamSpec(label="s", seed=5))
        first = _take(stream, 50)
        second = _take(stream, 50)
        assert [event.job for event in first] == [event.job for event in second]

    def test_chunked_consumption_is_prefix_stable(self):
        # Consuming 10-then-40 must equal consuming 50 in one go: the seeds
        # are spawned per stream, never per chunk.
        stream = open_stream(StreamSpec(label="s", seed=6))
        chunked = []
        iterator = stream.jobs()
        chunked.extend(itertools.islice(iterator, 10))
        chunked.extend(itertools.islice(iterator, 40))
        assert [e.job for e in chunked] == [e.job for e in _take(stream, 50)]

    def test_spawned_seed_streams_are_independent_of_count(self):
        # The k-th child depends only on (base seed, name, k).
        many = spawn_stream_seeds(11, "poisson-demo", 4)
        few = spawn_stream_seeds(11, "poisson-demo", 2)
        for a, b in zip(few, many):
            assert np.random.default_rng(a).random() == np.random.default_rng(b).random()

    def test_different_components_draw_from_independent_streams(self):
        # Changing only the scenario changes every component's child seeds.
        a = spawn_stream_seeds(11, "alpha", 3)
        b = spawn_stream_seeds(11, "beta", 3)
        assert all(
            np.random.default_rng(x).random() != np.random.default_rng(y).random()
            for x, y in zip(a, b)
        )


class TestGeneratedStreams:
    def test_release_dates_are_strictly_increasing(self):
        events = _take(open_stream(StreamSpec(label="s", seed=1)), 300)
        releases = [event.job.release_date for event in events]
        assert all(earlier < later for earlier, later in zip(releases, releases[1:]))

    def test_poisson_rate_is_respected(self):
        spec = StreamSpec(label="s", seed=2, rate=3.0)
        events = _take(open_stream(spec), 6000)
        horizon = events[-1].job.release_date
        assert len(events) / horizon == pytest.approx(3.0, rel=0.1)

    def test_mmpp_keeps_the_mean_rate_but_adds_burstiness(self):
        poisson = StreamSpec(label="s", seed=3, rate=2.0)
        bursty = StreamSpec(label="s", seed=3, rate=2.0, arrivals="mmpp", burst_factor=12.0)
        p_events = _take(open_stream(poisson), 8000)
        b_events = _take(open_stream(bursty), 8000)
        p_rate = len(p_events) / p_events[-1].job.release_date
        b_rate = len(b_events) / b_events[-1].job.release_date
        assert b_rate == pytest.approx(p_rate, rel=0.15)
        # Burstiness: the squared coefficient of variation of inter-arrival
        # gaps exceeds the Poisson value of 1.
        gaps = np.diff([event.job.release_date for event in b_events])
        assert np.var(gaps) / np.mean(gaps) ** 2 > 1.5

    def test_pareto_sizes_are_bounded_and_heavy_tailed(self):
        spec = StreamSpec(label="s", seed=4, sizes="pareto", size_range=(2.0, 200.0))
        sizes = np.array([e.job.size for e in _take(open_stream(spec), 5000)])
        assert sizes.min() >= 2.0 and sizes.max() <= 200.0
        assert np.median(sizes) < np.mean(sizes)  # right-skewed

    def test_stretch_weights_invert_the_size(self):
        events = _take(open_stream(StreamSpec(label="s", seed=5)), 20)
        for event in events:
            assert event.job.weight == pytest.approx(1.0 / event.job.size)
        flat = _take(open_stream(StreamSpec(label="s", seed=5, stretch_weights=False)), 20)
        assert all(event.job.weight == 1.0 for event in flat)

    def test_every_job_is_runnable_somewhere(self):
        for scenario in ("small-cluster", "hotspot", "unrelated-stress"):
            stream = open_stream(StreamSpec(label="s", scenario=scenario, seed=6))
            for event in _take(stream, 100):
                assert np.isfinite(event.costs).any()
                assert event.min_cost == np.min(event.costs)

    def test_costs_follow_the_platform_model(self):
        stream = open_stream(StreamSpec(label="s", scenario="small-cluster", seed=7))
        for event in _take(stream, 50):
            for machine, cost in zip(stream.machines, event.costs):
                expected = machine.processing_time(event.job)
                assert cost == expected


class TestTraceReplay:
    def test_trace_spec_replays_the_scenario_instance(self):
        spec = StreamSpec(label="t", scenario="bursty-batch", seed=8, arrivals="trace")
        stream = open_stream(spec)
        instance = spec.platform_instance()
        events = list(stream.jobs())
        assert stream.length == instance.num_jobs
        assert [event.job for event in events] == list(instance.jobs)
        for index, event in enumerate(events):
            assert np.array_equal(event.costs, instance.costs[:, index])

    def test_replay_stream_wraps_any_instance(self):
        instance = make_scenario("unrelated-stress", seed=9)
        stream = replay_stream(instance)
        events = list(stream.jobs())
        assert len(events) == instance.num_jobs
        assert stream.machines == instance.machines
        assert [event.index for event in events] == list(range(instance.num_jobs))
