"""Open-ended workload streams: lazy arrival processes over a fixed platform.

Every layer below this module consumes a finite, fully-materialised
:class:`~repro.core.instance.Instance` — the *off-line* view.  The paper's
premise, however, is an **on-line portal**: GriPPS requests arrive
continuously and the scheduler never sees the full workload.  This module
supplies that missing half: a :class:`WorkloadStream` produces jobs *lazily*
from an arrival process, so a 100k-arrival experiment never materialises
100k jobs at once — the rolling-horizon
:class:`~repro.simulation.stream.StreamingSimulator` pulls them one by one
and keeps only the active window in memory.

Streams are described by a :class:`StreamSpec`: a cheap, picklable,
content-digestable descriptor (the streaming analogue of
:class:`~repro.workload.scenarios.ScenarioSpec`).  The platform — machines,
cycle times, databank replication — is borrowed from a named scenario, so
every existing scenario doubles as a streaming platform; the job stream on
top of it is driven by one of three arrival processes:

* ``"poisson"`` — memoryless arrivals at ``rate`` jobs per second;
* ``"mmpp"`` — a two-state Markov-modulated Poisson process (bursty portal
  traffic): a quiet state and a burst state whose rate is ``burst_factor``
  times higher, switched so that the *mean* rate stays ``rate``;
* ``"trace"`` — replay of the scenario's own finite instance as a stream
  (the bridge :func:`repro.simulation.simulate` replays finite instances
  through, also used to re-run archived workloads).

Job sizes come from a ``"uniform"`` or heavy-tailed bounded-``"pareto"``
distribution; weights follow the scenario convention (``1/W_j`` stretch
weights by default, so max weighted flow *is* max stretch).

Determinism
-----------
All randomness derives from ``numpy.random.SeedSequence`` child streams
spawned from ``(spec.seed, scenario name)`` — the same scheme as
:func:`~repro.workload.scenarios.spawn_scenario_seeds` — so a stream is
byte-identical no matter how it is consumed (chunked, resumed, or pulled in
one go), and two streams opened from equal specs produce identical jobs.

Load calibration
----------------
The paper's portal-load experiments sweep the arrival rate against the
platform's capacity.  :meth:`StreamSpec.offered_load` computes the
utilisation ``rho = rate * E[W] / sum_i(1 / c_i)`` — offered work over the
platform's aggregate divisible-model capacity (the off-line fluid bound) —
and :meth:`StreamSpec.with_utilisation` inverts it, so load sweeps are
expressed directly in ``rho``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.instance import Instance
from ..core.job import Job
from ..core.machine import Machine
from ..exceptions import WorkloadError
from .scenarios import make_scenario

__all__ = [
    "ArrivalEvent",
    "StreamSpec",
    "WorkloadStream",
    "open_stream",
    "replay_stream",
    "spawn_stream_seeds",
]

#: Arrival process kinds understood by :class:`StreamSpec`.
_ARRIVAL_KINDS = ("poisson", "mmpp", "trace")
#: Size distribution kinds understood by :class:`StreamSpec`.
_SIZE_KINDS = ("uniform", "pareto")


class ArrivalEvent(NamedTuple):
    """One streamed job: the job itself plus its per-machine cost column.

    Attributes
    ----------
    index:
        Global arrival index (0-based, arrival order).
    job:
        The job, with its release date set to the arrival time.
    costs:
        Per-machine processing times (``numpy`` column, ``inf`` where the
        job's databank is not hosted).
    """

    index: int
    job: Job
    costs: np.ndarray
    fastest: Optional[float] = None

    @property
    def min_cost(self) -> float:
        """Fastest single-machine processing time (the stretch denominator).

        Generators that know the platform structure precompute it
        (``fastest``) so the streaming window admits in O(1); the fallback
        scan yields the same float64 value bit for bit.
        """
        if self.fastest is not None:
            return self.fastest
        return float(np.min(self.costs))


def spawn_stream_seeds(base_seed: int, name: str, count: int) -> List[np.random.SeedSequence]:
    """Derive ``count`` independent ``SeedSequence`` children for one stream.

    The children depend only on ``(base_seed, name, position)`` — never on
    how many other streams share the base seed or how the stream is consumed
    — mirroring :func:`~repro.workload.scenarios.spawn_scenario_seeds` (which
    returns plain integers; stream components keep the full sequences so
    each component owns an independent generator).
    """
    if count < 1:
        raise WorkloadError("spawn_stream_seeds needs count >= 1")
    digest = int.from_bytes(
        hashlib.sha256(("stream:" + name).encode("utf-8")).digest()[:8], "big"
    )
    root = np.random.SeedSequence(entropy=(int(base_seed), digest))
    return root.spawn(count)


@dataclass(frozen=True)
class StreamSpec:
    """A cheap, picklable, content-digestable description of a workload stream.

    Attributes
    ----------
    label:
        Display label of the stream (reports, store records).
    scenario:
        Named scenario supplying the *platform* (machines, cycle times,
        databank replication); see
        :func:`~repro.workload.scenarios.available_scenarios`.
    seed:
        Base seed of the ``SeedSequence`` streams driving the platform draw
        and every job attribute.
    arrivals:
        Arrival process: ``"poisson"``, ``"mmpp"`` or ``"trace"``.
    rate:
        Mean arrival rate in jobs per second (ignored by ``"trace"``).
    sizes:
        Job-size distribution: ``"uniform"`` over ``size_range`` or a
        heavy-tailed bounded ``"pareto"`` on the same range.
    size_range:
        ``(minimum, maximum)`` job size.
    pareto_shape:
        Tail index of the bounded Pareto sizes (smaller = heavier tail).
    burst_factor:
        MMPP burst-state rate multiplier over the quiet state.
    burst_fraction:
        Stationary fraction of *time* spent in the burst state.
    mean_cycle_time:
        Mean duration of one quiet+burst regime cycle, in units of the mean
        inter-arrival time (sets the burstiness timescale).
    stretch_weights:
        ``True`` (default) gives every job weight ``1/W_j``, making the max
        weighted flow of the stream its max stretch.
    """

    label: str
    scenario: str = "small-cluster"
    seed: int = 0
    arrivals: str = "poisson"
    rate: float = 1.0
    sizes: str = "uniform"
    size_range: Tuple[float, float] = (5.0, 50.0)
    pareto_shape: float = 1.6
    burst_factor: float = 8.0
    burst_fraction: float = 0.15
    mean_cycle_time: float = 40.0
    stretch_weights: bool = True

    def __post_init__(self) -> None:
        if self.arrivals not in _ARRIVAL_KINDS:
            raise WorkloadError(
                f"unknown arrival process {self.arrivals!r}; "
                f"available: {', '.join(_ARRIVAL_KINDS)}"
            )
        if self.sizes not in _SIZE_KINDS:
            raise WorkloadError(
                f"unknown size distribution {self.sizes!r}; "
                f"available: {', '.join(_SIZE_KINDS)}"
            )
        if self.arrivals != "trace" and self.rate <= 0:
            raise WorkloadError("stream arrival rate must be positive")
        low, high = self.size_range
        if not (0 < low <= high):
            raise WorkloadError(f"size_range must satisfy 0 < low <= high, got {self.size_range}")
        if self.pareto_shape <= 0:
            raise WorkloadError("pareto_shape must be positive")
        if self.burst_factor < 1.0:
            raise WorkloadError("burst_factor must be at least 1")
        if not 0.0 < self.burst_fraction < 1.0:
            raise WorkloadError("burst_fraction must be in (0, 1)")
        if self.mean_cycle_time <= 0:
            raise WorkloadError("mean_cycle_time must be positive")

    # ------------------------------------------------------------------ #
    # Content identity                                                    #
    # ------------------------------------------------------------------ #
    def payload(self) -> Dict:
        """JSON-canonical view of everything that determines the stream."""
        return {
            "scenario": self.scenario,
            "seed": int(self.seed),
            "arrivals": self.arrivals,
            "rate": repr(float(self.rate)),
            "sizes": self.sizes,
            "size_range": [repr(float(self.size_range[0])), repr(float(self.size_range[1]))],
            "pareto_shape": repr(float(self.pareto_shape)),
            "burst_factor": repr(float(self.burst_factor)),
            "burst_fraction": repr(float(self.burst_fraction)),
            "mean_cycle_time": repr(float(self.mean_cycle_time)),
            "stretch_weights": bool(self.stretch_weights),
        }

    def content_key(self) -> str:
        """Stable identity of the stream for content-addressed storage.

        Same role as :meth:`ScenarioSpec.content_key`: the experiment store
        keys stream cells by this string (plus policy and protocol), so
        equal specs — whatever their label — share cells and sweeps resume.
        """
        from ..store.digest import canonical_digest  # deferred: avoids module cycle

        return f"stream-sha256={canonical_digest(self.payload())}"

    def digest(self) -> str:
        """Hex SHA-256 of :meth:`content_key` (file names, log keys)."""
        return hashlib.sha256(self.content_key().encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # Platform and load calibration                                       #
    # ------------------------------------------------------------------ #
    def _platform_seed(self) -> int:
        children = spawn_stream_seeds(self.seed, self.scenario, 1)
        return int(children[0].generate_state(1)[0])

    def platform_instance(self) -> Instance:
        """The scenario instance whose machines define the stream's platform."""
        return make_scenario(self.scenario, seed=self._platform_seed())

    def mean_size(self) -> float:
        """Analytic mean job size of the configured distribution."""
        low, high = (float(v) for v in self.size_range)
        if self.sizes == "uniform" or low == high:
            return 0.5 * (low + high)
        # Bounded Pareto on [low, high] with tail index alpha.
        alpha = float(self.pareto_shape)
        ratio = low / high
        if alpha == 1.0:
            return low * math.log(high / low) / (1.0 - ratio)
        return (
            low ** alpha
            / (1.0 - ratio ** alpha)
            * alpha
            / (alpha - 1.0)
            * (low ** (1.0 - alpha) - high ** (1.0 - alpha))
        )

    def offered_load(self, machines: Optional[Sequence[Machine]] = None) -> float:
        """Utilisation ``rho``: offered work over the platform's fluid capacity.

        The capacity is the divisible-model aggregate rate
        ``sum_i 1 / cycle_time_i`` — the off-line bound an omniscient
        scheduler could saturate; ``rho >= 1`` streams are super-critical
        and will saturate every policy.
        """
        if self.arrivals == "trace":
            raise WorkloadError("trace streams replay fixed release dates; no offered load")
        if machines is None:
            machines = self.platform_instance().machines
        capacity = sum(1.0 / machine.cycle_time for machine in machines)
        return self.rate * self.mean_size() / capacity

    def with_rate(self, rate: float) -> "StreamSpec":
        """Copy of the spec with a different mean arrival rate."""
        return replace(self, rate=float(rate))

    def with_utilisation(
        self, rho: float, machines: Optional[Sequence[Machine]] = None
    ) -> "StreamSpec":
        """Copy of the spec whose rate offers utilisation ``rho`` (see
        :meth:`offered_load`)."""
        if rho <= 0:
            raise WorkloadError("utilisation must be positive")
        if self.arrivals == "trace":
            raise WorkloadError("trace streams replay fixed release dates; no offered load")
        if machines is None:
            machines = self.platform_instance().machines
        capacity = sum(1.0 / machine.cycle_time for machine in machines)
        return self.with_rate(rho * capacity / self.mean_size())


class WorkloadStream:
    """A lazily generated, restartable stream of jobs over a fixed platform.

    Instances are produced by :func:`open_stream` (from a :class:`StreamSpec`)
    or :func:`replay_stream` (from a concrete instance).  :meth:`jobs`
    returns a *fresh*, deterministic iterator each time it is called, so the
    same stream object can drive several simulations (one per policy) and
    every replay sees identical arrivals.

    Attributes
    ----------
    machines:
        The platform, in cost-row order.
    spec:
        The originating :class:`StreamSpec` (``None`` for trace replays of
        concrete instances).
    length:
        Number of arrivals when the stream is finite (``None`` for the
        open-ended generated streams).
    """

    def __init__(
        self,
        machines: Sequence[Machine],
        generator,
        *,
        spec: Optional[StreamSpec] = None,
        length: Optional[int] = None,
    ) -> None:
        if not machines:
            raise WorkloadError("a workload stream needs at least one machine")
        self.machines: Tuple[Machine, ...] = tuple(machines)
        self._generator = generator
        self.spec = spec
        self.length = length

    @property
    def num_machines(self) -> int:
        """Number of machines on the platform."""
        return len(self.machines)

    def capacity(self) -> float:
        """Aggregate fluid-model processing capacity ``sum_i 1/c_i``."""
        return sum(1.0 / machine.cycle_time for machine in self.machines)

    def jobs(self) -> Iterator[ArrivalEvent]:
        """A fresh deterministic iterator over the stream's arrivals."""
        return self._generator(self.machines)


# --------------------------------------------------------------------------- #
# Stream constructors                                                          #
# --------------------------------------------------------------------------- #
def _bank_cost_columns(
    machines: Sequence[Machine], banks: Sequence[str]
) -> Dict[Optional[str], np.ndarray]:
    """Per-databank unit-size cost columns: ``cycle_time`` or ``inf``.

    A generated job needs exactly one databank (or none), so its cost column
    is ``size * column[bank]`` — the same correctly-rounded float64 products
    as calling :meth:`Machine.processing_time` per machine (``W_j * c_i``
    where the bank is hosted, ``inf`` elsewhere), computed without the
    per-arrival Python loop.
    """
    columns: Dict[Optional[str], np.ndarray] = {
        None: np.array([machine.cycle_time for machine in machines], dtype=float)
    }
    for bank in banks:
        columns[bank] = np.array(
            [
                machine.cycle_time if bank in machine.databanks else math.inf
                for machine in machines
            ],
            dtype=float,
        )
    return columns


def _generated_jobs(spec: StreamSpec, machines: Sequence[Machine]) -> Iterator[ArrivalEvent]:
    """Generator behind Poisson/MMPP streams (deterministic per spec)."""
    _, arrival_seed, size_seed, bank_seed = spawn_stream_seeds(spec.seed, spec.scenario, 4)
    arrival_rng = np.random.default_rng(arrival_seed)
    size_rng = np.random.default_rng(size_seed)
    bank_rng = np.random.default_rng(bank_seed)

    banks = sorted(set().union(*(machine.databanks for machine in machines)))
    bank_columns = _bank_cost_columns(machines, banks)
    # size * min(column) == min(size * column) bit for bit (size > 0 and
    # IEEE-754 multiplication is monotone), so the per-arrival fastest cost
    # is one float product instead of an O(m) numpy reduction.
    bank_fastest = {bank: float(np.min(column)) for bank, column in bank_columns.items()}
    low, high = (float(v) for v in spec.size_range)
    alpha = float(spec.pareto_shape)
    pareto_sizes = spec.sizes == "pareto" and low < high
    uniform_sizes = not pareto_sizes and low != high
    pareto_tail = (low / high) ** alpha if pareto_sizes else 0.0
    inverse_alpha = 1.0 / alpha if pareto_sizes else 0.0

    # MMPP regime bookkeeping: a quiet state and a burst state whose rate is
    # ``burst_factor`` times higher; dwell times are exponential with means
    # chosen so the stationary time fraction in burst is ``burst_fraction``
    # and one full cycle lasts ``mean_cycle_time`` mean inter-arrival times.
    bursty = spec.arrivals == "mmpp"
    quiet_rate = spec.rate / (1.0 - spec.burst_fraction + spec.burst_fraction * spec.burst_factor)
    burst_rate = quiet_rate * spec.burst_factor
    cycle = spec.mean_cycle_time / spec.rate
    dwell_means = {
        False: cycle * (1.0 - spec.burst_fraction),  # quiet
        True: cycle * spec.burst_fraction,  # burst
    }

    clock = 0.0
    in_burst = False
    regime_ends = clock + (arrival_rng.exponential(dwell_means[in_burst]) if bursty else math.inf)
    index = 0
    # Chunked draws: each generator owns an independent SeedSequence child,
    # and numpy's vectorised sampling consumes a generator's bit stream
    # value for value like repeated scalar draws, so refilling per-stream
    # buffers every ``chunk`` arrivals yields the same jobs bit for bit
    # while amortising the per-draw dispatch overhead.  ``tolist`` hands
    # the simulator plain Python floats (same bits as the float64 values).
    chunk = 512
    position = chunk
    gap_buffer: List[float] = []
    uniform_buffer: List[float] = []
    size_buffer: List[float] = []
    bank_buffer: List[int] = []
    num_banks = len(banks)
    while True:
        if position == chunk:
            if not bursty:
                gap_buffer = arrival_rng.exponential(1.0 / spec.rate, size=chunk).tolist()
            if pareto_sizes:
                uniform_buffer = size_rng.random(chunk).tolist()
            elif uniform_sizes:
                size_buffer = size_rng.uniform(low, high, size=chunk).tolist()
            if banks:
                bank_buffer = bank_rng.integers(0, num_banks, size=chunk).tolist()
            position = 0
        if bursty:
            # Regime switches interleave dwell draws with gap draws on the
            # arrival stream, so the bursty path keeps scalar draws.
            while True:
                current_rate = burst_rate if in_burst else quiet_rate
                gap = arrival_rng.exponential(1.0 / current_rate)
                if clock + gap <= regime_ends:
                    clock += gap
                    break
                # Memoryless: move to the switch point, flip regime, redraw.
                clock = regime_ends
                in_burst = not in_burst
                regime_ends = clock + arrival_rng.exponential(dwell_means[in_burst])
        else:
            clock += gap_buffer[position]

        if pareto_sizes:
            # Bounded Pareto on [low, high] via inverse CDF.
            u = uniform_buffer[position]
            size = low / (1.0 - u * (1.0 - pareto_tail)) ** inverse_alpha
        elif uniform_sizes:
            size = size_buffer[position]
        else:
            size = low
        weight = 1.0 / size if spec.stretch_weights else 1.0
        bank = banks[bank_buffer[position]] if banks else None
        position += 1
        job = Job(
            name=f"s{index:07d}",
            release_date=clock,
            weight=weight,
            size=size,
            databanks=frozenset({bank}) if bank is not None else frozenset(),
        )
        # size * (cycle | inf) — byte-identical to machine.processing_time(job)
        # on every machine.
        yield ArrivalEvent(
            index=index,
            job=job,
            costs=size * bank_columns[bank],
            fastest=size * bank_fastest[bank],
        )
        index += 1


def open_stream(spec: StreamSpec) -> WorkloadStream:
    """Open the workload stream described by ``spec``.

    Poisson/MMPP specs yield an open-ended stream (cap it with the
    simulator's ``max_arrivals``); ``"trace"`` specs replay the scenario's
    finite instance in release order.
    """
    platform = spec.platform_instance()
    if spec.arrivals == "trace":
        stream = replay_stream(platform, spec=spec)
        return stream

    def generator(machines: Sequence[Machine]) -> Iterator[ArrivalEvent]:
        return _generated_jobs(spec, machines)

    return WorkloadStream(platform.machines, generator, spec=spec, length=None)


def replay_stream(instance: Instance, *, spec: Optional[StreamSpec] = None) -> WorkloadStream:
    """Replay a concrete instance as a stream (arrival = release order).

    The bridge between finite instances and the event loop: the streamed
    arrivals are exactly the instance's jobs with their exact cost columns.
    :func:`repro.simulation.simulate` runs every finite instance through it.
    """

    def generator(machines: Sequence[Machine]) -> Iterator[ArrivalEvent]:
        for index in range(instance.num_jobs):
            yield ArrivalEvent(
                index=index,
                job=instance.jobs[index],
                costs=np.asarray(instance.costs[:, index], dtype=float).copy(),
            )

    return WorkloadStream(
        instance.machines, generator, spec=spec, length=instance.num_jobs
    )
