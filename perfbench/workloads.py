"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload builds its inputs in :meth:`setup` from the command-line seed
and nothing else, runs them in :meth:`run_pass` (closed loop: one caller,
each call starts when the previous one returns), and checks every output
against the committed golden values for that seed (``golden.json``) when
the seed has them, and against the first pass of the run in any case.
Units are timed with the workload's ``clock`` (``hostspeed.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis import run_scenario_campaign
from repro.core import minimize_max_weighted_flow
from repro.core.instance import Instance
from repro.exceptions import InvalidScheduleError
from repro.heuristics import OnlineOfflineAdaptationScheduler, make_scheduler
from repro.obs import read_journal
from repro.simulation import StreamingSimulator, simulate
from repro.workload import StreamSpec, open_stream, random_unrelated_instance
from repro.workload.scenarios import available_scenarios, make_scenario, scenario_grid

from hostspeed import WallClock
from tracing import SchedulerProxy, Tracer, traced_stream

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Relative tolerance of the re-planning quality checks.
STRETCH_TOL = 1e-6
#: Mean over a pass's instances of fast-path max stretch / scipy-backend max
#: stretch may not exceed this.  (Single instances reach 1.04: the warm
#: solves stop at other vertices of degenerate programs.)
FAST_PATH_SLACK = 1.02


def load_golden(workload: str) -> Dict[str, Dict]:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text()).get(workload, {})


def derived_seeds(seed: int, salt: int, count: int) -> List[int]:
    """``count`` independent input seeds drawn from the command-line seed."""
    state = np.random.SeedSequence([int(seed), salt]).generate_state(count)
    return [int(value) for value in state]


@dataclasses.dataclass
class PassResult:
    """One pass over a workload's inputs."""

    wall: float  # clock seconds the pass took, checks excluded
    raw_wall: float  # the same in wall seconds
    #: Clock seconds of each timed unit the throughput metrics cover, in
    #: input order.
    item_walls: List[float]
    ops: int  # operations attempted: streams, instances, campaign records
    failed: int  # operations whose output check failed
    failures: List[str]  # one message per failed check
    arrivals: int  # jobs handed to a scheduler by the timed units
    cells: int  # (policy, input) runs of the timed units
    info: Dict[str, float] = dataclasses.field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, clock=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.clock = clock or WallClock()
        self.golden = load_golden(self.name).get(str(seed))
        self.reference: Optional[List] = None  # first pass's outputs

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        raise NotImplementedError

    def golden_values(self) -> Dict:
        """The values ``make_golden.py`` commits for this seed: the outputs
        of one checked pass."""
        self.setup()
        outcome = self.run_pass()
        if outcome.failures:
            raise RuntimeError(outcome.failures)
        return self.golden_entry(self.reference)

    def golden_entry(self, outputs: List) -> Dict:
        raise NotImplementedError

    def _differing(self, outputs: Sequence) -> List[int]:
        """Indices at which ``outputs`` differ from the first pass's."""
        if self.reference is None:
            self.reference = list(outputs)
        return [index for index, (got, want) in enumerate(zip(outputs, self.reference))
                if got != want]


# --------------------------------------------------------------------------- #
class StreamWorkload(Workload):
    """SRPT over bursty MMPP streams on one fixed ``small-cluster`` platform.

    The platform and the offered load are constants of the workload; the
    seed draws the arrival streams.  (Drawing the platform from the seed too
    makes throughput differ up to 40x between seeds: some draws are close to
    saturation under SRPT.)
    """

    name = "stream-mmpp-srpt"
    streams = 8
    arrivals = 12_500
    rho = 0.5
    platform_seed = 2005

    def setup(self) -> None:
        base = StreamSpec(
            label="perfbench", scenario="small-cluster", seed=self.platform_seed, arrivals="mmpp"
        )
        platform = base.platform_instance()
        base = base.with_utilisation(self.rho, platform.machines)
        self.specs = [
            dataclasses.replace(base, label=f"perfbench-{index}", seed=stream_seed)
            for index, stream_seed in enumerate(derived_seeds(self.seed, 1, self.streams))
        ]
        self.machines = platform.machines
        # Warm-up: one short stream through the same code path.
        StreamingSimulator().run(
            self._stream(self.specs[0]), make_scheduler("srpt"), max_arrivals=2000
        )

    def _stream(self, spec: StreamSpec):
        stream = open_stream(spec)
        # A WorkloadStream generates its jobs against its ``machines``: pin
        # the workload's platform under the seed's arrival process.
        stream.machines = self.machines
        return stream

    def golden_entry(self, outputs: List) -> Dict:
        return {"fingerprints": outputs}

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        clock = self.clock
        results = []
        walls = []
        started = clock.mark()
        for spec in self.specs:
            item_started = clock.mark()
            stream = self._stream(spec)
            scheduler = make_scheduler("srpt")
            simulator = StreamingSimulator()
            if tracer is None:
                results.append(simulator.run(stream, scheduler, max_arrivals=self.arrivals))
            else:
                results.append(
                    tracer.call(
                        "simulation.run",
                        simulator.run,
                        traced_stream(stream, tracer),
                        SchedulerProxy(scheduler, tracer),
                        max_arrivals=self.arrivals,
                    )
                )
            walls.append(clock.seconds(item_started, clock.mark()))
        ended = clock.mark()

        failures: List[str] = []
        failed = set()

        def fail(index: int, message: str) -> None:
            failed.add(index)
            failures.append(f"{self.specs[index].label}: {message}")

        prints = [result.fingerprint() for result in results]
        for index, result in enumerate(results):
            if result.saturated:
                fail(index, "saturated")
            if result.completions != self.arrivals or result.arrivals != self.arrivals:
                fail(index, f"{result.completions}/{result.arrivals} completed")
            if result.stretches.size and result.stretches.min() < 1.0 - STRETCH_TOL:
                fail(index, "stretch below 1")
        if self.golden is not None:
            for index, (got, want) in enumerate(zip(prints, self.golden["fingerprints"])):
                if got != want:
                    fail(index, f"fingerprint {got[:12]} != golden {want[:12]}")
        for index in self._differing(prints):
            fail(index, "fingerprint differs from the first pass")
        return PassResult(
            wall=clock.seconds(started, ended),
            raw_wall=clock.wall(started, ended),
            item_walls=walls,
            ops=len(results),
            failed=len(failed),
            failures=failures,
            arrivals=sum(result.arrivals for result in results),
            cells=len(results),
            info={
                "peak_window": float(max(result.peak_window for result in results)),
                "compactions": float(sum(result.compactions for result in results)),
                "preemptions": float(sum(result.preemptions for result in results)),
                "mean_stretch": float(np.mean([result.mean_stretch for result in results])),
            },
        )

# --------------------------------------------------------------------------- #
class ReplanWorkload(Workload):
    """``online-offline`` with the revised-simplex fast path on unrelated
    instances, against each instance's off-line optimum.

    Job weights are ``1 / min_i c_ij``, so max weighted flow is the max
    stretch ``Schedule.max_stretch`` reports: the re-planner optimises it
    and the off-line optimum is its lower bound.
    """

    name = "replan-revised"
    instances = 64
    jobs = 10
    machines = 3
    cost_range = (2.0, 12.0)

    def setup(self) -> None:
        self.cases = []
        for instance_seed in derived_seeds(self.seed, 2, self.instances):
            raw = random_unrelated_instance(
                self.jobs, self.machines, seed=instance_seed, cost_range=self.cost_range
            )
            instance = Instance(
                jobs=tuple(
                    job.with_weight(1.0 / raw.min_cost(index)) for index, job in enumerate(raw.jobs)
                ),
                machines=raw.machines,
                costs=raw.costs.copy(),
            )
            self.cases.append((instance, minimize_max_weighted_flow(instance).objective))
        # Warm-up: a small instance through the same re-planning path.
        simulate(random_unrelated_instance(8, 3, seed=1), self._scheduler())

    @staticmethod
    def _scheduler():
        return OnlineOfflineAdaptationScheduler(parametric=True, backend="revised")

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        clock = self.clock
        results = []
        walls = []
        started = clock.mark()
        for instance, _optimum in self.cases:
            item_started = clock.mark()
            scheduler = self._scheduler()
            if tracer is None:
                results.append(simulate(instance, scheduler))
            else:
                proxy = SchedulerProxy(scheduler, tracer)
                results.append(tracer.call("simulation.run", simulate, instance, proxy))
            walls.append(clock.seconds(item_started, clock.mark()))
        ended = clock.mark()

        failures: List[str] = []
        failed = set()

        def fail(index: int, message: str) -> None:
            failed.add(index)
            failures.append(f"instance {index}: {message}")

        stretches = []
        ratios = []
        for index, ((instance, optimum), result) in enumerate(zip(self.cases, results)):
            try:
                result.schedule.validate()
            except InvalidScheduleError as exc:
                fail(index, f"invalid schedule: {exc}")
            stretch = result.max_stretch
            stretches.append(stretch)
            ratios.append(stretch / optimum)
            if stretch < optimum * (1.0 - STRETCH_TOL):
                fail(index, f"max stretch {stretch} below optimum {optimum}")
            if self.golden is not None and repr(optimum) != self.golden["optima"][index]:
                fail(index, f"optimum {optimum!r} != golden")
        if self.golden is not None:
            references = [float(value) for value in self.golden["scipy_max_stretch"]]
            excess = float(np.mean([got / want for got, want in zip(stretches, references)]))
            if excess > FAST_PATH_SLACK:
                # A check of the whole pass: every instance fails it.
                failed.update(range(len(results)))
                failures.append(f"mean max stretch {excess:.4f} x the scipy reference")
        for index in self._differing([repr(value) for value in stretches]):
            fail(index, "max stretch differs from the first pass")
        return PassResult(
            wall=clock.seconds(started, ended),
            raw_wall=clock.wall(started, ended),
            item_walls=walls,
            ops=len(results),
            failed=len(failed),
            failures=failures,
            arrivals=sum(instance.num_jobs for instance, _ in self.cases),
            cells=len(results),
            info={"stretch_ratio": float(np.mean(ratios))},
        )

    def golden_values(self) -> Dict:
        self.setup()
        reference = [
            simulate(instance, OnlineOfflineAdaptationScheduler(parametric=True)).max_stretch
            for instance, _ in self.cases
        ]
        self.golden = {
            "optima": [repr(optimum) for _, optimum in self.cases],
            "scipy_max_stretch": [repr(value) for value in reference],
        }
        outcome = self.run_pass()
        if outcome.failures:
            raise RuntimeError(outcome.failures)
        return self.golden


# --------------------------------------------------------------------------- #
def records_digest(records) -> str:
    """SHA-256 over every field of every campaign record, in emission order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(dataclasses.astuple(record)).encode())
    return digest.hexdigest()


def headline(records) -> Dict[str, str]:
    """Mean normalised objective per policy (the campaign's headline table)."""
    by_policy: Dict[str, List[float]] = {}
    for record in records:
        by_policy.setdefault(record.policy, []).append(record.normalised)
    return {policy: repr(float(np.mean(values))) for policy, values in sorted(by_policy.items())}


class CampaignWorkload(Workload):
    """Every scenario x 16 spawned seeds x three on-line policies (plus the
    off-line optimum cell), into a fresh store with a journal, then an
    immediate ``resume=True`` pass over the same store."""

    name = "campaign-store"
    policies = ("mct", "greedy-weighted-flow", "srpt")
    seeds_per_scenario = 16

    def setup(self) -> None:
        self.scenarios = tuple(available_scenarios())
        grid = scenario_grid(
            self.scenarios, None, base_seed=self.seed, seeds_per_scenario=self.seeds_per_scenario
        )
        cells_per_workload = len(self.policies) + 1
        self.jobs = sum(make_scenario(spec.scenario, spec.seed).num_jobs for spec in grid)
        self.jobs *= cells_per_workload
        self.expected_cells = len(grid) * cells_per_workload
        # Warm-up: one workload, no store.
        run_scenario_campaign(self.scenarios[:1], self.policies, base_seed=self.seed)

    def golden_entry(self, outputs: List) -> Dict:
        return {"records_digest": outputs[0], "headline": outputs[1]}

    def _campaign(self, store: Path, journal: Path, resume: bool):
        return run_scenario_campaign(
            self.scenarios,
            self.policies,
            base_seed=self.seed,
            seeds_per_scenario=self.seeds_per_scenario,
            store=store,
            resume=resume,
            journal=journal,
        )

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        directory = self.workdir / "campaign"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        store = directory / "store.sqlite"
        journal = directory / "journal.jsonl"
        run = self._campaign if tracer is None else (
            lambda *args: tracer.call("analysis.campaign", self._campaign, *args)
        )
        clock = self.clock
        started = clock.mark()
        cold = run(store, journal, False)
        cold_ended = clock.mark()
        resumed = run(store, journal, True)
        ended = clock.mark()

        failures: List[str] = []
        digest = records_digest(cold.records)
        table = headline(cold.records)
        if len(cold.records) != self.expected_cells:
            failures.append(f"{len(cold.records)} cells, expected {self.expected_cells}")
        if resumed.records != cold.records:
            failures.append("resumed records differ from the cold pass")
        if resumed.stats.resume_skip_rate != 1.0:
            failures.append(f"resume skip rate {resumed.stats.resume_skip_rate}")
        view = read_journal(journal)
        if view.truncated:
            failures.append(f"journal has {view.truncated} torn lines")
        if self.golden is not None:
            if digest != self.golden["records_digest"]:
                failures.append(f"records digest {digest[:12]} != golden")
            if table != self.golden["headline"]:
                failures.append("headline metrics differ from golden")
        if self._differing([digest, table]):
            failures.append("campaign records differ from the first pass")
        shutil.rmtree(directory, ignore_errors=True)
        ops = len(cold.records) + len(resumed.records)
        return PassResult(
            wall=clock.seconds(started, ended),
            raw_wall=clock.wall(started, ended),
            item_walls=[clock.seconds(started, cold_ended)],
            ops=ops,
            # The checks cover the campaign as a whole: a failed one fails
            # every record of the pass.
            failed=ops if failures else 0,
            failures=failures,
            arrivals=self.jobs,
            cells=len(cold.records),
            info={
                "skip_rate": resumed.stats.resume_skip_rate,
                "mean_normalised": float(
                    np.mean([r.normalised for r in cold.records if r.policy != "offline-optimal"])
                ),
            },
        )


WORKLOADS = {cls.name: cls for cls in (StreamWorkload, ReplanWorkload, CampaignWorkload)}
