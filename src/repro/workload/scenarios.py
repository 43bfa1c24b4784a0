"""Named workload scenarios used by the examples, benches and campaigns.

Each scenario captures one of the situations the paper's introduction
motivates: a small community cluster with partially replicated databanks, a
heavily loaded portal with bursty arrivals, a platform with one fast central
server and several slow satellites, etc.  Scenarios are deterministic for a
given seed, so bench numbers are reproducible.

Sweeps and seeding
------------------
:func:`scenario_grid` enumerates a sweep *lazily* as cheap
:class:`ScenarioSpec` descriptors (label, scenario name, seed) that the
campaign dispatcher materialises inside its workers, so a 10k-scenario sweep
never holds 10k instances in the parent process.  Per-scenario seeds can be
spawned from a single ``base_seed`` via :func:`spawn_scenario_seeds`, which
derives a ``numpy.random.SeedSequence`` child stream from
``(base_seed, scenario name)``: the resulting instances are identical no
matter how the sweep is chunked, how many workers run it, or which other
scenarios share the grid.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.instance import Instance
from ..exceptions import WorkloadError
from ..gripps.platform_gen import DatabankSpec, make_gripps_instance
from .generators import ArrivalProcess, random_restricted_instance, random_unrelated_instance

__all__ = [
    "Scenario",
    "ScenarioSpec",
    "available_scenarios",
    "make_scenario",
    "scenario_grid",
    "spawn_scenario_seeds",
]


@dataclass(frozen=True)
class Scenario:
    """A named, parameterised workload scenario."""

    name: str
    description: str
    builder: Callable[[Optional[int]], Instance]

    def build(self, seed: Optional[int] = None) -> Instance:
        """Materialise the scenario into an :class:`Instance`."""
        return self.builder(seed)


def _small_cluster(seed: Optional[int]) -> Instance:
    """Six servers, four databanks, moderate load — the canonical GriPPS setup."""
    return make_gripps_instance(
        num_requests=15,
        num_machines=6,
        replication=0.5,
        arrival_rate=1.0 / 40.0,
        motif_range=(5, 60),
        seed=seed if seed is not None else 1,
    )


def _replicated_portal(seed: Optional[int]) -> Instance:
    """A large portal where every databank is replicated everywhere (no restrictions)."""
    return make_gripps_instance(
        num_requests=20,
        num_machines=8,
        replication=1.0,
        arrival_rate=1.0 / 20.0,
        motif_range=(10, 120),
        seed=seed if seed is not None else 2,
    )


def _hotspot(seed: Optional[int]) -> Instance:
    """One popular databank hosted on a single slow machine — the worst case for affinity."""
    banks = (
        DatabankSpec("hot-bank", 60_000, popularity=8.0),
        DatabankSpec("cold-bank-a", 20_000, popularity=1.0),
        DatabankSpec("cold-bank-b", 15_000, popularity=1.0),
    )
    return make_gripps_instance(
        num_requests=12,
        num_machines=5,
        databanks=banks,
        replication=0.35,
        arrival_rate=1.0 / 60.0,
        motif_range=(10, 80),
        seed=seed if seed is not None else 3,
    )


def _bursty_batch(seed: Optional[int]) -> Instance:
    """Many small requests released almost simultaneously (a batch submission)."""
    return random_restricted_instance(
        num_jobs=18,
        num_machines=5,
        arrivals=ArrivalProcess(kind="uniform", horizon=2.0),
        num_databanks=3,
        replication=0.6,
        size_range=(2.0, 15.0),
        stretch_weights=True,
        seed=seed if seed is not None else 4,
    )


def _unrelated_stress(seed: Optional[int]) -> Instance:
    """A fully unrelated instance exercising the general model of Section 3."""
    return random_unrelated_instance(
        num_jobs=14,
        num_machines=4,
        cost_range=(1.0, 25.0),
        forbidden_probability=0.25,
        seed=seed if seed is not None else 5,
    )


_SCENARIOS: Dict[str, Scenario] = {
    "small-cluster": Scenario(
        "small-cluster",
        "six comparison servers, four partially replicated databanks, moderate load",
        _small_cluster,
    ),
    "replicated-portal": Scenario(
        "replicated-portal",
        "eight servers with full databank replication (no placement restrictions)",
        _replicated_portal,
    ),
    "hotspot": Scenario(
        "hotspot",
        "one very popular databank with low replication — strong task affinity",
        _hotspot,
    ),
    "bursty-batch": Scenario(
        "bursty-batch",
        "a burst of small stretch-weighted requests released within two seconds",
        _bursty_batch,
    ),
    "unrelated-stress": Scenario(
        "unrelated-stress",
        "fully unrelated machines with 25% forbidden pairs",
        _unrelated_stress,
    ),
}


def available_scenarios() -> List[str]:
    """Return the names of all registered scenarios."""
    return sorted(_SCENARIOS)


def make_scenario(name: str, seed: Optional[int] = None) -> Instance:
    """Build the named scenario (see :func:`available_scenarios`)."""
    try:
        scenario = _SCENARIOS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown scenario {name!r}; available: {', '.join(available_scenarios())}"
        ) from None
    return scenario.build(seed)


@dataclass(frozen=True)
class ScenarioSpec:
    """A lazy, picklable pointer into a scenario sweep.

    Carrying only ``(label, scenario name, seed)``, specs are cheap enough to
    enumerate by the thousand in the parent process and materialise on demand
    inside campaign workers.
    """

    label: str
    scenario: str
    seed: Optional[int] = None

    def build(self) -> Instance:
        """Materialise the spec into an :class:`Instance`."""
        return make_scenario(self.scenario, self.seed)

    def content_key(self) -> str:
        """Stable identity of the workload this spec points at.

        Depends only on (scenario name, seed) — the pair that fully
        determines the generated instance — so the experiment store can
        content-address results of lazy sweeps without materialising them.
        """
        return f"scenario={self.scenario};seed={self.seed}"

    def digest(self) -> str:
        """Hex SHA-256 of :meth:`content_key` — a compact stable workload id
        (file names, log keys).

        Note this is *not* the cell digest of the experiment store:
        :func:`repro.store.record_digest` embeds the raw :meth:`content_key`
        string (plus policy, params, code epoch) in a canonical-JSON payload
        and hashes that.
        """
        return hashlib.sha256(self.content_key().encode("utf-8")).hexdigest()


def spawn_scenario_seeds(base_seed: int, scenario: str, count: int) -> List[int]:
    """Derive ``count`` per-scenario seeds from one base seed.

    The seeds come from the child streams of a
    ``numpy.random.SeedSequence`` whose entropy mixes ``base_seed`` with a
    stable digest of the scenario name.  They therefore depend only on
    ``(base_seed, scenario, position)`` — never on how a sweep is chunked,
    how many workers build it, or which other scenarios share the grid.
    """
    if count < 1:
        raise WorkloadError("spawn_scenario_seeds needs count >= 1")
    digest = int.from_bytes(hashlib.sha256(scenario.encode("utf-8")).digest()[:8], "big")
    root = np.random.SeedSequence(entropy=(int(base_seed), digest))
    return [int(child.generate_state(1)[0]) for child in root.spawn(count)]


def scenario_grid(
    names: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[Optional[int]]] = None,
    *,
    base_seed: Optional[int] = None,
    seeds_per_scenario: int = 1,
) -> List[ScenarioSpec]:
    """Enumerate a scenario × seed sweep as lazy :class:`ScenarioSpec` items.

    Parameters
    ----------
    names:
        Scenario names to include (default: every registered scenario).
    seeds:
        Explicit seeds to build each scenario with; labels are
        ``"<name>#<seed>"`` (just ``"<name>"`` when a single seed is swept).
        Mutually exclusive with ``base_seed``.
    base_seed:
        Spawn ``seeds_per_scenario`` seeds per scenario from this base via
        :func:`spawn_scenario_seeds`; labels are ``"<name>#<position>"``
        (just ``"<name>"`` for a single seed per scenario).
    seeds_per_scenario:
        Number of spawned seeds per scenario when ``base_seed`` is given.
    """
    if names is None:
        names = available_scenarios()
    if not names:
        raise WorkloadError("a scenario sweep needs at least one scenario name")
    unknown = [name for name in names if name not in _SCENARIOS]
    if unknown:
        raise WorkloadError(
            f"unknown scenario(s) {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(available_scenarios())}"
        )
    if seeds is not None and base_seed is not None:
        raise WorkloadError("pass either explicit seeds or a base_seed, not both")

    specs: List[ScenarioSpec] = []
    if base_seed is not None:
        if seeds_per_scenario < 1:
            raise WorkloadError("a scenario sweep needs at least one seed")
        for name in names:
            for position, seed in enumerate(
                spawn_scenario_seeds(base_seed, name, seeds_per_scenario)
            ):
                label = name if seeds_per_scenario == 1 else f"{name}#{position}"
                specs.append(ScenarioSpec(label=label, scenario=name, seed=seed))
        return specs

    if seeds is None:
        seeds = (None,)
    if not seeds:
        raise WorkloadError("a scenario sweep needs at least one seed")
    for name in names:
        for seed in seeds:
            label = name if len(seeds) == 1 else f"{name}#{seed}"
            specs.append(ScenarioSpec(label=label, scenario=name, seed=seed))
    return specs


