"""Scheduling policies (substrate S11) and the unified policy registry.

The on-line policies are the baselines and the paper's own on-line adaptation
used in experiment E4 (Section 5 simulation claim); the off-line LP optimum is
registered alongside them, so every consumer (CLI, campaigns, benches)
resolves policies by name through one path — see
:mod:`repro.heuristics.registry`.

========================  ==============================================  ==========
Name                      Class                                            Model
========================  ==============================================  ==========
``fifo``                  :class:`FIFOScheduler`                           non-preemptive
``spt``                   :class:`SPTScheduler`                            non-preemptive
``mct``                   :class:`MCTScheduler`                            non-preemptive
``srpt``                  :class:`SRPTScheduler`                           preemptive
``greedy-weighted-flow``  :class:`GreedyWeightedFlowScheduler`             preemptive
``round-robin``           :class:`RoundRobinScheduler`                     divisible
``deadline-driven``       :class:`DeadlineDrivenScheduler`                 preemptive
``online-offline``        :class:`OnlineOfflineAdaptationScheduler`        divisible (LP based)
``offline-optimal``       :class:`~repro.heuristics.registry.OfflineOptimalPolicy`  off-line LP
========================  ==============================================  ==========

Custom policies plug in through :func:`register_online_scheduler` (an
``OnlineScheduler`` subclass) or :func:`register_policy` (anything
implementing :class:`SchedulingPolicy`).

Parameterised variants
----------------------
Policies with a typed parameter schema (``PolicySpec.params``) resolve
variant tokens everywhere a name is accepted — ``make_policy``,
``make_scheduler``, campaigns, the CLI::

    make_policy("online-offline:period=2,relative_precision=1e-2")
    repro-sched campaign --policies online-offline:period=2,deadline-driven

Values equal to the registered default are dropped, so equivalent specs
share one canonical label and one store cell digest (the policy ``params``
slot of :func:`repro.store.record_digest`).
"""

from typing import List

from .base import OnlineScheduler, exclusive_allocation
from .deadline_driven import DeadlineDrivenScheduler
from .list_scheduling import FIFOScheduler, SPTScheduler
from .mct import MCTScheduler
from .online_offline import OnlineOfflineAdaptationScheduler
from .preemptive_policies import GreedyWeightedFlowScheduler, SRPTScheduler
from .registry import (
    OFFLINE_OPTIMAL,
    OfflineOptimalPolicy,
    OnlinePolicy,
    PolicyOutcome,
    PolicyParam,
    PolicySpec,
    PolicyVariant,
    SchedulingPolicy,
    available_policies,
    make_policy,
    make_scheduler,
    policy_spec,
    register_online_scheduler,
    register_policy,
    resolve_policy_variant,
    unregister_policy,
)
from .round_robin import RoundRobinScheduler

__all__ = [
    "DeadlineDrivenScheduler",
    "FIFOScheduler",
    "GreedyWeightedFlowScheduler",
    "MCTScheduler",
    "OFFLINE_OPTIMAL",
    "OfflineOptimalPolicy",
    "OnlineOfflineAdaptationScheduler",
    "OnlinePolicy",
    "OnlineScheduler",
    "PolicyOutcome",
    "PolicyParam",
    "PolicySpec",
    "PolicyVariant",
    "RoundRobinScheduler",
    "SPTScheduler",
    "SRPTScheduler",
    "SchedulingPolicy",
    "available_policies",
    "available_schedulers",
    "exclusive_allocation",
    "make_policy",
    "make_scheduler",
    "policy_spec",
    "register_online_scheduler",
    "register_policy",
    "resolve_policy_variant",
    "unregister_policy",
]

#: Sweepable-parameter schemas of the parameterised built-ins.  The defaults
#: MUST mirror the constructor defaults: resolve_policy_variant drops
#: explicit defaults so equivalent variant specs share one cell digest.
_ONLINE_OFFLINE_PARAMS = (
    PolicyParam("relative_precision", float, 1e-3, "bisection/probe tolerance on F"),
    PolicyParam("max_bisection_steps", int, 40, "bisection-step cap per replanning"),
    PolicyParam("period", float, None, "forced replanning period (None: event-driven)"),
    PolicyParam("preemptive", bool, False, "plan in the preemptive model"),
    PolicyParam("backend", str, "scipy", "LP backend of the zero-objective feasibility probes"),
    PolicyParam("parametric", bool, True, "share one ReplanProbe across events"),
)
_DEADLINE_DRIVEN_PARAMS = (
    PolicyParam("initial_target", float, None, "starting max-weighted-flow target"),
    PolicyParam("growth_factor", float, 1.5, "multiplicative target growth"),
    PolicyParam("lp_targets", bool, False, "relocate violated targets with LP probes"),
    PolicyParam("backend", str, "scipy", "LP backend of the zero-objective lp_targets probes"),
)
_OFFLINE_OPTIMAL_PARAMS = (
    PolicyParam("preemptive", bool, False, "optimise the preemptive model"),
)

#: Built-in on-line schedulers, registered below.
_BUILTIN_SCHEDULERS = (
    ("fifo", FIFOScheduler, "first-in first-out list scheduling", ()),
    ("spt", SPTScheduler, "shortest processing time first", ()),
    ("mct", MCTScheduler, "minimum completion time (the paper's baseline)", ()),
    ("srpt", SRPTScheduler, "shortest remaining processing time (preemptive)", ()),
    (
        "greedy-weighted-flow",
        GreedyWeightedFlowScheduler,
        "largest weighted flow first (preemptive)",
        (),
    ),
    ("round-robin", RoundRobinScheduler, "equal processor sharing (divisible)", ()),
    (
        "deadline-driven",
        DeadlineDrivenScheduler,
        "earliest-deadline-driven (preemptive)",
        _DEADLINE_DRIVEN_PARAMS,
    ),
    (
        "online-offline",
        OnlineOfflineAdaptationScheduler,
        "on-line adaptation of the off-line LP algorithm (Section 5)",
        _ONLINE_OFFLINE_PARAMS,
    ),
)

for _name, _factory, _description, _params in _BUILTIN_SCHEDULERS:
    if _name not in available_policies():
        register_online_scheduler(
            _name, _factory, description=_description, params=_params
        )

if OFFLINE_OPTIMAL not in available_policies():
    register_policy(
        PolicySpec(
            name=OFFLINE_OPTIMAL,
            kind="offline",
            factory=OfflineOptimalPolicy,
            description="off-line LP optimum (Theorem 2 milestone search)",
            params=_OFFLINE_OPTIMAL_PARAMS,
        )
    )


def available_schedulers() -> List[str]:
    """Return the names of all registered on-line policies."""
    return available_policies(kind="online")
