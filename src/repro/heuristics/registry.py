"""Unified policy runtime: one registry and one protocol for every policy.

Before PR 2 the off-line LP optimum and the on-line schedulers were different
species: the campaign layer, the CLI and the benches each had their own
special case for ``"offline-optimal"``.  This module unifies them:

* :class:`SchedulingPolicy` is the protocol **every** policy implements —
  ``run(instance)`` produces a :class:`PolicyOutcome` (an executed, validated
  schedule plus its headline metrics), whether the policy simulates an
  on-line scheduler through the event engine or solves the off-line LP.
* :class:`PolicySpec` describes one registered policy (name, kind, factory);
  the module-level registry maps names to specs, and
  :func:`register_policy` / :func:`register_online_scheduler` let downstream
  code plug in custom policies that the CLI, campaigns and benches then
  resolve exactly like the built-ins.
* :func:`make_policy` resolves any registered name to a ready-to-run
  :class:`SchedulingPolicy`; :func:`make_scheduler` keeps the historical
  behaviour of returning the raw on-line scheduler object (and now simply
  reads through the same registry).

The built-in policies are registered by :mod:`repro.heuristics` at import
time, so ``available_policies()`` always includes them.
"""

from __future__ import annotations

import abc
import inspect
import types
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.instance import Instance
from ..core.maxflow import FeasibilityProbe, minimize_max_weighted_flow
from ..core.schedule import Schedule
from ..simulation import SimulationResult, simulate
from .base import OnlineScheduler

__all__ = [
    "OFFLINE_OPTIMAL",
    "OfflineOptimalPolicy",
    "OnlinePolicy",
    "PolicyOutcome",
    "PolicyParam",
    "PolicySpec",
    "PolicyVariant",
    "SchedulingPolicy",
    "available_policies",
    "make_policy",
    "make_scheduler",
    "policy_spec",
    "register_online_scheduler",
    "register_policy",
    "resolve_policies",
    "resolve_policy_variant",
    "unregister_policy",
]

#: Canonical name of the off-line LP optimum in the registry (and in campaign
#: records, where every normalisation is relative to it).
OFFLINE_OPTIMAL = "offline-optimal"


@dataclass(frozen=True)
class PolicyOutcome:
    """What running any policy on an instance produces.

    Attributes
    ----------
    policy:
        Name of the policy that produced the schedule.
    kind:
        ``"online"`` (simulated) or ``"offline"`` (optimised).
    schedule:
        The executed (or optimal) schedule; validates like any schedule.
    max_weighted_flow, max_stretch, makespan:
        Headline metrics of the schedule.
    preemptions:
        Preemption count (0 for off-line schedules).
    objective:
        Exact optimisation objective for off-line policies (``None`` for
        simulated ones, whose ``max_weighted_flow`` is the measurement).
    simulation:
        The full :class:`~repro.simulation.SimulationResult` for on-line
        policies (``None`` for off-line ones).
    """

    policy: str
    kind: str
    schedule: Schedule
    max_weighted_flow: float
    max_stretch: float
    makespan: float
    preemptions: int = 0
    objective: Optional[float] = None
    simulation: Optional[SimulationResult] = None


class SchedulingPolicy(abc.ABC):
    """Protocol every policy — on-line or off-line — implements.

    Attributes
    ----------
    name:
        Registry name of the policy.
    kind:
        ``"online"`` or ``"offline"``.
    """

    name: str = "policy"
    kind: str = "online"

    @abc.abstractmethod
    def run(
        self,
        instance: Instance,
        *,
        probe: Optional[FeasibilityProbe] = None,
    ) -> PolicyOutcome:
        """Produce a schedule for ``instance`` and measure it.

        Parameters
        ----------
        instance:
            The workload to schedule.
        probe:
            Optional pre-warmed :class:`~repro.core.maxflow.FeasibilityProbe`
            for ``instance``; off-line policies reuse its cached range models
            and memoised probe answers (on-line policies ignore it).
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(name={self.name!r}, kind={self.kind!r})"


class OnlinePolicy(SchedulingPolicy):
    """Adapter running an :class:`~repro.heuristics.base.OnlineScheduler`
    through the discrete-event engine."""

    kind = "online"

    def __init__(self, scheduler: OnlineScheduler) -> None:
        self.scheduler = scheduler
        self.name = getattr(scheduler, "name", scheduler.__class__.__name__)

    def run(
        self,
        instance: Instance,
        *,
        probe: Optional[FeasibilityProbe] = None,
    ) -> PolicyOutcome:
        result = simulate(instance, self.scheduler)
        metrics = result.metrics()
        return PolicyOutcome(
            policy=self.name,
            kind=self.kind,
            schedule=result.schedule,
            max_weighted_flow=metrics.max_weighted_flow,
            max_stretch=metrics.max_stretch or 0.0,
            makespan=metrics.makespan,
            preemptions=result.num_preemptions,
            simulation=result,
        )


class OfflineOptimalPolicy(SchedulingPolicy):
    """The paper's off-line LP optimum, as a registry policy.

    Accepts (and profits from) a shared :class:`FeasibilityProbe`: when a
    campaign runs several searches over the same workload, passing the same
    probe re-uses its parametric range models and pinned optimum.
    """

    kind = "offline"
    name = OFFLINE_OPTIMAL

    def __init__(self, preemptive: bool = False) -> None:
        self.preemptive = preemptive

    def run(
        self,
        instance: Instance,
        *,
        probe: Optional[FeasibilityProbe] = None,
    ) -> PolicyOutcome:
        result = minimize_max_weighted_flow(instance, preemptive=self.preemptive, probe=probe)
        metrics = result.schedule.metrics()
        return PolicyOutcome(
            policy=self.name,
            kind=self.kind,
            schedule=result.schedule,
            max_weighted_flow=metrics.max_weighted_flow,
            max_stretch=metrics.max_stretch or 0.0,
            makespan=metrics.makespan,
            objective=result.objective,
        )


# --------------------------------------------------------------------------- #
# Typed policy parameters and variants                                          #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PolicyParam:
    """One typed, sweepable parameter of a registered policy.

    Derived from the policy factory's signature (see :class:`PolicySpec`):
    the name and ``default`` of a keyword with a default, and its annotated
    type with ``Optional`` unwrapped.  :func:`make_policy` drops explicitly
    passed defaults, so ``"name:param=default"`` and plain ``"name"``
    resolve — and digest — to the same cell.
    """

    name: str
    type: type = float
    default: Any = None

    def coerce(self, raw: Any) -> Any:
        """Parse/validate a raw value (possibly a CLI string) to the typed value."""
        if raw is None:
            if self.default is None:
                return None  # "unset" is legal when unset is the default
            raise ValueError(
                f"parameter {self.name!r} expects {self.type.__name__}, got None"
            )
        if isinstance(raw, str):
            text = raw.strip()
            if self.type is bool:
                lowered = text.lower()
                if lowered in ("true", "1", "yes", "on"):
                    return True
                if lowered in ("false", "0", "no", "off"):
                    return False
                raise ValueError(f"parameter {self.name!r} expects a boolean, got {raw!r}")
            try:
                return self.type(text)
            except ValueError:
                raise ValueError(
                    f"parameter {self.name!r} expects {self.type.__name__}, got {raw!r}"
                ) from None
        if self.type is bool:
            if isinstance(raw, bool):
                return raw
            raise ValueError(f"parameter {self.name!r} expects a boolean, got {raw!r}")
        if self.type is float and isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return float(raw)
        if self.type is int:
            if isinstance(raw, bool) or not isinstance(raw, int):
                raise ValueError(f"parameter {self.name!r} expects an integer, got {raw!r}")
            return raw
        if not isinstance(raw, self.type):
            raise ValueError(
                f"parameter {self.name!r} expects {self.type.__name__}, got {raw!r}"
            )
        return raw


def _format_param_value(value: Any) -> str:
    """Canonical textual form of a parameter value (for variant labels)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class PolicyVariant:
    """A resolved policy token: base name plus canonical non-default params.

    ``label`` is the canonical display name (``"base"`` when no parameter
    deviates from its default, ``"base:key=value,..."`` with sorted keys
    otherwise) — it is what outcomes, campaign records and store cells carry;
    ``params`` is the JSON-serialisable mapping that
    :func:`repro.store.record_digest` folds into the cell digest.
    """

    base: str
    params: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""

    @property
    def is_variant(self) -> bool:
        """Whether any parameter deviates from the registered defaults."""
        return bool(self.params)


def _split_policy_token(token: str) -> Tuple[str, Dict[str, str]]:
    """Split ``"name:key=value,key=value"`` into the name and raw params."""
    if ":" not in token:
        return token, {}
    base, _, tail = token.partition(":")
    raw: Dict[str, str] = {}
    for part in tail.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"malformed policy parameter {part!r} in {token!r} (expected key=value)"
            )
        key, _, value = part.partition("=")
        raw[key.strip()] = value.strip()
    return base, raw


def resolve_policy_variant(
    token: str, params: Optional[Mapping[str, Any]] = None
) -> PolicyVariant:
    """Resolve a policy token (and/or explicit params) to a canonical variant.

    Parameters given both inline (``"name:key=value"``) and via ``params``
    are merged (``params`` wins).  Values are coerced against the policy's
    :class:`PolicyParam` schema; unknown parameters raise ``KeyError`` with
    the schema's parameter list.  Values equal to the registered default are
    dropped, so equivalent specs share one label and one cell digest.
    """
    base, raw = _split_policy_token(token)
    spec = policy_spec(base)
    merged: Dict[str, Any] = dict(raw)
    if params:
        merged.update(params)
    schema = {param.name: param for param in spec.params}
    canonical: Dict[str, Any] = {}
    for key, value in merged.items():
        param = schema.get(key)
        if param is None:
            raise KeyError(
                f"policy {base!r} has no parameter {key!r}; "
                f"sweepable: {', '.join(sorted(schema)) or '(none)'}"
            )
        coerced = param.coerce(value)
        if coerced != param.default:
            canonical[key] = coerced
    label = base
    if canonical:
        label += ":" + ",".join(
            f"{key}={_format_param_value(canonical[key])}" for key in sorted(canonical)
        )
    return PolicyVariant(base=base, params=canonical, label=label)


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
def _keyword_params(factory: Callable[..., Any]) -> Tuple[PolicyParam, ...]:
    """The schema of ``factory``: one :class:`PolicyParam` per keyword with a default.

    Parameters without a default (and ``*args``/``**kwargs``) are not
    sweepable.  A sweepable keyword must be annotated; ``Optional[X]`` (or
    ``X | None``) is swept as ``X`` with ``None`` as its "unset" default.
    """
    params = []
    for name, parameter in inspect.signature(factory, eval_str=True).parameters.items():
        if parameter.default is inspect.Parameter.empty:
            continue
        annotation = parameter.annotation
        if annotation is inspect.Parameter.empty:
            raise TypeError(
                f"policy keyword {name!r} of {factory!r} needs a type annotation"
            )
        if typing.get_origin(annotation) in (typing.Union, types.UnionType):
            (annotation,) = (
                arg for arg in typing.get_args(annotation) if arg is not type(None)
            )
        params.append(PolicyParam(name, annotation, parameter.default))
    return tuple(params)


@dataclass(frozen=True)
class PolicySpec:
    """One registered policy.

    Attributes
    ----------
    name:
        Registry key; what campaigns, the CLI and benches resolve.
    kind:
        ``"online"`` or ``"offline"``.
    factory:
        Callable returning a ready-to-run :class:`SchedulingPolicy`
        (a variant's parameters are forwarded as keyword arguments).
    description:
        One line for ``repro-sched info`` and the docs.
    scheduler_factory:
        For on-line policies, the factory of the raw
        :class:`~repro.heuristics.base.OnlineScheduler` (what
        :func:`make_scheduler` returns); ``None`` for off-line policies.
    params:
        Typed schema of the policy's sweepable parameters, derived from the
        keywords with defaults of ``scheduler_factory`` (or ``factory``):
        campaigns resolve ``"name:key=value"`` variant tokens against it and
        the values flow into the store's cell digests (see
        :func:`resolve_policy_variant`).
    """

    name: str
    kind: str
    factory: Callable[..., SchedulingPolicy]
    description: str = ""
    scheduler_factory: Optional[Callable[..., OnlineScheduler]] = None
    params: Tuple[PolicyParam, ...] = field(init=False)

    def __post_init__(self) -> None:
        params = _keyword_params(self.scheduler_factory or self.factory)
        object.__setattr__(self, "params", params)


_POLICIES: Dict[str, PolicySpec] = {}


def register_policy(spec: PolicySpec, *, replace: bool = False) -> PolicySpec:
    """Add a policy to the registry (``replace=True`` to override a name)."""
    if spec.kind not in ("online", "offline"):
        raise ValueError(f"policy kind must be 'online' or 'offline', got {spec.kind!r}")
    if not replace and spec.name in _POLICIES:
        raise ValueError(f"policy {spec.name!r} is already registered (pass replace=True)")
    _POLICIES[spec.name] = spec
    return spec


def register_online_scheduler(
    name: str,
    scheduler_factory: Callable[..., OnlineScheduler],
    *,
    description: str = "",
    replace: bool = False,
) -> PolicySpec:
    """Register an on-line scheduler class/factory as a named policy.

    Its keyword parameters with defaults become the policy's sweepable
    parameters.
    """

    def factory(**kwargs) -> SchedulingPolicy:
        return OnlinePolicy(scheduler_factory(**kwargs))

    return register_policy(
        PolicySpec(
            name=name,
            kind="online",
            factory=factory,
            description=description,
            scheduler_factory=scheduler_factory,
        ),
        replace=replace,
    )


def unregister_policy(name: str) -> None:
    """Remove a policy from the registry (no-op when absent)."""
    _POLICIES.pop(name, None)


def policy_spec(name: str) -> PolicySpec:
    """Return the :class:`PolicySpec` registered under ``name``."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; available: {', '.join(available_policies())}"
        ) from None


def available_policies(kind: Optional[str] = None) -> List[str]:
    """Sorted names of registered policies, optionally filtered by kind."""
    return sorted(
        name for name, spec in _POLICIES.items() if kind is None or spec.kind == kind
    )


def make_policy(
    name: str, *, params: Optional[Mapping[str, Any]] = None
) -> SchedulingPolicy:
    """Resolve a policy name — or a parameterised variant — to a policy object.

    ``name`` may be a plain registry name or a variant token
    (``"online-offline:period=2"``); ``params`` supplies the same parameters
    programmatically.  Parameterised variants carry their canonical variant
    label as ``policy.name``, so campaign records and store cells distinguish
    them.
    """
    variant = resolve_policy_variant(name, params)
    policy = policy_spec(variant.base).factory(**variant.params)
    if variant.is_variant:
        policy.name = variant.label
        scheduler = getattr(policy, "scheduler", None)
        if scheduler is not None:
            scheduler.name = variant.label
    return policy


def resolve_policies(tokens: Iterable[str]) -> List[PolicyVariant]:
    """Resolve and build every policy token once; return the variants in order.

    Campaigns, stream sweeps and the CLI call this in the parent before
    dispatching any cell, so an unknown name or parameter (``KeyError``) or
    a value the policy's constructor rejects (``ValueError``) fails the run
    up front instead of in the middle of it.
    """
    variants = []
    for token in tokens:
        variant = resolve_policy_variant(token)
        policy_spec(variant.base).factory(**variant.params)
        variants.append(variant)
    return variants


def make_scheduler(name: str) -> OnlineScheduler:
    """Instantiate the raw on-line scheduler registered under ``name``.

    ``name`` accepts the same ``"name:key=value"`` variant tokens as
    :func:`make_policy`.  Off-line policies have no scheduler object;
    resolving one raises a ``KeyError`` pointing at :func:`make_policy`.
    """
    spec = _POLICIES.get(name.partition(":")[0])
    if spec is None:
        raise KeyError(
            f"unknown scheduler {name!r}; available: "
            f"{', '.join(available_policies(kind='online'))}"
        )
    if spec.scheduler_factory is None:
        raise KeyError(
            f"policy {name!r} is off-line and has no on-line scheduler; "
            "resolve it with make_policy() instead"
        )
    variant = resolve_policy_variant(name)
    scheduler = spec.scheduler_factory(**variant.params)
    if variant.is_variant:
        scheduler.name = variant.label
    return scheduler
