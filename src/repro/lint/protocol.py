"""Policy-protocol conformance: cross-file invariants of the policy runtime.

The simulation event loop calls optional hooks on every registered policy
(``rebind``/``compact`` when the window grows or compacts) and campaigns
sweep parameters through each policy's
:class:`~repro.heuristics.registry.PolicyParam` schema.  All of these contracts span files — a policy lives in
one module, its registration in another, the caller in a third — so a
violation used to surface only when a simulation happened to exercise the
hook, if at all.

These rules check the contracts *statically*: they introspect the registered
policy classes' definitions (no simulation runs) and anchor every finding to
the class's own source line.

* ``policy-explicit-hooks`` — every registered on-line scheduler class must
  *define* ``rebind`` and ``compact`` somewhere in its own MRO (above the
  abstract :class:`~repro.heuristics.base.OnlineScheduler` defaults).  The
  base defaults are safe but implicit; the streaming runtime's byte-identity
  guarantees rest on each policy having made the choice deliberately.
* ``policy-param-schema`` — every :class:`PolicyParam` name must be a
  keyword the policy's constructor accepts, else variant resolution builds
  kwargs the factory rejects at sweep time.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Iterable, Optional, Tuple

from .findings import Finding
from .registry import Rule, RuleSpec, register_rule

__all__ = [
    "PolicyExplicitHooksRule",
    "PolicyParamSchemaRule",
]


def _registered_specs():
    """(name, spec) pairs of the live policy registry."""
    from ..heuristics import registry as policies

    return [(name, policies.policy_spec(name)) for name in policies.available_policies()]


def _policy_class(spec) -> Optional[type]:
    """The concrete class behind a spec, when it is introspectable."""
    if inspect.isclass(spec.scheduler_factory):
        return spec.scheduler_factory
    if inspect.isclass(spec.factory):
        return spec.factory
    return None


def _anchor(cls: type, project) -> Tuple[str, int]:
    """(relpath, line) of a class definition, project-relative when possible."""
    try:
        path = Path(inspect.getsourcefile(cls) or "")
        line = inspect.getsourcelines(cls)[1]
    except (OSError, TypeError):
        return cls.__module__, 0
    try:
        relpath = path.resolve().relative_to(project.root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    return relpath, line


def _defines(cls: type, method: str, *, above: type) -> bool:
    """Whether ``cls`` defines ``method`` in its MRO above the ``above`` base."""
    for klass in cls.__mro__:
        if klass is above:
            break
        if method in vars(klass):
            return True
    return False


class _RegistryRule(Rule):
    """Shared plumbing: iterate registered policy classes.

    ``specs`` injects a fixed (name, spec) list for tests; the default reads
    the live registry at check time.
    """

    def __init__(self, specs=None) -> None:
        self._specs = specs

    def _policy_classes(self):
        specs = self._specs if self._specs is not None else _registered_specs()
        from ..heuristics.base import OnlineScheduler

        for name, spec in specs:
            cls = _policy_class(spec)
            if cls is None:
                continue
            yield name, spec, cls, OnlineScheduler


class PolicyExplicitHooksRule(_RegistryRule):
    """Every registered on-line scheduler defines ``rebind`` and ``compact``."""

    def check_project(self, project) -> Iterable[Finding]:
        for name, spec, cls, base in self._policy_classes():
            if not (isinstance(cls, type) and issubclass(cls, base)):
                continue
            for hook, consequence in (
                (
                    "rebind",
                    "window growth falls back to the base no-op without the "
                    "policy having asserted that no per-instance state needs "
                    "refreshing",
                ),
                (
                    "compact",
                    "window compaction falls back to reset(), which forgets "
                    "cross-event state (plans, commitments) and makes the "
                    "streamed behaviour depend on when compaction happens",
                ),
            ):
                if not _defines(cls, hook, above=base):
                    path, line = _anchor(cls, project)
                    yield self.finding(
                        path,
                        line,
                        f"policy {name!r} ({cls.__name__}) does not define "
                        f"{hook}(): {consequence} — define it explicitly "
                        "(a documented no-op is fine when that is the choice)",
                        context=f"class {cls.__name__}",
                    )


class PolicyParamSchemaRule(_RegistryRule):
    """Every ``PolicyParam`` name is a constructor keyword of its policy."""

    def check_project(self, project) -> Iterable[Finding]:
        for name, spec, cls, base in self._policy_classes():
            if not spec.params:
                continue
            try:
                signature = inspect.signature(cls.__init__)
            except (TypeError, ValueError):
                continue
            parameters = signature.parameters
            if any(
                parameter.kind is inspect.Parameter.VAR_KEYWORD
                for parameter in parameters.values()
            ):
                continue
            accepted = {
                key
                for key, parameter in parameters.items()
                if key != "self"
                and parameter.kind
                in (
                    inspect.Parameter.POSITIONAL_OR_KEYWORD,
                    inspect.Parameter.KEYWORD_ONLY,
                )
            }
            for param in spec.params:
                if param.name not in accepted:
                    path, line = _anchor(cls, project)
                    yield self.finding(
                        path,
                        line,
                        f"policy {name!r} declares sweepable parameter "
                        f"{param.name!r} but {cls.__name__}.__init__ accepts "
                        f"only ({', '.join(sorted(accepted)) or 'nothing'}): "
                        "variant resolution would build kwargs the factory "
                        "rejects at sweep time",
                        context=f"class {cls.__name__}",
                    )


register_rule(
    RuleSpec(
        name="policy-explicit-hooks",
        scope="project",
        factory=PolicyExplicitHooksRule,
        severity="error",
        description="registered schedulers define rebind() and compact() explicitly",
    )
)
register_rule(
    RuleSpec(
        name="policy-param-schema",
        scope="project",
        factory=PolicyParamSchemaRule,
        severity="error",
        description="PolicyParam schema names match the policy constructor's kwargs",
    )
)
