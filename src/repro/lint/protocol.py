"""Policy-protocol conformance: cross-file invariants of the policy runtime.

The simulation event loop calls optional hooks on every registered policy
(``rebind``/``compact`` when the window grows or compacts).  That contract
spans files — a policy lives in one module, its registration in another,
the caller in a third — so a violation used to surface only when a
simulation happened to exercise the hook, if at all.

The rule checks the contract *statically*: it introspects the registered
policy classes' definitions (no simulation runs) and anchors every finding
to the class's own source line.

* ``policy-explicit-hooks`` — every registered on-line scheduler class must
  *define* ``rebind`` and ``compact`` somewhere in its own MRO (above the
  abstract :class:`~repro.heuristics.base.OnlineScheduler` defaults).  The
  base defaults are safe but implicit; the streaming runtime's byte-identity
  guarantees rest on each policy having made the choice deliberately.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Iterable, Optional, Tuple

from .findings import Finding
from .registry import Rule, RuleSpec, register_rule

__all__ = ["PolicyExplicitHooksRule"]


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


class PolicyExplicitHooksRule(Rule):
    """Every registered on-line scheduler defines ``rebind`` and ``compact``.

    ``specs`` injects a fixed (name, spec) list for tests; the default reads
    the live registry at check time.
    """

    def __init__(self, specs=None) -> None:
        self._specs = specs

    def check_project(self, project) -> Iterable[Finding]:
        from ..heuristics.base import OnlineScheduler

        specs = self._specs if self._specs is not None else _registered_specs()
        for name, spec in specs:
            cls = _policy_class(spec)
            if not (isinstance(cls, type) and issubclass(cls, OnlineScheduler)):
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
                if not _defines(cls, hook, above=OnlineScheduler):
                    path, line = _anchor(cls, project)
                    yield self.finding(
                        path,
                        line,
                        f"policy {name!r} ({cls.__name__}) does not define "
                        f"{hook}(): {consequence} — define it explicitly "
                        "(a documented no-op is fine when that is the choice)",
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
