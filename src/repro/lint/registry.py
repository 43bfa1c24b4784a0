"""Rule registry — the analyzer's mirror of ``heuristics.registry``.

Every check the analyzer performs is a registered :class:`RuleSpec`, the
exact pattern the policy runtime uses for :class:`~repro.heuristics.registry.
PolicySpec`: a module-level name → spec mapping, a factory per spec, and
``register_rule`` for downstream additions.  The engine resolves rules by
name, so the CLI can select subsets (``--rules``) and the tests can exercise
one rule in isolation.

Rules come in two scopes:

* ``"module"`` — the rule's :meth:`Rule.check_module` is called once per
  parsed source module (optionally restricted to path prefixes via
  :attr:`RuleSpec.applies_to`);
* ``"project"`` — the rule's :meth:`Rule.check_project` is called once with
  the whole :class:`~repro.lint.sources.ProjectContext` (cross-file
  invariants: the digest-epoch guard, policy-protocol conformance).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .findings import ERROR, Finding, severity_rank

__all__ = [
    "Rule",
    "RuleSpec",
    "available_rules",
    "register_rule",
    "rule_spec",
    "unregister_rule",
]


class Rule(abc.ABC):
    """Base class of every analyzer rule.

    Subclasses override :meth:`check_module` (scope ``"module"``) or
    :meth:`check_project` (scope ``"project"``); the engine calls the one
    matching the registered scope.  ``self.spec`` is stamped by the engine
    before any check runs, so rules emit findings under their registered
    name and severity via :meth:`finding`.
    """

    spec: "RuleSpec"

    def check_module(self, module, project) -> Iterable[Finding]:
        """Check one parsed module (module-scope rules)."""
        return ()

    def check_project(self, project) -> Iterable[Finding]:
        """Check the whole project (project-scope rules)."""
        return ()

    def finding(self, path: str, line: int, message: str, context: str = "") -> Finding:
        """Build a finding under this rule's registered name and severity."""
        return Finding(
            rule=self.spec.name,
            severity=self.spec.severity,
            path=path,
            line=line,
            message=message,
            context=context,
        )


@dataclass(frozen=True)
class RuleSpec:
    """One registered analyzer rule.

    Attributes
    ----------
    name:
        Registry key; what ``--rules`` and baseline entries reference.
    scope:
        ``"module"`` (per-file AST check) or ``"project"`` (cross-file).
    factory:
        Callable returning a ready :class:`Rule` instance.
    severity:
        Default severity of the rule's findings.
    description:
        One line for ``repro-sched lint --list`` and the docs.
    applies_to:
        For module-scope rules, path prefixes (project-root-relative, POSIX)
        the rule is restricted to; empty means every analyzed module.
    """

    name: str
    scope: str
    factory: Callable[[], Rule]
    severity: str = ERROR
    description: str = ""
    applies_to: Tuple[str, ...] = ()

    def applies_to_path(self, relpath: str) -> bool:
        """Whether a module path falls inside the rule's restriction."""
        if not self.applies_to:
            return True
        return any(relpath.startswith(prefix) for prefix in self.applies_to)


_RULES: Dict[str, RuleSpec] = {}


def register_rule(spec: RuleSpec, *, replace: bool = False) -> RuleSpec:
    """Add a rule to the registry (``replace=True`` to override a name)."""
    if spec.scope not in ("module", "project"):
        raise ValueError(f"rule scope must be 'module' or 'project', got {spec.scope!r}")
    severity_rank(spec.severity)  # validates
    if not replace and spec.name in _RULES:
        raise ValueError(f"rule {spec.name!r} is already registered (pass replace=True)")
    _RULES[spec.name] = spec
    return spec


def unregister_rule(name: str) -> None:
    """Remove a rule from the registry (no-op when absent)."""
    _RULES.pop(name, None)


def rule_spec(name: str) -> RuleSpec:
    """Return the :class:`RuleSpec` registered under ``name``."""
    try:
        return _RULES[name]
    except KeyError:
        raise KeyError(
            f"unknown rule {name!r}; available: {', '.join(available_rules())}"
        ) from None


def available_rules(scope: Optional[str] = None) -> List[str]:
    """Sorted names of registered rules, optionally filtered by scope."""
    return sorted(
        name for name, spec in _RULES.items() if scope is None or spec.scope == scope
    )
