"""Policy-protocol conformance tests against deliberately broken specs.

The rule accepts an injected ``specs`` list, so most cases run against
in-test :class:`PolicySpec` doubles; one test registers a hook-less
scheduler in the live registry and asserts the full analyzer flags it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.heuristics import (
    OnlineScheduler,
    PolicySpec,
    register_online_scheduler,
    unregister_policy,
)
from repro.lint import Baseline, ProjectContext, run_lint
from repro.lint.protocol import PolicyExplicitHooksRule
from repro.lint.registry import rule_spec
from repro.simulation import AllocationDecision

pytestmark = pytest.mark.lint


class _ImplicitHooks(OnlineScheduler):
    """Broken on purpose: inherits the base rebind/compact defaults."""

    name = "implicit-hooks-test"

    def decide(self, state):
        return AllocationDecision()


class _ExplicitHooks(_ImplicitHooks):
    """Conforming: both hooks defined (documented no-ops)."""

    def rebind(self, instance):
        pass

    def compact(self, instance, mapping):
        pass


def _spec(cls):
    return PolicySpec(
        name=cls.name,
        kind="online",
        factory=lambda **kwargs: None,
        scheduler_factory=cls,
    )


def _run_rule(rule_cls, rule_name, specs):
    rule = rule_cls(specs=specs)
    rule.spec = rule_spec(rule_name)
    project = ProjectContext(root=Path.cwd(), package_root=Path.cwd())
    return list(rule.check_project(project))


class TestExplicitHooksRule:
    def test_flags_implicit_rebind_and_compact(self):
        findings = _run_rule(
            PolicyExplicitHooksRule,
            "policy-explicit-hooks",
            [("implicit", _spec(_ImplicitHooks))],
        )
        assert {("rebind" in f.message, "compact" in f.message) for f in findings} == {
            (True, False),
            (False, True),
        }
        assert all(f.context == "class _ImplicitHooks" for f in findings)
        # Findings anchor to the class definition, not line 0.
        assert all(f.line > 0 for f in findings)

    def test_explicit_noops_conform(self):
        findings = _run_rule(
            PolicyExplicitHooksRule,
            "policy-explicit-hooks",
            [("explicit", _spec(_ExplicitHooks))],
        )
        assert findings == []


def test_live_registry_registration_is_flagged_by_full_run():
    """End to end: register a hook-less scheduler, run the real analyzer."""
    register_online_scheduler("implicit-hooks-test", _ImplicitHooks)
    try:
        report = run_lint(rules=["policy-explicit-hooks"], baseline=Baseline())
        offenders = [
            f
            for f in report.new_findings
            if f.rule == "policy-explicit-hooks" and "_ImplicitHooks" in f.message
        ]
        assert len(offenders) == 2  # rebind and compact
        assert offenders[0].path.endswith("tests/lint/test_protocol.py")
    finally:
        unregister_policy("implicit-hooks-test")
