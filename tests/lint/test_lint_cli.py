"""CLI surface of the analyzer: ``repro-sched lint`` and ``python -m repro.lint``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.lint import find_project_root
from repro.lint.typecheck import TypecheckResult, mypy_available

pytestmark = pytest.mark.lint


def test_lint_exits_zero_on_the_clean_repository(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "repro.lint:" in out
    assert "0 finding(s)" in out


def test_lint_json_format_is_parseable(capsys):
    assert main(["lint", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["new_findings"] == []
    assert payload["modules_analyzed"] > 50
    assert "wall-clock" in payload["rules_run"]


def test_lint_list_prints_the_rule_registry(capsys):
    assert main(["lint", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("wall-clock", "epoch-guard", "policy-explicit-hooks"):
        assert name in out
    assert "policy-param-schema" not in out


def test_lint_rule_subset_and_unknown_rule(capsys):
    assert main(["lint", "--rules", "wall-clock,float-equality"]) == 0
    assert main(["lint", "--rules", "no-such-rule"]) == 1
    assert "unknown rule" in capsys.readouterr().err


def test_lint_show_baselined_prints_justifications(capsys):
    assert main(["lint", "--show-baselined"]) == 0
    out = capsys.readouterr().out
    assert "baselined:" in out


def test_lint_types_reports_explicitly_when_mypy_is_absent(capsys, monkeypatch):
    import repro.lint.typecheck as typecheck

    monkeypatch.setattr(typecheck, "mypy_available", lambda: False)
    result = typecheck.run_typecheck(find_project_root())
    assert not result.available
    assert result.ok
    assert "skipped" in result.output


def test_typecheck_result_verdicts():
    assert TypecheckResult(available=False).ok
    assert TypecheckResult(available=True, returncode=0).ok
    assert not TypecheckResult(available=True, returncode=1).ok
    assert isinstance(mypy_available(), bool)


def test_module_entry_point_runs_the_analyzer():
    root = find_project_root()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--fail-on", "never"],
        cwd=str(root),
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "repro.lint:" in completed.stdout


def test_lint_accepts_an_explicit_path_subset(capsys):
    # A path subset leaves the unrelated baseline entries unused; those
    # surface as stale-entry *warnings*, so the default error threshold still
    # passes while --fail-on warning trips on the same report.
    store = str(find_project_root() / "src" / "repro" / "store")
    assert main(["lint", store, "--rules", "wall-clock"]) == 0
    assert "stale baseline entry" in capsys.readouterr().out
    assert main(["lint", store, "--rules", "wall-clock", "--fail-on", "warning"]) == 1
    capsys.readouterr()
