"""Epoch-guard tests against a synthesized git repository.

The guard's contract is git-diff-aware: edit a manifest module without
touching ``CODE_EPOCH`` and it fires; bump the epoch in the same diff and it
goes quiet; outside a git checkout it stays silent by design.  These tests
build a miniature project (``src/repro/simulation/kernel.py`` + the digest
module), commit it, then replay each scenario.
"""

from __future__ import annotations

import shutil
import subprocess

import pytest

from repro.lint import Baseline, BaselineEntry, run_lint
from repro.lint.epoch import (
    DIGEST_MODULE,
    SEMANTIC_MANIFEST,
    changed_semantic_paths,
    content_fingerprint,
)

pytestmark = [
    pytest.mark.lint,
    pytest.mark.skipif(shutil.which("git") is None, reason="git not installed"),
]

KERNEL = "src/repro/simulation/kernel.py"


def _git(root, *args):
    subprocess.run(
        ["git", "-c", "user.email=lint@test", "-c", "user.name=lint", *args],
        cwd=str(root),
        check=True,
        capture_output=True,
        text=True,
    )


@pytest.fixture
def repo(tmp_path):
    """A committed miniature project with one manifest module + the digest."""
    (tmp_path / "src/repro/simulation").mkdir(parents=True)
    (tmp_path / "src/repro/store").mkdir(parents=True)
    (tmp_path / KERNEL).write_text("KERNEL_VERSION = 1\n")
    (tmp_path / DIGEST_MODULE).write_text('CODE_EPOCH = "1"\n')
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


def guard_findings(root, **kwargs):
    report = run_lint(root, rules=["epoch-guard"], baseline=Baseline(), **kwargs)
    return [f for f in report.new_findings if f.rule == "epoch-guard"]


def test_guard_fires_on_kernel_edit_without_bump(repo):
    (repo / KERNEL).write_text("KERNEL_VERSION = 2\n")
    findings = guard_findings(repo)
    assert [f.path for f in findings] == [KERNEL]
    assert findings[0].severity == "error"
    assert "CODE_EPOCH" in findings[0].message


def test_guard_quiet_when_epoch_bumped_in_same_diff(repo):
    (repo / KERNEL).write_text("KERNEL_VERSION = 2\n")
    (repo / DIGEST_MODULE).write_text('CODE_EPOCH = "2"\n')
    assert guard_findings(repo) == []


def test_guard_quiet_on_clean_tree_and_non_manifest_edits(repo):
    assert guard_findings(repo) == []
    readme = repo / "README.md"
    readme.write_text("docs only\n")
    assert guard_findings(repo) == []


def test_guard_sees_untracked_manifest_modules(repo):
    (repo / "src/repro/simulation/newpolicy.py").write_text("STEP = 1\n")
    findings = guard_findings(repo)
    assert [f.path for f in findings] == ["src/repro/simulation/newpolicy.py"]


def test_guard_range_mode_audits_committed_history(repo):
    (repo / KERNEL).write_text("KERNEL_VERSION = 2\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "kernel edit, no bump")
    # Working tree is clean now, so the default mode is quiet...
    assert guard_findings(repo) == []
    # ...but the committed range still carries the violation.
    findings = guard_findings(repo, diff_range="HEAD~1..HEAD")
    assert [f.path for f in findings] == [KERNEL]
    assert "HEAD~1..HEAD" in findings[0].message


def _attested(root, context):
    entry = BaselineEntry(
        rule="epoch-guard", path=KERNEL, context=context, justification="neutral"
    )
    return run_lint(root, rules=["epoch-guard"], baseline=Baseline(entries=[entry]))


def test_finding_context_is_the_content_fingerprint(repo):
    (repo / KERNEL).write_text("KERNEL_VERSION = 2\n")
    (finding,) = guard_findings(repo)
    assert finding.context == content_fingerprint(repo, KERNEL)
    assert finding.context.startswith("sha256:")
    (repo / KERNEL).unlink()
    assert content_fingerprint(repo, KERNEL) == "deleted"


def test_fingerprint_attestation_survives_the_commit(repo):
    (repo / KERNEL).write_text("# comment only\nKERNEL_VERSION = 1\n")
    fingerprint = content_fingerprint(repo, KERNEL)
    # Uncommitted: the finding is suppressed by the attestation.
    report = _attested(repo, fingerprint)
    assert report.new_findings == []
    assert [f.rule for f in report.baselined_findings] == ["epoch-guard"]
    # Committed: no diff, no finding, and the entry is still in force.
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "metric-neutral edit")
    report = _attested(repo, fingerprint)
    assert report.new_findings == [] and report.baselined_findings == []


def test_further_edit_refires_and_retires_the_attestation(repo):
    (repo / KERNEL).write_text("# comment only\nKERNEL_VERSION = 1\n")
    fingerprint = content_fingerprint(repo, KERNEL)
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "metric-neutral edit")
    (repo / KERNEL).write_text("# comment only\nKERNEL_VERSION = 2\n")
    report = _attested(repo, fingerprint)
    rules = sorted((f.rule, f.severity) for f in report.new_findings)
    assert rules == [("epoch-guard", "error"), ("lint-baseline", "warning")]


def test_unfingerprinted_entry_goes_stale_on_a_clean_tree(repo):
    report = _attested(repo, "")
    assert [f.rule for f in report.new_findings] == ["lint-baseline"]
    assert "stale" in report.new_findings[0].message


def test_guard_silent_outside_git(tmp_path):
    (tmp_path / "src/repro/simulation").mkdir(parents=True)
    (tmp_path / KERNEL).write_text("KERNEL_VERSION = 1\n")
    assert guard_findings(tmp_path) == []


def test_manifest_filter_honours_excludes():
    changed = [
        "src/repro/simulation/kernel.py",
        "src/repro/core/gantt.py",  # excluded: rendering only
        "src/repro/analysis/reporting.py",  # not in the manifest
        "README.md",
    ]
    assert changed_semantic_paths(changed) == ["src/repro/simulation/kernel.py"]


def test_manifest_covers_the_digest_dependencies():
    # The manifest is the declared dependency set of record_digest(); pin the
    # load-bearing prefixes so an accidental deletion fails loudly here.
    joined = "\n".join(SEMANTIC_MANIFEST)
    for prefix in ("simulation", "heuristics", "lp", "core", "workload"):
        assert f"src/repro/{prefix}/*.py" in joined


def test_deletion_attestation_survives_the_commit(repo):
    (repo / KERNEL).unlink()
    (finding,) = guard_findings(repo)
    assert finding.context == "deleted"
    report = _attested(repo, "deleted")
    assert report.new_findings == []
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "delete the kernel")
    report = _attested(repo, "deleted")
    assert report.new_findings == [] and report.baselined_findings == []
    # Re-creating the module retires the attestation.
    (repo / KERNEL).write_text("KERNEL_VERSION = 1\n")
    _git(repo, "add", KERNEL)
    rules = sorted((f.rule, f.severity) for f in _attested(repo, "deleted").new_findings)
    assert rules == [("epoch-guard", "error"), ("lint-baseline", "warning")]
