"""Epoch-guard tests against a synthesized project.

The guard ties the golden corpus to ``CODE_EPOCH``: the corpus stamp must
equal the epoch (checked on disk, no git needed), and a diff that changes a
corpus entry must change the epoch too.  Edits to source modules alone are
quiet.  These tests build a miniature project (one manifest module, the
digest module and a two-entry corpus), commit it, then replay each case.
"""

from __future__ import annotations

import json
import shutil
import subprocess

import pytest

from repro.lint import Baseline, run_lint
from repro.lint.epoch import (
    DIGEST_MODULE,
    GOLDEN_CORPUS,
    SEMANTIC_MANIFEST,
    semantic_modules,
)

pytestmark = [
    pytest.mark.lint,
    pytest.mark.skipif(shutil.which("git") is None, reason="git not installed"),
]

KERNEL = "src/repro/simulation/kernel.py"
ENTRIES = {"simulate/fifo/hotspot/0": "aa", "optimum/divisible/hotspot/0": "1.5"}


def _git(root, *args):
    subprocess.run(
        ["git", "-c", "user.email=lint@test", "-c", "user.name=lint", *args],
        cwd=str(root),
        check=True,
        capture_output=True,
        text=True,
    )


def _write(root, *, epoch="1", stamp=None, edits=None):
    """Write the digest module and the corpus, with ``edits`` over its entries."""
    (root / DIGEST_MODULE).write_text(f'CODE_EPOCH = "{epoch}"\n')
    entries = {**ENTRIES, **(edits or {})}
    corpus = {"code_epoch": epoch if stamp is None else stamp, "entries": entries}
    (root / GOLDEN_CORPUS).write_text(json.dumps(corpus, indent=1, sort_keys=True))


def _project(root):
    for directory in ("src/repro/simulation", "src/repro/store", "tests/golden"):
        (root / directory).mkdir(parents=True)
    (root / KERNEL).write_text("KERNEL_VERSION = 1\n")
    _write(root)
    return root


@pytest.fixture
def repo(tmp_path):
    """A committed miniature project: a manifest module, the digest, a corpus."""
    _project(tmp_path)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


def _commit(root, message):
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", message)


def guard_findings(root, **kwargs):
    report = run_lint(root, rules=["epoch-guard"], baseline=Baseline(), **kwargs)
    return [f for f in report.new_findings if f.rule == "epoch-guard"]


def test_guard_quiet_on_clean_tree_and_non_manifest_edits(repo):
    assert guard_findings(repo) == []
    (repo / "README.md").write_text("docs only\n")
    assert guard_findings(repo) == []


def test_manifest_only_edit_is_quiet(repo):
    (repo / KERNEL).write_text("KERNEL_VERSION = 2\n")
    (repo / "src/repro/simulation/newpolicy.py").write_text("STEP = 1\n")
    assert guard_findings(repo) == []
    _commit(repo, "kernel edit, no bump")
    assert guard_findings(repo, diff_range="HEAD~1..HEAD") == []


def test_corpus_entry_edit_without_bump_fires(repo):
    _write(repo, edits={"simulate/fifo/hotspot/0": "bb"})
    (finding,) = guard_findings(repo)
    assert finding.path == GOLDEN_CORPUS
    assert finding.severity == "error"
    assert "bump CODE_EPOCH and regenerate" in finding.message
    assert "working tree vs HEAD" in finding.message
    assert finding.context == "simulate/fifo/hotspot/0"


def test_corpus_entry_edit_without_bump_fires_in_range_mode(repo):
    _write(repo, edits={"optimum/divisible/hotspot/0": "1.25"})
    _commit(repo, "corpus edit, no bump")
    # The working tree is clean now, so the default mode is quiet...
    assert guard_findings(repo) == []
    # ...but the committed range still carries the violation.
    (finding,) = guard_findings(repo, diff_range="HEAD~1..HEAD")
    assert "HEAD~1..HEAD" in finding.message
    assert finding.context == "optimum/divisible/hotspot/0"
    # A single revision is compared with the working tree.
    assert [f.context for f in guard_findings(repo, diff_range="HEAD~1")] == [finding.context]


def test_open_ended_range_ends_at_head(repo):
    _write(repo, edits={"simulate/fifo/hotspot/0": "bb"})
    _commit(repo, "corpus edit, no bump")
    _write(repo)  # the working tree changes it back
    assert guard_findings(repo, diff_range="HEAD~1") == []
    (finding,) = guard_findings(repo, diff_range="HEAD~1..")
    assert finding.context == "simulate/fifo/hotspot/0"


def test_finding_names_at_most_five_changed_entries(repo):
    keys = [f"simulate/policy{i}/hotspot/0" for i in range(7)]
    _write(repo, edits={key: "aa" for key in keys})
    _commit(repo, "seven more entries")
    _write(repo, edits={key: "bb" for key in keys})
    (finding,) = guard_findings(repo)
    assert finding.message.startswith("7 golden corpus entries changed")
    assert finding.context == ", ".join(keys[:5]) + ", ..."


def test_bump_without_regenerating_fires_on_the_stamp(repo):
    _write(repo, epoch="2", stamp="1")
    (finding,) = guard_findings(repo)
    assert finding.path == GOLDEN_CORPUS
    assert "stamped '1' but CODE_EPOCH is '2'" in finding.message


def test_stamp_check_needs_no_git(tmp_path):
    _project(tmp_path)
    assert guard_findings(tmp_path) == []
    _write(tmp_path, epoch="2", stamp="1")
    (finding,) = guard_findings(tmp_path)
    assert "regenerate" in finding.message


def test_bump_with_regenerated_corpus_is_quiet(repo):
    _write(repo, epoch="2", edits={"simulate/fifo/hotspot/0": "bb"})
    assert guard_findings(repo) == []
    _commit(repo, "behaviour change with its bump")
    assert guard_findings(repo, diff_range="HEAD~1..HEAD") == []


def test_added_and_removed_entries_need_no_bump(repo):
    corpus = json.loads((repo / GOLDEN_CORPUS).read_text())
    del corpus["entries"]["optimum/divisible/hotspot/0"]
    corpus["entries"]["simulate/newpolicy/hotspot/0"] = "cc"
    (repo / GOLDEN_CORPUS).write_text(json.dumps(corpus))
    assert guard_findings(repo) == []


def test_guard_quiet_before_the_corpus_exists(repo):
    (repo / GOLDEN_CORPUS).unlink()
    _commit(repo, "no corpus yet")
    _write(repo, edits={"simulate/fifo/hotspot/0": "bb"})
    assert guard_findings(repo) == []


def test_manifest_filter_honours_excludes(tmp_path):
    for relpath in (
        "src/repro/simulation/__init__.py",
        "src/repro/simulation/stream.py",
        "src/repro/core/gantt.py",  # excluded: rendering only
        "src/repro/analysis/reporting.py",  # not in the manifest
    ):
        (tmp_path / relpath).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / relpath).write_text("")
    assert semantic_modules(tmp_path) == ["repro.simulation", "repro.simulation.stream"]


def test_manifest_covers_the_digest_dependencies():
    # The manifest is the declared dependency set of record_digest(); pin the
    # load-bearing prefixes so an accidental deletion fails loudly here.
    joined = "\n".join(SEMANTIC_MANIFEST)
    for prefix in ("simulation", "heuristics", "lp", "core", "workload"):
        assert f"src/repro/{prefix}/*.py" in joined
