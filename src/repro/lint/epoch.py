"""The digest-epoch guard: semantics-bearing edits must bump ``CODE_EPOCH``.

Store cells are content-addressed by ``record_digest(workload, policy,
params, CODE_EPOCH)``; the epoch is the *only* part of that key that tracks
the code.  Changing the simulation event loop, a policy, the LP stack, the
replanning runtime, the workload generators or the stream machinery changes
what a cell's value *means* — resuming an old store after such a change
without an epoch bump silently serves stale results as if they were current.

This rule makes the folklore explicit: :data:`SEMANTIC_MANIFEST` declares the
modules whose content the digests implicitly depend on, and the guard asks
git whether any of them changed (working tree vs ``HEAD`` by default, or an
explicit ``--diff-range A..B``) without a corresponding ``CODE_EPOCH``
change in :data:`DIGEST_MODULE`.

The guard is diff-aware, not semantic: a docstring-only edit to a manifest
module still fires.  That coarseness is deliberate — the reviewer decides
whether to bump (safe: stale cells recompute, ``store gc`` prunes them) or,
for a provably metric-neutral edit, to record a one-line justification in
the baseline.

A finding's context is the :func:`content_fingerprint` of the file as it is
on disk, so a baseline entry attests exactly the vetted content.  The diff
that raised the finding disappears once the edit is committed, but the
attestation does not go stale with it: the entry stays in force for as long
as the file still has that fingerprint.  The next edit changes the
fingerprint, so the guard fires again and the old entry is reported stale.
A deleted module's fingerprint is ``deleted``: its attestation stays in
force while the file is absent and goes stale if the file reappears.
"""

from __future__ import annotations

import fnmatch
import hashlib
import subprocess
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from .findings import Finding
from .registry import Rule, RuleSpec, register_rule

__all__ = [
    "DIGEST_MODULE",
    "EpochGuardRule",
    "SEMANTIC_MANIFEST",
    "changed_semantic_paths",
    "content_fingerprint",
]

#: Glob patterns (project-root-relative, POSIX) of the modules whose
#: semantics the store digests implicitly depend on.  Everything here feeds
#: either the event loop, a policy decision, an LP solve, the workload
#: content behind a (scenario, seed) key, or a persisted metric.
SEMANTIC_MANIFEST: Tuple[str, ...] = (
    "src/repro/simulation/*.py",  # event loop, engine, window, state
    "src/repro/heuristics/*.py",  # every policy + the registry's variant labels
    "src/repro/lp/*.py",  # both LP backends and the lowering
    "src/repro/core/*.py",  # probes, replanning, milestones, formulations
    "src/repro/workload/*.py",  # generators/scenarios/streams behind workload keys
    "src/repro/analysis/campaign.py",  # record normalisation
    "src/repro/analysis/stream_sweep.py",  # stream-cell reports
    "src/repro/analysis/steady_state.py",  # batch-means estimators in reports
)

#: Manifest exceptions: matched by the globs above but semantics-free.
SEMANTIC_EXCLUDES: Tuple[str, ...] = (
    "src/repro/core/gantt.py",  # ASCII rendering only; never feeds a metric
)

#: Where the epoch lives; a bump is a diff hunk touching ``CODE_EPOCH``.
DIGEST_MODULE = "src/repro/store/digest.py"


def _run_git(root: Path, *args: str) -> Optional[str]:
    """Run git in ``root``; ``None`` when git or the repository is absent."""
    try:
        completed = subprocess.run(
            ["git", *args],
            cwd=str(root),
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout


def _changed_paths(root: Path, diff_range: Optional[str]) -> Optional[List[str]]:
    """Paths changed in the range (or vs HEAD + untracked, for the worktree)."""
    if diff_range:
        output = _run_git(root, "diff", "--name-only", diff_range)
        if output is None:
            return None
        return [line.strip() for line in output.splitlines() if line.strip()]
    status = _run_git(root, "status", "--porcelain")
    if status is None:
        return None
    paths: List[str] = []
    for line in status.splitlines():
        if len(line) < 4:
            continue
        entry = line[3:]
        # Renames are reported as "old -> new"; both sides changed.
        paths.extend(part.strip() for part in entry.split(" -> "))
    return paths


def changed_semantic_paths(changed: Iterable[str]) -> List[str]:
    """The subset of ``changed`` matching the semantic manifest."""
    semantic: List[str] = []
    for path in changed:
        if any(fnmatch.fnmatch(path, pattern) for pattern in SEMANTIC_EXCLUDES):
            continue
        if any(fnmatch.fnmatch(path, pattern) for pattern in SEMANTIC_MANIFEST):
            semantic.append(path)
    return sorted(set(semantic))


def content_fingerprint(root: Path, path: str) -> str:
    """``sha256:<16 hex>`` of a file's bytes on disk (``deleted`` if absent)."""
    try:
        data = (Path(root) / path).read_bytes()
    except FileNotFoundError:
        return "deleted"
    return "sha256:" + hashlib.sha256(data).hexdigest()[:16]


def _epoch_bumped(root: Path, diff_range: Optional[str]) -> bool:
    """Whether the diff includes a change to the ``CODE_EPOCH`` assignment."""
    if diff_range:
        output = _run_git(root, "diff", "-U0", diff_range, "--", DIGEST_MODULE)
    else:
        output = _run_git(root, "diff", "-U0", "HEAD", "--", DIGEST_MODULE)
    if not output:
        return False
    return any(
        line.startswith("+") and not line.startswith("+++") and "CODE_EPOCH" in line
        for line in output.splitlines()
    )


class EpochGuardRule(Rule):
    """Fire when manifest modules changed without a ``CODE_EPOCH`` bump.

    Parameters
    ----------
    diff_range:
        Optional git range (``"A..B"``); default compares the working tree
        (including staged and untracked files) against ``HEAD``.
    """

    def __init__(self, diff_range: Optional[str] = None) -> None:
        self.diff_range = diff_range

    def check_project(self, project) -> Iterable[Finding]:
        changed = _changed_paths(project.root, self.diff_range)
        if changed is None:
            # Not a git checkout (sdist, tarball, no git binary): the guard
            # has nothing to compare against and stays silent by design.
            return
        semantic = changed_semantic_paths(changed)
        if not semantic or _epoch_bumped(project.root, self.diff_range):
            return
        scope = self.diff_range or "working tree vs HEAD"
        for path in semantic:
            yield self.finding(
                path,
                0,
                f"semantics-bearing module changed ({scope}) without a "
                f"CODE_EPOCH bump in {DIGEST_MODULE}: stored cells keyed by "
                "the old epoch would silently resume as current — bump the "
                "epoch (stale cells recompute; 'store gc' prunes them) or "
                "baseline this file's content fingerprint (the context line) "
                "with a metric-neutrality justification",
                context=content_fingerprint(project.root, path),
            )

    def keeps_baseline_entry(self, entry, project) -> bool:
        """A fingerprint entry stays in force while the file still matches it."""
        return entry.context == content_fingerprint(project.root, entry.path)


register_rule(
    RuleSpec(
        name="epoch-guard",
        scope="project",
        factory=EpochGuardRule,
        severity="error",
        description="manifest-module edits require a CODE_EPOCH bump (git-diff-aware)",
    )
)
