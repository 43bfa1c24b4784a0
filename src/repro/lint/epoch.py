"""The digest-epoch guard: behaviour changes must bump ``CODE_EPOCH``.

Store cells are content-addressed by ``record_digest(workload, policy,
params, CODE_EPOCH)``; the epoch is the *only* part of that key that tracks
the code.  Changing what a cell's value means without an epoch bump lets an
old store silently resume stale results as current.

What the cells' values rest on is pinned by the committed golden corpus,
:data:`GOLDEN_CORPUS`: fingerprints of ``simulate`` and stream runs, the
off-line optima, a tiny campaign and stream sweep, and fixed LPs, stamped
with the ``CODE_EPOCH`` that produced them.  Tier-1 recomputes it
(``tests/golden/regenerate.py --check``), so a behaviour change fails there
until the corpus is regenerated.  This rule ties the corpus to the epoch:

* the corpus stamp must equal ``CODE_EPOCH`` in :data:`DIGEST_MODULE`.  The
  check reads the files on disk and needs no git, so an epoch bump without a
  regenerated corpus is caught anywhere;
* a diff (working tree vs ``HEAD`` by default, or an explicit
  ``--diff-range A..B``) that changes the value of a corpus entry must also
  change ``CODE_EPOCH``.  Added and removed entries need no bump.

Edits to source modules alone never fire: an edit that changes behaviour
fails the corpus check, and one that does not needs nothing.
:data:`SEMANTIC_MANIFEST` is the corpus's coverage list:
``regenerate.py --check`` fails when a manifest module outside
:data:`SEMANTIC_EXCLUDES` was never imported while computing the corpus.
"""

from __future__ import annotations

import fnmatch
import json
import re
import subprocess
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .findings import Finding
from .registry import Rule, RuleSpec, register_rule

__all__ = [
    "DIGEST_MODULE",
    "EpochGuardRule",
    "GOLDEN_CORPUS",
    "SEMANTIC_EXCLUDES",
    "SEMANTIC_MANIFEST",
    "semantic_modules",
]

#: Glob patterns (project-root-relative, POSIX) of the modules whose
#: semantics the store digests implicitly depend on.  Everything here feeds
#: either the event loop, a policy decision, an LP solve, the workload
#: content behind a (scenario, seed) key, or a persisted metric; the golden
#: corpus must import every one of them.
SEMANTIC_MANIFEST: Tuple[str, ...] = (
    "src/repro/simulation/*.py",  # event loop, engine, window, state
    "src/repro/heuristics/*.py",  # every policy + the registry's variant labels
    "src/repro/lp/*.py",  # both LP backends and the matrix form
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

#: Where the epoch lives.
DIGEST_MODULE = "src/repro/store/digest.py"

#: The behaviour corpus: ``{"code_epoch": ..., "entries": {key: value}}``.
GOLDEN_CORPUS = "tests/golden/corpus.json"


def semantic_modules(root: Path) -> List[str]:
    """Dotted names of the manifest modules under ``root``, excludes left out."""
    names = []
    for path in sorted((Path(root) / "src").rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        if any(fnmatch.fnmatch(relpath, p) for p in SEMANTIC_EXCLUDES):
            continue
        if any(fnmatch.fnmatch(relpath, p) for p in SEMANTIC_MANIFEST):
            parts = path.relative_to(Path(root) / "src").with_suffix("").parts
            names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


_EPOCH_ASSIGNMENT = re.compile(r"""^CODE_EPOCH\s*=\s*["']([^"']*)["']""", re.MULTILINE)


def _run_git(root: Path, *args: str) -> Optional[str]:
    """Run git in ``root``; ``None`` when git, the repository or the object is absent."""
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


def _read(root: Path, revision: Optional[str], path: str) -> Optional[str]:
    """``path`` at a git revision, or on disk when ``revision`` is ``None``."""
    if revision is not None:
        return _run_git(root, "show", f"{revision}:{path}")
    try:
        return (Path(root) / path).read_text(encoding="utf-8")
    except OSError:
        return None


def _code_epoch(text: Optional[str]) -> Optional[str]:
    match = _EPOCH_ASSIGNMENT.search(text or "")
    return match.group(1) if match else None


def _corpus(text: Optional[str]) -> Optional[Dict]:
    return json.loads(text) if text else None


def _sides(diff_range: Optional[str]) -> Tuple[str, Optional[str]]:
    """(base, head) revisions of a range; a ``None`` head is the working tree."""
    if not diff_range:
        return "HEAD", None
    if ".." not in diff_range:
        return diff_range, None
    base, _, head = diff_range.partition("..")
    return base or "HEAD", head or "HEAD"


class EpochGuardRule(Rule):
    """Fire when the corpus and ``CODE_EPOCH`` disagree.

    Parameters
    ----------
    diff_range:
        Optional git range (``"A..B"``); default compares the working tree
        against ``HEAD``.
    """

    def __init__(self, diff_range: Optional[str] = None) -> None:
        self.diff_range = diff_range

    def check_project(self, project) -> Iterable[Finding]:
        root = project.root
        corpus = _corpus(_read(root, None, GOLDEN_CORPUS))
        epoch = _code_epoch(_read(root, None, DIGEST_MODULE))
        if corpus is not None and epoch is not None and corpus.get("code_epoch") != epoch:
            yield self.finding(
                GOLDEN_CORPUS,
                0,
                f"golden corpus stamped {corpus.get('code_epoch')!r} but CODE_EPOCH "
                f"is {epoch!r}: regenerate it (python tests/golden/regenerate.py)",
            )
        base, head = _sides(self.diff_range)
        old = _corpus(_read(root, base, GOLDEN_CORPUS))
        new = _corpus(_read(root, head, GOLDEN_CORPUS))
        if old is None or new is None:
            # No corpus on one side (not a git checkout, or before the corpus
            # existed): there are no entries to compare.
            return
        old_entries, new_entries = old.get("entries", {}), new.get("entries", {})
        changed = sorted(
            key for key in old_entries.keys() & new_entries.keys()
            if old_entries[key] != new_entries[key]
        )
        if not changed or _code_epoch(_read(root, base, DIGEST_MODULE)) != _code_epoch(
            _read(root, head, DIGEST_MODULE)
        ):
            return
        scope = self.diff_range or "working tree vs HEAD"
        yield self.finding(
            GOLDEN_CORPUS,
            0,
            f"{len(changed)} golden corpus entr{'y' if len(changed) == 1 else 'ies'} "
            f"changed ({scope}) without a CODE_EPOCH change in {DIGEST_MODULE}: "
            "stored cells keyed by the old epoch would silently resume as current — "
            "bump CODE_EPOCH and regenerate",
            context=", ".join(changed[:5]) + (", ..." if len(changed) > 5 else ""),
        )


register_rule(
    RuleSpec(
        name="epoch-guard",
        scope="project",
        factory=EpochGuardRule,
        severity="error",
        description="golden-corpus changes require a CODE_EPOCH bump, and the "
        "corpus stamp must equal CODE_EPOCH",
    )
)
