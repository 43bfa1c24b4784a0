"""The analyzer engine: load sources once, run every rule, apply the baseline.

:func:`run_lint` is the one entry point the CLI and the tier-1 self-test
share: it parses the package, instantiates the registered rules, collects
findings, subtracts the baseline, and returns a :class:`LintReport` with
the verdict and the reporters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..obs.clock import wall_clock
from .baseline import DEFAULT_BASELINE_NAME, Baseline, load_baseline
from .findings import ERROR, Finding, severity_rank
from .registry import available_rules, rule_spec
from .sources import load_project

__all__ = ["LintReport", "find_project_root", "run_lint"]


@dataclass
class LintReport:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)  # every finding, ordered
    new_findings: List[Finding] = field(default_factory=list)  # not baselined
    baselined_findings: List[Finding] = field(default_factory=list)
    rules_run: List[str] = field(default_factory=list)
    modules_analyzed: int = 0
    elapsed_seconds: float = 0.0

    def counts_by_severity(self, *, new_only: bool = True) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.new_findings if new_only else self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    def failed(self, fail_on: str = ERROR) -> bool:
        """Whether any non-baselined finding meets the ``fail_on`` threshold."""
        threshold = severity_rank(fail_on)
        return any(
            severity_rank(finding.severity) >= threshold
            for finding in self.new_findings
        )

    # -- reporters --------------------------------------------------------- #
    def render_text(self, *, show_baselined: bool = False) -> str:
        lines: List[str] = []
        for finding in self.new_findings:
            lines.append(
                f"{finding.location}: {finding.severity}: "
                f"[{finding.rule}] {finding.message}"
            )
            if finding.context:
                lines.append(f"    {finding.context}")
        if show_baselined:
            for finding in self.baselined_findings:
                lines.append(
                    f"{finding.location}: baselined: [{finding.rule}] "
                    f"{finding.justification or finding.message}"
                )
        counts = self.counts_by_severity()
        summary = ", ".join(f"{count} {name}(s)" for name, count in sorted(counts.items()))
        lines.append(
            f"repro.lint: {len(self.new_findings)} finding(s) ({summary or 'none'}), "
            f"{len(self.baselined_findings)} baselined, "
            f"{self.modules_analyzed} module(s), {len(self.rules_run)} rule(s), "
            f"{self.elapsed_seconds:.2f}s"
        )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "new_findings": [finding.as_dict() for finding in self.new_findings],
            "baselined_findings": [
                finding.as_dict() for finding in self.baselined_findings
            ],
            "counts": self.counts_by_severity(),
            "rules_run": self.rules_run,
            "modules_analyzed": self.modules_analyzed,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def find_project_root(start: Optional[Path] = None) -> Path:
    """Locate the project root: the nearest ancestor holding ``.git`` or
    ``src/repro`` (falling back to the package's own checkout layout)."""
    if start is None:
        start = Path(__file__).resolve().parents[3]  # src/repro/lint -> repo root
    start = Path(start).resolve()
    for candidate in (start, *start.parents):
        if (candidate / ".git").exists() or (candidate / "src" / "repro").is_dir():
            return candidate
    return start


def run_lint(
    root: Optional[Path] = None,
    *,
    package_root: Optional[Path] = None,
    paths: Optional[Sequence[Path]] = None,
    rules: Optional[Iterable[str]] = None,
    baseline: Optional[Baseline] = None,
    baseline_path: Optional[Path] = None,
    diff_range: Optional[str] = None,
) -> LintReport:
    """Run the analyzer and return its :class:`LintReport`.

    Parameters
    ----------
    root:
        Project root (default: discovered from the installed package).
    package_root:
        Package subtree to analyze (default: ``root/src/repro``).
    paths:
        Explicit file/directory subset instead of the whole package.
    rules:
        Rule-name subset (default: every registered rule).
    baseline / baseline_path:
        A pre-parsed :class:`Baseline`, or the path of one to load; with
        neither given, ``root/.reprolint.json`` is used when present.
    diff_range:
        Git range handed to diff-aware rules (the epoch guard); default is
        the working tree vs ``HEAD``.
    """
    started = wall_clock()
    if root is None:
        root = find_project_root()
    root = Path(root)
    project = load_project(root, package_root, paths=paths)

    if baseline is None:
        if baseline_path is None:
            candidate = root / DEFAULT_BASELINE_NAME
            baseline = load_baseline(candidate) if candidate.exists() else Baseline()
        else:
            baseline = load_baseline(Path(baseline_path))

    selected = list(rules) if rules is not None else available_rules()
    raw_findings: List[Finding] = list(project.parse_failures)
    for name in selected:
        spec = rule_spec(name)
        rule = spec.factory()
        rule.spec = spec
        if diff_range is not None and hasattr(rule, "diff_range"):
            rule.diff_range = diff_range
        if spec.scope == "module":
            for module in project.modules:
                if spec.applies_to_path(module.relpath):
                    raw_findings.extend(rule.check_module(module, project))
        else:
            raw_findings.extend(rule.check_project(project))

    raw_findings.sort(key=lambda f: (f.path, f.line, f.rule))
    new, suppressed = baseline.apply(raw_findings)
    new.extend(baseline.hygiene_findings())

    report = LintReport(
        findings=new + suppressed,
        new_findings=new,
        baselined_findings=suppressed,
        rules_run=selected,
        modules_analyzed=len(project.modules),
        elapsed_seconds=wall_clock() - started,
    )
    return report
