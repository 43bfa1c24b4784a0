"""``repro.lint`` — the project-invariant static analyzer.

Every correctness claim of this reproduction bottoms out in determinism
invariants: byte-identical kernels, SeedSequence-derived randomness,
content-addressed store cells keyed by ``CODE_EPOCH``.  Until this subsystem
they were enforced only *dynamically* — by benches and round-trip tests, and
only on the paths those happen to exercise.  ``repro.lint`` enforces them
statically, over every module, on every run:

* **determinism rules** (:mod:`repro.lint.determinism`) — no wall-clock
  reads, no unseeded/global-state RNG, no bare-set iteration feeding ordered
  output, no exact float equality in hot-path branches;
* **digest-epoch guard** (:mod:`repro.lint.epoch`) — the golden behaviour
  corpus (``tests/golden/corpus.json``) must be stamped with the current
  ``CODE_EPOCH``, and a diff that changes a corpus entry must bump it;
* **policy-protocol conformance** (:mod:`repro.lint.protocol`) — every
  registered policy defines its streaming hooks and declares a parameter
  schema its constructor accepts;
* **observability defaults** (:mod:`repro.lint.observability`) — runtime
  modules never construct or install concrete metrics recorders, so the
  disabled-mode zero-overhead contract of :mod:`repro.obs` cannot silently
  regress.

Rules live in a registry mirroring ``heuristics.registry``
(:mod:`repro.lint.registry`); intentional violations are allowlisted, with
mandatory justifications, in the committed ``.reprolint.json`` baseline
(:mod:`repro.lint.baseline`).  Run it as ``repro-sched lint`` or
``python -m repro.lint``; the tier-1 suite runs the full analyzer as a
standing gate (``tests/lint/test_selfcheck.py``).
"""

from .baseline import Baseline, BaselineEntry, load_baseline
from .engine import LintReport, find_project_root, run_lint
from .findings import ERROR, NOTE, SEVERITIES, WARNING, Finding
from .registry import (
    Rule,
    RuleSpec,
    available_rules,
    register_rule,
    rule_spec,
)
from .sources import ModuleSource, ProjectContext, load_project
from .typecheck import TypecheckResult, mypy_available, run_typecheck

# Importing the rule modules registers the built-in rules.
from . import determinism as _determinism  # noqa: F401  (registration side effect)
from . import epoch as _epoch  # noqa: F401
from . import observability as _observability  # noqa: F401
from . import protocol as _protocol  # noqa: F401
from .epoch import DIGEST_MODULE, GOLDEN_CORPUS, SEMANTIC_MANIFEST

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DIGEST_MODULE",
    "ERROR",
    "Finding",
    "GOLDEN_CORPUS",
    "LintReport",
    "ModuleSource",
    "NOTE",
    "ProjectContext",
    "Rule",
    "RuleSpec",
    "SEMANTIC_MANIFEST",
    "SEVERITIES",
    "TypecheckResult",
    "WARNING",
    "available_rules",
    "find_project_root",
    "load_baseline",
    "load_project",
    "mypy_available",
    "register_rule",
    "rule_spec",
    "run_lint",
    "run_typecheck",
]
