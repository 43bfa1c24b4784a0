"""Repository-level pytest configuration.

Registers the test-tier markers.  Tier-1 (the fast gate every PR runs, see
ROADMAP.md) deselects ``tier2``::

    PYTHONPATH=src python -m pytest -x -q -m "not tier2"

``tier2`` marks the slow store/bench round-trip tests (bulk-insert
throughput, resume skip-rate sweeps) and the golden corpus's LP
``online-offline`` slice; run them explicitly with ``-m tier2`` or by
omitting the deselection.

``bench`` is an alias marker for the heavyweight acceptance benches: any
test marked ``bench`` is automatically also marked ``tier2`` (so bench
modules only need the one marker and tier-1 stays fast), and the benches
can be selected as a family with ``-m bench``.

``bench_smoke`` marks the tiny-scale smoke twins of the bench assertion
paths (``tests/benchmarks/``): they run in tier-1, so a broken bench
assertion surfaces at the fast gate instead of at the ``-m bench`` run.

``lint`` marks the ``repro.lint`` static-analyzer tests (``tests/lint/``),
including the full-package self-check that asserts zero non-baselined
findings over ``src/repro``.  They run in tier-1 by default — the analyzer
is a standing gate the way ``bench_engine_regression.py`` is for the
kernel — and can be selected as a family with ``-m lint``.
"""

import sys
from pathlib import Path

import pytest

# ``tests/`` and ``benchmarks/`` both import the frozen references as
# ``tests.reference``, which resolves from the repository root.
_ROOT = str(Path(__file__).resolve().parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "tier2: slow store/bench round-trip tests, deselected from the tier-1 gate",
    )
    config.addinivalue_line(
        "markers",
        "bench: heavyweight acceptance benches; implies tier2 (tier-1 deselects them)",
    )
    config.addinivalue_line(
        "markers",
        "bench_smoke: tiny-scale bench assertion smoke tests; run in tier-1",
    )
    config.addinivalue_line(
        "markers",
        "lint: repro.lint static-analyzer tests (self-check gate); run in tier-1",
    )


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.get_closest_marker("bench") and not item.get_closest_marker("tier2"):
            item.add_marker(pytest.mark.tier2)
