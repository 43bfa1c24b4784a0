"""Frozen references the tests and benches compare the package against.

Nothing under ``src/repro`` imports this package, and every module in it has
an importer in ``tests/`` or ``benchmarks/`` (``tests/test_layout.py``
asserts both).  It holds:

* :mod:`tests.reference.tableau` — the frozen dense tableau simplex, the
  revised simplex's third opinion;
* :mod:`tests.reference.forms` — small LPs stated as a ``MatrixForm`` from
  dense rows, and a witness check of a solver's point against them;
* :mod:`tests.reference.stream_legacy` — the frozen rebuild-per-arrival
  streaming loop (``run_rebuild``);
* :mod:`tests.reference.assignment` — the strict-``<`` machine scan
  (``strict_scan_assignment``) that ``fastest_free_assignment`` replaced;
* :mod:`tests.reference.snapshots` — the deterministic projection of a
  metrics snapshot that the ``parallel == sequential`` tests compare.

The repository root's ``conftest.py`` puts the root on ``sys.path``, so
``tests/`` and ``benchmarks/`` both import it as ``tests.reference``.
"""
