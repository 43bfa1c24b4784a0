"""Frozen references the tests and benches compare the package against.

Nothing under ``src/repro`` imports this package (``tests/test_layout.py``
asserts it).  It holds:

* :mod:`tests.reference.lp` — the LP expression DSL (``LinearProgram`` and
  its building blocks, lowered by ``to_matrix_form``) and the frozen dense
  tableau simplex;
* :mod:`tests.reference.symbolic_allocation` — the allocation LP skeleton
  stated through the DSL, which ``repro.core.formulations`` must lower to
  bit for bit;
* :mod:`tests.reference.stream_legacy` — the frozen rebuild-per-arrival
  streaming loop (``run_rebuild``);
* :mod:`tests.reference.snapshots` — the deterministic projection of a
  metrics snapshot that the ``parallel == sequential`` tests compare.

The repository root's ``conftest.py`` puts the root on ``sys.path``, so
``tests/`` and ``benchmarks/`` both import it as ``tests.reference``.
"""
