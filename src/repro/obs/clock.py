"""Clock discipline: the only sanctioned wall-clock reads in ``repro``.

The project's determinism contract (ROADMAP, "Byte-identity discipline")
requires that every quantity folded into record digests, fingerprints or
metrics derives from *simulated* time — the event clock owned by the
kernels.  Wall-clock reads are legal only for two things:

* throughput statistics (``elapsed_seconds`` channels, bench rows,
  phase profiles), and
* store provenance timestamps (``runs.created_at``, gc cutoffs).

Both go through this module.  The ``wall-clock`` lint rule
(:mod:`repro.lint.determinism`) flags any other ``time``/``datetime``
clock read in ``src/repro`` and exempts exactly this file, so a stray
``time.time()`` in a hot path fails the analyzer instead of silently
leaking nondeterminism.
"""

from __future__ import annotations

import time as _time
from datetime import datetime, timezone

__all__ = ["wall_clock", "unix_time", "utc_now", "utc_timestamp"]


def wall_clock() -> float:
    """Monotonic wall-clock seconds for throughput timing.

    The value is only meaningful as a difference between two calls; it is
    never comparable across processes and must never enter a digest,
    fingerprint or simulated-time series.
    """
    return _time.perf_counter()


def unix_time() -> float:
    """Epoch seconds, for run-journal timestamps (reporting channel only).

    Unlike :func:`wall_clock` the value is comparable across processes —
    that is what journal reports (phase totals, heartbeat gaps) need — but
    it is still strictly outside every digest, fingerprint and
    simulated-time series.
    """
    return _time.time()


def utc_now() -> datetime:
    """Timezone-aware current UTC time, for store provenance metadata."""
    return datetime.now(timezone.utc)


def utc_timestamp(timespec: str = "seconds") -> str:
    """ISO-8601 UTC timestamp string (provenance channel only)."""
    return utc_now().isoformat(timespec=timespec)
