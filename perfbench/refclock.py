"""Host-speed reference for the benchmark's timings.

On a shared host the same operations run up to ~2x slower from one
stretch of seconds to the next, and from one run to the next, as other
tenants compete for the CPUs and caches.  A figure taken in wall time
then measures the neighbours as much as the library.

So the runner times a fixed *reference kernel* next to the workload —
pure-Python dictionary, tuple and string work plus indexed lookups in an
in-memory SQLite table, the two kinds of work an ask does, and no code
of the library — and reports every time scaled to a host on which one
kernel pass takes ``REFERENCE_SECONDS``::

    reference time = wall time * REFERENCE_SECONDS / kernel time nearby

A slower library takes more kernel passes' worth of time and still
shows; a slower host slows the kernel by the same factor and cancels.
"""

from __future__ import annotations

import gc
import sqlite3
import statistics
import time

#: Seconds of one kernel pass on the reference host (a rounded figure
#: for a 2-vCPU x86_64 host, Python 3.11, SQLite 3.40, when quiet).
REFERENCE_SECONDS = 1e-3
#: Passes per sample; a sample is their mean.
PASSES = 5


class ReferenceClock:
    """Samples the kernel's speed and scales wall times by it."""

    def __init__(self):
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        self._db.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i % 500, f"x{i}") for i in range(5000)]
        )
        self._db.execute("CREATE INDEX t_a ON t (a)")
        #: Every sample taken, in seconds per pass.
        self.samples: list = []
        self._kernel()  # warms the statement cache

    def _kernel(self) -> int:
        table: dict = {}
        for i in range(1500):
            key = ("k", i % 97, str(i))
            table[key] = table.get(key, 0) + len(key[2])
        total = sum(sorted(table.values()))
        query = "SELECT b FROM t WHERE a = ?"
        for i in range(40):
            total += len(self._db.execute(query, (i,)).fetchall())
        return total

    def sample(self) -> float:
        """Seconds of one kernel pass now (mean of ``PASSES`` passes).

        The collector is paused so that the kernel is not charged for
        sweeping the workload's heap.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            for _ in range(PASSES):
                self._kernel()
            seconds = (time.perf_counter() - started) / PASSES
        finally:
            if enabled:
                gc.enable()
        self.samples.append(seconds)
        return seconds

    def median(self) -> float:
        return statistics.median(self.samples)

    def close(self) -> None:
        self._db.close()


def factor(before: float, after: float) -> float:
    """Multiplier from wall time to reference time between two samples."""
    return REFERENCE_SECONDS / ((before + after) / 2.0)
