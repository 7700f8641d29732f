"""Host-speed reference: a fixed slice of pure-Python work.

The benchmark host's CPU speed drifts by tens of percent over seconds (a
plain interpreter loop measured in 10-second blocks spread by ~28 %
between its quartiles; README.md has the figures). Every timed phase and
set-up therefore interleaves this reference between its operations, and
each timing is scaled to the host speed the reference nominally runs at:

    scaled = measured * REFERENCE_NOMINAL_S / reference measured alongside

The reference is interpreter work of the same kind the middleware does
(dict lookups and updates, string keys, small lists, float sums, a sort),
so a slower moment of the host slows both alike. It runs with the cyclic
collector off: a collection started inside a slice would walk the
program's live objects, and a program that keeps more of them would then
slow the reference and cancel part of its own slowdown out of the scaled
figures. Raw, unscaled figures are kept in the run record.

The reference tracks the coordinator's CPU only: time a call spends
waiting on fsync or on shard worker processes is scaled like the rest.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

#: median duration of one :func:`reference_seconds` slice on the host the
#: benchmark was written on (2 vCPU Intel Xeon, Python 3.11)
REFERENCE_NOMINAL_S = 0.00050
#: slices per reading; the median drops a slice the scheduler interrupted
SLICES = 3


def _slice() -> int:
    table: dict = {}
    for i in range(700):
        key = "obs-%d" % (i % 61)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = {"n": 0, "sum": 0.0, "ids": []}
        entry["n"] += 1
        entry["sum"] += i * 0.5
        entry["ids"].append(i)
    return len(sorted(table.items(), key=lambda item: (item[1]["sum"], item[0])))


def reference_seconds() -> float:
    """One reading: the median duration of a few reference slices."""
    times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(SLICES):
            start = perf_counter()
            _slice()
            times.append(perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)
