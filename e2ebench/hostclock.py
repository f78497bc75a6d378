"""Host-normalised clocks.

On a shared host the speed available to one process drifts from process
to process by more than the changes the benchmark must resolve.  Every
timed region is therefore bracketed by a fixed pure-Python reference
computation, and a raw timing is reported as

    raw × (NOMINAL_REFERENCE_S ÷ mean of the two adjacent references)

so the unit stays seconds: the time the region would have taken on a
host that runs the reference in exactly ``NOMINAL_REFERENCE_S``.

One reference timing is the median of a few short blocks: a single block
now and then runs far faster or slower than the host around it, and one
such block would otherwise rescale a whole case.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: the reference computation's duration on the host the benchmark was
#: calibrated on (a constant: changing it rescales every reported time)
NOMINAL_REFERENCE_S = 0.025

#: prefix of the standard-error line carrying a run's raw (not normalised)
#: medians and per-case timings; ``spread.py`` reads it to compare raw and
#: normalised spreads
RAW_PREFIX = "raw medians: "

#: iterations of the reference loop (fixed: the work must never vary)
REFERENCE_ITERATIONS = 30_000

#: blocks per reference timing (their median is the timing)
REFERENCE_BLOCKS = 5


def reference_work(iterations: int = REFERENCE_ITERATIONS) -> float:
    """A fixed mix of what the scheduler does in Python: dict and list
    traffic, float arithmetic, heap operations, tuple allocation, a sort."""
    table = {}
    heap = []
    acc = 0.0
    for i in range(iterations):
        key = (i * 2654435761) % 4093
        value = table.get(key, 0.0) + (i % 97) * 0.5
        table[key] = value
        if i % 5 == 0:
            heapq.heappush(heap, (value, key))
        acc += value * 1e-6
    ranked = sorted(table.items(), key=lambda item: (item[1], item[0]))
    while heap:
        acc += heapq.heappop(heap)[0] * 1e-9
    return acc + len(ranked)


def measure_reference() -> float:
    """Seconds the reference computation takes now: the median of
    :data:`REFERENCE_BLOCKS` runs.

    The collector is paused for it: a collection triggered by the
    reference would scan whatever the program left alive, and the
    reference must measure the host, not the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        blocks = []
        for _ in range(REFERENCE_BLOCKS):
            start = time.perf_counter()
            reference_work()
            blocks.append(time.perf_counter() - start)
        return statistics.median(blocks)
    finally:
        if enabled:
            gc.enable()


def normalise(raw_s: float, reference_before_s: float, reference_after_s: float) -> float:
    """``raw_s`` rescaled to the nominal host (see the module docstring)."""
    if reference_before_s <= 0 or reference_after_s <= 0:
        raise ValueError("reference timings must be positive")
    return raw_s * NOMINAL_REFERENCE_S / ((reference_before_s + reference_after_s) / 2.0)
