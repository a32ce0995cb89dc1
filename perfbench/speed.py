"""Host-speed probe: puts host times on one reference clock.

The 2-vCPU boxes this benchmark runs on change speed by up to a third
for seconds at a time (a busy neighbour on a shared core): a fixed
pure-Python loop takes 20 ms in one second and 27 ms in the next.  A
host time divided by the probe's time measured next to it, times the
probe's reference time, cancels most of that drift, so the
host-time metrics are reported in *reference milliseconds*: what the
time would have been on a host that runs the probe in ``REF_S``.  The
raw wall-clock figures are printed beside them.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from typing import List

import numpy as np

#: The probe's median duration on the reference host (a 2-core x86
#: box); reported times are scaled to it.
REF_S = 0.7e-3


class _Cell:
    __slots__ = ("key", "values")

    def __init__(self, key: int, values: list):
        self.key = key
        self.values = values


_BLOCK = b"\x5a" * 8192
_SAMPLES = [float(i % 17) for i in range(1000)]


def _loop(n: int = 700) -> int:
    # The kinds of work the program does, in fixed proportions:
    # interpreter arithmetic and dict traffic, small-object and list
    # allocation (which drives the collector), hashing, and a short numpy
    # kernel.  A probe of pure arithmetic missed slowdowns that hit the
    # allocation-heavy farm and so tracked it worse than no scaling.
    acc = 0
    table: dict = {}
    cells: list = []
    for i in range(n):
        acc += (i * i) % 7
        table[i & 63] = table.get(i & 63, 0) + 1
        cells.append(_Cell(i, [float(i), float(acc)]))
    digest = hashlib.blake2b(_BLOCK).digest()
    total = float((np.asarray(_SAMPLES)[:-3] * 2.0).sum())
    return acc + len(cells) + len(table) + digest[0] + int(total)


def probe(repeats: int = 3) -> float:
    """Median duration (s) of *repeats* back-to-back probe loops.

    The collector is off while the probe runs: the probe frees all it
    allocates, so it leaves the collector's counts where it found them
    and neither runs nor defers a collection of the program's heap.
    """
    times: List[float] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(seconds: float, probe_s: float, power: float = 1.0) -> float:
    """*seconds* measured while the probe took *probe_s*, in reference
    seconds; a *power* below 1 applies only part of the correction."""
    return seconds * (REF_S / probe_s) ** power
