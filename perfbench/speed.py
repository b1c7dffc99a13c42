"""Speed reference for scaling measured times to a fixed machine speed.

On a shared host the speed of a core swings by up to 1.5x for tens of
seconds at a time, with the load of other tenants; no run length averages
that out.  The benchmark therefore times this fixed kernel next to the work
it measures, on the same core, and reports each time scaled by
REFERENCE_S / (the kernel's time at that moment).  A change to gridball
moves the scaled times as it moves the wall times; a slow spell of the host
moves both the work and the kernel, and cancels.

The kernel is three chained numpy gathers over 262,144 int64 values (2 MiB)
through a small table, into buffers allocated once: the kind of table
lookup gridball's field arithmetic runs on its point arrays, without the
page faults of fresh allocations, whose cost would depend on the allocator
state the program under test leaves behind.  On a 2-vCPU shared VM,
scaling by it left 4-9% of run-to-run spread where wall times spread
9-28%; smaller working sets and interpreter loops tracked the host's slow
spells worse.  It uses nothing from gridball, so no change to the program
under test can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# scaled times are seconds on a machine where the kernel takes this long,
# about its time in a typical pass on the machine of
# perfbench/results/BENCH_seed.json (whose runs record kernel_s_median)
REFERENCE_S = 2.0e-3

_TABLE = np.random.default_rng(0).integers(0, 1000, 1000)
_INDEX = np.random.default_rng(1).integers(0, 1000, 1 << 18)
_BUF = (np.empty_like(_INDEX), np.empty_like(_INDEX))


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    a, b = _BUF
    start = perf_counter()
    np.take(_TABLE, _INDEX, out=a)
    np.take(_TABLE, a, out=b)
    np.take(_TABLE, b, out=a)
    return perf_counter() - start


def scaled(seconds: float, kernel: float) -> float:
    """seconds, measured while the kernel took `kernel`, at reference speed."""
    return seconds * REFERENCE_S / kernel
