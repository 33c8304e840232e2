"""A fixed reference kernel that tracks the machine's speed during a run.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes, as other tenants load its sibling threads and caches.
A run of the benchmark sees whatever state the machine is in, so raw times
spread widely from run to run. The benchmark therefore runs this kernel
next to every unit of work and reports times scaled to a machine on which
the kernel takes REF_S.

The kernel is one small ARC-II-like layer (build an interaction grid,
multiply, ReLU, 2x2 max-pool), so a slow spell slows it about as much as
it slows arcmatch. It runs once untimed before the timed repeats, so the
cache state left by the work before it does not count. It lives in the
benchmark, so a change to arcmatch cannot change it.
"""

import time

import numpy as np

REF_S = 0.0005   # nominal kernel time, near its median on a 2-vCPU Xeon VM
REPEATS = 12     # timed repeats of the layer per tick
WINDOW = 2       # a sample is scaled by the ticks of the 2*WINDOW+1 around it

_RNG = np.random.default_rng(0)
_X = _RNG.random((10, 48))
_Y = _RNG.random((10, 48))
_W = _RNG.random((96, 32))


def _layer() -> None:
    grid = np.concatenate([np.repeat(_X[:, None], 10, 1),
                           np.repeat(_Y[None], 10, 0)], axis=2)
    h = np.maximum(grid.reshape(100, 96) @ _W, 0.0)
    h.reshape(5, 2, 5, 2, 32).max(axis=(1, 3))


def tick() -> float:
    """Run the reference kernel once; returns its timed wall time in seconds."""
    _layer()
    start = time.perf_counter()
    for _ in range(REPEATS):
        _layer()
    return time.perf_counter() - start


def speed(ticks) -> float:
    """How much faster than the reference the machine ran: REF_S / median tick."""
    return REF_S / float(np.median(ticks))


def scaled(samples) -> list:
    """(items, seconds) per (items, seconds, tick) sample, in time order, with
    the seconds multiplied by the speed over the ticks of the samples around it."""
    ticks = [s[2] for s in samples]
    return [(items, secs * speed(ticks[max(0, i - WINDOW):i + WINDOW + 1]))
            for i, (items, secs, _) in enumerate(samples)]
