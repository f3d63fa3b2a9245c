"""Host-speed calibration for the end-to-end timings.

The benchmark runs on cores shared with other tenants, and their speed
drifts by 20-60 % over minutes and by 10-40 % within seconds: the same
deterministic iteration takes 3.0 s in one minute and 5.1 s a few minutes
later, in user CPU time, with no steal.  So every timed step is scaled to
the speed the host had when a fixed kernel chunk took REFERENCE_S:

    scaled = measured * REFERENCE_S / mean(chunk times taken for the step)

The chunks are taken while the step runs: after every PERIOD_S of the
step, a SIGALRM interrupts the main thread, which times one chunk (about
50 ms) and then resumes swarmform; the chunks' time is left out of the
step's wall time.  The drift stays correlated for only a second or so, so
chunks spread through the step follow it far better than kernels run
before and after it.  On `lattice_swarm` (one 3-4 s step per iteration), under a drift that
spread the raw per-iteration times by 0.35 (quartile distance / median),
the scaled times spread by 0.17 with a kernel before and after each step
and by 0.09 with chunks inside it.

A step whose work runs in worker processes (the sweep's pool, which uses
every core) is not interrupted: a chunk run meanwhile would slow a worker
and time the sharing of a core, not the host.  Such a step is scaled by
BRACKET_CHUNKS chunks right before and right after it.

The kernel is benchmark code, not swarmform code, so a change to
swarmform moves the scaled timings and not the scale.  It mimics the
engine's mix (frozen dataclass rebuilds, an O(n^2) Python pair loop,
small numpy vectors, a growing row list), which tracked the drift better
than a plain integer loop.  The cyclic garbage collector is paused while
it runs, so that the objects swarmform leaves on the heap do not change
its cost.
"""

import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

CHUNK_STEPS = 1000
# Median chunk time on the machine the benchmark was defined on (2-core
# x86_64 VM, Python 3.11.7, numpy 2.4.6); scaled timings are seconds at
# that speed.
REFERENCE_S = 0.055
PERIOD_S = 0.5        # swarmform time between chunks; the chunks add about 10 %
BRACKET_CHUNKS = 6    # chunks before and after a step that is not sampled


@dataclass(frozen=True)
class _Body:
    x: float
    v: float


def kernel(steps=CHUNK_STEPS, n=12):
    """A fixed little simulation; returns a checksum of its final state."""
    bodies = [_Body(40.0 * i, (-1.0) ** i) for i in range(n)]
    rows = []
    force = np.zeros(n)
    dt = 0.002
    for step in range(steps):
        f = [0.0] * n
        for i in range(n):
            xi = bodies[i].x
            for j in range(i + 1, n):
                d = bodies[j].x - xi
                g = math.exp(-abs(d) / 30.0) * (1.0 if d > 0 else -1.0)
                f[i] -= g
                f[j] += g
        force[:] = f
        force *= 0.5
        bodies = [replace(b, x=b.x + dt * b.v, v=b.v + dt * fi)
                  for b, fi in zip(bodies, force.tolist())]
        if step % 5 == 0:
            rows.append([b.x for b in bodies])
    return sum(rows[-1])


def chunk():
    """(start, end) perf_counter times of one kernel chunk, run with the
    cyclic GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return t0, time.perf_counter()
    finally:
        if enabled:
            gc.enable()


def chunk_time():
    start, end = chunk()
    return end - start


class Scaler:
    """Times steps and scales them to REFERENCE_S.  Use it as a context
    manager: it owns SIGALRM while it is open and restores the previous
    handler on exit."""

    def __init__(self):
        self.before = None     # bracket chunk times after the last unsampled step
        self._chunks = None    # (start, end) of the chunks of the sampled step running

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def _tick(self, signum, frame):
        # One-shot timer, re-armed after the chunk, so that chunks never nest.
        if self._chunks is not None:
            self._chunks.append(chunk())
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def _bracket(self):
        return [chunk_time() for _ in range(BRACKET_CHUNKS)]

    def time(self, fn, sample):
        """Calls fn().  Returns (its result, wall time, scale).  With
        `sample`, chunks are taken inside the call and their time is left
        out of the wall time; without, chunks are taken around it."""
        if not sample:
            before = self.before or self._bracket()
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
            self.before = self._bracket()
            return result, wall, REFERENCE_S / statistics.mean(before + self.before)
        self._chunks = chunks = []
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._chunks = None
        t1 = time.perf_counter()
        wall = (t1 - t0) - sum(end - start for start, end in chunks)
        times = [end - start for start, end in chunks] or [chunk_time()]
        self.before = None
        return result, wall, REFERENCE_S / statistics.mean(times)
