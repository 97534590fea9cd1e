"""Machine-speed reference for wall times measured on a shared host.

On a host shared with other tenants a core's speed drifts by tens of
percent over seconds to minutes, and process CPU time drifts with it, so
neither raw wall time nor CPU time repeats from run to run.  A fixed
reference kernel in the same interpreter work mix as the package (Python
bytecode plus small numpy calls) is timed around each unit of work; the
unit's wall time is scaled by ``NOMINAL_S`` over the mean of the reference
times that bracket it.  The kernel uses nothing from the package, so a
change to the package moves the scaled time exactly as it moves the raw
time.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

import numpy as np

# Kernel time near the fastest seen on a 2-core Intel Xeon VM (Python
# 3.11, numpy 2.4); scaled times are in seconds at that speed.
NOMINAL_S = 0.012


def kernel() -> float:
    acc = 0.0
    for i in range(80_000):
        acc += (i % 7) * 0.5
    rng = np.random.default_rng(12345)
    for _ in range(600):
        x = rng.standard_normal(64)
        acc += float(np.sum(x * x)) / (1.0 + float(x.mean()) ** 2)
    return acc


def reference_s(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` kernel runs, now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _serve(conn) -> None:
    while (repeats := conn.recv()) is not None:
        conn.send(reference_s(repeats))


class Reference:
    """Reference time for work that runs on ``cores`` processes at once.

    This process and ``cores - 1`` helpers run the kernel together and the
    slowest sets the pace, as it does for such work.  The helpers are forked
    on entry, before any other threads exist, and wait on a pipe between
    samples.
    """

    def __init__(self, cores: int = 1):
        ctx = multiprocessing.get_context("fork")
        self.helpers = []
        self.last: list[float] = []  # per-process kernel times of the last sample
        for _ in range(cores - 1):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(theirs,), daemon=True)
            proc.start()
            theirs.close()
            self.helpers.append((ours, proc))

    def sample(self) -> float:
        for conn, _ in self.helpers:
            conn.send(3)
        self.last = [reference_s(3)] + [conn.recv() for conn, _ in self.helpers]
        return max(self.last)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for conn, proc in self.helpers:
            conn.send(None)
            proc.join(timeout=30)
            conn.close()


def scaled(wall_s: float, ref_before: float, ref_after: float) -> float:
    """Wall time at nominal speed, from the references that bracket it."""
    return wall_s * NOMINAL_S / (0.5 * (ref_before + ref_after))
