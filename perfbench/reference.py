"""A fixed reference loop that measures how fast the host runs right now.

The benchmark's host is a share of a busy machine.  Each of its vCPUs
changes speed on its own, in phases of seconds to minutes (one loop of fixed
work takes up to ~1.6x as long in a slow phase as in a fast one).  The
measured process pins itself to as many CPUs as the workload has threads and
times this loop on each of them around every CLI call; a call's wall time
divided by the mean of the loop times before and after it is its time in
reference loops, a figure the phase mostly cancels out of.

The loop does the kinds of work interfero does (Python arithmetic and
formatting, float parsing, small numpy linear algebra) but none of its code,
so a change to the program never moves the loop's time.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# Iterations of one loop: about 0.03 s on a 2-vCPU Xeon VM in a fast phase.
ITERATIONS = 2000
# Loops timed per CPU; their median ignores a single preempted loop.
SAMPLES = 3
# The loop's time on a 2-vCPU Xeon VM in a fast phase.  Set-up times are
# reported in seconds of a host that runs the loop in this time.
NOMINAL_S = 0.03
# The loop's deterministic result, checked on every call so that a broken
# numpy cannot make the reference faster.
_EXPECTED: float | None = None


def _work() -> float:
    mats = np.random.default_rng(20240611).standard_normal((64, 2, 2))
    acc = 0.0
    for i in range(ITERATIONS):
        m = mats[i % 64]
        w = np.linalg.eigvalsh(m @ m.T + 0.5 * np.eye(2))
        line = ",".join(f"{x:.12f}" for x in (w[0], w[1], i * 0.25))
        acc += sum(float(t) for t in line.split(",")) % 7.0
    return acc


def _timed() -> float:
    global _EXPECTED
    t0 = time.perf_counter()
    acc = _work()
    elapsed = time.perf_counter() - t0
    if _EXPECTED is None:
        _EXPECTED = acc
    elif acc != _EXPECTED:
        raise RuntimeError("reference loop gave a different result")
    return elapsed


def reference_time() -> float:
    """Seconds one reference loop takes now, averaged over the CPUs this thread may use.

    Pins the calling thread to each of those CPUs in turn, then restores its
    CPU set.
    """
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(_timed() for _ in range(SAMPLES)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)
