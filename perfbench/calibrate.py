"""Samples how fast the host is while a repeat runs, with a fixed kernel.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over seconds and minutes, so a plain wall time measures the
neighbours as much as the program. ``HostProbe`` therefore interrupts the
repeat's own process every ``INTERVAL_S`` seconds of wall time (``SIGALRM``)
and runs one short, fixed kernel slice there, on the CPU that is running
``main`` at that moment. ``worker.py`` takes the slices' time out of
``wall_s``, and ``run.py`` scales what is left by the slices' mean:
``wall_norm_s = wall_s * REFERENCE_S / mean slice time``. That is the
repeat's time at the host speed at which one slice takes ``REFERENCE_S``.

Kernels run only before and after a repeat, or on the other CPU at the same
time, correlated with it far less: the slow spells of this host last seconds
and hit one CPU at a time.

A slice never touches ``ctcsim`` and runs with the garbage collector off, so
neither a change to the program nor the heap it holds can move it. Its
working set is well under a MB. Its two parts imitate what the workloads
spend their time on:

- an interpreter loop over a deque of ``[created, count]`` cohorts with one
  small numpy binomial draw and one formatted row per step, like the
  engine's per-epoch pass and the trace writer;
- a list of frozen dataclass records, visited in a random order and then
  formatted as CSV, like the per-epoch snapshots of a wide trace.
"""

from __future__ import annotations

import gc
import signal
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.25
LOOP_STEPS = 1_000
RECORDS = 2_000

# The median slice time on the 2-vCPU Xeon (Sapphire Rapids, KVM) host where
# the benchmark was written. Any constant would do: it cancels when two
# commits are compared on one host, and only sets the scale of the figures.
REFERENCE_S = 0.013


@dataclass(frozen=True)
class _Record:
    epoch: int
    node: int
    sent: int
    queued: int
    ratio: float


def _loop(rng: np.random.Generator) -> int:
    queue: deque = deque()
    rows = []
    for i in range(LOOP_STEPS):
        queue.append([i, 300])
        lost = int(rng.binomial(300, 0.01))
        while len(queue) > 20:
            queue.popleft()
        backlog = sum(cohort[1] for cohort in queue)
        rows.append(f"{i},{lost},{backlog},{backlog / (i + 1):.6f}")
    return len("\n".join(rows).encode())


def _records(rng: np.random.Generator) -> int:
    records = [_Record(i // 51, i % 51, i * 7, i & 255, i / 3) for i in range(RECORDS)]
    total = 0
    for index in rng.permutation(RECORDS).tolist():
        record = records[index]
        total += record.sent + record.queued
    text = "".join(f"{r.epoch},{r.node},{r.sent},{r.queued},{r.ratio:.6f}\n" for r in records)
    return total + len(text)


def slice_s() -> float:
    """Seconds one kernel slice takes now; the same work on every call."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = np.random.default_rng(12345)
        _loop(rng)
        _records(rng)
        return time.perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()


class HostProbe:
    """Runs a kernel slice at the start, every ``INTERVAL_S`` and at the end.

    Use as a context manager around the timed call; ``slices`` holds every
    slice's time and ``spent_s`` their sum, to be taken out of the timing.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self._previous = None

    @property
    def spent_s(self) -> float:
        return sum(self.slices)

    def _sample(self, signum, frame) -> None:
        self.slices.append(slice_s())

    def __enter__(self) -> "HostProbe":
        self.slices.append(slice_s())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.slices.append(slice_s())
