"""The wall time, minor page faults and calls of each phase of a command, and a few counts.

Always on. A phase is a stretch of code that neither yields nor runs
another phase, so phases never nest and their times add up:

- ``schedule``, ``realize`` and ``summarize``: each sweep of
  ``experiments.run_case``
- ``emit``: the files of ``exp all``
- ``engine``: each block of ``sim.run_blocks``

The counts are ``rows`` (result rows), ``realized`` (point-rows realized),
``binomial`` (rows of losses that numpy's ``binomial`` draws),
``engine_blocks``, ``reused_blocks`` (blocks that take the schedule of the
block before, see ``sim._Carry``), and the trace writer's ``trace_blocks``
and ``trace_texts``. Each is added to once per point, block or text, never per
sample. These names are what ``scripts/grid_phases.py`` and
``scripts/trace_phases.py`` read; ``reset`` clears them all.
"""

import resource
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Phase:
    """A phase's totals, and the process's peak resident set (``ru_maxrss``, KiB) when it last ended."""

    wall_ns: int = 0
    minflt: int = 0
    calls: int = 0
    maxrss_kib: int = 0


times: dict[str, Phase] = {}
counts: dict[str, int] = {}


class span:
    """A ``with`` block whose wall time and minor faults are added to phase ``name``."""

    __slots__ = ("name", "start", "faults")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> None:
        self.faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter_ns() - self.start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        phase = times.setdefault(self.name, Phase())
        phase.wall_ns += wall
        phase.minflt += usage.ru_minflt - self.faults
        phase.calls += 1
        phase.maxrss_kib = usage.ru_maxrss


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to the count ``name``."""
    counts[name] = counts.get(name, 0) + n


def reset() -> None:
    """Forget every phase and count."""
    times.clear()
    counts.clear()
