"""Run one ``ctcsim`` command in this process and print its phase clock.

Imports ``numpy.random`` first, which numpy imports lazily, so that no
phase pays for it. Clears ``ctcsim.phases``, runs the command once with its
stdout discarded, and prints each phase in the order it first ran (wall
time and minor faults summed over its calls, peak resident set when it last
ended), then ``rest``, the command outside every phase (argument parsing,
the config load, ``sim run``'s trace writer), then every count. Exits with
the command's status. Run it as a fresh process, into a new output path: a
phase's faults depend on what the process allocated and freed before it,
and overwriting a file adds its truncation to ``rest``.

Usage: python scripts/phases.py exp all --out-dir DIR
       python scripts/phases.py sim run --config CONFIG --out TRACE
"""

import contextlib
import io
import resource
import sys
import time
from pathlib import Path

import numpy.random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ctcsim import cli, phases  # noqa: E402


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__[__doc__.index("Usage:") :].rstrip(), file=sys.stderr)
        return 2
    phases.reset()
    with contextlib.redirect_stdout(io.StringIO()):
        faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter_ns()
        status = cli.main(argv)
        wall = time.perf_counter_ns() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
    rows = [(name, phase.wall_ns, phase.minflt, phase.maxrss_kib) for name, phase in phases.times.items()]
    rest_wall, rest_faults = wall - sum(row[1] for row in rows), usage.ru_minflt - faults - sum(row[2] for row in rows)
    print(f"{'phase':<10}  {'wall_s':>8}  {'minflt':>7}  {'maxrss_MiB':>10}")
    for name, wall_ns, minflt, maxrss_kib in [*rows, ("rest", rest_wall, rest_faults, usage.ru_maxrss)]:
        print(f"{name:<10}  {wall_ns / 1e9:8.4f}  {minflt:7d}  {maxrss_kib / 1024:10.2f}")
    print("  ".join(f"{name} {value}" for name, value in phases.counts.items()))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
