"""Time the phases of ``ctcsim exp all`` at the default ten seeds.

Imports ``numpy.random`` first, which numpy imports lazily, so that no
phase pays for it. Then runs ``exp all`` once into a temporary directory
and prints, from the package's phase clock (``ctcsim.phases``), each
phase's wall time and minor page faults (``ru_minflt``), summed over its
calls:

- ``schedule``: each case and algorithm's sweep schedule
- ``realize``: the loss draws and the classifier of the points that are
  realized
- ``summarize``: the result rows
- ``emit``: the case CSVs, the figure series and CSVs, and the derived
  case-V curves and CSVs
- ``total``: the whole command, the phases above included

Run it as a fresh process, as the benchmark runs ``exp all``: how many pages
a phase faults in depends on what the process allocated and freed before
it. Last, it prints counts that are the same in every run: the result rows,
the point-rows realized, the rows of losses drawn by numpy's ``binomial``,
and the epochs that the ``ctc`` schedules ran through their Python loop.

Usage: python scripts/grid_phases.py
"""

import contextlib
import io
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy.random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ctcsim import cli, phases  # noqa: E402

SEEDS = 10


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    phases.reset()
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        faults, start = _faults(), time.perf_counter_ns()
        status = cli.main(["exp", "all", "--out-dir", scratch, "--seeds", str(SEEDS)])
        total = (time.perf_counter_ns() - start, _faults() - faults)
    if status:
        return status
    clock = phases.times
    rows = [(name, clock[name].wall_ns, clock[name].minflt) for name in ("schedule", "realize", "summarize", "emit")]
    print(f"{'phase':<10}  {'wall_s':>8}  {'minflt':>7}")
    for name, wall_ns, faults in [*rows, ("total", *total)]:
        print(f"{name:<10}  {wall_ns / 1e9:8.4f}  {faults:7d}")
    counts = phases.counts
    print(
        f"rows {counts['rows']}  realized {counts['realized']}  binomial {counts['binomial']}"
        f"  ctc_loop_epochs {counts['ctc_loop_epochs']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
