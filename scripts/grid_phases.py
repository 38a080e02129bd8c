"""Time the phases of ``ctcsim exp all`` at the default ten seeds.

Imports ``numpy.random`` first, which numpy imports lazily, so that no
phase pays for it. Then runs ``exp all`` into a temporary directory with
each phase rebound where ``run_case`` and ``cli`` look it up, and prints
each phase's wall time and minor page faults (``ru_minflt``), summed over
its calls:

- ``schedule``: ``experiments._schedule_sweep``, once per case and algorithm
- ``realize``: ``experiments._sweep_totals``, the loss draws and the
  classifier of the points that are realized
- ``summarize``: ``experiments._summarize_sweep``, the result rows
- ``emit``: the case CSVs, the figure series and CSVs, and the derived
  case-V curves and CSVs
- ``total``: the whole command, the phases above included

Run it as a fresh process, as the benchmark runs ``exp all``: how many pages
a phase faults in depends on what the process allocated and freed before
it. Last, it prints counts that are the same in every run: the result rows,
the point-rows realized, and the ``binomial`` calls, counted in an untimed
second pass over the four cases.

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

from ctcsim import cli, experiments  # noqa: E402

SEEDS = 10

# (module, name, phase) of every call that is timed.
PHASES = (
    (experiments, "_schedule_sweep", "schedule"),
    (experiments, "_sweep_totals", "realize"),
    (experiments, "_summarize_sweep", "summarize"),
    (cli, "emit_csv", "emit"),
    (cli, "figure_series", "emit"),
    (cli, "derived_series", "emit"),
    (cli, "emit_figure_csv", "emit"),
    (cli, "derive_case_v", "emit"),
    (cli, "emit_case_v_csv", "emit"),
)


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _timed_phases(totals: dict, counts: dict) -> list:
    """Per call of ``PHASES``: its module, name, function, and a wrapper that adds its time and faults to ``totals``."""

    def timed(fn, phase):
        def call(*args, **kwargs):
            faults, start = _faults(), time.perf_counter()
            result = fn(*args, **kwargs)
            totals[phase][0] += time.perf_counter() - start
            totals[phase][1] += _faults() - faults
            if phase == "realize":
                counts["realized"] += len(args[0].configs)
            elif phase == "summarize":
                counts["rows"] += len(result)
            return result

        return call

    bindings = []
    for module, name, phase in PHASES:
        fn = getattr(module, name)
        bindings.append((module, name, fn, timed(fn, phase)))
    return bindings


def _binomial_calls() -> int:
    """The ``binomial`` calls of ``run_case`` over the four cases, spied on through ``experiments._seeded``."""
    calls = [0]

    class CountingGenerator(numpy.random.Generator):
        def binomial(self, n, p, size=None):
            calls[0] += 1
            return super().binomial(n, p, size)

    real_seeded = experiments._seeded
    experiments._seeded = lambda seeds: [
        (CountingGenerator(generator.bit_generator), seeded) for generator, seeded in real_seeded(seeds)
    ]
    try:
        for case_id in experiments.CASE_IDS:
            experiments.run_case(cli._spec_for(case_id, "both", SEEDS, 0))
    finally:
        experiments._seeded = real_seeded
    return calls[0]


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    totals = {phase: [0.0, 0] for _, _, phase in PHASES}
    counts = {"rows": 0, "realized": 0}
    bindings = _timed_phases(totals, counts)
    for module, name, _, timed in bindings:
        setattr(module, name, timed)
    try:
        with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
            faults, start = _faults(), time.perf_counter()
            status = cli.main(["exp", "all", "--out-dir", scratch, "--seeds", str(SEEDS)])
            totals["total"] = [time.perf_counter() - start, _faults() - faults]
    finally:
        for module, name, fn, _ in bindings:
            setattr(module, name, fn)
    if status:
        return status
    print(f"{'phase':<10}  {'wall_s':>8}  {'minflt':>7}")
    for phase, (seconds, faults) in totals.items():
        print(f"{phase:<10}  {seconds:8.4f}  {faults:7d}")
    print(f"rows {counts['rows']}  realized {counts['realized']}  binomial {_binomial_calls()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
