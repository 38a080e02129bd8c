"""Time the two phases of ``ctcsim sim run`` for one config.

Imports ``numpy.random`` first, which numpy imports lazily, so that
``sim.run`` does not pay for it. Loads the config, then prints the wall
time, the minor page faults (``ru_minflt``) and the process's peak resident
set (``VmHWM``, in MiB) after each of ``sim.run`` and
``report.emit_trace_csv``, which writes the trace to a temporary file. Run
it as a fresh process: that is how ``sim run`` runs, and how many pages a
phase faults in depends on what the process allocated and freed before it.
Last, it prints how many blocks the trace writer builds and how many texts
it writes after the header, counted in an untimed second pass; for one
config both counts are always the same.

Usage: python scripts/trace_phases.py CONFIG
"""

import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy.random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ctcsim import report  # noqa: E402
from ctcsim.sim import load_config, run  # noqa: E402


def _timed(call):
    """``call()``'s result, its wall time in seconds, its minor faults and the peak resident set after it."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - start
    return result, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, _peak_rss_mb()


def _peak_rss_mb() -> float:
    """This process's ``VmHWM`` in MiB, from Linux's ``/proc/self/status``."""
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    config = load_config(argv[0])
    trace, *run_phase = _timed(lambda: run(config))
    with tempfile.TemporaryDirectory() as scratch:
        _, *emit_phase = _timed(lambda: report.emit_trace_csv(trace, Path(scratch) / "trace.csv"))
    print(f"{'phase':<14}  {'wall_s':>8}  {'minflt':>7}  {'VmHWM_MiB':>9}")
    for name, (seconds, faults, peak) in (("sim.run", run_phase), ("emit_trace_csv", emit_phase)):
        print(f"{name:<14}  {seconds:8.4f}  {faults:7d}  {peak:9.2f}")
    blocks = sum(1 for _ in report._trace_blocks(trace))
    texts = sum(1 for _ in report._trace_chunks(trace)) - 1
    print(f"blocks {blocks}  texts {texts}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
