"""Time the two phases of ``ctcsim sim run`` for one config, as it streams.

Imports ``numpy.random`` first, which numpy imports lazily, so that the
engine does not pay for it. Loads the config, then runs it as ``sim run``
does: the blocks of ``sim.run_blocks`` go straight into
``report.emit_trace_csv``, which writes them to a temporary file as they
are made. The two phases interleave, so each one's wall time and minor page
faults (``ru_minflt``) are summed over the blocks: the engine's are read
around each block it makes, and the writer's are the rest of the write.
Each phase row also gives the process's peak resident set (``VmHWM``, in
MiB): after the engine's last block, and at the end. Run it as a fresh
process: that is how ``sim run`` runs, and how many pages a phase faults in
depends on what the process allocated and freed before it. Last, it prints
how many blocks the engine made, and how many blocks the trace writer
builds and texts it writes after the header, counted in an untimed second
pass; for one config all three counts are always the same.

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
from ctcsim.sim import load_config, run_blocks  # noqa: E402


def _clock() -> tuple[float, int]:
    """The wall clock in seconds and this process's minor faults so far."""
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _peak_rss_mb() -> float:
    """This process's ``VmHWM`` in MiB, from Linux's ``/proc/self/status``."""
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


def _timed_blocks(blocks, engine: list):
    """Each block of ``blocks``, with the time and faults of making it added to ``engine``.

    ``engine`` is ``[seconds, faults, blocks, VmHWM after the last block]``.
    A block is let go before the next one is made, as ``sim run`` lets it go.
    """
    while True:
        seconds, faults = _clock()
        block = next(blocks, None)
        now, now_faults = _clock()
        if block is None:
            return
        engine[0] += now - seconds
        engine[1] += now_faults - faults
        engine[2] += 1
        engine[3] = _peak_rss_mb()
        yield block
        del block


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    config = load_config(argv[0])
    engine = [0.0, 0, 0, 0.0]
    with tempfile.TemporaryDirectory() as scratch:
        seconds, faults = _clock()
        report.emit_trace_csv(_timed_blocks(run_blocks(config), engine), Path(scratch) / "trace.csv")
        now, now_faults = _clock()
    phases = {
        "sim.run_blocks": (engine[0], engine[1], engine[3]),
        "emit_trace_csv": (now - seconds - engine[0], now_faults - faults - engine[1], _peak_rss_mb()),
    }
    print(f"{'phase':<14}  {'wall_s':>8}  {'minflt':>7}  {'VmHWM_MiB':>9}")
    for name, (seconds, faults, peak) in phases.items():
        print(f"{name:<14}  {seconds:8.4f}  {faults:7d}  {peak:9.2f}")
    blocks = sum(1 for _ in report._trace_blocks(run_blocks(config)))
    texts = sum(1 for _ in report._trace_chunks(run_blocks(config))) - 1
    print(f"engine {engine[2]}  blocks {blocks}  texts {texts}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
