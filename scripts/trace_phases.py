"""Time the two phases of ``ctcsim sim run`` for one config, as it streams.

Imports ``numpy.random`` first, which numpy imports lazily, so that the
engine does not pay for it. Loads the config, then runs it once as ``sim
run`` does: the blocks of ``sim.run_blocks`` go straight into
``report.emit_trace_csv``, which writes them to a temporary file as they
are made. The two phases interleave, so each one's wall time and minor page
faults (``ru_minflt``) are summed over the blocks: the engine's are those of
the package's phase clock (``ctcsim.phases``), taken around each block it
makes, and the writer's are the rest of the write. Each phase row also
gives the process's peak resident set (``ru_maxrss``, in MiB): after the
engine's last block, and at the end. Run it as a fresh process: that is how
``sim run`` runs, and how many pages a phase faults in depends on what the
process allocated and freed before it. Last, it prints the clock's counts of
the blocks the engine made, of those that took the schedule of the block
before, of the blocks the trace writer builds and the texts it writes after
the header, and of the epochs the ``ctc`` schedule ran through its Python
loop; for one config all five are always the same.

Usage: python scripts/trace_phases.py CONFIG
"""

import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy.random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ctcsim import phases, report  # noqa: E402
from ctcsim.sim import load_config, run_blocks  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    config = load_config(argv[0])
    phases.reset()
    with tempfile.TemporaryDirectory() as scratch:
        faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter_ns()
        report.emit_trace_csv(run_blocks(config), Path(scratch) / "trace.csv")
        wall = time.perf_counter_ns() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
    engine = phases.times["engine"]
    rows = {
        "sim.run_blocks": (engine.wall_ns, engine.minflt, engine.maxrss_kib),
        "emit_trace_csv": (wall - engine.wall_ns, usage.ru_minflt - faults - engine.minflt, usage.ru_maxrss),
    }
    print(f"{'phase':<14}  {'wall_s':>8}  {'minflt':>7}  {'maxrss_MiB':>10}")
    for name, (wall_ns, minflt, maxrss_kib) in rows.items():
        print(f"{name:<14}  {wall_ns / 1e9:8.4f}  {minflt:7d}  {maxrss_kib / 1024:10.2f}")
    counts = phases.counts
    engine, reused, looped = counts["engine_blocks"], counts.get("reused_blocks", 0), counts.get("ctc_loop_epochs", 0)
    print(
        f"engine {engine}  reused {reused}  blocks {counts['trace_blocks']}  texts {counts['trace_texts']}"
        f"  ctc_loop_epochs {looped}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
