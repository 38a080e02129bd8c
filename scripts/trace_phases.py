"""Time the two phases of ``ctcsim sim run`` for one config.

Loads the config, then prints the wall time and the minor page faults
(``ru_minflt``) of ``sim.run`` and of ``report.emit_trace_csv``, which
writes the trace to a temporary file. Run it as a fresh process: that is
how ``sim run`` runs, and how many pages a phase faults in depends on what
the process allocated and freed before it. Last, it prints how many blocks
the trace writer builds and how many texts it writes after the header,
counted in an untimed second pass; for one config both counts are always
the same.

Usage: python scripts/trace_phases.py CONFIG
"""

import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ctcsim import report  # noqa: E402
from ctcsim.sim import load_config, run  # noqa: E402


def _timed(call):
    """``call()``'s result, its wall time in seconds and its minor faults."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - start
    return result, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    config = load_config(argv[0])
    trace, run_s, run_faults = _timed(lambda: run(config))
    with tempfile.TemporaryDirectory() as scratch:
        _, emit_s, emit_faults = _timed(lambda: report.emit_trace_csv(trace, Path(scratch) / "trace.csv"))
    print(f"{'phase':<14}  {'wall_s':>8}  {'minflt':>7}")
    print(f"{'sim.run':<14}  {run_s:8.4f}  {run_faults:7d}")
    print(f"{'emit_trace_csv':<14}  {emit_s:8.4f}  {emit_faults:7d}")
    blocks = sum(1 for _ in report._trace_blocks(trace))
    texts = sum(1 for _ in report._trace_chunks(trace)) - 1
    print(f"blocks {blocks}  texts {texts}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
