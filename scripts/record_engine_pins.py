"""Print the sha256 of the trace that ``ctcsim sim run`` writes for each engine-path config.

Reads the configs of ``tests/engine_pins.json``, runs each one through
``ctcsim sim run`` into a temporary directory, and prints the file back
with each config's ``trace.csv`` digest taken from this run. The Tier-1
test ``test_sim_run_engine_path_matches_recorded_sha256`` holds ``sim
run`` to the recorded digests, so a change that leaves every output byte
as it was prints the file unchanged. Only a change that means to change
the engine's output records its new digests, and says so in CHANGES.md:

    python scripts/record_engine_pins.py > pins.json && mv pins.json tests/engine_pins.json

Usage: python scripts/record_engine_pins.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = ROOT / "tests" / "engine_pins.json"

sys.path.insert(0, str(ROOT / "src"))

from ctcsim import cli  # noqa: E402


def trace_sha256(raw: dict, directory: Path) -> str:
    """The sha256 of the trace that ``sim run`` writes for the config ``raw``."""
    config, trace = directory / "config.json", directory / "trace.csv"
    config.write_text(json.dumps(raw), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["sim", "run", "--config", str(config), "--out", str(trace)])
    if code != 0:
        raise SystemExit(f"sim run exited {code} on {raw}")
    return hashlib.sha256(trace.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as directory:
        for pin in pins.values():
            pin["trace.csv"] = trace_sha256(pin["config"], Path(directory))
    print(json.dumps(pins, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
