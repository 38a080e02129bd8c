"""Smoke tests of the repository scripts."""

import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_prints_every_criterion_at_one_seed(capsys):
    # scripts/calibrate.py reproduces docs/calibration.md; it runs the whole
    # grid and `run` on every ctc grid point.
    assert _load("calibrate").main(["--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert {f"C{n}" for n in range(4, 8)} <= set(re.findall(r"^C\d", out, flags=re.MULTILINE))
    assert "case IV: 32 rows" in out
