"""Workload definitions and output checks for the ctcsim benchmark.

A workload is a ``ctcsim`` command line plus the files it is expected to
emit. The workload seed reaches the program only as ``--seed`` (``exp all``)
or as the ``seed`` field of the generated config (``sim run``); nothing else
about the inputs depends on it.

Output checks, applied by ``run.py`` to the files of each repeat:

- at the default seed, the sha256 of every emitted file must equal the value
  recorded in ``expected_sha256.json`` (taken from the untouched code);
- at any other seed, invariants that can be read back from the files must
  hold (row counts, per-class conservation, cumulative drop ratios).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
EXPECTED_SHA256 = Path(__file__).resolve().parent / "expected_sha256.json"

CASE_IDS = ("I", "II", "III", "IV")
RESULT_COLUMNS = (
    "case_id,algorithm,sweep_value,seed,epoch_window,offered_self,offered_nbr,forwarded_self,"
    "forwarded_nbr,dropped_self,dropped_nbr,drop_ratio,malicious_fraction,throughput,utilization"
)
TRACE_COLUMNS = (
    "epoch,node_id,offered_self,offered_neighbor,forwarded_self,forwarded_neighbor,dropped_self,"
    "dropped_neighbor,queued_self,queued_neighbor,t_pp,t_np,drop_ratio_self,drop_ratio_neighbor"
)

# Shape of the `exp all` grid at its defaults: 4 cases x 2 policies x
# 16 sweep values x `GRID_SEEDS` seeds, each run 100 epochs of 9 nodes.
GRID_SEEDS = 10
GRID_SWEEP_VALUES = 16
GRID_RUNS = len(CASE_IDS) * 2 * GRID_SWEEP_VALUES * GRID_SEEDS
GRID_EPOCHS = 100
GRID_NODES = 9


class CheckError(Exception):
    """An emitted file breaks an invariant or a recorded hash."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runs: int
    epochs: int
    neighbor_count: int
    # Config fields for `sim run`; None means the `exp all` grid.
    sim_config: dict | None = None

    @property
    def node_epochs(self) -> int:
        return self.runs * self.epochs * (self.neighbor_count + 1)

    def config_for(self, seed: int) -> dict:
        return {**self.sim_config, "seed": seed}

    def argv(self, seed: int, out_dir: Path, config_path: Path) -> list[str]:
        if self.sim_config is None:
            return ["exp", "all", "--out-dir", str(out_dir), "--seeds", str(GRID_SEEDS), "--seed", str(seed)]
        return ["sim", "run", "--config", str(config_path), "--out", str(out_dir / "trace.csv")]

    def check(self, seed: int, out_dir: Path) -> dict[str, str]:
        """Check every emitted file; return their sha256 digests by name."""
        hashes = sha256_files(out_dir)
        if seed == DEFAULT_SEED:
            expected = json.loads(EXPECTED_SHA256.read_text(encoding="utf-8"))[self.name]
            if hashes != expected:
                differing = sorted(n for n in set(hashes) | set(expected) if hashes.get(n) != expected.get(n))
                raise CheckError(f"sha256 differs from the recorded default-seed output: {', '.join(differing)}")
        elif self.sim_config is None:
            _check_grid(out_dir, seed, hashes)
        else:
            _check_trace(out_dir / "trace.csv", self.epochs, self.neighbor_count, self.sim_config["epoch_length"])
        return hashes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid",
            why="exp all at ten seeds: 1,280 short runs, the figure artifact; sim engine and per-run set-up dominate",
            runs=GRID_RUNS,
            epochs=GRID_EPOCHS,
            neighbor_count=GRID_NODES - 1,
        ),
        Workload(
            name="trace_wide",
            why="one 5,000-epoch ctc run of 51 nodes ramping past capacity; per-source snapshots and the 15 MB trace dominate",
            runs=1,
            epochs=5_000,
            neighbor_count=50,
            sim_config={
                "epochs": 5_000,
                "epoch_length": 1.0,
                "neighbor_count": 50,
                "data_rate": 420.0,
                "policy": "ctc",
                "self_rate_fn": "constant:300",
                "neighbor_rate_fn": "linear_increasing:0:0.08",
            },
        ),
        Workload(
            name="trace_deep",
            why="one 100,000-epoch overloaded dsr run of 2 nodes; deep queues, energy runs out mid-run",
            runs=1,
            epochs=100_000,
            neighbor_count=1,
            sim_config={
                "epochs": 100_000,
                "epoch_length": 1.0,
                "neighbor_count": 1,
                "data_rate": 420.0,
                "policy": "dsr",
                "deadline_epochs": 20,
                "energy_budget": 6_000_000,
                "self_rate_fn": "constant:300",
                "neighbor_rate_fn": "constant:200",
            },
        ),
    )
}


def sha256_files(out_dir: Path) -> dict[str, str]:
    hashes = {}
    for path in sorted(out_dir.iterdir()):
        digest = hashlib.sha256()
        with path.open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        hashes[path.name] = digest.hexdigest()
    return hashes


def _lines(path: Path, header: str) -> list[str]:
    text = path.read_text(encoding="utf-8")
    if not text.endswith("\n"):
        raise CheckError(f"{path.name}: missing final newline")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        raise CheckError(f"{path.name}: unexpected header {lines[0]!r}")
    return lines[1:]


def _check_grid(out_dir: Path, seed: int, hashes: dict[str, str]) -> None:
    expected_files = (
        {f"case_{c}.csv" for c in CASE_IDS}
        | {f"fig_{i}.csv" for i in range(1, 7)}
        | {f"case_v_{c}.csv" for c in CASE_IDS}
    )
    if set(hashes) != expected_files:
        raise CheckError(f"emitted files {sorted(hashes)} differ from {sorted(expected_files)}")
    rows_per_case = GRID_RUNS // len(CASE_IDS)
    seeds = range(seed, seed + GRID_SEEDS)
    for case_id in CASE_IDS:
        lines = _lines(out_dir / f"case_{case_id}.csv", RESULT_COLUMNS)
        if len(lines) != rows_per_case:
            raise CheckError(f"case_{case_id}.csv: {len(lines)} rows, expected {rows_per_case}")
        keys = set()
        for line in lines:
            cells = line.split(",")
            c_id, algorithm, sweep, row_seed = cells[0], cells[1], int(cells[2]), int(cells[3])
            off_s, off_n, fwd_s, fwd_n, drop_s, drop_n = map(int, cells[5:11])
            if c_id != case_id or algorithm not in ("ctc", "dsr") or row_seed not in seeds:
                raise CheckError(f"case_{case_id}.csv: bad key in row {line!r}")
            if min(off_s, off_n, fwd_s, fwd_n, drop_s, drop_n) < 0:
                raise CheckError(f"case_{case_id}.csv: negative count in row {line!r}")
            if off_s < fwd_s + drop_s or off_n < fwd_n + drop_n:
                raise CheckError(f"case_{case_id}.csv: offered < forwarded + dropped in row {line!r}")
            keys.add((algorithm, sweep, row_seed))
        if len(keys) != rows_per_case:
            raise CheckError(f"case_{case_id}.csv: duplicate (algorithm, sweep_value, seed) rows")
        per_algo: dict[str, int] = {}
        for line in _lines(out_dir / f"case_v_{case_id}.csv", "algorithm,bucket_lower,mean_malicious,rows"):
            algorithm, _, _, rows = line.split(",")
            per_algo[algorithm] = per_algo.get(algorithm, 0) + int(rows)
        if per_algo != {"ctc": rows_per_case // 2, "dsr": rows_per_case // 2}:
            raise CheckError(f"case_v_{case_id}.csv: bucket rows {per_algo} do not cover the case table")
    for figure_id in range(1, 7):
        lines = _lines(out_dir / f"fig_{figure_id}.csv", "algorithm,x,y")
        if not lines:
            raise CheckError(f"fig_{figure_id}.csv: no points")
        for line in lines:
            algorithm, x, y = line.split(",")
            if algorithm not in ("ctc", "dsr") or not (math.isfinite(float(x)) and math.isfinite(float(y))):
                raise CheckError(f"fig_{figure_id}.csv: bad point {line!r}")


def _check_trace(path: Path, epochs: int, neighbor_count: int, epoch_length: float) -> None:
    """Rows in (epoch, node) order; per-row deltas and cumulative conservation."""
    lines = _lines(path, TRACE_COLUMNS)
    nodes = neighbor_count + 1
    if len(lines) != epochs * nodes:
        raise CheckError(f"{path.name}: {len(lines)} rows, expected {epochs} x {nodes}")
    # A source forwards all of its own traffic, relays nothing and holds no queue.
    source_tail = f",0,{{0}},0,0,0,0,0,{epoch_length:.6f},0.000000,0.000000,0.000000"
    cum = [0, 0, 0, 0, 0, 0]  # target offered/forwarded/dropped, self then neighbor
    source_total = 0
    target_offered_nbr = 0
    for index, line in enumerate(lines):
        epoch, node = divmod(index, nodes)
        if node:
            prefix = f"{epoch},{node},"
            sent = line[len(prefix) :].split(",", 1)[0]
            if not line.startswith(prefix) or line != prefix + sent + source_tail.format(sent) or int(sent) < 0:
                raise CheckError(f"{path.name} row {index + 1}: bad source row {line!r}")
            source_total += int(sent)
            continue
        cells = line.split(",")
        if int(cells[0]) != epoch or int(cells[1]) != node:
            raise CheckError(f"{path.name} row {index + 1}: out of (epoch, node) order")
        counts = [int(c) for c in cells[2:10]]
        if min(counts) < 0:
            raise CheckError(f"{path.name} row {index + 1}: negative count")
        if abs(float(cells[10]) + float(cells[11]) - epoch_length) > 2e-6:
            raise CheckError(f"{path.name} row {index + 1}: t_pp + t_np != epoch_length")
        off_s, off_n, fwd_s, fwd_n, drop_s, drop_n, q_s, q_n = counts
        if source_total != target_offered_nbr:
            raise CheckError(f"{path.name} epoch {epoch - 1}: sources sent {source_total}, target took {target_offered_nbr}")
        source_total = 0
        target_offered_nbr = off_n
        for i, delta in enumerate((off_s, fwd_s, drop_s, off_n, fwd_n, drop_n)):
            cum[i] += delta
        if cum[0] - cum[1] - cum[2] != q_s or cum[3] - cum[4] - cum[5] != q_n:
            raise CheckError(f"{path.name} epoch {epoch}: target conservation violated")
        ratio_s = cum[2] / cum[0] if cum[0] else 0.0
        ratio_n = cum[5] / cum[3] if cum[3] else 0.0
        if cells[12] != f"{ratio_s:.6f}" or cells[13] != f"{ratio_n:.6f}":
            raise CheckError(f"{path.name} epoch {epoch}: cumulative drop ratio mismatch")
    if source_total != target_offered_nbr:
        raise CheckError(f"{path.name} last epoch: sources sent {source_total}, target took {target_offered_nbr}")
