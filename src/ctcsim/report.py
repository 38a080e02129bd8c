"""Deterministic CSV output for result tables, figures, and traces.

Byte determinism contract: identical inputs produce identical bytes. Files
are UTF-8 with "\\n" line endings, a header row always present, real-valued
fields at fixed 6-decimal precision, and integer fields as plain integers
(a 64-bit seed must survive a write/read round trip exactly, which rules
out pushing it through a float format).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import Iterable, Iterator, Sequence

from .errors import InvalidParameterError, MissingCaseError
from .experiments import CaseVCurve, ResultRow, ResultTable, derive_case_v, isotonic_nondecreasing
from .sim import Trace, source_split

__all__ = [
    "CSV_COLUMNS",
    "FIG_CASE",
    "TRACE_COLUMNS",
    "emit_csv",
    "read_csv",
    "FigureSeries",
    "figure_series",
    "emit_figure_csv",
    "emit_case_v_csv",
    "emit_trace_csv",
]

CSV_COLUMNS = (
    "case_id",
    "algorithm",
    "sweep_value",
    "seed",
    "epoch_window",
    "offered_self",
    "offered_nbr",
    "forwarded_self",
    "forwarded_nbr",
    "dropped_self",
    "dropped_nbr",
    "drop_ratio",
    "malicious_fraction",
    "throughput",
    "utilization",
)

_REAL_COLUMNS = {"drop_ratio", "malicious_fraction", "throughput", "utilization"}
_STRING_COLUMNS = {"case_id", "algorithm", "epoch_window"}

# Figures 1-4 are the per-case drop-ratio curves; 5 and 6 are the derived
# misbehavior-vs-drop-ratio view, raw and isotonic-smoothed.
FIG_CASE = {1: "I", 2: "II", 3: "III", 4: "IV"}

TRACE_COLUMNS = (
    "epoch",
    "node_id",
    "offered_self",
    "offered_neighbor",
    "forwarded_self",
    "forwarded_neighbor",
    "dropped_self",
    "dropped_neighbor",
    "queued_self",
    "queued_neighbor",
    "t_pp",
    "t_np",
    "drop_ratio_self",
    "drop_ratio_neighbor",
)


def _cell(column: str, value) -> str:
    if column in _STRING_COLUMNS:
        return str(value)
    if column in _REAL_COLUMNS:
        return f"{value:.6f}"
    return str(int(value))


def _write_chunks(chunks: Iterable[str], dest: str | Path) -> int:
    """Write text chunks, in order, to one UTF-8 file; returns bytes written."""
    written = 0
    with open(dest, "wb") as handle:
        for chunk in chunks:
            written += handle.write(chunk.encode("utf-8"))
    return written


def _write_lines(lines: list[str], dest: str | Path) -> int:
    """Write lines as one UTF-8 file with a final newline; returns bytes written."""
    return _write_chunks(["\n".join(lines) + "\n"], dest)


def emit_csv(table: ResultTable, dest: str | Path) -> int:
    """Write a result table; returns the number of bytes written."""
    lines = [",".join(CSV_COLUMNS)]
    for row in table.rows:
        lines.append(",".join(_cell(c, getattr(row, c)) for c in CSV_COLUMNS))
    return _write_lines(lines, dest)


def read_csv(path: str | Path) -> ResultTable:
    """Read back a result table written by :func:`emit_csv`."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.split("\n") if line]
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise InvalidParameterError(f"{path} does not have the expected result-table header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise InvalidParameterError(f"malformed row in {path}: {line!r}")
        kwargs = {}
        for column, part in zip(CSV_COLUMNS, parts):
            if column in _STRING_COLUMNS:
                kwargs[column] = part
            elif column in _REAL_COLUMNS:
                kwargs[column] = float(part)
            else:
                kwargs[column] = int(part)
        rows.append(ResultRow(**kwargs))
    return ResultTable(rows=tuple(rows))


@dataclass(frozen=True)
class FigureSeries:
    """One plotted line: an algorithm and its (x, y) points."""

    algorithm: str
    points: tuple[tuple[float, float], ...]


def _case_rows(tables: Sequence[ResultTable], case_id: str) -> list[ResultRow]:
    rows = [row for table in tables for row in table.rows if row.case_id == case_id]
    if not rows:
        raise MissingCaseError(f"no rows for case {case_id} in the given tables")
    return rows


def _sweep_series(tables: Sequence[ResultTable], case_id: str) -> list[FigureSeries]:
    rows = _case_rows(tables, case_id)
    grouped: dict[str, dict[int, list[float]]] = {}
    for row in rows:
        grouped.setdefault(row.algorithm, {}).setdefault(row.sweep_value, []).append(row.drop_ratio)
    series = []
    for algorithm in sorted(grouped):
        points = tuple((float(v), fmean(ratios)) for v, ratios in sorted(grouped[algorithm].items()))
        series.append(FigureSeries(algorithm, points))
    return series


def _smoothed(curve: CaseVCurve) -> dict[float, float]:
    values = [bucket.mean_malicious for bucket in curve.buckets]
    weights = [bucket.rows for bucket in curve.buckets]
    fitted = isotonic_nondecreasing(values, weights)
    return {bucket.lower: fit for bucket, fit in zip(curve.buckets, fitted)}


def _derived_series(tables: Sequence[ResultTable], smooth: bool) -> list[FigureSeries]:
    for case_id in FIG_CASE.values():
        _case_rows(tables, case_id)  # all four cases must be present
    curves = derive_case_v(tables)
    per_algo: dict[str, dict[float, float]] = {}
    for curve in curves:
        if smooth:
            per_algo[curve.algorithm] = _smoothed(curve)
        else:
            per_algo[curve.algorithm] = {b.lower: b.mean_malicious for b in curve.buckets}
    # Shared bucket set so every emitted series covers identical x positions.
    shared: set[float] | None = None
    for buckets in per_algo.values():
        shared = set(buckets) if shared is None else shared & set(buckets)
    series = []
    for algorithm in sorted(per_algo):
        points = tuple((lower, per_algo[algorithm][lower]) for lower in sorted(shared or ()))
        series.append(FigureSeries(algorithm, points))
    return series


def figure_series(tables: Sequence[ResultTable], figure_id: int) -> list[FigureSeries]:
    """Series for one of the six figures.

    1-4: per-algorithm seed-mean drop ratio against the sweep axis for
    Cases I-IV. 5: derived misbehavior-vs-drop-ratio buckets (raw means).
    6: the same after isotonic smoothing. Figures 5-6 need rows from all
    four cases and report the bucket intersection of the algorithms.
    """
    if figure_id in FIG_CASE:
        return _sweep_series(tables, FIG_CASE[figure_id])
    if figure_id == 5:
        return _derived_series(tables, smooth=False)
    if figure_id == 6:
        return _derived_series(tables, smooth=True)
    raise InvalidParameterError(f"figure_id must be 1..6, got {figure_id}")


def emit_figure_csv(series: Sequence[FigureSeries], dest: str | Path) -> int:
    """Write figure series as ``algorithm,x,y`` rows; returns bytes written."""
    lines = ["algorithm,x,y"]
    for entry in series:
        for x, y in entry.points:
            lines.append(f"{entry.algorithm},{x:.6f},{y:.6f}")
    return _write_lines(lines, dest)


def emit_case_v_csv(curves: Sequence[CaseVCurve], dest: str | Path) -> int:
    """Write derived-curve buckets as ``algorithm,bucket_lower,mean_malicious,rows``; returns bytes written."""
    lines = ["algorithm,bucket_lower,mean_malicious,rows"]
    for curve in curves:
        for bucket in curve.buckets:
            lines.append(f"{curve.algorithm},{bucket.lower:.6f},{bucket.mean_malicious:.6f},{bucket.rows}")
    return _write_lines(lines, dest)


# Rows per write of a trace: a chunk holds whole epochs, as many as fit.
_TRACE_CHUNK_ROWS = 1 << 16

# The target row; after epoch and node_id, the Trace fields in order.
_TARGET_ROW = "%d,0,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f,%.6f\n"


def _trace_chunks(trace: Trace) -> Iterator[str]:
    """The trace CSV text: the header, then runs of whole epochs."""
    config = trace.config
    nodes = config.neighbor_count
    source_tail = f",0,0,0,0,0,{config.epoch_length:.6f},0.000000,0.000000,0.000000\n"
    yield ",".join(TRACE_COLUMNS) + "\n"
    columns = [getattr(trace, name) for name in TRACE_COLUMNS[2:]]
    epochs = trace.offered_neighbor.size
    per_chunk = max(1, _TRACE_CHUNK_ROWS // (nodes + 1))
    for start in range(0, epochs, per_chunk):
        stop = min(start + per_chunk, epochs)
        # An epoch's source rows depend on the epoch only through their first
        # field: keep one block per neighbor-arrival count, cut at the epoch,
        # and join it on each epoch that has that count.
        blocks: dict[int, list[str]] = {}
        parts = []
        for row in zip(range(start, stop), *(column[start:stop].tolist() for column in columns)):
            parts.append(_TARGET_ROW % row)
            epoch, arrivals = row[0], row[2]
            block = blocks.get(arrivals)
            if block is None:
                shares = enumerate(source_split(arrivals, nodes), start=1)
                block = blocks[arrivals] = [""] + [f",{node_id},{sent},0,{sent}{source_tail}" for node_id, sent in shares]
            parts.append(str(epoch).join(block))
        yield "".join(parts)


def emit_trace_csv(trace: Trace, dest: str | Path) -> int:
    """Write one row per (epoch, node) of a trace; returns bytes written.

    Node 0 is the simulated target. Sources 1..neighbor_count are derived:
    each sends its ``source_split`` share of the epoch's neighbor arrivals,
    forwards all of it at once, relays nothing, and spends the whole epoch
    on its own traffic. The file is written in chunks of whole epochs, so
    memory stays bounded however long the trace.
    """
    return _write_chunks(_trace_chunks(trace), dest)
