"""Deterministic CSV output for result tables, figures, and traces.

Byte determinism contract: identical inputs produce identical bytes. Files
are UTF-8 with "\\n" line endings, a header row always present, real-valued
fields at fixed 6-decimal precision, and integer fields as plain integers
(a 64-bit seed must survive a write/read round trip exactly, which rules
out pushing it through a float format).

The trace writer renders each chunk of epochs, target and source rows
alike, in one array pass over a uint8 table, with the same bytes as ``%d``
and ``%.6f``. A real takes the array path only where that is provably exact:
sign bit clear, ``0 <= x * 1e6 < 2**32``, and the fraction of ``x * 1e6``
more than ``2**-16`` from one half. Every other value (ties such as
``k/128``, NaN, infinities, negatives, -0.0, huge values) is formatted by
Python's own ``'%.6f' % x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

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

# Per declared ResultRow field type: its CSV format and how it reads back.
# ``%d`` and ``%.6f`` give the bytes of ``str(int(v))`` and ``f"{v:.6f}"``,
# 64-bit seeds included.
_CSV_TYPES = {"str": ("%s", str), "int": ("%d", int), "float": ("%.6f", float)}
CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))
_ROW_FORMAT = ",".join(_CSV_TYPES[f.type][0] for f in fields(ResultRow))
_ROW_READERS = [_CSV_TYPES[f.type][1] for f in fields(ResultRow)]
_row_values = attrgetter(*CSV_COLUMNS)

# Figures 1-4 are the per-case drop-ratio curves; 5 and 6 are the derived
# misbehavior-vs-drop-ratio view, raw and isotonic-smoothed.
FIG_CASE = {1: "I", 2: "II", 3: "III", 4: "IV"}

# A target row of a trace: the epoch, node 0, then the Trace fields in order.
_TRACE_FIELDS = tuple(f.name for f in fields(Trace) if f.name != "config")
TRACE_COLUMNS = ("epoch", "node_id", *_TRACE_FIELDS)


def _write_chunks(chunks: Iterable[bytes], dest: str | Path) -> int:
    """Write byte chunks, in order, to one file; returns bytes written."""
    written = 0
    with open(dest, "wb") as handle:
        for chunk in chunks:
            written += handle.write(chunk)
    return written


def _write_lines(lines: list[str], dest: str | Path) -> int:
    """Write lines as one UTF-8 file with a final newline; returns bytes written."""
    return _write_chunks([("\n".join(lines) + "\n").encode("utf-8")], dest)


def emit_csv(table: ResultTable, dest: str | Path) -> int:
    """Write a result table; returns the number of bytes written."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [_ROW_FORMAT % _row_values(row) for row in table.rows]
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
        rows.append(ResultRow(*(read(part) for read, part in zip(_ROW_READERS, parts))))
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
        points = tuple((float(v), math.fsum(ratios) / len(ratios)) for v, ratios in sorted(grouped[algorithm].items()))
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


# Rows per write of a trace: a chunk holds whole epochs, as many as fit. At
# this size a chunk's table (about 1 MB) stays in cache while it is read back
# column by column; at four times the size the same trace took twice as long.
# It is not a power of two, or with neighbor_count + 1 a power of two too the
# table's rows would be a power of two apart and share the same cache sets.
_TRACE_CHUNK_ROWS = 16_000

_ZERO = ord("0")
# `%.6f` of x is the integer nearest x * 1e6, split at the point. Below 2**32
# the float product is off by at most 2**-22, so where its fraction is further
# than 2**-16 from one half it rounds as the exact product does.
_SCALE = 1e6
_FAST_LIMIT = 2.0**32
_HALF_GUARD = 2.0**-16


def _digits(magnitude: np.ndarray, places: int | None = None) -> np.ndarray:
    """Decimal digits of nonnegative integers as a ``(width, rows)`` uint8 table.

    Digits are right-aligned. By default the table is as wide as the longest
    number and the leading places of shorter ones are zero bytes; with
    ``places`` it is that wide and every place is a digit.
    """
    pad = places is None
    top = int(magnitude.max())
    width = len(str(top)) if pad else places
    table = np.empty((width, magnitude.size), np.uint8)
    # Dividing in uint32 takes about a third off a trace chunk's digits.
    rest = magnitude.astype(np.uint32, copy=False) if top < 2**32 else magnitude
    for row in range(width - 1, -1, -1):
        quotient, digit = np.divmod(rest, 10)
        table[row] = digit
        table[row] += _ZERO
        if pad and row < width - 1:
            table[row][rest == 0] = 0
        rest = quotient
    return table


def _int_field(values: np.ndarray) -> np.ndarray:
    """``%d`` of each int64 as a right-aligned ``(width, rows)`` table."""
    first = int(values[0])
    if (values == first).all():
        text = np.frombuffer(b"%d" % first, np.uint8)
        return np.broadcast_to(text[:, None], (text.size, values.size))
    negative = values < 0
    # Magnitudes in uint64, where negation wraps, so -2**63 has one too.
    magnitude = values.astype(np.uint64)
    if not negative.any():
        return _digits(magnitude)
    np.negative(magnitude, out=magnitude, where=negative)
    table = np.vstack([np.zeros((1, values.size), np.uint8), _digits(magnitude)])
    # The sign takes the last zero byte left of each negative number.
    where = np.flatnonzero(negative)
    table[(table[:, where] == 0).sum(axis=0) - 1, where] = ord("-")
    return table


def _real_field(values: np.ndarray) -> np.ndarray:
    """``%.6f`` of each float64 as a right-aligned ``(width, rows)`` table."""
    scaled = values * _SCALE
    fast = ~np.signbit(values) & (scaled < _FAST_LIMIT)
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) > _HALF_GUARD
    scaled = np.rint(np.where(fast, scaled, 0.0))
    # Divide in uint32 where it holds every value, as ``_digits`` does. A fast
    # value can still round up to 2**32 exactly (4294.9672957 does).
    scaled = scaled.astype(np.uint32 if scaled.max() < 2**32 else np.uint64)
    whole, fraction = np.divmod(scaled, 10**6)
    table = np.vstack([_digits(whole), np.full((1, values.size), ord("."), np.uint8), _digits(fraction, places=6)])
    # Every other value is formatted by Python itself, right-aligned.
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [b"%.6f" % value for value in values[slow].tolist()]
        width = max(table.shape[0], *map(len, texts))
        if width > table.shape[0]:
            table = np.vstack([np.zeros((width - table.shape[0], values.size), np.uint8), table])
        table[:, slow] = 0
        for index, text in zip(slow.tolist(), texts):
            table[width - len(text) :, index] = np.frombuffer(text, np.uint8)
    return table


def _line_fields(columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    """CSV lines of equal-length columns as ``(width, rows)`` uint8 tables, in
    order: ``%d`` of each integer column or ``%.6f`` of each float64 column,
    each followed by a comma, the last by a newline.
    """
    rows = len(columns[0])
    # Overflow in the scaled product and NaN compares only send a value to
    # Python's own formatting; they are not worth a warning.
    with np.errstate(all="ignore"):
        tables = [_real_field(column) if column.dtype.kind == "f" else _int_field(column) for column in columns]
    comma = np.full((1, rows), ord(","), np.uint8)
    parts = []
    for table in tables:
        parts += [table, comma]
    parts[-1] = np.full((1, rows), ord("\n"), np.uint8)
    return parts


def _text(table: np.ndarray) -> bytes:
    """A ``(height, columns)`` uint8 table read column by column, without its zero bytes."""
    # Dropping the zero bytes from the Fortran-order bytes is three times
    # faster than a boolean mask over the transposed table.
    return table.tobytes(order="F").replace(b"\0", b"")


def _format_rows(columns: Sequence[np.ndarray]) -> bytes:
    """CSV lines of equal-length columns, one line per row (see ``_line_fields``)."""
    return _text(np.vstack(_line_fields(columns)))


def _constant(text: str) -> np.ndarray:
    """A fixed field of every source row, shaped to broadcast over ``(nodes, width, epochs)``."""
    return np.frombuffer(text.encode("ascii"), np.uint8)[None, :, None]


def _trace_chunks(trace: Trace) -> Iterator[bytes]:
    """The trace CSV bytes: the header, then runs of whole epochs.

    A chunk is one uint8 table with a column per epoch: the target row's
    fields, then the rows of sources 1..n, each field padded with zero bytes
    to its widest value in the chunk. Read column by column without the
    zeros, the table is the chunk's text.
    """
    config = trace.config
    nodes = config.neighbor_count
    yield (",".join(TRACE_COLUMNS) + "\n").encode("ascii")
    columns = [getattr(trace, name) for name in _TRACE_FIELDS]
    node_ids = _int_field(np.arange(1, nodes + 1)).T[:, :, None]
    tail = _constant(f",0,0,0,0,0,{config.epoch_length:.6f},0.000000,0.000000,0.000000\n")
    epochs = trace.offered_neighbor.size
    per_chunk = max(1, _TRACE_CHUNK_ROWS // (nodes + 1))
    for start in range(0, epochs, per_chunk):
        stop = min(start + per_chunk, epochs)
        epoch = np.arange(start, stop, dtype=np.int64)
        target = _line_fields([epoch, np.zeros_like(epoch), *(column[start:stop] for column in columns)])
        # A source row: epoch, node id, sent, 0 relayed, sent forwarded, then
        # fields that never change. The epoch field is the target's own.
        sent = source_split(trace.offered_neighbor[start:stop], nodes)
        sent = _int_field(sent.ravel()).reshape(-1, nodes, stop - start).transpose(1, 0, 2)
        source_fields = [target[0][None], _constant(","), node_ids, _constant(","), sent, _constant(",0,"), sent, tail]
        target_height = sum(part.shape[0] for part in target)
        source_width = sum(field.shape[1] for field in source_fields)
        table = np.empty((target_height + nodes * source_width, stop - start), np.uint8)
        np.concatenate(target, out=table[:target_height])
        sources = table[target_height:].reshape(nodes, source_width, stop - start)
        row = 0
        for field in source_fields:
            sources[:, row : row + field.shape[1]] = field
            row += field.shape[1]
        yield _text(table)


def emit_trace_csv(trace: Trace, dest: str | Path) -> int:
    """Write one row per (epoch, node) of a trace; returns bytes written.

    Node 0 is the simulated target. Sources 1..neighbor_count are derived:
    each sends its ``source_split`` share of the epoch's neighbor arrivals,
    forwards all of it at once, relays nothing, and spends the whole epoch
    on its own traffic. The file is written in chunks of whole epochs, so
    memory stays bounded however long the trace.
    """
    return _write_chunks(_trace_chunks(trace), dest)
