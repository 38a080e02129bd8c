"""Deterministic CSV output for result tables, figures, and traces.

Byte determinism contract: identical inputs produce identical bytes. Files
are UTF-8 with "\\n" line endings, a header row always present, real-valued
fields at fixed 6-decimal precision, and integer fields as plain integers
(a 64-bit seed must survive a write/read round trip exactly, which rules
out pushing it through a float format). Every integer of a trace is an
epoch, a node id, a source's share or a count, so a negative one is a fault
of the engine: it raises ``InvariantError``, and ``sim run`` exits 3.

The trace writer renders each block of epochs as one uint8 table with a
row per epoch, the epoch's target line and then its source lines, with the
same bytes as ``%d`` and ``%.6f``: read in row order without the zero bytes
that pad each field, the table is the block's text. A real takes the array
path only where that is provably exact: sign bit clear, ``0 <= x * 1e6 <
2**32``, and the fraction of ``x * 1e6`` more than ``2**-16`` from one
half. Every other value (ties such as ``k/128``, NaN, infinities,
negatives, -0.0, huge values) is formatted by Python's own ``'%.6f' % x``,
as is a column of one value.

A block's size and a text's size are set apart. Every block, about 1 MB of
whole epochs (``_TRACE_CHUNK_BYTES``), is built in one buffer reused for the
whole trace, so each step that runs once per block (``source_split``, the
``sent`` digits, the source-line template and its broadcast, the target
copy) runs on many epochs at once. In a steady block, whose epochs all have
the same neighbor arrivals, the sources' ``sent`` fields are split and
formatted for one epoch and written into the template, so its source lines
come whole from the template but for their epoch. The block is then written
in slices of at most ``_TRACE_SLICE_BYTES``: each slice is copied out of the
buffer, and ``bytes.replace(b"\\0", b"")`` makes its text. The copy and the
text stay below the allocator's mmap threshold, so they come from the heap,
not from fresh pages. ``replace`` takes about 16 ns for each zero byte it
drops, in runs or not, against 6 us for 120 kB with none, so the source
lines, most of a wide trace, hold no pad bytes: blocks end at each power of
ten of the epoch, and the sources are laid out by the digit count of their
node ids. The target lines of up to ``_TRACE_GROUP_EPOCHS`` epochs of one
piece are formatted at once, whatever their digits: an epoch below a power
of ten pads its field to the group's last epoch, a zero byte per digit
short, so that each piece of a run is formatted in one pass, not one per
power of ten.

Each digit comes from an integer ``//`` by 10 and a multiply-subtract, not
from ``np.divmod``: numpy 2.4.6 vectorizes an integer floor division by a
scalar but not ``divmod``. Per 8,000 uint32 values ``x // 10`` takes 3.1 us
and ``np.divmod(x, 10)`` 22 us; in uint64, 6.3 and 33 us. So integers are
divided in uint32 wherever that holds every value of a field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import phases
from .errors import InvalidParameterError, InvariantError, MissingCaseError
from .experiments import CASE_IDS, CaseVCurve, ResultRow, ResultTable, derive_case_v, isotonic_nondecreasing
from .sim import Trace, source_split
from .sim import _TRACE_COLUMNS

__all__ = [
    "CSV_COLUMNS",
    "FIG_CASE",
    "TRACE_COLUMNS",
    "emit_csv",
    "read_csv",
    "FigureSeries",
    "figure_series",
    "derived_series",
    "emit_figure_csv",
    "emit_case_v_csv",
    "emit_trace_csv",
]

# Per declared column type of a small CSV: its format and how it reads
# back. ``%d`` and ``%.6f`` give the bytes of ``str(int(v))`` and
# ``f"{v:.6f}"``, 64-bit seeds included. Each small CSV is declared as its
# ``(name, type)`` columns, in order.
_CSV_TYPES = {"str": ("%s", str), "int": ("%d", int), "float": ("%.6f", float)}
_RESULT_COLUMNS = tuple((f.name, f.type) for f in fields(ResultRow))
_FIGURE_COLUMNS = (("algorithm", "str"), ("x", "float"), ("y", "float"))
_CASE_V_COLUMNS = (("algorithm", "str"), ("bucket_lower", "float"), ("mean_malicious", "float"), ("rows", "int"))
CSV_COLUMNS = tuple(name for name, _ in _RESULT_COLUMNS)
_row_values = attrgetter(*CSV_COLUMNS)

# Figures 1-4 are the per-case drop-ratio curves; 5 and 6 are the derived
# misbehavior-vs-drop-ratio view, raw and isotonic-smoothed.
FIG_CASE = dict(enumerate(CASE_IDS, start=1))

# A target row of a trace: the epoch, node 0, then the Trace fields in order.
TRACE_COLUMNS = ("epoch", "node_id", *_TRACE_COLUMNS)


def _write_chunks(chunks: Iterable[bytes], dest: str | Path) -> int:
    """Write byte chunks, in order, to one file; returns bytes written.

    No chunk is held while the next one is made.
    """
    with open(dest, "wb") as handle:
        return sum(map(handle.write, chunks))


def _emit_rows(columns: Sequence[tuple[str, str]], rows: Iterable[tuple], dest: str | Path) -> int:
    """Write the header of declared ``(name, type)`` columns, then one line per
    tuple of values, as one UTF-8 file; returns bytes written.
    """
    line = ",".join(_CSV_TYPES[kind][0] for _, kind in columns) + "\n"
    text = ",".join(name for name, _ in columns) + "\n" + "".join([line % row for row in rows])
    return _write_chunks([text.encode("utf-8")], dest)


def emit_csv(table: ResultTable, dest: str | Path) -> int:
    """Write a result table; returns the number of bytes written."""
    return _emit_rows(_RESULT_COLUMNS, map(_row_values, table.rows), dest)


def read_csv(path: str | Path) -> ResultTable:
    """Read back a result table written by :func:`emit_csv`.

    A row of another length, or a value its column's type does not parse,
    raises ``InvalidParameterError`` naming the path and the line, and for a
    value its column.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [(number, line) for number, line in enumerate(text.split("\n"), start=1) if line]
    if not lines or tuple(lines[0][1].split(",")) != CSV_COLUMNS:
        raise InvalidParameterError(f"{path} does not have the expected result-table header")
    rows = []
    for number, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_RESULT_COLUMNS):
            raise InvalidParameterError(f"malformed row in {path}, line {number}: {line!r}")
        values = []
        for (name, kind), part in zip(_RESULT_COLUMNS, parts):
            try:
                values.append(_CSV_TYPES[kind][1](part))
            except ValueError:
                raise InvalidParameterError(f"{path}, line {number}, column {name}: {part!r} is not {kind}") from None
        rows.append(ResultRow(*values))
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


def derived_series(curves: Sequence[CaseVCurve], smooth: bool) -> list[FigureSeries]:
    """Figure 5 from the pooled curves of ``derive_case_v``, or figure 6 when ``smooth``.

    One derivation of the pooled rows serves both figures.
    """
    per_algo: dict[str, dict[float, float]] = {}
    for curve in curves:
        means = [bucket.mean_malicious for bucket in curve.buckets]
        if smooth:
            means = isotonic_nondecreasing(means, [bucket.rows for bucket in curve.buckets])
        per_algo[curve.algorithm] = dict(zip((bucket.lower for bucket in curve.buckets), means))
    # Shared bucket set so every emitted series covers identical x positions.
    shared = sorted(set.intersection(*map(set, per_algo.values())))
    return [FigureSeries(name, tuple((x, means[x]) for x in shared)) for name, means in sorted(per_algo.items())]


def figure_series(tables: Sequence[ResultTable], figure_id: int) -> list[FigureSeries]:
    """Series for one of the six figures.

    1-4: per-algorithm seed-mean drop ratio against the sweep axis for
    Cases I-IV. 5: derived misbehavior-vs-drop-ratio buckets (raw means).
    6: the same after isotonic smoothing. Figures 5-6 need rows from all
    four cases and report the bucket intersection of the algorithms.
    """
    if figure_id in FIG_CASE:
        return _sweep_series(tables, FIG_CASE[figure_id])
    if figure_id in (5, 6):
        for case_id in CASE_IDS:
            _case_rows(tables, case_id)  # all four cases must be present
        return derived_series(derive_case_v(tables), smooth=figure_id == 6)
    raise InvalidParameterError(f"figure_id must be 1..6, got {figure_id}")


def emit_figure_csv(series: Sequence[FigureSeries], dest: str | Path) -> int:
    """Write figure series as ``algorithm,x,y`` rows; returns bytes written."""
    return _emit_rows(_FIGURE_COLUMNS, ((entry.algorithm, x, y) for entry in series for x, y in entry.points), dest)


def emit_case_v_csv(curves: Sequence[CaseVCurve], dest: str | Path) -> int:
    """Write derived-curve buckets as ``algorithm,bucket_lower,mean_malicious,rows``; returns bytes written."""
    rows = ((curve.algorithm, b.lower, b.mean_malicious, b.rows) for curve in curves for b in curve.buckets)
    return _emit_rows(_CASE_V_COLUMNS, rows, dest)


# Bytes per block of a trace: a block holds whole epochs, as many as fit, or
# one epoch when that alone is larger. Every block is built in one buffer,
# allocated once per trace, which grows only for such an epoch. Each block
# costs a fixed ~40 numpy calls, 80-120 us warm, so a larger block runs them
# less often over the same bytes, until its own ``sent`` digits (about 23
# bytes a source line) pass the mmap threshold and fault in again every
# block. Measured per build size, ``perfbench/run.py --seconds 7`` medians of
# 3 runs (2-core Xeon; texts of 120 kB; ``wall_norm_s``, ``peak_rss_mb``),
# and the minor faults of ``emit_trace_csv`` on ``trace_wide``:
#   build       trace_wide             trace_deep             minflt
#   120 kB      0.0268 s  38.0 MiB     0.0500 s  51.1 MiB       196
#   240 kB      0.0250 s  38.0 MiB     0.0502 s  51.1 MiB       198
#   480 kB      0.0239 s  38.3 MiB     0.0496 s  51.1 MiB       257
#   960 kB      0.0237 s  38.8 MiB     0.0481 s  51.0 MiB       375
#   2 MB        0.0258 s  40.2 MiB     0.0495 s  52.9 MiB     1,435
# (120 kB is the writer before blocks and texts were set apart.)
_TRACE_CHUNK_BYTES = 960_000
# Bytes per text: a block is written in slices of at most this many bytes,
# each copied out of the buffer and compacted on its own. The copy and its
# text stay under glibc's default mmap threshold (128 KiB), so they come
# from, and go back to, the heap's free lists. Blocks above the threshold are
# mapped on allocation and unmapped on free, so each would fault its pages in
# again: an earlier writer that allocated three fresh ~1 MB blocks for each
# chunk it wrote took 3,896 minor faults in ``emit_trace_csv`` on
# ``trace_wide`` and 2,607 on ``trace_deep``, in a fresh process.
_TRACE_SLICE_BYTES = 120_000
# Epochs per group, whose target fields are formatted at once: enough values
# per numpy call to make its fixed cost small, whatever the block size.
_TRACE_GROUP_EPOCHS = 8_000

_ZERO = ord("0")
# `%.6f` of x is the integer nearest x * 1e6, split at the point. Below 2**32
# the float product is off by at most 2**-22, so where its fraction is further
# than 2**-16 from one half it rounds as the exact product does. Read as a
# uint64, a float64 is below ``_FAST_BITS`` exactly when its sign bit is clear
# and it is a number less than 2**32 (NaN and infinities read higher).
_SCALE = 1e6
_FAST_BITS = np.float64(2.0**32).view(np.uint64)
_HALF_GUARD = 2.0**-16

# A field: its width, and a function that writes it right-aligned into a
# ``(width, rows)`` uint8 table, with zero bytes left of shorter values.
_Field = tuple[int, Callable[[np.ndarray], None]]


def _digits(magnitude: np.ndarray, out: np.ndarray, shortest: int) -> None:
    """Write the decimal digits of nonnegative integers into the ``(width, rows)`` table ``out``.

    Digits are right-aligned, and every value fills at least its last
    ``shortest`` places. Above those, the leading places of a shorter value
    are zero bytes; with ``shortest`` equal to the width every place is a
    digit. ``magnitude`` is uint32 where that holds every value, else uint64.
    """
    width = out.shape[0]
    rest = magnitude
    digit = np.empty_like(magnitude)
    for row in range(width - 1, -1, -1):
        # `//` rather than `np.divmod`, which numpy does not vectorize (see
        # the module docstring); in uint32 this loop takes a third less time
        # than in uint64.
        quotient = rest // 10
        np.subtract(rest, np.multiply(quotient, 10, out=digit), out=digit)
        np.add(digit, _ZERO, out=out[row], casting="unsafe")
        if row < width - shortest:
            np.multiply(out[row], rest != 0, out=out[row])
        rest = quotient


def _unsigned(values: np.ndarray, top: int) -> np.ndarray:
    """Nonnegative integers in the dtype ``_digits`` divides in, for a maximum of ``top``."""
    return values.astype(np.uint32 if top < 2**32 else np.uint64, copy=False)


def _places(value: int) -> int:
    return len(str(int(value)))


def _int_field(values: np.ndarray) -> _Field:
    """``%d`` of each int64 (see ``_Field``).

    Every integer of a trace is an epoch, a node id, a source's share or a
    count, so a negative one is a fault of the engine and raises
    ``InvariantError``.
    """
    low, top = int(values.min()), int(values.max())
    if low < 0:
        raise InvariantError(f"a trace count must be >= 0, got {low}")
    if low == top:
        text = np.frombuffer(b"%d" % low, np.uint8)[:, None]
        return text.size, lambda out: np.copyto(out, text)
    return _places(top), lambda out: _digits(_unsigned(values, top), out, _places(low))


def _real_field(values: np.ndarray) -> _Field:
    """``%.6f`` of each float64 (see ``_Field``)."""
    bits = values.view(np.uint64)
    if (bits == bits[0]).all():
        # One value, to the bit (so not 0.0 next to -0.0): Python formats it once.
        text = np.frombuffer(b"%.6f" % values[0], np.uint8)[:, None]
        return text.size, lambda out: np.copyto(out, text)
    scaled = values * _SCALE
    fast = scaled.view(np.uint64) < _FAST_BITS
    tail = np.floor(scaled)
    np.subtract(scaled, tail, out=tail)
    tail -= 0.5
    fast &= np.abs(tail, out=tail) > _HALF_GUARD
    # rint is monotone, so this is the largest fast value as written. It can
    # still round up to 2**32 exactly (4294.9672957 does).
    top = int(np.rint(np.max(scaled, initial=0.0, where=fast)))
    whole_width = _places(top // 10**6)
    # Every other value is formatted by Python itself, right-aligned.
    slow = np.flatnonzero(~fast)
    texts = [b"%.6f" % value for value in values[slow].tolist()]
    width = max([whole_width + 7, *map(len, texts)])

    def write(out: np.ndarray) -> None:
        scaled = values * _SCALE
        scaled[slow] = 0.0
        scaled = _unsigned(np.rint(scaled, out=scaled), top)
        whole = scaled // 10**6
        fraction = np.subtract(scaled, whole * 10**6, out=scaled)
        point = width - 7
        out[: point - whole_width] = 0
        _digits(whole, out[point - whole_width : point], _places(whole.min()))
        out[point] = ord(".")
        _digits(fraction, out[point + 1 :], 6)
        if slow.size:
            out[:, slow] = 0
            for index, text in zip(slow.tolist(), texts):
                out[width - len(text) :, index] = np.frombuffer(text, np.uint8)

    return width, write


def _int_table(values: np.ndarray) -> np.ndarray:
    """``%d`` of each int64 as a ``(width, rows)`` table of its own."""
    width, write = _int_field(values)
    table = np.empty((width, values.size), np.uint8)
    write(table)
    return table


def _line_fields(columns: Sequence[np.ndarray], buffer: bytearray) -> np.ndarray:
    """CSV lines of equal-length columns as one ``(height, rows)`` uint8 table,
    a column per line: ``%d`` of each integer column or ``%.6f`` of each
    float64 column, each followed by a comma, the last by a newline.

    The table is a view of ``buffer``, which grows in place when it is too
    small, so no other view of it may be held.
    """
    # Each field is sized first and written after the table is allocated, so
    # only one field's digit arrays exist at a time. Overflow in the scaled
    # product and NaN compares only send a value to Python's own formatting;
    # they are not worth a warning.
    with np.errstate(all="ignore"):
        fields = [_real_field(column) if column.dtype.kind == "f" else _int_field(column) for column in columns]
        height, rows = sum(width + 1 for width, _ in fields), len(columns[0])
        buffer.extend(bytes(max(0, height * rows - len(buffer))))
        table = np.frombuffer(buffer, np.uint8, height * rows).reshape(height, rows)
        row = 0
        for width, write in fields:
            write(table[row : row + width])
            table[row + width] = ord(",")
            row += width + 1
    table[-1] = ord("\n")
    return table


def _trace_groups(pieces: Iterable[Trace]) -> Iterator[tuple[int, list[np.ndarray]]]:
    """The run's first epoch and the columns of each group of epochs of consecutive traces of one run.

    A group holds at most ``_TRACE_GROUP_EPOCHS`` epochs of one piece. A
    piece is let go before the next one is asked for.
    """
    offset = 0
    for trace in pieces:
        columns = [getattr(trace, name) for name in _TRACE_COLUMNS]
        epochs = offset + columns[0].size
        del trace
        for start in range(offset, epochs, _TRACE_GROUP_EPOCHS):
            stop = min(epochs, start + _TRACE_GROUP_EPOCHS)
            yield start, [column[start - offset : stop - offset] for column in columns]
        offset = epochs
        del columns


def _decades(start: int, epochs: int) -> Iterator[tuple[int, int, int]]:
    """The runs of ``epochs`` epochs from ``start`` on whose numbers have the same digits.

    Each run as its first and its end offset from ``start`` and its digit count.
    """
    first = 0
    while first < epochs:
        digits = _places(start + first)
        stop = min(epochs, 10**digits - start)
        yield first, stop, digits
        first = stop


def _trace_blocks(pieces: Trace | Iterable[Trace]) -> Iterator[memoryview]:
    """The epochs of a trace, or of consecutive traces of one run, after the header, as runs of whole epochs.

    ``pieces`` is a whole trace, or the blocks of ``sim.run_blocks`` in
    order. A block is one uint8 table with a row per epoch: the target
    line, then the lines of sources 1..n, laid out as one ``(rows, sources,
    width)`` view per digit count of the node ids. Read row by row without
    its zero bytes, the table is the block's text. Every block is built in
    one buffer and yielded as a view of it, which the next block
    overwrites. The target fields are formatted for a group of whole blocks
    at once, into one table in a second reused buffer, and copied in,
    transposed, block by block. Blocks end at each power of ten, so every
    epoch of a block has the same digits: the pad bytes left are the
    target's, its epoch field's included, and those of the ``sent`` counts
    shorter than the block's longest. A source line's constant bytes are
    written once per view, into the first epoch's lines, and copied from
    there into every other epoch of the block at once; then each line's
    epoch, copied from the last digits of the target's own field, and its
    two ``sent`` fields are written into their slots. A steady block, whose
    epochs all have the same neighbor arrivals, has its ``sent`` fields in
    the template instead, formatted for one epoch.
    """
    pieces = iter([pieces] if isinstance(pieces, Trace) else pieces)
    head = next(pieces, None)
    if head is None:
        return
    config = head.config
    groups = _trace_groups(chain([head], pieces))
    del head
    nodes = config.neighbor_count
    # Per digit count of the node ids: the sources' index range, and their
    # ",id," bytes.
    classes = []
    for digits in range(1, _places(nodes) + 1):
        low, high = 10 ** (digits - 1) - 1, min(10**digits - 1, nodes)
        comma = np.full((high - low, 1), ord(","), np.uint8)
        classes.append((low, high, np.hstack([comma, _int_table(np.arange(low + 1, high + 1)).T, comma])))
    id_bytes = sum(ids.size for *_, ids in classes)
    # A source line: epoch, node id, sent, 0 relayed, sent forwarded, then
    # fields that never change.
    relayed = np.frombuffer(b",0,", np.uint8)
    tail = f",0,0,0,0,0,{config.epoch_length:.6f},0.000000,0.000000,0.000000\n"
    tail = np.frombuffer(tail.encode("ascii"), np.uint8)
    buffer = bytearray(_TRACE_CHUNK_BYTES)
    # The target lines of every group are formatted into one buffer too, so
    # that the engine's blocks, made between groups, do not take its pages.
    lines_buffer = bytearray()
    for start, columns in groups:
        epoch = np.arange(start, start + columns[0].size, dtype=np.int64)
        target = _line_fields([epoch, np.zeros_like(epoch), *columns], lines_buffer)
        # The epoch field is as wide as the group's last epoch, its digits right-aligned.
        height, field = target.shape[0], _places(epoch[-1])
        offered = columns[_TRACE_COLUMNS.index("offered_neighbor")]
        # Each block's first epoch and epochs, and its epochs' digits and
        # bytes but for their 2 * nodes ``sent`` fields.
        blocks = []
        for begin, finish, epoch_width in _decades(start, epoch.size):
            fixed = height + id_bytes + nodes * (epoch_width + relayed.size + tail.size)
            # Sized for the largest count, a source's share rounded up.
            share = -(-int(offered[begin:finish].max()) // nodes)
            per_block = max(1, _TRACE_CHUNK_BYTES // (fixed + 2 * nodes * _places(share)))
            for first in range(begin, finish, per_block):
                blocks.append((first, min(per_block, finish - first), epoch_width, fixed))
        for first, rows, epoch_width, fixed in blocks:
            # Each source's counts, formatted source by source and viewed as
            # ``(epochs, sources, width)``: one epoch's, when every epoch of
            # the block has the same neighbor arrivals.
            counts = offered[first : first + rows]
            if (counts == counts[0]).all():
                counts = counts[:1]
            sent = _int_table(source_split(counts, nodes).ravel())
            sent_width = sent.shape[0]
            sent = sent.reshape(sent_width, nodes, counts.size).T
            size = rows * (fixed + 2 * nodes * sent_width)
            if size > len(buffer):
                buffer = bytearray(size)
            table = np.frombuffer(buffer, np.uint8, size).reshape(rows, -1)
            table[:, :height] = target[:, first : first + rows].T
            # Each epoch's digits, the last of its field in the group's
            # table: a view of the block's own table would overlap the
            # lines it is copied into, and numpy would copy it first.
            epoch_text = target[field - epoch_width : field, first : first + rows].T[:, None]
            column = height
            for low, high, ids in classes:
                first_sent = epoch_width + ids.shape[1]
                second_sent = first_sent + sent_width + relayed.size
                width = second_sent + sent_width + tail.size
                end = column + (high - low) * width
                lines = table[:, column:end].reshape(rows, high - low, width)
                column = end
                # The first epoch's lines are the template: their constant
                # bytes and ``sent`` fields go to every epoch, and every
                # epoch's epoch and, unless the block is steady, its ``sent``
                # fields are written after.
                template = lines[0]
                template[:, epoch_width:first_sent] = ids
                template[:, first_sent + sent_width : second_sent] = relayed
                template[:, second_sent + sent_width :] = tail
                for slot in (first_sent, second_sent):
                    template[:, slot : slot + sent_width] = sent[0, low:high]
                lines[1:] = template
                lines[:, :, :epoch_width] = epoch_text
                if len(sent) > 1:
                    for slot in (first_sent, second_sent):
                        lines[1:, :, slot : slot + sent_width] = sent[1:, low:high]
            phases.count("trace_blocks")
            yield memoryview(buffer)[:size]
        # The group's views, let go before the next group is made: the lines
        # buffer may then grow, and the piece the columns come from be freed.
        del target, epoch_text, columns, offered


def _trace_chunks(pieces: Trace | Iterable[Trace]) -> Iterator[bytes]:
    """The trace CSV bytes: the header, then each block's text in slices.

    A slice of at most ``_TRACE_SLICE_BYTES`` of a block is copied out of
    the buffer and compacted by ``replace``; a slice may end inside a line
    or a run of pad bytes, since dropping the zero bytes of every slice
    drops those of the block.
    """
    yield (",".join(TRACE_COLUMNS) + "\n").encode("ascii")
    for block in _trace_blocks(pieces):
        for start in range(0, len(block), _TRACE_SLICE_BYTES):
            phases.count("trace_texts")
            yield bytes(block[start : start + _TRACE_SLICE_BYTES]).replace(b"\0", b"")


def emit_trace_csv(trace: Trace | Iterable[Trace], dest: str | Path) -> int:
    """Write one row per (epoch, node) of a trace; returns bytes written.

    Node 0 is the simulated target. Sources 1..neighbor_count are derived:
    each sends its ``source_split`` share of the epoch's neighbor arrivals,
    forwards all of it at once, relays nothing, and spends the whole epoch
    on its own traffic. The file is built in blocks of whole epochs and
    written in slices of each block, so memory stays bounded however long
    the trace. ``trace`` is one ``Trace``, or a run's consecutive blocks in
    order (``sim.run_blocks``), which are then written as they are made.
    """
    return _write_chunks(_trace_chunks(trace), dest)
