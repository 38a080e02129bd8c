"""CSV and figure emission tests. Byte-level expectations are spelled out
so any formatting drift shows up as a diff, not just a failed parse."""

import dataclasses
import math
import os
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcsim import report, sim
from ctcsim.errors import InvalidParameterError, InvariantError, MissingCaseError
from ctcsim.experiments import CaseVBucket, CaseVCurve, ResultRow, ResultTable, case_spec, run_case
from ctcsim.report import (
    CSV_COLUMNS,
    FIG_CASE,
    FigureSeries,
    emit_case_v_csv,
    emit_csv,
    emit_figure_csv,
    emit_trace_csv,
    figure_series,
    read_csv,
)
from ctcsim.sim import RateFunction, RateKind, SimConfig, run


def _row(**overrides):
    base = dict(
        case_id="I",
        algorithm="ctc",
        sweep_value=100,
        seed=0,
        epoch_window="0-99",
        offered_self=4950,
        offered_nbr=990,
        forwarded_self=4000,
        forwarded_nbr=800,
        dropped_self=950,
        dropped_nbr=190,
        drop_ratio=0.25,
        malicious_fraction=0.0,
        throughput=48.0,
        utilization=0.5,
    )
    base.update(overrides)
    return ResultRow(**base)


def test_csv_columns_fixed_order():
    assert CSV_COLUMNS == (
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


@pytest.mark.parametrize(
    "writer, empty, header",
    [
        (emit_csv, ResultTable(rows=()), ",".join(CSV_COLUMNS)),
        (emit_figure_csv, [], "algorithm,x,y"),
        (emit_case_v_csv, [], "algorithm,bucket_lower,mean_malicious,rows"),
    ],
    ids=["emit_csv", "emit_figure_csv", "emit_case_v_csv"],
)
def test_emit_csv_empty_table_is_header_only(tmp_path, writer, empty, header):
    dest = tmp_path / "empty.csv"
    written = writer(empty, dest)
    assert dest.read_bytes() == (header + "\n").encode()
    assert written == len(header) + 1


def test_emit_csv_exact_bytes(tmp_path):
    dest = tmp_path / "one.csv"
    written = emit_csv(ResultTable(rows=(_row(drop_ratio=1 / 3),)), dest)
    data = dest.read_bytes()
    assert written == len(data)
    header, line, trailer = data.decode("utf-8").split("\n")
    assert trailer == ""
    assert line == "I,ctc,100,0,0-99,4950,990,4000,800,950,190,0.333333,0.000000,48.000000,0.500000"


def test_emit_csv_seed_round_trips_exactly(tmp_path):
    big_seed = 2**63 + 12345
    dest = tmp_path / "seed.csv"
    emit_csv(ResultTable(rows=(_row(seed=big_seed),)), dest)
    assert read_csv(dest).rows[0].seed == big_seed


def test_csv_round_trip_equality(tmp_path):
    table = ResultTable(rows=(_row(), _row(seed=1, drop_ratio=0.125), _row(algorithm="dsr", utilization=1.25)))
    dest = tmp_path / "table.csv"
    emit_csv(table, dest)
    assert read_csv(dest) == table


def test_emit_is_byte_deterministic(tmp_path):
    spec = dataclasses.replace(case_spec("IV"), sweep_axis=(100,), seeds=(0, 1))
    table = run_case(spec)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(table, a)
    emit_csv(run_case(spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_real_table_round_trip_matches_to_rendered_precision(tmp_path):
    spec = dataclasses.replace(case_spec("III"), sweep_axis=(800,), seeds=(0,))
    table = run_case(spec)
    dest = tmp_path / "real.csv"
    emit_csv(table, dest)
    back = read_csv(dest)
    for original, parsed in zip(table.rows, back.rows):
        assert parsed.case_id == original.case_id
        assert parsed.sweep_value == original.sweep_value
        assert parsed.offered_nbr == original.offered_nbr
        assert parsed.drop_ratio == pytest.approx(original.drop_ratio, abs=1e-6)
        assert parsed.utilization == pytest.approx(original.utilization, abs=1e-6)


def test_read_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(InvalidParameterError):
        read_csv(path)


def test_read_csv_rejects_short_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\nI,ctc,100\n", encoding="utf-8")
    with pytest.raises(InvalidParameterError):
        read_csv(path)


@pytest.mark.parametrize("column, value", [("sweep_value", "abc"), ("seed", "1.5"), ("drop_ratio", "abc")])
def test_read_csv_names_the_path_line_and_column_of_a_value_that_does_not_parse(column, value, tmp_path):
    # Line 3, after the header and a blank line; an int and a float column.
    path = tmp_path / "bad_value.csv"
    emit_csv(ResultTable(rows=(_row(),)), path)
    header, line, _ = path.read_text(encoding="utf-8").split("\n")
    parts = line.split(",")
    parts[CSV_COLUMNS.index(column)] = value
    path.write_text(f"{header}\n\n{','.join(parts)}\n", encoding="utf-8")
    kind = "float" if column == "drop_ratio" else "int"
    message = f"{path}, line 3, column {column}: '{value}' is not {kind}"
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        read_csv(path)


def test_emit_csv_propagates_os_error(tmp_path):
    with pytest.raises(OSError):
        emit_csv(ResultTable(rows=()), tmp_path / "missing_dir" / "x.csv")


# ---------------------------------------------------------------------------
# figures


def _assert_series(series, expected):
    """Compare [(algorithm, [(x, y), ...]), ...] with float tolerance on y."""
    assert [s.algorithm for s in series] == [algorithm for algorithm, _ in expected]
    for entry, (_, points) in zip(series, expected):
        assert len(entry.points) == len(points)
        for (x, y), (want_x, want_y) in zip(entry.points, points):
            assert x == pytest.approx(want_x)
            assert y == pytest.approx(want_y)


def _case_tables():
    rows = [
        _row(case_id="I", algorithm="ctc", sweep_value=100, seed=0, drop_ratio=0.2),
        _row(case_id="I", algorithm="ctc", sweep_value=100, seed=1, drop_ratio=0.4),
        _row(case_id="I", algorithm="ctc", sweep_value=200, seed=0, drop_ratio=0.5),
        _row(case_id="I", algorithm="dsr", sweep_value=100, seed=0, drop_ratio=0.1),
    ]
    return [ResultTable(rows=tuple(rows))]


def test_figure_series_seed_mean_per_sweep_point():
    series = figure_series(_case_tables(), 1)
    _assert_series(series, [("ctc", [(100.0, 0.3), (200.0, 0.5)]), ("dsr", [(100.0, 0.1)])])


def test_figure_series_invariant_to_row_order():
    tables = _case_tables()
    shuffled = [ResultTable(rows=tuple(reversed(tables[0].rows)))]
    assert figure_series(tables, 1) == figure_series(shuffled, 1)


def test_figure_series_missing_case_raises():
    with pytest.raises(MissingCaseError):
        figure_series(_case_tables(), 2)


def test_figure_case_map():
    assert FIG_CASE == {1: "I", 2: "II", 3: "III", 4: "IV"}


def _all_case_tables():
    # One row per case so figures 5-6 have all cases; drop ratios place ctc
    # in buckets {0.0, 0.05} and dsr in {0.0, 0.05, 0.10}.
    rows = [
        _row(case_id="I", algorithm="ctc", drop_ratio=0.02, malicious_fraction=0.5),
        _row(case_id="II", algorithm="ctc", drop_ratio=0.06, malicious_fraction=0.1),
        _row(case_id="III", algorithm="ctc", drop_ratio=0.07, malicious_fraction=0.3),
        _row(case_id="IV", algorithm="ctc", drop_ratio=0.01, malicious_fraction=0.5),
        _row(case_id="I", algorithm="dsr", drop_ratio=0.03, malicious_fraction=0.0),
        _row(case_id="II", algorithm="dsr", drop_ratio=0.08, malicious_fraction=0.4),
        _row(case_id="III", algorithm="dsr", drop_ratio=0.12, malicious_fraction=0.9),
        _row(case_id="IV", algorithm="dsr", drop_ratio=0.01, malicious_fraction=0.1),
    ]
    return [ResultTable(rows=tuple(rows))]


def test_figure5_uses_shared_buckets_raw_means():
    series = figure_series(_all_case_tables(), 5)
    # ctc buckets: 0.0 -> mean 0.5 (two rows), 0.05 -> mean 0.2 (two rows);
    # dsr buckets: 0.0 -> 0.05, 0.05 -> 0.4, 0.10 -> 0.9. Intersection is
    # {0.0, 0.05}.
    _assert_series(
        series,
        [("ctc", [(0.0, 0.5), (0.05, 0.2)]), ("dsr", [(0.0, 0.05), (0.05, 0.4)])],
    )


def test_figure6_smooths_each_curve_before_intersecting():
    series = figure_series(_all_case_tables(), 6)
    # ctc raw means (0.5, 0.2) violate monotonicity; weights are 2 rows each
    # so the pooled value is 0.35 in both buckets. dsr is already monotone.
    _assert_series(
        series,
        [("ctc", [(0.0, 0.35), (0.05, 0.35)]), ("dsr", [(0.0, 0.05), (0.05, 0.4)])],
    )


def test_figure5_requires_all_cases():
    tables = _case_tables()  # case I only
    with pytest.raises(MissingCaseError):
        figure_series(tables, 5)


def test_figure_series_bad_id():
    with pytest.raises(InvalidParameterError):
        figure_series(_case_tables(), 7)


def test_emit_figure_csv_exact_bytes(tmp_path):
    dest = tmp_path / "fig.csv"
    emit_figure_csv([FigureSeries("ctc", ((100.0, 0.3),)), FigureSeries("dsr", ((100.0, 0.1),))], dest)
    assert dest.read_text(encoding="utf-8") == (
        "algorithm,x,y\nctc,100.000000,0.300000\ndsr,100.000000,0.100000\n"
    )


def test_emit_case_v_csv_exact_bytes(tmp_path):
    dest = tmp_path / "case_v.csv"
    curves = [
        CaseVCurve("ctc", (CaseVBucket(0.05, 1 / 3, 7), CaseVBucket(0.1, 0.0, 12))),
        CaseVCurve("dsr", (CaseVBucket(0.15000000000000002, 0.5, 1),)),
    ]
    written = emit_case_v_csv(curves, dest)
    data = dest.read_bytes()
    assert written == len(data)
    assert data.decode("utf-8") == (
        "algorithm,bucket_lower,mean_malicious,rows\n"
        "ctc,0.050000,0.333333,7\n"
        "ctc,0.100000,0.000000,12\n"
        "dsr,0.150000,0.500000,1\n"
    )


# ---------------------------------------------------------------------------
# trace CSV


def test_emit_trace_csv_exact_bytes(tmp_path):
    trace = run(SimConfig(epochs=1, neighbor_count=1, base_drop_prob=0.0))
    dest = tmp_path / "trace.csv"
    emit_trace_csv(trace, dest)
    lines = dest.read_text(encoding="utf-8").split("\n")
    assert lines[0] == (
        "epoch,node_id,offered_self,offered_neighbor,forwarded_self,forwarded_neighbor,"
        "dropped_self,dropped_neighbor,queued_self,queued_neighbor,t_pp,t_np,"
        "drop_ratio_self,drop_ratio_neighbor"
    )
    # Idle target splits the epoch evenly; the source spends it all on itself.
    assert lines[1] == "0,0,0,0,0,0,0,0,0,0,0.500000,0.500000,0.000000,0.000000"
    assert lines[2] == "0,1,0,0,0,0,0,0,0,0,1.000000,0.000000,0.000000,0.000000"
    assert lines[3] == ""


def test_emit_trace_csv_deterministic_bytes(tmp_path):
    cfg = SimConfig(
        epochs=12,
        data_rate=40.0,
        base_drop_prob=0.25,
        seed=5,
        self_rate_fn=RateFunction(RateKind.CONSTANT, 20.0),
        neighbor_rate_fn=RateFunction(RateKind.CONSTANT, 30.0),
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_trace_csv(run(cfg), a)
    emit_trace_csv(run(cfg), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("size", [7, 97, 1000])
def test_emit_trace_csv_of_the_blocks_of_a_run_is_the_runs_trace(tmp_path, size):
    # `sim run` hands the writer the run's blocks as they are made. Each
    # block's epochs follow the blocks before it, also where a block crosses
    # 10, 100 or 1,000, and the file is the whole trace's, byte for byte.
    cfg = SimConfig(
        epochs=1_234,
        neighbor_count=12,
        data_rate=40.0,
        base_drop_prob=0.25,
        seed=5,
        self_rate_fn=RateFunction(RateKind.CONSTANT, 20.0),
        neighbor_rate_fn=RateFunction(RateKind.LINEAR_INCREASING, 0.0, 0.05),
    )
    whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
    with mock.patch.object(sim, "_BLOCK_EPOCHS", size):
        assert emit_trace_csv(sim.run_blocks(cfg), blocks) == emit_trace_csv(run(cfg), whole)
    assert blocks.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("sources, epochs", [(1, 20_000), (50, 8_000)])
def test_emit_trace_csv_memory_does_not_grow_with_the_trace(sources, epochs):
    # The writer holds a chunk of epochs and the target fields of a group of
    # chunks at a time, never the whole file: a trace four times as long
    # peaks at about the same traced memory. Both lengths span more than one
    # group.
    def emit_peak(epochs):
        trace = run(
            SimConfig(
                epochs=epochs,
                neighbor_count=sources,
                data_rate=420.0,
                self_rate_fn=RateFunction(RateKind.CONSTANT, 300.0),
                neighbor_rate_fn=RateFunction(RateKind.LINEAR_INCREASING, 0.0, 400.0 / epochs),
            )
        )
        tracemalloc.start()
        try:
            written = emit_trace_csv(trace, os.devnull)
            return tracemalloc.get_traced_memory()[1], written
        finally:
            tracemalloc.stop()

    short_peak, short_written = emit_peak(epochs)
    long_peak, long_written = emit_peak(4 * epochs)
    assert long_written > 3.9 * short_written
    assert long_peak < 1.25 * short_peak


def test_emit_trace_csv_memory_is_one_chunk_buffer_and_one_group():
    # `trace_wide`'s shape: 51 nodes, 5,000 epochs, the neighbor load ramping
    # past capacity. The writer holds the build buffer, one slice's copy and
    # its text, and one group's target lines: about 100 bytes an epoch while
    # they are formatted (tracemalloc at 8,000 epochs), 75 after. This
    # trace's largest group has 4,000 epochs, so the group term leaves room
    # for the digits of one block's ``sent`` fields, about 23 bytes a source
    # line while they are formatted. A writer that allocates a table, its
    # bytes and their compacted copy a block peaks at about three blocks.
    trace = run(
        SimConfig(
            epochs=5_000,
            neighbor_count=50,
            data_rate=420.0,
            self_rate_fn=RateFunction(RateKind.CONSTANT, 300.0),
            neighbor_rate_fn=RateFunction(RateKind.LINEAR_INCREASING, 0.0, 0.08),
        )
    )
    tracemalloc.start()
    try:
        emit_trace_csv(trace, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < report._TRACE_CHUNK_BYTES + 2 * report._TRACE_SLICE_BYTES + 101 * report._TRACE_GROUP_EPOCHS


# ---------------------------------------------------------------------------
# array-pass row formatting


def _format_rows(columns):
    """CSV lines of equal-length columns, one line per row: the table of
    ``report._line_fields`` read row by row without its zero bytes."""
    return report._line_fields(columns, bytearray()).T.tobytes().replace(b"\0", b"")


def per_row_text(int_columns, real_columns):
    """The oracle: ``%d`` and ``%.6f`` of each row's values, one row at a time."""
    rows = zip(*(column.tolist() for column in (*int_columns, *real_columns)))
    cuts = len(int_columns)
    return "".join(
        ",".join([*("%d" % v for v in row[:cuts]), *("%.6f" % v for v in row[cuts:])]) + "\n" for row in rows
    )


# Where the fast path ends: x * 1e6 reaches 2**32 between these two.
_FAST_EDGE = 2**32 / 1e6
_EDGE_REALS = [
    math.nan,
    -math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    2.2250738585072009e-308,
    2.2250738585072014e-308,
    -1e-9,
    0.5,
    1 / 128,
    3 / 128,
    5e-7,
    1.5e-6,
    2.5e-6,
    0.0000125,
    0.1234565,
    0.9999995,
    4294.9672955,
    4294.9672957,  # takes the fast path, yet rint(x * 1e6) is 2**32 exactly
    _FAST_EDGE,
    1e15,
    1e300,
    -1e300,
]


def _neighbours(x, steps):
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


_REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(0.0, 2 * _FAST_EDGE),
    st.sampled_from(_EDGE_REALS),
    # Exact binary ties (k/128) and decimal half points ((m + 0.5) / 1e6,
    # which double rounding can turn into a tie), with their ulp neighbours.
    st.builds(_neighbours, st.integers(-2**30, 2**30).map(lambda k: k / 128), st.integers(-2, 2)),
    st.builds(_neighbours, st.integers(0, 2**32).map(lambda m: (m + 0.5) / 1e6), st.integers(-2, 2)),
    st.builds(_neighbours, st.just(_FAST_EDGE), st.integers(-3, 3)),
)


@st.composite
def _columns(draw):
    rows = draw(st.integers(1, 30))

    def column(values):  # varied, or constant as a trace column often is
        return st.one_of(st.lists(values, min_size=rows, max_size=rows), values.map(lambda v: [v] * rows))

    # Mostly counts, as every trace integer is; a negative one raises.
    integers = st.one_of(st.integers(0, 2**63 - 1), st.integers(-(2**63), 2**63 - 1))
    ints = draw(st.lists(column(integers), min_size=1, max_size=3))
    reals = draw(st.lists(column(_REALS), min_size=1, max_size=3))
    return [np.array(c, np.int64) for c in ints], [np.array(c, np.float64) for c in reals]


# Constant real columns, which Python formats once: NaN, -0.0 and a tie, and
# 0.0 next to -0.0, which compare equal but format apart.
@example(columns=([np.zeros(3, np.int64)], [np.full(3, math.nan), np.full(3, -0.0), np.full(3, 1 / 128)]))
@example(columns=([np.zeros(3, np.int64)], [np.array([0.0, -0.0, 0.0]), np.array([-0.0, 0.0, 0.0])]))
@settings(max_examples=200, deadline=None)
@given(columns=_columns())
def test_format_rows_matches_per_row_formatting(columns):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _rows_match_per_row_text(*columns)


def test_format_rows_edge_values():
    # Each edge value next to ordinary ones, so one column mixes both paths.
    reals = np.array([v for x in _EDGE_REALS for v in (x, _neighbours(x, -1), 0.25, _neighbours(x, 1))])
    ints = np.array([-(2**63), 2**63 - 1, -1, 0] * len(_EDGE_REALS), np.int64)
    counts = np.array([2**63 - 1, 0, 2**32, 1] * len(_EDGE_REALS), np.int64)
    _rows_match_per_row_text([ints, counts], [reals])


def _rows_match_per_row_text(int_columns, real_columns=()):
    """A trace integer is never negative: with a column that holds a negative
    value the rows raise ``InvariantError`` naming the first such column's
    least value, and the other columns match the per-row oracle."""
    int_columns = [np.array(column, np.int64) for column in int_columns]
    real_columns = [np.array(column, np.float64) for column in real_columns]
    counts = [column for column in int_columns if column.min() >= 0]
    if len(counts) < len(int_columns):
        low = next(int(column.min()) for column in int_columns if column.min() < 0)
        with pytest.raises(InvariantError, match=f"got {low}$"):
            _format_rows([*int_columns, *real_columns])
    if counts or real_columns:
        text = _format_rows([*counts, *real_columns]).decode("ascii")
        assert text == per_row_text(counts, real_columns)


def test_format_rows_where_the_digit_width_changes():
    # Each column steps from k to k + 1 digits, or holds k-digit values with
    # shorter ones, so only some places are padding.
    for k in range(1, 19):
        below, at = 10**k - 1, 10**k
        _rows_match_per_row_text(
            [[below, at], [at, below], [0, below], [1, at], [-at, below], [-below, 1]],
            [[below / 1e6, at / 1e6]],
        )


def _divide_dtypes(int_columns, real_columns=()):
    """The dtypes ``_digits`` divides in while the rows are formatted."""
    with mock.patch.object(report, "_digits", wraps=report._digits) as digits:
        _rows_match_per_row_text(int_columns, real_columns)
    return {call.args[0].dtype.type for call in digits.call_args_list}


def test_format_rows_divides_in_uint32_up_to_2_32_minus_1_then_in_uint64():
    for top, dtype in ((2**32 - 1, np.uint32), (2**32, np.uint64)):
        assert _divide_dtypes([[0, 7, top]]) == {dtype}
        assert _divide_dtypes([[top, 0, 7]]) == {dtype}
        assert _divide_dtypes([[3, 0, top]]) == {dtype}
        # A negative count raises before any digit is divided.
        assert _divide_dtypes([[-top, 3, 0]]) == set()
    assert _divide_dtypes([[2**63 - 1, 0, 1, 9, 10]]) == {np.uint64}
    assert _divide_dtypes([[-(2**63), 0, 1, 9, 10]]) == set()
    assert _divide_dtypes([[1, -(2**63), 2**63 - 1]]) == set()
    # Both take the fast path: x * 1e6 rounds to 2**32 - 1 and to 2**32.
    below, at = 4294.967295, 4294.9672957
    assert _divide_dtypes([], [[0.5, below, 1e-6]]) == {np.uint32}
    assert _divide_dtypes([], [[0.5, at, 1e-6]]) == {np.uint64}
    assert _divide_dtypes([], [[below, at, 0.0]]) == {np.uint64}
