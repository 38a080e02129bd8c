"""Per-row reference for the trace CSV.

``ctcsim.report`` renders each chunk of epochs, target and source rows alike,
in one array pass. This writer formats every row on its own with Python's
``%`` operator, the way the trace was first written, and splits the
neighbor arrivals over the sources itself, so the two must agree byte for
byte.
"""

from __future__ import annotations

from ctcsim.report import TRACE_COLUMNS
from ctcsim.sim import Trace

# The target row: epoch, node 0, then the per-epoch Trace fields in order.
TARGET_ROW = "%d,0,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f,%.6f\n"
# A derived source row: it sends its share, forwards all of it, relays
# nothing and spends the whole epoch on its own traffic.
SOURCE_ROW = "%d,%d,%d,0,%d,0,0,0,0,0,%.6f,0.000000,0.000000,0.000000\n"

TARGET_FIELDS = (
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


def source_shares(arrivals: int, neighbor_count: int) -> list[int]:
    """What sources 1..neighbor_count send of one epoch's neighbor arrivals.

    Round-robin: every source sends the same share, and the first ``extra``
    sources one packet more.
    """
    base, extra = divmod(arrivals, neighbor_count)
    return [base + (node_id <= extra) for node_id in range(1, neighbor_count + 1)]


def reference_trace_csv(trace: Trace) -> bytes:
    """The whole trace CSV, one ``%`` format per row."""
    config = trace.config
    lines = [",".join(TRACE_COLUMNS) + "\n"]
    columns = [getattr(trace, name).tolist() for name in TARGET_FIELDS]
    for epoch, row in enumerate(zip(*columns)):
        lines.append(TARGET_ROW % (epoch, *row))
        for node_id, sent in enumerate(source_shares(row[1], config.neighbor_count), start=1):
            lines.append(SOURCE_ROW % (epoch, node_id, sent, sent, config.epoch_length))
    return "".join(lines).encode("utf-8")
