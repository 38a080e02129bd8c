"""Spans around the calls into ctcsim's modules, recorded from outside.

The package binds its collaborators with ``from .x import y``, so a call is
intercepted by rebinding the *caller's* name (``ctcsim.cli.run_case``, not
``ctcsim.experiments.run_case``). ``ctcsim.sim.run`` looks ``step`` up in its
own module globals, so rebinding ``ctcsim.sim.step`` catches every epoch.

Spans live in memory as ``(name, start_ns, end_ns, parent)`` and are written
out once the run has ended. The program's source is never modified.
"""

from __future__ import annotations

import math
import statistics
import sys
from time import perf_counter_ns

# (module, attribute, span name). Bindings missing from a later version of
# the package are skipped and listed in the report, not treated as errors.
WRAPPED = (
    ("ctcsim.cli", "load_config", "sim.load_config"),
    ("ctcsim.cli", "run", "sim.run"),
    ("ctcsim.cli", "run_case", "experiments.run_case"),
    ("ctcsim.cli", "derive_case_v", "experiments.derive_case_v"),
    ("ctcsim.cli", "emit_csv", "report.emit_csv"),
    ("ctcsim.cli", "figure_series", "report.figure_series"),
    ("ctcsim.cli", "emit_figure_csv", "report.emit_figure_csv"),
    ("ctcsim.cli", "emit_trace_csv", "report.emit_trace_csv"),
    ("ctcsim.experiments", "run", "sim.run"),
    ("ctcsim.experiments", "classify_misbehavior", "sim.classify"),
    ("ctcsim.experiments", "utilization_node", "utilization.utilization_node"),
    ("ctcsim.report", "derive_case_v", "experiments.derive_case_v"),
    ("ctcsim.sim", "step", "sim.step"),
)

EMITTERS = ("report.emit_csv", "report.emit_figure_csv", "report.emit_trace_csv")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.counts = {"node_epochs": 0, "epochs": 0, "runs": 0, "bytes": 0, "windows_qualifying": 0, "windows_visited": 0}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        stack.append(index)
        parent = stack[-2] if len(stack) > 1 else -1
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent)
        self._count(name, args, result)
        return result

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrapper(name, fn))

    def _wrapper(self, name, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def _count(self, name, args, result) -> None:
        counts = self.counts
        if name == "sim.run":
            config = args[0]
            counts["epochs"] += config.epochs
            counts["node_epochs"] += config.epochs * (config.neighbor_count + 1)
        elif name == "experiments.run_case":
            counts["runs"] += len(result.rows)
        elif name in EMITTERS:
            counts["bytes"] += result
        elif name == "sim.classify":
            config = args[0].config
            counts["windows_qualifying"] += len(result.window_ratios)
            counts["windows_visited"] += math.ceil(config.epochs / config.window_epochs) * (config.neighbor_count + 1)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,name,start_ns,end_ns,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{index},{name},{start},{end},{parent}\n")

    def layer_metrics(self, import_s: float) -> dict[str, float]:
        """Per-layer totals, self times and counts of one traced run."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total: dict[str, int] = {}
        own: dict[str, int] = {}
        step_ns = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            total[name] = total.get(name, 0) + end - start
            own[name] = own.get(name, 0) + end - start - child_ns[index]
            if name == "sim.step":
                step_ns.append(end - start)
        counts = self.counts
        emit_ns = sum(total.get(name, 0) for name in EMITTERS)
        run_ns = total.get("sim.run", 0)
        step_q = statistics.quantiles(step_ns, n=100, method="inclusive") if len(step_ns) > 1 else [0.0] * 99
        return {
            "cli.import_s": import_s,
            "cli.main_self_s": own.get("cli.main", 0) / 1e9,
            "sim.load_config_s": total.get("sim.load_config", 0) / 1e9,
            "sim.run_s": run_ns / 1e9,
            "sim.run_calls": sum(1 for span in self.spans if span[0] == "sim.run"),
            "sim.run_self_s": own.get("sim.run", 0) / 1e9,
            "sim.step_s": total.get("sim.step", 0) / 1e9,
            "sim.step_us_p50": step_q[49] / 1e3,
            "sim.step_us_p99": step_q[98] / 1e3,
            "sim.run_ns_per_node_epoch": run_ns / counts["node_epochs"] if counts["node_epochs"] else 0.0,
            "sim.node_epochs": counts["node_epochs"],
            "sim.binomial_draws": 2 * counts["epochs"],
            "sim.classify_s": total.get("sim.classify", 0) / 1e9,
            "sim.classify_qualifying_frac": (
                counts["windows_qualifying"] / counts["windows_visited"] if counts["windows_visited"] else 0.0
            ),
            "experiments.run_case_s": total.get("experiments.run_case", 0) / 1e9,
            "experiments.run_case_self_s": own.get("experiments.run_case", 0) / 1e9,
            "experiments.runs": counts["runs"],
            "experiments.derive_case_v_s": total.get("experiments.derive_case_v", 0) / 1e9,
            "utilization.utilization_node_s": total.get("utilization.utilization_node", 0) / 1e9,
            "report.emit_csv_s": total.get("report.emit_csv", 0) / 1e9,
            "report.figure_series_s": total.get("report.figure_series", 0) / 1e9,
            "report.emit_figure_csv_s": total.get("report.emit_figure_csv", 0) / 1e9,
            "report.emit_trace_csv_s": total.get("report.emit_trace_csv", 0) / 1e9,
            "report.bytes_written": counts["bytes"],
            "report.emit_mb_per_s": counts["bytes"] / 1e6 / (emit_ns / 1e9) if emit_ns else 0.0,
        }
