"""The ``ctcsim`` command.

Subcommand tree:

- ``model eval``   closed-form forwarding model at one parameter point
- ``model util``   utilization from packet counters and a time split
- ``sim run``      one simulation from a JSON config, trace to CSV
- ``exp case``     one experiment case's sweep grid to CSV
- ``exp all``      all cases plus the six figure CSVs and per-case derived
                   curves into a directory

Exit codes: 0 success, 2 invalid configuration or parameters, 1 I/O failure,
3 an internal invariant failed (a program fault, e.g. packet conservation).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import phases
from .errors import CtcSimError, InvariantError
from .experiments import CASE_IDS, MAX_SEEDS, case_spec, derive_case_v, run_case
from .model import MAX_K, ForwardingParams, TimeBudget, prob_batch, throughput, time_components
from .report import FIG_CASE, derived_series, emit_case_v_csv, emit_csv, emit_figure_csv, emit_trace_csv, figure_series
from .sim import Policy, load_config, run_blocks
from .utilization import MAX_COUNT, TIME_RANGE, PacketCounters, utilization_forms

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctcsim", description="Packet-forwarding simulator and analytical model.")
    top = parser.add_subparsers(dest="command", required=True)

    model = top.add_parser("model", help="closed-form model calculations")
    model_sub = model.add_subparsers(dest="subcommand", required=True)

    model_eval = model_sub.add_parser("eval", help="evaluate the forwarding model at one point")
    model_eval.add_argument("--p", type=float, required=True, help="per-packet drop probability")
    model_eval.add_argument("--k", type=int, required=True, help="packets per forwarding round")
    model_eval.add_argument("--data-rate", type=float, required=True, help="service rate in packets per second")

    model_util = model_sub.add_parser("util", help="node utilization from counters and times")
    model_util.add_argument(
        "--counters", required=True, metavar="K_POUT,K_NOUT,K_NIN", help="three comma-separated packet counts"
    )
    model_util.add_argument("--times", required=True, metavar="T_PP,T_NP", help="two comma-separated time shares")

    sim = top.add_parser("sim", help="run the simulator")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)
    sim_run = sim_sub.add_parser("run", help="run one configured simulation")
    sim_run.add_argument("--config", required=True, help="path to a JSON config file")
    sim_run.add_argument("--out", required=True, help="trace CSV destination")
    sim_run.add_argument("--seed", type=int, default=None, help="override the config seed")

    exp = top.add_parser("exp", help="experiment sweeps")
    exp_sub = exp.add_subparsers(dest="subcommand", required=True)

    exp_case = exp_sub.add_parser("case", help="run one case's sweep grid")
    exp_case.add_argument("--id", required=True, choices=CASE_IDS, help="case to run")
    exp_case.add_argument("--algo", choices=["ctc", "dsr", "both"], default="both", help="which policy to run")
    exp_case.add_argument("--seeds", type=int, default=10, help="number of seeds per grid point")
    exp_case.add_argument("--seed", type=int, default=0, help="first seed of the range")
    exp_case.add_argument("--out", required=True, help="result CSV destination")

    exp_all = exp_sub.add_parser("all", help="run every case and emit figure CSVs")
    exp_all.add_argument("--out-dir", required=True, help="directory for the emitted CSV files")
    exp_all.add_argument("--seeds", type=int, default=10, help="number of seeds per grid point")
    exp_all.add_argument("--seed", type=int, default=0, help="first seed of the range")

    return parser


def _parse_numbers(text: str, count: int, flag: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise CtcSimError(f"{flag} expects {count} comma-separated values, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise CtcSimError(f"{flag} has a non-numeric value: {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise CtcSimError(f"{flag} has a non-finite value: {text!r}")
    return values


def _cmd_model_eval(args) -> int:
    if not 1 <= args.k <= MAX_K:
        raise CtcSimError(f"--k must be in [1, {MAX_K}], got {args.k}")
    params = ForwardingParams(p=args.p, k=args.k, data_rate=args.data_rate)
    probs = prob_batch(params)
    times = time_components(params)
    print(f"p_self      {probs.p_self:.6f}")
    print(f"p_neighbor  {probs.p_neighbor:.6f}")
    print(f"t_pp        {times.t_pp:.6f}")
    print(f"t_np        {times.t_np:.6f}")
    print(f"t_i         {times.t_i:.6f}")
    print(f"throughput  {throughput(params):.6f}")
    return 0


def _cmd_model_util(args) -> int:
    k_pout, k_nout, k_nin = _parse_numbers(args.counters, 3, "--counters")
    for name, value in (("k_pout", k_pout), ("k_nout", k_nout), ("k_nin", k_nin)):
        if value != int(value) or not 0 <= value <= MAX_COUNT:
            raise CtcSimError(f"--counters {name} must be an integer in [0, {MAX_COUNT:g}], got {value}")
    t_pp, t_np = _parse_numbers(args.times, 2, "--times")
    low, high = TIME_RANGE
    for name, value in (("t_pp", t_pp), ("t_np", t_np)):
        if not low <= value <= high:
            raise CtcSimError(f"--times {name} must be in [{low:g}, {high:g}], got {value}")
    counters = PacketCounters(k_pout=int(k_pout), k_nout=int(k_nout), k_nin=int(k_nin))
    times = TimeBudget(t_pp=t_pp, t_np=t_np)
    ratio, factored = utilization_forms(counters, times)
    print(f"utilization           {ratio:.6f}")
    print(f"utilization_factored  {factored:.6f}")
    return 0


def _cmd_sim_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    final = []

    def blocks():
        # The run's blocks, written as they are made. Each is let go before
        # the next one is made; the last one's ratios are the run's.
        for block in run_blocks(config):
            final[:] = block.drop_ratio_self[-1], block.drop_ratio_neighbor[-1]
            yield block
            del block

    written = emit_trace_csv(blocks(), args.out)
    print(f"epochs                {config.epochs}")
    if final:
        print(f"drop_ratio_self       {final[0]:.6f}")
        print(f"drop_ratio_neighbor   {final[1]:.6f}")
    print(f"wrote {args.out} ({written} bytes)")
    return 0


def _spec_for(case_id: str, algo: str, seeds: int, first_seed: int):
    spec = case_spec(case_id)
    if not 1 <= seeds <= MAX_SEEDS:
        raise CtcSimError(f"--seeds must be in [1, {MAX_SEEDS}], got {seeds}")
    if first_seed < 0:
        raise CtcSimError(f"--seed must be >= 0, got {first_seed}")
    if first_seed + seeds > 2**64:
        raise CtcSimError(f"--seed {first_seed} with --seeds {seeds} runs seeds past 2**64 - 1, the largest seed")
    algorithms = (Policy.CTC, Policy.DSR) if algo == "both" else (Policy(algo),)
    return dataclasses.replace(spec, algorithms=algorithms, seeds=tuple(range(first_seed, first_seed + seeds)))


def _cmd_exp_case(args) -> int:
    table = run_case(_spec_for(args.id, args.algo, args.seeds, args.seed))
    written = emit_csv(table, args.out)
    print(f"case {args.id}: {len(table.rows)} rows")
    print(f"wrote {args.out} ({written} bytes)")
    return 0


def _cmd_exp_all(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {}
    for case_id in CASE_IDS:
        tables[case_id] = table = run_case(_spec_for(case_id, "both", args.seeds, args.seed))
        with phases.span("emit"):
            emit_csv(table, out_dir / f"case_{case_id}.csv")
            print(f"case {case_id}: {len(table.rows)} rows -> case_{case_id}.csv")
    pooled = list(tables.values())
    with phases.span("emit"):
        # Figures 5 and 6 are the raw and the smoothed view of the same pooled curves.
        curves = derive_case_v(pooled)
        for figure_id in range(1, 7):
            if figure_id in FIG_CASE:
                series = figure_series(pooled, figure_id)
            else:
                series = derived_series(curves, smooth=figure_id == 6)
            emit_figure_csv(series, out_dir / f"fig_{figure_id}.csv")
            print(f"fig_{figure_id}.csv: {sum(len(s.points) for s in series)} points")
        # Per-case derived curves, for inspection alongside the pooled figures.
        for case_id in CASE_IDS:
            emit_case_v_csv(derive_case_v([tables[case_id]]), out_dir / f"case_v_{case_id}.csv")
        print(f"wrote {out_dir}")
    return 0


_HANDLERS = {
    ("model", "eval"): _cmd_model_eval,
    ("model", "util"): _cmd_model_util,
    ("sim", "run"): _cmd_sim_run,
    ("exp", "case"): _cmd_exp_case,
    ("exp", "all"): _cmd_exp_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[(args.command, args.subcommand)]
    try:
        return handler(args)
    except (ValueError, ArithmeticError) as exc:
        # Covers the package error family (invalid configs, parameters,
        # degenerate inputs) plus defensive cross-checks.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
