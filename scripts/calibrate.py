"""Measure the experiment curves against the acceptance targets.

Runs the full four-case grid at the current experiment defaults and prints
the statistics the acceptance suite checks, with margins. Used to pick and
freeze the defaults in ctcsim.experiments; see docs/calibration.md for the
recorded numbers.

Usage: python scripts/calibrate.py [--seeds N]
"""

import argparse
import dataclasses
import sys
from statistics import fmean

from scipy.stats import spearmanr

from ctcsim import experiments
from ctcsim.experiments import BASE, case_spec, derive_case_v, isotonic_nondecreasing, run_case
from ctcsim.report import FIG_CASE, figure_series
from ctcsim.sim import classify_misbehavior, run


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)

    print(f"base: {BASE}")
    levels = ("CASE1_SELF_BASE", "CASE1_SELF_TILT", "CASE2_SELF_MULTIPLIER", "CASE3_SELF_PEAK", "CASE4_NEIGHBOR_RATE")
    print("case levels: " + ", ".join(f"{name} = {getattr(experiments, name)}" for name in levels))
    tables = {}
    for case_id in ("I", "II", "III", "IV"):
        spec = case_spec(case_id)
        spec = dataclasses.replace(spec, seeds=tuple(range(args.seeds)))
        tables[case_id] = run_case(spec)
        print(f"case {case_id}: {len(tables[case_id].rows)} rows")
    # Seed-mean drop ratio per case, algorithm and sweep value: the points of
    # figures 1-4.
    means = {
        case_id: {series.algorithm: dict(series.points) for series in figure_series([tables[case_id]], figure_id)}
        for figure_id, case_id in FIG_CASE.items()
    }

    # --- criterion 4: Case I landmarks
    ctc, dsr = means["I"]["ctc"], means["I"]["dsr"]
    print("\ncase I seed-mean drop ratios:")
    print("  v     ctc      dsr")
    for v in sorted(ctc):
        print(f"  {int(v):<5d} {ctc[v]:.4f}   {dsr[v]:.4f}")
    high = [ctc[v] for v in range(800, 1601, 100)]
    print(f"C4 ctc mean over 800-1600: {fmean(high):.4f}  (target 0.15..0.30)")
    print(f"C4 ctc band over 800-1600: {max(high) - min(high):.4f}  (target <= 0.10)")
    tail_v = [v for v in sorted(dsr) if v >= 500]
    tail = [dsr[v] for v in tail_v]
    rho = spearmanr(tail_v, tail).statistic
    diffs = [tail[i + 1] - tail[i] for i in range(len(tail) - 1)]
    print(f"C4 dsr spearman v>=500:   {rho:.4f}  (target >= 0.95); min adjacent step {min(diffs):+.4f}")
    print(f"C4 gap at v=500:          {abs(ctc[500] - dsr[500]):.4f}  (target <= 0.03)")

    # --- criterion 5: Case IV flatness
    for algo in ("ctc", "dsr"):
        vals = list(means["IV"][algo].values())
        print(f"C5 case IV {algo} band: {max(vals) - min(vals):.4f} (ctc target <= 0.10); mean {fmean(vals):.4f}")

    # --- criterion 6: Case III strictly below I and II at v >= 800
    for algo in ("ctc", "dsr"):
        m1, m2, m3 = (means[case_id][algo] for case_id in ("I", "II", "III"))
        worst1 = min(m1[v] - m3[v] for v in range(800, 1601, 100))
        worst2 = min(m2[v] - m3[v] for v in range(800, 1601, 100))
        print(f"C6 {algo}: min margin III vs I {worst1:+.4f}, vs II {worst2:+.4f}  (targets > 0)")

    # --- criterion 7: derived misbehavior-vs-drop-ratio curves
    fits = {}
    for curve in derive_case_v(list(tables.values())):
        smooth = isotonic_nondecreasing(
            [b.mean_malicious for b in curve.buckets], [b.rows for b in curve.buckets]
        )
        fits[curve.algorithm] = {b.lower: (b, s) for b, s in zip(curve.buckets, smooth)}
        marks = "  ".join(
            f"{b.lower:.2f}:{s:.3f}({b.rows})" for b, s in zip(curve.buckets, smooth)
        )
        print(f"C7 {curve.algorithm} buckets lower:smoothed(rows): {marks}")
    ctc_b, dsr_b = fits["ctc"], fits["dsr"]
    shared = sorted(set(ctc_b) & set(dsr_b))
    print(f"C7 shared buckets: {[f'{x:.2f}' for x in shared]}")
    viol = [x for x in shared if x >= 0.15 - 1e-9 and ctc_b[x][1] > dsr_b[x][1] + 1e-12]
    print(f"C7 ctc<=dsr violations on shared buckets >= 0.15: {viol or 'none'}")
    tenth = 0.05 * 2
    if any(abs(x - tenth) < 1e-9 for x in shared):
        x = next(x for x in shared if abs(x - tenth) < 1e-9)
        print(f"C7 bucket 0.10 present both; |ctc-dsr| = {abs(ctc_b[x][1] - dsr_b[x][1]):.4f} (target <= 0.05)")
    else:
        print("C7 WARNING: bucket 0.10 not shared!")

    # --- window-ratio safety margins for the classifier threshold
    for case_id in ("I", "II", "III", "IV"):
        flagged_rows = {"ctc": 0, "dsr": 0}
        for row in tables[case_id].rows:
            if row.malicious_fraction > 0:
                flagged_rows[row.algorithm] += 1
        print(f"rows with malicious>0 in case {case_id}: ctc {flagged_rows['ctc']}, dsr {flagged_rows['dsr']}")

    # worst CTC window ratio anywhere (margin to the threshold)
    worst_ratio = 0.0
    worst_at = None
    for case_id in ("I", "II", "III", "IV"):
        spec = case_spec(case_id)
        for v in spec.sweep_axis:
            for algo in spec.algorithms:
                if algo.value != "ctc":
                    continue
                stats = classify_misbehavior(run(spec.config(algo, v)))
                for w in stats.window_ratios:
                    if w.ratio > worst_ratio:
                        worst_ratio = w.ratio
                        worst_at = (case_id, v, w.window_index)
    print(f"worst ctc window ratio (seed 0): {worst_ratio:.4f} at {worst_at}  (threshold {BASE.misbehavior_threshold})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
