"""Measure the experiment curves against the acceptance targets.

Runs the full four-case grid at the current experiment defaults and prints
the statistics the acceptance suite checks, with margins; both take them
from scripts/criteria.py. Used to pick and freeze the defaults in
ctcsim.experiments; see docs/calibration.md for the recorded numbers.

Usage: python scripts/calibrate.py [--seeds N]
"""

import argparse
import dataclasses
import sys
from pathlib import Path

# The package from this checkout, and scripts/criteria.py beside this file.
sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"), str(Path(__file__).resolve().parent)]

import criteria  # noqa: E402
from ctcsim import experiments  # noqa: E402
from ctcsim.experiments import BASE, CASE_IDS, case_spec, run_case  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")

    print(f"base: {BASE}")
    levels = ("CASE1_SELF_BASE", "CASE1_SELF_TILT", "CASE2_SELF_MULTIPLIER", "CASE3_SELF_PEAK", "CASE4_NEIGHBOR_RATE")
    print("case levels: " + ", ".join(f"{name} = {getattr(experiments, name)}" for name in levels))
    tables = {}
    for case_id in CASE_IDS:
        spec = dataclasses.replace(case_spec(case_id), seeds=tuple(range(args.seeds)))
        tables[case_id] = run_case(spec)
        print(f"case {case_id}: {len(tables[case_id].rows)} rows")
    means = criteria.seed_means(tables)

    # --- criterion 4: Case I landmarks
    ctc, dsr = means["I"]["ctc"], means["I"]["dsr"]
    print("\ncase I seed-mean drop ratios:")
    print("  v     ctc      dsr")
    for v in sorted(ctc):
        print(f"  {int(v):<5d} {ctc[v]:.4f}   {dsr[v]:.4f}")
    mean, band, rho, step, gap = criteria.case_i(means)
    print(f"C4 ctc mean over 800-1600: {mean:.4f}  (target 0.15..0.30)")
    print(f"C4 ctc band over 800-1600: {band:.4f}  (target <= 0.10)")
    print(f"C4 dsr spearman v>=500:   {rho:.4f}  (target >= 0.95); min adjacent step {step:+.4f}")
    print(f"C4 gap at v=500:          {gap:.4f}  (target <= 0.03)")

    # --- criterion 5: Case IV flatness
    for algo, (band, mean) in criteria.case_iv(means).items():
        print(f"C5 case IV {algo} band: {band:.4f} (ctc target <= 0.10); mean {mean:.4f}")

    # --- criterion 6: Case III strictly below I and II at v >= 800
    for algo, (worst1, worst2) in criteria.case_iii_margins(means).items():
        print(f"C6 {algo}: min margin III vs I {worst1:+.4f}, vs II {worst2:+.4f}  (targets > 0)")

    # --- criterion 7: derived misbehavior-vs-drop-ratio curves
    smoothed, shared, _, violations, low_gap = criteria.derived(tables)
    for algo, fit in smoothed.items():
        marks = "  ".join(f"{b.lower:.2f}:{s:.3f}({b.rows})" for b, s in fit)
        print(f"C7 {algo} buckets lower:smoothed(rows): {marks}")
    print(f"C7 shared buckets: {[f'{x:.2f}' for x in shared]}")
    print(f"C7 ctc<=dsr violations on shared buckets >= 0.15: {violations or 'none'}")
    if low_gap is None:
        print("C7 WARNING: bucket 0.10 not shared!")
    else:
        print(f"C7 bucket 0.10 present both; |ctc-dsr| = {low_gap:.4f} (target <= 0.05)")

    # --- window-ratio safety margins for the classifier threshold
    flagged_rows, (worst_ratio, worst_at) = criteria.classifier_margins(tables)
    for case_id, flagged in flagged_rows.items():
        print(f"rows with malicious>0 in case {case_id}: ctc {flagged['ctc']}, dsr {flagged['dsr']}")
    print(f"worst ctc window ratio (seed 0): {worst_ratio:.4f} at {worst_at}  (threshold {BASE.misbehavior_threshold})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
