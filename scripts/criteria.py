"""The numbers behind acceptance criteria 4-7, computed once.

Each function takes the grid's four case tables, by case id, or their
``seed_means``. ``tests/test_acceptance.py`` holds the numbers to the
criteria's targets, and ``scripts/calibrate.py`` prints them with the targets.
"""

from statistics import fmean

from scipy.stats import spearmanr

from ctcsim.experiments import CASE_IDS, case_spec, derive_case_v, isotonic_nondecreasing
from ctcsim.report import FIG_CASE, figure_series
from ctcsim.sim import Policy, classify_misbehavior, run

# The overloaded sweep values of criteria 4 and 6, and the onset of overload.
OVERLOADED = range(800, 1601, 100)
ONSET = 500


def seed_means(tables):
    """Seed-mean drop ratio by case, policy and sweep value: the points of figures 1-4."""
    listed = list(tables.values())
    return {
        case_id: {series.algorithm: dict(series.points) for series in figure_series(listed, figure_id)}
        for figure_id, case_id in FIG_CASE.items()
    }


def case_i(means):
    """Criterion 4: Case I's ctc mean and band over the overloaded values, dsr Spearman and least
    adjacent step from the onset, and the gap between the policies at the onset."""
    ctc, dsr = means["I"]["ctc"], means["I"]["dsr"]
    high = [ctc[v] for v in OVERLOADED]
    tail_v = [v for v in sorted(dsr) if v >= ONSET]
    tail = [dsr[v] for v in tail_v]
    step = min(b - a for a, b in zip(tail, tail[1:]))
    return fmean(high), max(high) - min(high), spearmanr(tail_v, tail).statistic, step, abs(ctc[ONSET] - dsr[ONSET])


def case_iv(means):
    """Criterion 5: each policy's band and mean over Case IV's whole sweep."""
    return {algorithm: (max(m.values()) - min(m.values()), fmean(m.values())) for algorithm, m in means["IV"].items()}


def case_iii_margins(means):
    """Criterion 6: each policy's least margin of Case III below Case I and below Case II at the overloaded values."""
    margins = {}
    for algorithm, below in means["III"].items():
        margins[algorithm] = tuple(min(means[c][algorithm][v] - below[v] for v in OVERLOADED) for c in ("I", "II"))
    return margins


def derived(tables):
    """Criterion 7: each policy's buckets paired with their isotonic fit, the edges both policies have,
    whether every fit is nondecreasing, the shared edges from 0.15 up where ctc's fit exceeds dsr's,
    and |ctc - dsr| at the 0.10 bucket (None where it is not shared).
    """
    smoothed, fits, monotone = {}, {}, True
    for curve in derive_case_v(list(tables.values())):
        fit = isotonic_nondecreasing([b.mean_malicious for b in curve.buckets], [b.rows for b in curve.buckets])
        monotone = monotone and all(fit[i] <= fit[i + 1] + 1e-12 for i in range(len(fit) - 1))
        smoothed[curve.algorithm] = list(zip(curve.buckets, fit))
        fits[curve.algorithm] = {b.lower: value for b, value in smoothed[curve.algorithm]}
    ctc, dsr = fits["ctc"], fits["dsr"]
    # Edges are multiples of the 0.05 bucket width, matched within 1e-9; fits are compared within 1e-12.
    shared = sorted(set(ctc) & set(dsr))
    violations = [x for x in shared if x >= 0.15 - 1e-9 and ctc[x] > dsr[x] + 1e-12]
    low = [x for x in shared if abs(x - 0.10) < 1e-9]
    return smoothed, shared, monotone, violations, abs(ctc[low[0]] - dsr[low[0]]) if low else None


def classifier_margins(tables):
    """How far the classifier is from flagging: the rows with a flagged window by case and policy, and
    the first largest window ratio of the grid's ``ctc`` runs at seed 0 with its ``(case_id, v, window_index)``.
    """
    flagged = {
        case_id: {a: sum(r.algorithm == a and r.malicious_fraction > 0 for r in table.rows) for a in ("ctc", "dsr")}
        for case_id, table in tables.items()
    }
    worst, at = 0.0, None
    for case_id in CASE_IDS:
        spec = case_spec(case_id)
        for v in spec.sweep_axis:
            for window in classify_misbehavior(run(spec.config(Policy.CTC, v))).window_ratios:
                if window.ratio > worst:
                    worst, at = window.ratio, (case_id, v, window.window_index)
    return flagged, (worst, at)
