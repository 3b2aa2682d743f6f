"""Localization metrics (precision, recall, LE, SD, nMSE) and aggregation.

Region energy is the time-summed square of a region's estimated activity.
The active set thresholds at a fraction of the max region energy (default
50%). LE/SD on an all-zero estimate are undefined and reported as flags;
the aggregator excludes them and counts the exclusions.
"""

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, ParameterError, UndefinedResultError

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class MetricReport:
    precision: float            # %
    recall: float               # %
    le_mm: float                # None when undefined
    sd_mm: float                # None when undefined
    nmse: float
    undefined_le_sd: bool = False


def region_energy(s_hat):
    s_hat = np.asarray(s_hat, dtype=np.float64)
    return (s_hat * s_hat).sum(axis=-1)


def threshold_active(s_hat, threshold=DEFAULT_THRESHOLD):
    """Regions whose energy reaches ``threshold`` times the max energy."""
    return _active(e := region_energy(s_hat), e.max(), threshold)


def _active(e, peak, threshold):
    if not np.isfinite(peak):   # NaN propagates through the max; an overflow reads inf
        raise NumericalError("estimate contains non-finite values")
    if peak == 0.0:
        return set()
    return set(np.flatnonzero(e >= threshold * peak).tolist())


def precision_recall(est, gt):
    """Set-overlap precision and recall in percent; empty estimate -> (0, r)."""
    gt = set(gt)
    if not gt:
        raise ParameterError("ground truth must be non-empty")
    est = set(est)
    hits = len(est & gt)
    precision = 100.0 * hits / len(est) if est else 0.0
    recall = 100.0 * hits / len(gt)
    return precision, recall


def peak_region(s_hat):
    """Index of the max-energy region (smallest index on ties)."""
    return _peak(e := region_energy(s_hat), e.max())


def _peak(e, peak):
    if peak == 0.0:
        raise UndefinedResultError("all-zero estimate has no peak region")
    return int(e.argmax())


def localization_error(s_hat, gt, space):
    """Distance (mm) from the peak region to the nearest ground-truth centroid."""
    return _localization_error(peak_region(s_hat), gt, space)


def _localization_error(peak, gt, space):
    gt = set(gt)
    if not gt:
        raise ParameterError("ground truth must be non-empty")
    if peak in gt:
        return 0.0
    c = space.centroids
    return float(min(np.linalg.norm(c[peak] - c[g]) for g in gt))


def spatial_dispersion(s_hat, gt, space):
    """Energy-weighted RMS distance (mm) of the estimate to the ground truth."""
    return _spatial_dispersion(e := region_energy(s_hat), e.max(), gt, space)


def _spatial_dispersion(e, peak, gt, space):
    if peak == 0.0:
        raise UndefinedResultError("all-zero estimate has no spatial dispersion")
    gt = sorted(set(gt))
    d = space.centroid_distances[:, gt].min(axis=1)
    d[gt] = 0.0
    return float(np.sqrt((d * d * e).sum() / e.sum()))


def nmse(s_hat, s_true):
    """Squared Frobenius error normalized by the ground-truth energy."""
    s_true = np.asarray(s_true, dtype=np.float64)
    sq = s_true * s_true
    denom = float(sq.sum())
    if denom == 0.0:
        raise ParameterError("nmse undefined for a zero ground truth")
    diff = np.subtract(np.asarray(s_hat, dtype=np.float64), s_true, out=sq)
    return float(np.multiply(diff, diff, out=diff).sum() / denom)


def evaluate(s_hat, sample, space, threshold=DEFAULT_THRESHOLD):
    """All five metrics for one solver output against one sample."""
    gt_union = set().union(*(fp.regions for fp in sample.ground_truth))
    e = region_energy(s_hat)
    peak = e.max()
    precision, recall = precision_recall(_active(e, peak, threshold), gt_union)
    try:
        le = _localization_error(_peak(e, peak), gt_union, space)
        sd = _spatial_dispersion(e, peak, gt_union, space)
        undefined = False
    except UndefinedResultError:
        le, sd, undefined = None, None, True
    return MetricReport(precision=precision, recall=recall, le_mm=le,
                        sd_mm=sd, nmse=nmse(s_hat, sample.S),
                        undefined_le_sd=undefined)


def aggregate(reports):
    """Mean/std/n per metric; undefined LE/SD excluded with a count."""
    summary = {}
    for name in ["precision", "recall", "le_mm", "sd_mm", "nmse"]:
        vals = [getattr(r, name) for r in reports if getattr(r, name) is not None]
        summary[name] = {
            "mean": float(np.mean(vals)) if vals else None,
            "std": float(np.std(vals)) if vals else None,
            "n": len(vals),
            "excluded_count": len(reports) - len(vals),
        }
    return summary


def write_report_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["precision", "recall", "le_mm", "sd_mm", "nmse",
                         "undefined_le_sd"])
        for r in reports:
            writer.writerow([
                f"{r.precision:.4f}", f"{r.recall:.4f}",
                "" if r.le_mm is None else f"{r.le_mm:.4f}",
                "" if r.sd_mm is None else f"{r.sd_mm:.4f}",
                f"{r.nmse:.6e}", int(r.undefined_le_sd),
            ])


def write_summary_json(summaries, path):
    Path(path).write_text(json.dumps(summaries, indent=2, sort_keys=True))
