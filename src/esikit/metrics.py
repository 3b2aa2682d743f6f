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
    return np.sum(s_hat * s_hat, axis=-1)


def threshold_active(s_hat, threshold=DEFAULT_THRESHOLD):
    """Regions whose energy reaches ``threshold`` times the max energy."""
    return _active(region_energy(s_hat), threshold)


def _active(e, threshold):
    if not np.all(np.isfinite(e)):
        raise NumericalError("estimate contains non-finite values")
    peak = e.max()
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
    return _peak(region_energy(s_hat))


def _peak(e):
    if e.max() == 0.0:
        raise UndefinedResultError("all-zero estimate has no peak region")
    return int(np.argmax(e))


def localization_error(s_hat, gt, space):
    """Distance (mm) from the peak region to the nearest ground-truth centroid."""
    return _localization_error(region_energy(s_hat), gt, space)


def _localization_error(e, gt, space):
    peak = _peak(e)
    gt = set(gt)
    if not gt:
        raise ParameterError("ground truth must be non-empty")
    if peak in gt:
        return 0.0
    c = space.centroids
    return float(min(np.linalg.norm(c[peak] - c[g]) for g in gt))


def spatial_dispersion(s_hat, gt, space):
    """Energy-weighted RMS distance (mm) of the estimate to the ground truth."""
    return _spatial_dispersion(region_energy(s_hat), gt, space)


def _spatial_dispersion(e, gt, space):
    if e.max() == 0.0:
        raise UndefinedResultError("all-zero estimate has no spatial dispersion")
    gt = sorted(set(gt))
    d = np.min(space.centroid_distances[:, gt], axis=1)
    d[gt] = 0.0
    return float(np.sqrt(np.sum(d * d * e) / np.sum(e)))


def nmse(s_hat, s_true):
    """Squared Frobenius error normalized by the ground-truth energy."""
    s_true = np.asarray(s_true, dtype=np.float64)
    denom = float(np.sum(s_true * s_true))
    if denom == 0.0:
        raise ParameterError("nmse undefined for a zero ground truth")
    diff = np.asarray(s_hat, dtype=np.float64) - s_true
    return float(np.sum(diff * diff) / denom)


def evaluate(s_hat, sample, space, threshold=DEFAULT_THRESHOLD):
    """All five metrics for one solver output against one sample."""
    gt_union = set().union(*(fp.regions for fp in sample.ground_truth))
    e = region_energy(s_hat)
    precision, recall = precision_recall(_active(e, threshold), gt_union)
    try:
        le = _localization_error(e, gt_union, space)
        sd = _spatial_dispersion(e, gt_union, space)
        undefined = False
    except UndefinedResultError:
        le, sd, undefined = None, None, True
    return MetricReport(precision=precision, recall=recall, le_mm=le,
                        sd_mm=sd, nmse=nmse(s_hat, sample.S),
                        undefined_le_sd=undefined)


def aggregate(reports):
    """Mean/std/n per metric; undefined LE/SD excluded with a count."""
    summary = {}
    fields = ["precision", "recall", "le_mm", "sd_mm", "nmse"]
    for name in fields:
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
