import csv
import json

import numpy as np
import pytest

from esikit.errors import NumericalError, ParameterError, UndefinedResultError
from esikit.geometry import RegionSet, SourceSpace, build_synthetic_source_space
from esikit.metrics import (
    MetricReport,
    aggregate,
    evaluate,
    localization_error,
    nmse,
    peak_region,
    precision_recall,
    spatial_dispersion,
    threshold_active,
    write_report_csv,
    write_summary_json,
)
from esikit.nmm import PairedSample, SimulationConfig


def two_region_space(distance_mm=10.0):
    centroids = np.array([[0.0, 0.0, 0.0], [distance_mm, 0.0, 0.0]])
    return SourceSpace(centroids=centroids, adjacency=((1,), (0,)))


def gt(*regions):
    return RegionSet(frozenset(regions))


# ---------------------------------------------------------------------------
# thresholding / precision / recall


def test_threshold_single_region():
    s = np.zeros((5, 4))
    s[2] = 1.0
    assert threshold_active(s) == {2}


def test_threshold_boundary():
    s = np.zeros((2, 1))
    s[0, 0] = 1.0
    s[1, 0] = np.sqrt(0.49)     # energy 0.49 < 0.5 * max
    assert threshold_active(s) == {0}
    s[1, 0] = np.sqrt(0.5)      # exactly at the threshold: included
    assert threshold_active(s) == {0, 1}


def test_threshold_all_zero_empty():
    assert threshold_active(np.zeros((4, 3))) == set()


def test_threshold_matches_brute_force_scan():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(100):
        s = rng.standard_normal((8, 6))
        e = [sum(v * v for v in s[j]) for j in range(8)]
        expected = {j for j in range(8) if e[j] >= 0.5 * max(e)}
        assert threshold_active(s) == expected


def test_precision_recall_cases():
    assert precision_recall({1, 2}, {1, 2}) == (100.0, 100.0)
    assert precision_recall({1, 2, 3, 4}, {1, 2}) == (50.0, 100.0)
    assert precision_recall({5, 6}, {1, 2}) == (0.0, 0.0)
    assert precision_recall(set(), {1}) == (0.0, 0.0)
    with pytest.raises(ParameterError):
        precision_recall({1}, set())


# ---------------------------------------------------------------------------
# LE / SD


def test_le_zero_when_peak_in_gt():
    space = two_region_space()
    s = np.zeros((2, 4))
    s[0] = 1.0
    assert localization_error(s, gt(0), space) == 0.0


def test_le_known_distance():
    space = two_region_space(10.0)
    s = np.zeros((2, 4))
    s[1] = 1.0
    assert localization_error(s, gt(0), space) == pytest.approx(10.0, abs=1e-9)


def test_le_undefined_on_zero_estimate():
    with pytest.raises(UndefinedResultError):
        peak_region(np.zeros((3, 4)))
    with pytest.raises(UndefinedResultError):
        localization_error(np.zeros((3, 4)), gt(0), two_region_space())


def test_le_matches_brute_force():
    rng = np.random.Generator(np.random.PCG64(1))
    space = build_synthetic_source_space(8, 2, seed=0)
    c = space.centroids
    for _ in range(100):
        s = rng.standard_normal((8, 5))
        g = set(rng.choice(8, size=rng.integers(1, 4), replace=False).tolist())
        e = np.sum(s * s, axis=1)
        peak = int(np.argmax(e))
        expected = 0.0 if peak in g else min(
            np.linalg.norm(c[peak] - c[j]) for j in g)
        got = localization_error(s, gt(*g), space)
        assert abs(got - expected) < 1e-9


def test_sd_zero_inside_gt():
    space = two_region_space()
    s = np.zeros((2, 4))
    s[0] = 3.0
    assert spatial_dispersion(s, gt(0), space) == 0.0


def test_sd_single_distant_region():
    space = two_region_space(10.0)
    s = np.zeros((2, 4))
    s[1] = 1.0
    assert spatial_dispersion(s, gt(0), space) == pytest.approx(10.0, abs=1e-9)


def test_sd_fifty_fifty_split():
    # half the energy in gt (d=0), half on a region 10 mm away -> 10/sqrt(2)
    space = two_region_space(10.0)
    s = np.zeros((2, 2))
    s[0, 0] = 1.0
    s[1, 0] = 1.0
    expected = 10.0 / np.sqrt(2.0)
    assert spatial_dispersion(s, gt(0), space) == pytest.approx(expected, abs=1e-9)


def test_sd_matches_brute_force():
    rng = np.random.Generator(np.random.PCG64(2))
    space = build_synthetic_source_space(8, 2, seed=0)
    c = space.centroids
    for _ in range(100):
        s = rng.standard_normal((8, 5))
        g = set(rng.choice(8, size=rng.integers(1, 4), replace=False).tolist())
        num = den = 0.0
        for j in range(8):
            e = sum(v * v for v in s[j])
            d = 0.0 if j in g else min(np.linalg.norm(c[j] - c[k]) for k in g)
            num += d * d * e
            den += e
        got = spatial_dispersion(s, gt(*g), space)
        assert abs(got - np.sqrt(num / den)) < 1e-9


# ---------------------------------------------------------------------------
# nMSE


def test_nmse_anchors():
    s = np.arange(12, dtype=np.float64).reshape(3, 4) + 1
    assert nmse(s, s) == 0.0
    assert nmse(np.zeros_like(s), s) == pytest.approx(1.0, abs=1e-12)
    assert nmse(2 * s, s) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        nmse(s, np.zeros_like(s))


def test_nmse_matches_brute_force():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(100):
        s_hat = rng.standard_normal((8, 4))
        s = rng.standard_normal((8, 4))
        num = sum((s_hat[i, t] - s[i, t]) ** 2 for i in range(8) for t in range(4))
        den = sum(s[i, t] ** 2 for i in range(8) for t in range(4))
        assert abs(nmse(s_hat, s) - num / den) < 1e-9


# ---------------------------------------------------------------------------
# evaluate / aggregate / reports


def make_sample(space, s, regions):
    cfg = SimulationConfig(snr_db=5.0, n_sources=1, extent=1, n_timepoints=32,
                           sample_rate=100.0, seed=0)
    X = np.zeros((2, s.shape[1]))
    return PairedSample(X=X, S=s, ground_truth=(gt(*regions),), config=cfg)


def test_evaluate_perfect_reconstruction():
    space = build_synthetic_source_space(8, 2, seed=0)
    s = np.zeros((8, 32))
    s[3] = np.sin(np.linspace(0, 6, 32))
    report = evaluate(s, make_sample(space, s, [3]), space)
    assert report.precision == 100.0
    assert report.recall == 100.0
    assert report.le_mm == 0.0
    assert report.sd_mm == 0.0
    assert report.nmse == 0.0
    assert not report.undefined_le_sd


def test_evaluate_zero_estimate_flagged():
    space = build_synthetic_source_space(8, 2, seed=0)
    s = np.zeros((8, 32))
    s[3] = 1.0
    report = evaluate(np.zeros_like(s), make_sample(space, s, [3]), space)
    assert report.precision == 0.0
    assert report.undefined_le_sd
    assert report.le_mm is None and report.sd_mm is None
    assert report.nmse == pytest.approx(1.0, abs=1e-12)


def test_evaluate_non_finite_estimate_is_numerical_error():
    space = build_synthetic_source_space(8, 2, seed=0)
    s = np.zeros((8, 32))
    s[3] = 1.0
    s_hat = s.copy()
    s_hat[5, 7] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        evaluate(s_hat, make_sample(space, s, [3]), space)


def reference_evaluate(s_hat, sample, space, threshold=0.5):
    """The five metrics written out, with SD's distances to the ground truth
    computed from the centroids."""
    gt_union = set()
    for fp in sample.ground_truth:
        gt_union |= set(fp.regions)
    e = np.sum(s_hat * s_hat, axis=-1)
    est = set(np.flatnonzero(e >= threshold * e.max()).tolist()) \
        if e.max() else set()
    hits = len(est & gt_union)
    precision = 100.0 * hits / len(est) if est else 0.0
    recall = 100.0 * hits / len(gt_union)
    le = sd = None
    if e.max() != 0.0:
        peak = int(np.argmax(e))
        c = space.centroids
        le = 0.0 if peak in gt_union else float(
            min(np.linalg.norm(c[peak] - c[g]) for g in gt_union))
        g = sorted(gt_union)
        d = np.min(np.linalg.norm(c[:, None, :] - c[None, g, :], axis=-1), axis=1)
        d[g] = 0.0
        sd = float(np.sqrt(np.sum(d * d * e) / np.sum(e)))
    diff = s_hat - sample.S
    return MetricReport(precision=precision, recall=recall, le_mm=le, sd_mm=sd,
                        nmse=float(np.sum(diff * diff)
                                   / float(np.sum(sample.S * sample.S))),
                        undefined_le_sd=le is None)


def test_evaluate_matches_reference_formula_exactly():
    rng = np.random.Generator(np.random.PCG64(3))
    space = build_synthetic_source_space(64, 4, seed=0)
    cfg = SimulationConfig(snr_db=5.0, n_sources=3, extent=2, n_timepoints=32,
                           sample_rate=100.0, seed=0)
    n_undefined = 0
    for i in range(120):
        footprints = tuple(
            gt(*rng.choice(64, size=rng.integers(1, 5), replace=False).tolist())
            for _ in range(rng.integers(1, 4)))
        sample = PairedSample(X=np.zeros((2, 16)), S=rng.standard_normal((64, 16)),
                              ground_truth=footprints, config=cfg)
        s_hat = np.zeros((64, 16)) if i % 10 == 0 else rng.standard_normal((64, 16))
        report = evaluate(s_hat, sample, space)
        assert report == reference_evaluate(s_hat, sample, space)
        n_undefined += report.undefined_le_sd
    assert n_undefined == 12


def test_centroid_distances_kept_with_the_space():
    space = build_synthetic_source_space(8, 2, seed=0)
    table = space.centroid_distances
    assert space.centroid_distances is table
    c = space.centroids
    assert table[2, 5] == np.linalg.norm(c[2][None] - c[5][None], axis=-1)[0]


def test_aggregate_hand_computed():
    reports = [
        MetricReport(100.0, 100.0, 0.0, 0.0, 0.1),
        MetricReport(50.0, 100.0, 8.0, 4.0, 0.3),
        MetricReport(0.0, 0.0, None, None, 1.0, undefined_le_sd=True),
    ]
    agg = aggregate(reports)
    assert agg["precision"]["mean"] == pytest.approx(50.0)
    assert agg["precision"]["std"] == pytest.approx(np.std([100.0, 50.0, 0.0]))
    assert agg["le_mm"]["mean"] == pytest.approx(4.0)
    assert agg["le_mm"]["n"] == 2
    assert agg["le_mm"]["excluded_count"] == 1
    assert agg["nmse"]["n"] == 3


def test_report_csv_and_summary_json(tmp_path):
    reports = [MetricReport(100.0, 100.0, 0.0, 0.0, 0.1),
               MetricReport(0.0, 0.0, None, None, 1.0, undefined_le_sd=True)]
    write_report_csv(reports, tmp_path / "r.csv")
    with open(tmp_path / "r.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["precision", "recall", "le_mm", "sd_mm", "nmse",
                       "undefined_le_sd"]
    assert len(rows) == 3
    assert rows[2][2] == ""          # undefined LE serialized as empty
    write_summary_json({"fair": aggregate(reports)}, tmp_path / "s.json")
    doc = json.loads((tmp_path / "s.json").read_text())
    assert doc["fair"]["le_mm"]["excluded_count"] == 1
