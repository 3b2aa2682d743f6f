"""Acceptance suite: one test per criterion, each emitting a PASS/FAIL line.

Criterion 7 (the toy end-to-end experiment) trains the full model once in a
session fixture; criteria 8 and 9 reuse its dataset. Expect several minutes
of wall time for this file.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import esikit.model as fm
from esikit import autodiff as ad
from esikit import layers
from esikit import metrics as mx
from esikit.geometry import build_lead_field, build_synthetic_source_space
from esikit.nmm import (
    ALPHA_PRESET,
    SimulationConfig,
    add_noise,
    generate_dataset,
    load_manifest,
    project_forward,
    simulate_jansen_rit,
)
from esikit.sloreta import DEFAULT_LAMBDA, sloreta_solve, sloreta_solver

SEED = 7

pytestmark = pytest.mark.acceptance


@pytest.fixture
def report(capfd):
    def _report(num, name, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity


def _sq(v):
    return ad.vsum(ad.mul(v, v))


def test_criterion_1_gradient_integrity(report):
    t0 = time.monotonic()
    r = np.random.Generator(np.random.PCG64(0))
    checks = []

    def chk(name, f, inputs, h=1e-5):
        checks.append((name, ad.grad_check(f, inputs, h=h)))

    a, b = r.standard_normal((3, 4)), r.standard_normal((3, 4))
    m1, m2 = r.standard_normal((3, 4)), r.standard_normal((4, 5))
    x3 = r.standard_normal((2, 3, 4))
    chk("add", lambda x, y: _sq(ad.add(x, y)), [a, b])
    chk("mul", lambda x, y: _sq(ad.mul(x, y)), [a, b])
    chk("matmul", lambda x, y: _sq(ad.matmul(x, y)), [m1, m2])
    chk("reshape", lambda v: _sq(ad.reshape(v, (6, 4))), [x3])
    chk("transpose", lambda v: _sq(ad.transpose(v, (2, 0, 1))), [x3])
    chk("concat", lambda v: _sq(ad.concat([v, v], axis=0)), [x3])
    chk("getitem", lambda v: _sq(v[..., 1:3]), [x3])
    idx = r.integers(0, 3, (2, 1, 4))
    chk("take_along", lambda v: _sq(ad.take_along(v, idx, axis=1)), [x3])
    chk("vsum", lambda v: _sq(ad.vsum(v, axis=1)), [x3])
    chk("elu", lambda v: _sq(ad.elu(v)), [a])
    chk("temp_softmax", lambda v: _sq(ad.temp_softmax(v, tau=0.5)), [a])
    g8, b8 = r.standard_normal(4), r.standard_normal(4)
    chk("layer_norm", lambda v, gg, bb: _sq(ad.layer_norm(v, gg, bb)), [a, g8, b8])
    x8 = r.standard_normal((3, 8))
    chk("fft", lambda v: _sq(ad.fft(v)), [x8])
    re8, im8 = r.standard_normal((3, 8)), r.standard_normal((3, 8))
    chk("ifft", lambda s: _sq(ad.ifft(s)), [np.stack([re8, im8], axis=-2)])
    # drawn as NCHW and transposed to NHWC, so the stream is unchanged
    xc = r.standard_normal((2, 2, 5, 5)).transpose(0, 2, 3, 1)
    kc = r.standard_normal((3, 2, 3, 3))
    chk("conv2d", lambda v, w: _sq(ad.conv2d(v, w, 1, 1)), [xc, kc])
    yc = r.standard_normal((2, 3, 5, 5)).transpose(0, 2, 3, 1)
    chk("transpose_conv2d",
        lambda v, w: _sq(ad.transpose_conv2d(v, w, 1, 1)), [yc, kc])
    chk("overlap_add",
        lambda v: _sq(ad.overlap_add(v, stride=2, n_out=10)),
        [r.standard_normal((2, 3, 4))])
    wl, bl = r.standard_normal((5, 4)), r.standard_normal(5)
    chk("linear", lambda v, w, c: _sq(layers.linear(v, w, c)), [a, wl, bl])
    wq, wk, wv = (0.5 * r.standard_normal((4, 4)) for _ in range(3))
    xa = 0.5 * r.standard_normal((3, 4))
    chk("attention",
        lambda v, q, k, w: _sq(layers.attention(v, q, k, w)), [xa, wq, wk, wv])
    wg = 0.4 * r.standard_normal((6, 3))
    ug = 0.4 * r.standard_normal((6, 2))
    bg = 0.4 * r.standard_normal(6)
    xg = 0.5 * r.standard_normal((2, 4, 3))
    chk("gru", lambda v, w, u, c: _sq(layers.gru_forward(v, w, u, c)),
        [xg, wg, ug, bg])

    worst_prim = max(err for _, err in checks)
    cfg = fm.FairConfig(n_channels=4, n_regions=8, n_timepoints=32,
                        patch_len=8, overlap=4, attention_dim=4, mlp_hidden=8)
    params = fm.init_params(cfg, seed=3)
    names = sorted(params)
    X = r.standard_normal((4, 32))
    S = r.standard_normal((8, 32))

    def full(*vs):
        return fm.loss(fm.forward(X, dict(zip(names, vs)), cfg), S)

    e2e = ad.grad_check(full, [params[n] for n in names], h=1e-5,
                        max_coords_per_input=2, seed=0)
    elapsed = time.monotonic() - t0
    ok = worst_prim < 1e-4 and e2e < 1e-3 and elapsed < 120.0
    report(1, "gradient integrity", ok,
           f"primitives max rel err {worst_prim:.2e} (<1e-4), "
           f"end-to-end {e2e:.2e} (<1e-3), {elapsed:.1f}s (<120s)")


def test_criterion_2_fft_correctness(report):
    r = np.random.Generator(np.random.PCG64(2))
    n = np.arange(16)
    ang = -2.0 * np.pi * np.outer(n, n) / 16
    cos_m, sin_m = np.cos(ang), np.sin(ang)
    worst_rt = worst_dft = worst_parseval = 0.0
    for _ in range(1000):
        x = r.standard_normal(16)
        spec = ad.fft(x).data
        re, im = spec
        worst_dft = max(worst_dft,
                        float(np.max(np.abs(re - cos_m @ x))),
                        float(np.max(np.abs(im - sin_m @ x))))
        worst_rt = max(worst_rt,
                       float(np.max(np.abs(ad.ifft(spec).data - x))))
        worst_parseval = max(worst_parseval,
                             abs(np.sum(x * x) - np.sum(re * re + im * im) / 16))
    ok = worst_rt < 1e-10 and worst_dft < 1e-9 and worst_parseval < 1e-9
    report(2, "FFT correctness", ok,
           f"round-trip {worst_rt:.2e} (<1e-10), naive-DFT {worst_dft:.2e} "
           f"(<1e-9), Parseval {worst_parseval:.2e} (<1e-9) over 1000 vectors")


def test_criterion_3_forward_model_and_snr(report):
    r = np.random.Generator(np.random.PCG64(3))
    space = build_synthetic_source_space(64, 4, seed=SEED)
    lf = build_lead_field(space, 32, seed=SEED + 1)
    S = r.standard_normal((64, 64))
    X = project_forward(lf, S)
    naive = np.zeros_like(X)
    for c in range(32):
        for t in range(64):
            naive[c, t] = sum(lf.matrix[c, s] * S[s, t] for s in range(64))
    fwd_err = float(np.max(np.abs(X - naive)))
    worst_snr = 0.0
    for snr_db in (-5.0, 5.0, 15.0):
        clean = r.standard_normal((32, 500))      # 16000 entries >= 1e4
        noisy = add_noise(clean, snr_db, seed=11)
        realized = 10.0 * np.log10(np.mean(clean ** 2)
                                   / np.mean((noisy - clean) ** 2))
        worst_snr = max(worst_snr, abs(realized - snr_db))
    ok = fwd_err < 1e-6 and worst_snr < 0.2
    report(3, "forward model and SNR contracts", ok,
           f"matmul vs naive {fwd_err:.2e} (<1e-6), worst SNR deviation "
           f"{worst_snr:.3f} dB (<0.2)")


def test_criterion_4_jansen_rit_dynamics(report):
    wave = simulate_jansen_rit(ALPHA_PRESET, 500, 250.0, seed=0)
    spec = np.abs(np.fft.rfft(wave))
    spec[0] = 0.0
    peak_hz = np.fft.rfftfreq(len(wave), 1 / 250.0)[int(np.argmax(spec))]
    coarse = simulate_jansen_rit(ALPHA_PRESET, 250, 250.0, seed=3)
    fine = simulate_jansen_rit(replace(ALPHA_PRESET, dt=5e-5), 250, 250.0, seed=3)
    rel = float(np.linalg.norm(coarse - fine) / np.linalg.norm(fine))
    ok = 8.0 <= peak_hz <= 12.0 and rel < 0.01
    report(4, "Jansen-Rit dynamics", ok,
           f"spectral peak {peak_hz:.1f} Hz (in 8-12), dt-halving rel L2 "
           f"{rel:.2e} (<0.01)")


def test_criterion_5_metric_oracles(report):
    from esikit.geometry import RegionSet

    r = np.random.Generator(np.random.PCG64(5))
    space = build_synthetic_source_space(8, 2, seed=0)
    c = space.centroids
    set_exact = True
    worst_dist = 0.0
    for _ in range(100):
        s_hat = r.standard_normal((8, 6))
        s_true = r.standard_normal((8, 6))
        g = set(r.choice(8, size=int(r.integers(1, 4)), replace=False).tolist())
        gt = RegionSet(frozenset(g))
        e = np.sum(s_hat * s_hat, axis=1)
        brute_est = {j for j in range(8) if e[j] >= 0.5 * e.max()}
        est = mx.threshold_active(s_hat)
        set_exact &= est == brute_est
        hits = len(brute_est & g)
        set_exact &= mx.precision_recall(est, g) == (
            100.0 * hits / len(brute_est) if brute_est else 0.0,
            100.0 * hits / len(g))
        peak = int(np.argmax(e))
        le_brute = 0.0 if peak in g else min(
            np.linalg.norm(c[peak] - c[j]) for j in g)
        worst_dist = max(worst_dist,
                         abs(mx.localization_error(s_hat, gt, space) - le_brute))
        num = den = 0.0
        for j in range(8):
            d = 0.0 if j in g else min(np.linalg.norm(c[j] - c[k]) for k in g)
            num += d * d * e[j]
            den += e[j]
        worst_dist = max(worst_dist,
                         abs(mx.spatial_dispersion(s_hat, gt, space)
                             - np.sqrt(num / den)))
        worst_dist = max(worst_dist,
                         abs(mx.nmse(s_hat, s_true)
                             - np.sum((s_hat - s_true) ** 2)
                             / np.sum(s_true ** 2)))
    # perfect reconstruction anchor
    s = np.zeros((8, 16))
    s[2] = 1.0
    cfg = SimulationConfig(snr_db=5.0, n_sources=1, extent=1, n_timepoints=32,
                           sample_rate=100.0, seed=0)
    from esikit.nmm import PairedSample
    sample = PairedSample(X=np.zeros((4, 16)), S=s,
                          ground_truth=(RegionSet(frozenset({2})),), config=cfg)
    rep = mx.evaluate(s, sample, space)
    perfect = (rep.precision, rep.recall, rep.le_mm, rep.sd_mm, rep.nmse) == (
        100.0, 100.0, 0.0, 0.0, 0.0)
    ok = set_exact and worst_dist < 1e-9 and perfect
    report(5, "metric oracles", ok,
           f"set metrics exact over 100 trials: {set_exact}, distance/energy "
           f"max err {worst_dist:.2e} (<1e-9), perfect-reconstruction anchor: "
           f"{perfect}")


def test_criterion_6_sloreta_zero_error(report):
    r = np.random.Generator(np.random.PCG64(6))
    hits = trials = 0
    for n_regions in (8, 16, 32, 64):
        space = build_synthetic_source_space(n_regions, 3, seed=0)
        lf = build_lead_field(space, max(4, n_regions // 2), seed=1)
        for _ in range(25):
            src = int(r.integers(n_regions))
            S = np.zeros((n_regions, 8))
            S[src] = r.standard_normal(8)
            est = sloreta_solve(lf, lf.matrix @ S, lam=1e-6)
            hits += int(np.argmax(np.sum(est * est, axis=1))) == src
            trials += 1
    ok = hits == trials == 100
    report(6, "sLORETA zero-error property", ok,
           f"{hits}/{trials} noiseless single-source argmax hits (need 100/100)")


# ---------------------------------------------------------------------------
# criterion 7: toy end-to-end experiment (shared by 8 and 9)


@pytest.fixture(scope="session")
def toy_experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_e2e")
    t0 = time.monotonic()
    space = build_synthetic_source_space(64, 4, seed=SEED)
    lf = build_lead_field(space, 32, seed=SEED + 1)
    sim = SimulationConfig(snr_db=5.0, n_sources=1, extent=2, n_timepoints=128,
                           sample_rate=250.0, seed=0)
    manifest = generate_dataset(space, lf, [sim], 720, root / "data",
                                seed_base=SEED * 100003)
    entries = load_manifest(manifest)
    cfg = fm.FairConfig(n_channels=32, n_regions=64, n_timepoints=128, lr=1e-3)
    result = fm.train(entries, cfg, epochs=30, seed=SEED, out_dir=root / "train")
    params, cfg2, _ = fm.load_model(root / "train" / "best")
    solvers = {"fair": fm.fair_solver(params, cfg2),
               "sloreta": sloreta_solver(lf, DEFAULT_LAMBDA)}
    reports = {name: [] for name in solvers}
    for sample, estimates in fm.solve_split(entries, list(solvers.values()),
                                            space.n_regions):
        for name, s_hat in zip(solvers, estimates):
            reports[name].append(mx.evaluate(s_hat, sample, space))
    return {
        "root": root, "space": space, "lf": lf, "sim": sim, "cfg": cfg,
        "entries": entries, "result": result,
        "fair": mx.aggregate(reports["fair"]),
        "sloreta": mx.aggregate(reports["sloreta"]),
        "elapsed_s": time.monotonic() - t0,
    }


def test_criterion_7_toy_end_to_end(report, toy_experiment):
    t = toy_experiment
    splits = [e["split"] for e in t["entries"]]
    assert (splits.count("train"), splits.count("val"),
            splits.count("test")) == (600, 60, 60)
    fair_le = t["fair"]["le_mm"]["mean"]
    slo_le = t["sloreta"]["le_mm"]["mean"]
    fair_nmse = t["fair"]["nmse"]["mean"]
    slo_nmse = t["sloreta"]["nmse"]["mean"]
    first_val = t["result"].history[0][2]
    best_val = t["result"].best_val
    ok_le = fair_le <= slo_le
    ok_nmse = fair_nmse <= 0.5 * slo_nmse
    ok_val = best_val <= 0.5 * first_val
    ok_time = t["elapsed_s"] < 3600.0
    report(7, "toy end-to-end experiment",
           ok_le and ok_nmse and ok_val and ok_time,
           f"LE {fair_le:.2f} vs sLORETA {slo_le:.2f} mm; nMSE {fair_nmse:.3f} "
           f"vs 0.5x sLORETA {0.5 * slo_nmse:.3f}; best-val {best_val:.3f} vs "
           f"epoch-1 {first_val:.3f} (>=50% drop: {ok_val}); "
           f"{t['elapsed_s'] / 60:.1f} min (<60)")


def test_criterion_8_ablation_harness(report, toy_experiment, capfd):
    t = toy_experiment
    ablations = [
        ("full (3 epochs)", {}),
        ("no spectral", {"use_spectral": False}),
        ("no temporal", {"use_temporal": False}),
        ("no patch", {"use_patch": False}),
    ]
    rows = []
    for name, flags in ablations:
        cfg = replace(t["cfg"], **flags)
        out = t["root"] / f"abl_{name.replace(' ', '_')}"
        res = fm.train(t["entries"], cfg, epochs=3, seed=SEED, out_dir=out)
        params, cfg2, _ = fm.load_model(res.checkpoint_dir)
        agg = mx.aggregate([
            mx.evaluate(s_hat, sample, t["space"]) for sample, (s_hat,) in
            fm.solve_split(t["entries"], [fm.fair_solver(params, cfg2)], cfg2.n_regions)])
        rows.append((name, agg["le_mm"]["mean"], agg["nmse"]["mean"],
                     res.best_val))
    with capfd.disabled():
        print(f"{'variant':<18}{'LE (mm)':>10}{'nMSE':>10}{'best val':>12}")
        for name, le, nmse_v, bv in rows:
            print(f"{name:<18}{le:>10.2f}{nmse_v:>10.3f}{bv:>12.4f}")
    ok = len(rows) == 4 and all(np.isfinite(r[2]) for r in rows)
    report(8, "ablation harness", ok,
           "all refinement-view toggles trained and evaluated; table above")


def test_criterion_9_determinism(report, toy_experiment, tmp_path):
    t = toy_experiment
    # dataset reruns are byte-identical
    m1 = generate_dataset(t["space"], t["lf"], [t["sim"]], 24, tmp_path / "a",
                          seed_base=SEED * 100003)
    m2 = generate_dataset(t["space"], t["lf"], [t["sim"]], 24, tmp_path / "b",
                          seed_base=SEED * 100003)
    names1 = sorted(p.name for p in m1.parent.iterdir())
    names2 = sorted(p.name for p in m2.parent.iterdir())
    data_ok = names1 == names2 and all(
        (m1.parent / n).read_bytes() == (m2.parent / n).read_bytes()
        for n in names1)
    # dataset files also match the corresponding slice of the big run
    big = t["root"] / "data"
    slice_ok = all((big / n).read_bytes() == (m1.parent / n).read_bytes()
                   for n in names1 if n != "manifest.json")
    # training reruns produce byte-identical loss logs (shortened rerun)
    entries = load_manifest(m1)
    r1 = fm.train(entries, t["cfg"], epochs=2, seed=SEED, out_dir=tmp_path / "t1")
    r2 = fm.train(entries, t["cfg"], epochs=2, seed=SEED, out_dir=tmp_path / "t2")
    log_ok = r1.log_path.read_bytes() == r2.log_path.read_bytes()
    ok = data_ok and slice_ok and log_ok
    report(9, "determinism", ok,
           f"dataset bytes identical: {data_ok}, slice matches full run: "
           f"{slice_ok}, loss logs identical: {log_ok}")
