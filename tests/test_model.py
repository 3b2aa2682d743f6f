import inspect
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import esikit.model as fm
from esikit import autodiff as ad
from esikit import layers
from esikit.errors import (
    ConfigError,
    DataError,
    DivergenceError,
    FormatError,
    ParameterError,
)
from esikit.geometry import build_lead_field, build_synthetic_source_space
from esikit.nmm import SimulationConfig, generate_dataset, load_manifest
from esikit.optim import AdamState, adam_step
from esikit.patches import extract_patches

RNG = np.random.Generator(np.random.PCG64(5))

TOY = fm.FairConfig(n_channels=4, n_regions=8, n_timepoints=32,
                    patch_len=8, overlap=4, attention_dim=4, mlp_hidden=8)


# ---------------------------------------------------------------------------
# config


@pytest.mark.parametrize("field, value", [
    ("n_channels", 0), ("n_timepoints", -32), ("attention_dim", 0),
    ("mlp_hidden", 2.5), ("batch_size", 0), ("overlap", 2.5),
])
def test_config_sizes_are_positive_integers(field, value):
    # a checkpoint's config is read from a file: a size that no array can
    # take is rejected when the config is built, not deep in a forward
    with pytest.raises((ConfigError, TypeError)):
        replace(TOY, **{field: value})


def test_config_validation():
    with pytest.raises(ConfigError):
        fm.FairConfig(n_channels=4, n_regions=8, n_timepoints=32, alpha=1.5)
    with pytest.raises(ConfigError):
        fm.FairConfig(n_channels=4, n_regions=8, n_timepoints=32, tau=0.0)
    with pytest.raises(ConfigError):
        fm.FairConfig(n_channels=4, n_regions=8, n_timepoints=32, patch_len=12)
    with pytest.raises(ConfigError):
        fm.FairConfig(n_channels=4, n_regions=9, n_timepoints=32)  # odd regions
    # patches extract_patches cannot cut, caught before any data is read
    for patch_len, overlap in [(0, 0), (1, 0), (8, 8), (8, -1)]:
        with pytest.raises(ConfigError, match="patch_len|overlap"):
            fm.FairConfig(n_channels=4, n_regions=8, n_timepoints=32,
                          patch_len=patch_len, overlap=overlap)
    cfg = fm.FairConfig(n_channels=32, n_regions=64, n_timepoints=128)
    assert fm.init_params(cfg, seed=0)["gru.fw.u"].shape == (3 * 32, 32)
    assert cfg.upsample_stride == 2
    assert cfg.upsample_kernel == 4


def test_config_rejects_nan_tau():
    # NaN fails every comparison, so "reject if tau <= 0" would let it through
    with pytest.raises(ConfigError, match="tau must be > 0"):
        fm.FairConfig(n_channels=4, n_regions=8, n_timepoints=32, tau=float("nan"))


def test_paper_hyperparameter_defaults():
    cfg = fm.FairConfig(n_channels=32, n_regions=64, n_timepoints=128)
    assert cfg.patch_len == 16 and cfg.overlap == 8
    assert cfg.tau == 0.1
    assert cfg.n_blocks == 1
    assert cfg.lr == 1e-4 and cfg.weight_decay == 1e-5


# ---------------------------------------------------------------------------
# refinement views


def test_spectral_refine_constant_patch_oracle():
    l = 8
    grid = np.full((1, 1, 1, l), 2.0)
    out = fm.spectral_refine(grid, tau=0.1).data
    spec = np.fft.fft(grid[0, 0, 0])
    re, im = spec.real, spec.imag

    def softmax(v, tau):
        e = np.exp((v - v.max()) / tau)
        return e / e.sum()

    expected = np.real(np.fft.ifft(softmax(re, 0.1) + 1j * softmax(im, 0.1)))
    np.testing.assert_allclose(out[0, 0, 0], expected, atol=1e-9)
    # DC bin dominates the softmaxed real spectrum
    assert softmax(re, 0.1)[0] > 1.0 - 1e-12


def test_spectral_refine_shape_and_tau_saturation():
    grid = RNG.standard_normal((2, 3, 4, 8))
    out = fm.spectral_refine(grid, tau=0.1).data
    assert out.shape == grid.shape
    # tau -> infinity: uniform spectra regardless of input
    a = fm.spectral_refine(RNG.standard_normal((1, 1, 1, 8)), tau=1e9).data
    b = fm.spectral_refine(RNG.standard_normal((1, 1, 1, 8)), tau=1e9).data
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_spectral_reweight_variant():
    grid = RNG.standard_normal((1, 2, 3, 8))
    replace = fm.spectral_refine(grid, tau=0.5, reweight=False).data
    reweight = fm.spectral_refine(grid, tau=0.5, reweight=True).data
    assert replace.shape == reweight.shape
    assert not np.allclose(replace, reweight)


def test_spectral_reweight_oracle_and_grad():
    # reweight=True keeps each spectrum scaled by its own softmax weights:
    # real(ifft(re * softmax(re / tau) + 1j * im * softmax(im / tau)))
    rng = np.random.Generator(np.random.PCG64(19))
    grid = rng.standard_normal((2, 2, 3, 8))
    tau = 0.5

    def softmax(v):
        e = np.exp((v - v.max(axis=-1, keepdims=True)) / tau)
        return e / e.sum(axis=-1, keepdims=True)

    spec = np.fft.fft(grid, axis=-1)
    re, im = spec.real, spec.imag
    expected = np.real(np.fft.ifft(re * softmax(re) + 1j * (im * softmax(im)), axis=-1))
    out = fm.spectral_refine(grid, tau, reweight=True).data
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    w = rng.standard_normal(grid.shape)
    err = ad.grad_check(
        lambda g: ad.vsum(ad.mul(fm.spectral_refine(g, tau, reweight=True), w)),
        [grid])
    assert err < 1e-7


@pytest.mark.parametrize("reweight", [False, True])
def test_spectral_refine_bits_do_not_depend_on_grid_layout(reweight):
    # extract_patches' grid is a gather, laid out (n_p, l, b, n_c) in memory;
    # the spectrum is built C-ordered, so its softmax sums take the bits of
    # a C-ordered grid whatever the grid's own layout
    grid = extract_patches(RNG.standard_normal((3, 4, 32)), 8, 4)
    assert not grid.flags.c_contiguous
    seed = RNG.standard_normal(grid.shape)
    results = []
    for g in (grid, np.ascontiguousarray(grid), np.asfortranarray(grid)):
        v = ad.Var(g)
        out = fm.spectral_refine(v, 0.1, reweight)
        out.backward(seed)
        results.append((out.data.tobytes(), v.grad.tobytes()))
    assert results[0] == results[1] == results[2]


def test_temporal_refine_constant_and_spike():
    const = fm.temporal_refine(np.full((1, 1, 2, 8), 3.0), tau=0.1).data
    np.testing.assert_allclose(const, 1.0 / 8, atol=1e-12)
    sums = fm.temporal_refine(RNG.standard_normal((2, 3, 4, 8)), tau=0.1).data.sum(-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)
    spike = np.zeros((1, 1, 1, 8))
    spike[..., 3] = 1.0
    out = fm.temporal_refine(spike, tau=0.1).data
    assert out[0, 0, 0, 3] > 0.99


def test_fuse_boundaries_and_average():
    a = RNG.standard_normal((2, 2, 2, 4))
    b = RNG.standard_normal((2, 2, 2, 4))
    np.testing.assert_allclose(fm.fuse(a, b, 1.0).data, a, atol=1e-12)
    np.testing.assert_allclose(fm.fuse(a, b, 0.0).data, b, atol=1e-12)
    np.testing.assert_allclose(fm.fuse(a, b, 0.5).data, 0.5 * (a + b), atol=1e-12)
    with pytest.raises(ParameterError):
        fm.fuse(a, b[:1], 0.5)
    with pytest.raises(ParameterError):
        fm.fuse(a, b, 1.5)


def test_select_key_patch():
    grid = np.zeros((1, 2, 5, 4))
    grid[0, 0, 3, 1] = 1.0                     # spike in patch 3 of channel 0
    idx = fm.select_key_patch(grid)
    assert idx[0, 0] == 3
    assert idx[0, 1] == 0                      # all-equal energies tie to 0
    rand = RNG.standard_normal((2, 3, 6, 4))
    expected = np.argmax(np.sum(rand * rand, axis=-1), axis=-1)
    np.testing.assert_array_equal(fm.select_key_patch(rand), expected)


def test_patch_refine_shape_preserved():
    params = fm.init_params(TOY, seed=0)
    grid = RNG.standard_normal((2, 4, 7, 8))
    out = fm.patch_refine(ad.Var(grid), params)
    assert out.shape == grid.shape


def broadcast_patch_refine(grid, params, prefix):
    """patch_refine with the summary plane built: broadcast onto every patch,
    stacked onto the grid, and one conv with the whole conv.w1."""
    g = ad.as_var(grid)
    b, n_c, n_p, l = g.shape
    key_idx = fm.select_key_patch(g.data)
    idx = np.broadcast_to(key_idx[:, :, None, None], (b, n_c, 1, l)).copy()
    tokens = ad.reshape(ad.take_along(g, idx, axis=-2), (b, n_c, l, 1))
    emb = ad.add(ad.mul(tokens, params[prefix + "attn.embed_w"]),
                 params[prefix + "attn.embed_b"])
    att = layers.attention(emb, params[prefix + "attn.wq"],
                           params[prefix + "attn.wk"], params[prefix + "attn.wv"])
    summary = layers.linear(att, params[prefix + "attn.out_w"],
                            params[prefix + "attn.out_b"])
    plane = ad.matmul(np.ones((n_p, 1)), ad.reshape(summary, (b, n_c, 1, l)))
    aug = ad.concat([g, plane], axis=-1)
    h1 = ad.conv2d(aug, params[prefix + "conv.w1"], stride=1, padding=1)
    h1 = ad.add(h1, params[prefix + "conv.b1"])
    h1 = ad.layer_norm(ad.elu(h1), params[prefix + "conv.ln1_gain"],
                       params[prefix + "conv.ln1_bias"])
    h2 = ad.transpose_conv2d(h1, params[prefix + "conv.w2"], stride=1, padding=1)
    h2 = ad.add(h2, params[prefix + "conv.b2"])
    h2 = ad.layer_norm(ad.elu(h2), params[prefix + "conv.ln2_gain"],
                       params[prefix + "conv.ln2_bias"])
    return h2


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("n_blocks", [1, 2])
@pytest.mark.parametrize("n_p", [1, 2, 7])
def test_patch_refine_split_conv_matches_broadcast_plane(n_p, n_blocks):
    # the first conv split into a grid term and a summary term gives the
    # outputs and gradients of one conv over the stacked, broadcast plane
    cfg = replace(TOY, n_blocks=n_blocks)
    params = fm.init_params(cfg, seed=6)
    rng = np.random.Generator(np.random.PCG64(n_p))
    grid = rng.standard_normal((2, cfg.n_channels, n_p, cfg.patch_len))
    weights = rng.standard_normal(grid.shape)
    runs = {}
    for path in ("split", "broadcast"):
        pvars = fm._as_param_vars(params)
        g = grid
        for n in range(n_blocks):
            prefix = f"block{n}."
            if path == "split":
                g = fm.patch_refine(g, pvars, prefix)
            else:
                g = broadcast_patch_refine(g, pvars, prefix)
        ad.vsum(ad.mul(g, weights)).backward()
        runs[path] = g.data, {k: v.grad for k, v in pvars.items()}
    (out, grads), (ref_out, ref_grads) = runs["split"], runs["broadcast"]
    assert _max_rel(out, ref_out) <= 1e-12
    for k in ref_grads:
        if k.startswith("block"):
            assert _max_rel(grads[k], ref_grads[k]) <= 1e-10, k


def test_fair_block_ablation_routing():
    # fair_block is the views' composition: the spectral and temporal views
    # that are on, fused when both are, then the patch-wise view if it is on
    params = fm.init_params(TOY, seed=0)
    grid = ad.Var(RNG.standard_normal((2, 4, 7, 8)))
    for flags in itertools.product((True, False), repeat=3):
        cfg = replace(TOY, use_spectral=flags[0], use_temporal=flags[1],
                      use_patch=flags[2])
        views = [view for on, view in
                 ((flags[0], fm.spectral_refine(grid, cfg.tau)),
                  (flags[1], fm.temporal_refine(grid, cfg.tau))) if on]
        fused = (fm.fuse(*views, cfg.alpha) if len(views) == 2
                 else views[0] if views else grid)
        assert fm.select_key_patch(fused.data).shape == (2, 4)
        expected = fm.patch_refine(fused, params) if flags[2] else fused
        out = fm.fair_block(grid, params, cfg)
        assert out.data.shape == grid.shape
        assert np.array_equal(out.data, expected.data), flags


# ---------------------------------------------------------------------------
# forward / loss


def test_forward_output_shape():
    # forward returns the estimate and nothing else, whatever it is called with
    for fn in (fm.forward, fm.fair_block, fm.patch_refine):
        assert "trace" not in " ".join(inspect.signature(fn).parameters)
    assert list(inspect.signature(fm.forward).parameters) == ["X", "params", "cfg"]
    params = fm.init_params(TOY, seed=1)
    X = RNG.standard_normal((4, 32))
    s_hat = fm.forward(X, params, TOY)
    assert isinstance(s_hat, ad.Var) and s_hat.shape == (8, 32)
    batched = fm.forward(np.stack([X, X]), params, TOY)
    assert batched.shape == (2, 8, 32)
    np.testing.assert_allclose(batched.data[0], batched.data[1], atol=1e-12)
    np.testing.assert_allclose(batched.data[0], s_hat.data, atol=1e-10)


@pytest.mark.parametrize("bsz", [2, 3, 16])
def test_forward_rows_match_batch_one_forwards(bsz):
    cfg = fm.FairConfig(n_channels=32, n_regions=64, n_timepoints=128)
    params = fm.init_params(cfg, seed=4)
    X = RNG.standard_normal((bsz, 32, 128))
    X[1] = 0.0
    out = fm.forward(X, params, cfg).data
    for i in range(bsz):
        assert np.array_equal(out[i], fm.forward(X[i], params, cfg).data)


def test_forward_rejects_wrong_dims():
    params = fm.init_params(TOY, seed=1)
    with pytest.raises(ParameterError):
        fm.forward(RNG.standard_normal((5, 32)), params, TOY)
    with pytest.raises(ParameterError):
        fm.forward(RNG.standard_normal((4, 30)), params, TOY)
    for shape in ((32,), (1, 2, 4, 32)):
        with pytest.raises(ParameterError,
                           match=f"fragment is {'x'.join(map(str, shape))},"):
            fm.forward(np.zeros(shape), params, TOY)


def test_forward_checks_each_fragment_through_check_fragment(monkeypatch):
    # the fragment rule lives in check_fragment alone: forward checks every
    # fragment of a stack through it, and a lone fragment once
    seen = []
    check = fm.check_fragment
    monkeypatch.setattr(fm, "check_fragment",
                        lambda x, cfg: (seen.append(x.shape), check(x, cfg)))
    params = fm.init_params(TOY, seed=1)
    fm.forward(RNG.standard_normal((3, 4, 32)), params, TOY)
    assert seen == [(4, 32)] * 3
    seen.clear()
    fm.forward(RNG.standard_normal((4, 32)), params, TOY)
    assert seen == [(4, 32)]


def test_forward_rejects_non_finite_fragment_in_batch():
    params = fm.init_params(TOY, seed=1)
    X = RNG.standard_normal((3, 4, 32))
    X[1, 2, 5] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        fm.forward(X, params, TOY)


def test_forward_scale_equivariance_of_magnitude():
    # max-abs normalization in, restored scale out: scaling X scales S_hat
    params = fm.init_params(TOY, seed=2)
    X = RNG.standard_normal((4, 32))
    a = fm.forward(X, params, TOY).data
    b = fm.forward(10.0 * X, params, TOY).data
    np.testing.assert_allclose(b, 10.0 * a, rtol=1e-9)


def test_loss_examples():
    s = np.zeros((8, 4))
    assert float(fm.loss(ad.Var(s), s).data) == 0.0
    s_hat = s.copy()
    s_hat[0, 0] = 2.0
    assert float(fm.loss(ad.Var(s_hat), s).data) == pytest.approx(0.5)
    a = RNG.standard_normal((8, 6))
    b = RNG.standard_normal((8, 6))
    oracle = sum((a[i, t] - b[i, t]) ** 2 for i in range(8) for t in range(6)) / 8
    assert float(fm.loss(ad.Var(a), b).data) == pytest.approx(oracle, abs=1e-9)
    with pytest.raises(ParameterError):
        fm.loss(ad.Var(a), b[:4])


def test_end_to_end_gradient_check():
    params = fm.init_params(TOY, seed=3)
    names = sorted(params)
    X = RNG.standard_normal((4, 32))
    S = RNG.standard_normal((8, 32))

    def f(*vs):
        pv = dict(zip(names, vs))
        return fm.loss(fm.forward(X, pv, TOY), S)

    err = ad.grad_check(f, [params[n] for n in names], h=1e-5,
                        max_coords_per_input=2, seed=0)
    assert err < 1e-3


def test_single_adam_step_decreases_loss():
    # invariant: one step at lr=1e-3 strictly improves a single sample,
    # across 20 random initializations with zero allowed failures
    X = RNG.standard_normal((4, 32))
    S = 0.5 * RNG.standard_normal((8, 32))
    for seed in range(20):
        params = fm.init_params(TOY, seed=seed)
        pvars = fm._as_param_vars(params)
        lv = fm.loss(fm.forward(X, pvars, TOY), S)
        lv.backward()
        grads = {k: v.grad if v.grad is not None else np.zeros_like(v.data)
                 for k, v in pvars.items()}
        state = AdamState(lr=1e-3, weight_decay=0.0)
        adam_step(state, params, grads)
        after = float(fm.loss(fm.forward(X, params, TOY), S).data)
        assert after < float(lv.data), f"seed {seed}: {after} >= {float(lv.data)}"


# ---------------------------------------------------------------------------
# backward consumes the tape; a model step at the benchmark's sizes


MODEL = fm.FairConfig(n_channels=32, n_regions=64, n_timepoints=128)


def keep_tape_backward(root):
    """The sweep of a backward that keeps the tape: every node holds its VJP,
    parents and gradient until the graph is dropped, and each first
    gradient a node receives is a copy."""
    topo, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    for node in topo:
        node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if g is None:
                continue
            if parent.grad is None:
                parent.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
            else:
                parent.grad = parent.grad + g


def read_only_backward(root):
    """Var.backward with every gradient made read-only before a VJP reads it,
    so a VJP that writes into its incoming gradient raises."""
    def frozen(vjp):
        def wrapped(g):
            g.setflags(write=False)
            return vjp(g)
        return wrapped

    stack, seen = [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._vjp is not None:
            node._vjp = frozen(node._vjp)
        stack.extend(node._parents)
    root.backward()


@pytest.fixture(scope="module")
def model_batch():
    rng = np.random.Generator(np.random.PCG64(11))
    return (fm.init_params(MODEL, seed=3), rng.standard_normal((16, 32, 128)),
            rng.standard_normal((16, 64, 128)))


def _model_step_grads(batch, sweep):
    params, X, S = batch
    pvars = fm._as_param_vars(params)
    sweep(fm.loss(fm.forward(X, pvars, MODEL), S))
    return {k: v.grad for k, v in pvars.items()}


def test_backward_grads_match_keep_tape_loop(model_batch):
    ref = _model_step_grads(model_batch, keep_tape_backward)
    for sweep in (ad.Var.backward, read_only_backward):
        grads = _model_step_grads(model_batch, sweep)
        assert all(np.array_equal(grads[k], ref[k]) for k in ref)


def test_backward_peak_memory_below_keep_tape_loop(model_batch):
    peaks = {}
    for sweep in (keep_tape_backward, ad.Var.backward):
        tracemalloc.start()
        try:
            _model_step_grads(model_batch, sweep)
            peaks[sweep] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[ad.Var.backward] <= 0.7 * peaks[keep_tape_backward], peaks


def test_ndarray_param_forward_builds_no_tape(model_batch):
    # ndarray params make every node a constant, so a b=1 forward frees each
    # activation once its consumers have run instead of holding the graph
    params, X, _ = model_batch
    peaks, outs = {}, {}
    for mode in ("tracked", "constant"):
        p = fm._as_param_vars(params) if mode == "tracked" else params
        tracemalloc.start()
        try:
            outs[mode] = fm.forward(X[0], p, MODEL)
            peaks[mode] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    np.testing.assert_array_equal(outs["constant"].data, outs["tracked"].data)
    assert outs["tracked"]._vjp is not None
    assert not outs["constant"].tracked and outs["constant"]._parents == ()
    assert peaks["constant"] <= 0.5 * peaks["tracked"], peaks


# one sha256 over a b=16 loss at MODEL's sizes, its gradients, and the b=1
# and b=5 forwards, printed by a fresh interpreter
_BLAS_HASH_SCRIPT = """
import hashlib
import numpy as np
import esikit.model as fm
cfg = fm.FairConfig(n_channels=32, n_regions=64, n_timepoints=128)
rng = np.random.Generator(np.random.PCG64(11))
params = fm.init_params(cfg, seed=3)
X, S = rng.standard_normal((16, 32, 128)), rng.standard_normal((16, 64, 128))
pvars = fm._as_param_vars(params)
lv = fm.loss(fm.forward(X, pvars, cfg), S)
lv.backward()
h = hashlib.sha256(lv.data.tobytes())
for k in sorted(pvars):
    h.update(k.encode() + pvars[k].grad.tobytes())
for x in (X[0], X[:5]):
    h.update(fm.forward(x, params, cfg).data.tobytes())
print(h.hexdigest())
"""


def test_bits_do_not_depend_on_blas_threads():
    src = str(Path(fm.__file__).resolve().parents[1])
    hashes = {}
    for n in (1, 2, 4):
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_HASH_SCRIPT], capture_output=True,
            text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(n)))
        assert proc.returncode == 0, proc.stderr
        hashes[n] = proc.stdout.strip()
    assert len(set(hashes.values())) == 1, hashes


# ---------------------------------------------------------------------------
# checkpoints / training


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    space = build_synthetic_source_space(8, 2, seed=0)
    lf = build_lead_field(space, 4, seed=1)
    cfg = SimulationConfig(snr_db=5.0, n_sources=1, extent=1, n_timepoints=32,
                           sample_rate=100.0, seed=0)
    manifest = generate_dataset(space, lf, [cfg], 24, root, seed_base=77)
    return load_manifest(manifest)


def test_checkpoint_round_trip(tmp_path):
    params = fm.init_params(TOY, seed=4)
    state = AdamState(lr=3e-4)
    fm.save_checkpoint(tmp_path / "ck", params, TOY, state, epoch=7)
    back_params, back_cfg, epoch, back_state = fm.load_checkpoint(tmp_path / "ck")
    assert back_cfg == TOY
    assert epoch == 7
    assert back_state.lr == 3e-4
    X = RNG.standard_normal((4, 32))
    a = fm.forward(X, params, TOY).data
    b = fm.forward(X, back_params, back_cfg).data
    np.testing.assert_allclose(a, b, atol=1e-4)   # f32 storage


def test_load_checkpoint_rejects_params_that_do_not_fit_the_config(tmp_path):
    short = fm.init_params(TOY, seed=4)
    del short["head.res_w"]
    for name, params in [("two_blocks", fm.init_params(replace(TOY, n_blocks=2), 4)),
                         ("wider", fm.init_params(replace(TOY, mlp_hidden=9), 4)),
                         ("short", short)]:
        fm.save_checkpoint(tmp_path / name, params, TOY, epoch=1)
        with pytest.raises(FormatError, match="do not fit"):
            fm.load_checkpoint(tmp_path / name)


def test_load_checkpoint_rejects_adam_moments_that_do_not_fit_the_params(tmp_path):
    # adam_step would die on such moments with a numpy broadcast error
    params = fm.init_params(TOY, seed=4)
    moment = {"head.up_b": np.zeros(3),               # up_b holds 8 regions
              "head.nope": np.zeros(8)}               # no such param
    for name in moment:
        state = AdamState(step=1, m={name: moment[name]}, v={name: moment[name]})
        fm.save_checkpoint(tmp_path / name, params, TOY, state, epoch=1)
        with pytest.raises(FormatError,
                           match=f"{name}: adam moments do not fit the checkpoint's params"):
            fm.load_checkpoint(tmp_path / name)


def test_load_checkpoint_drops_legacy_gru_hidden(tmp_path):
    params = fm.init_params(TOY, seed=4)
    fm.save_checkpoint(tmp_path / "ck", params, TOY, epoch=2)
    meta_path = tmp_path / "ck" / "model.json"
    meta = json.loads(meta_path.read_text())
    meta["config"]["gru_hidden"] = 0          # written before the key was removed
    meta_path.write_text(json.dumps(meta))
    _, cfg, epoch, _ = fm.load_checkpoint(tmp_path / "ck")
    assert cfg == TOY
    assert epoch == 2


def test_keep_freed_pages_sets_glibc_thresholds_once(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    musl = types.SimpleNamespace(mallopt=mallopt)
    glibc = types.SimpleNamespace(mallopt=mallopt, gnu_get_libc_version=lambda: b"2.36")
    for libc, expected in ((musl, []), (glibc, [(-3, 32 << 20), (-1, 256 << 20)])):
        fm._keep_freed_pages.cache_clear()
        monkeypatch.setattr(fm.ctypes, "CDLL", lambda name, libc=libc: libc)
        fm._keep_freed_pages()
        fm._keep_freed_pages()
        assert calls == expected
    fm._keep_freed_pages.cache_clear()


def test_train_best_val_monotone(tiny_dataset, tmp_path):
    res = fm.train(tiny_dataset, TOY, epochs=5, seed=0, out_dir=tmp_path)
    assert len(res.history) == 5
    best_so_far = float("inf")
    recorded_best = []
    for _, _, val, _ in res.history:
        best_so_far = min(best_so_far, val)
        recorded_best.append(best_so_far)
    assert recorded_best == sorted(recorded_best, reverse=True)
    assert res.best_val == pytest.approx(best_so_far)
    assert (res.checkpoint_dir / "model.json").exists()
    assert res.log_path.exists()


def test_train_plateau_halves_lr(tiny_dataset, tmp_path, monkeypatch):
    monkeypatch.setattr(fm, "evaluate_loss", lambda *a, **k: 1.0)
    res = fm.train(tiny_dataset, TOY, epochs=5, seed=0, out_dir=tmp_path,
                   plateau_patience=3)
    lrs = [h[3] for h in res.history]
    assert lrs[:4] == [TOY.lr] * 4            # stall counts epochs 2-4
    assert lrs[4] == pytest.approx(TOY.lr / 2)


def test_train_lr_floor(tiny_dataset, tmp_path, monkeypatch):
    monkeypatch.setattr(fm, "evaluate_loss", lambda *a, **k: 1.0)
    res = fm.train(tiny_dataset, TOY, epochs=6, seed=0, out_dir=tmp_path,
                   plateau_patience=1, lr_floor=TOY.lr / 2)
    assert min(h[3] for h in res.history) >= TOY.lr / 2


def test_train_determinism(tiny_dataset, tmp_path):
    r1 = fm.train(tiny_dataset, TOY, epochs=2, seed=5, out_dir=tmp_path / "a")
    r2 = fm.train(tiny_dataset, TOY, epochs=2, seed=5, out_dir=tmp_path / "b")
    assert r1.history == r2.history
    assert r1.log_path.read_bytes() == r2.log_path.read_bytes()


def test_train_resume_continues_epochs(tiny_dataset, tmp_path):
    r1 = fm.train(tiny_dataset, TOY, epochs=2, seed=6, out_dir=tmp_path)
    params, cfg, _, state = fm.load_checkpoint(r1.checkpoint_dir)
    r2 = fm.train(tiny_dataset, cfg, epochs=1, seed=6, out_dir=tmp_path,
                  start_epoch=r1.history[-1][0], params=params, adam_state=state)
    assert r2.history[0][0] == 3
    lines = r1.log_path.read_text().strip().splitlines()
    assert lines[0].startswith("epoch")
    assert len(lines) == 4                    # header + 3 epochs appended


def test_train_divergence_raises(tiny_dataset, tmp_path):
    params = fm.init_params(TOY, seed=0)
    params["head.res_w"][:] = np.nan
    with pytest.raises(DivergenceError):
        fm.train(tiny_dataset, TOY, epochs=1, seed=0, out_dir=tmp_path,
                 params=params)


def test_train_missing_split_raises(tmp_path):
    with pytest.raises(DataError):
        fm.train([], TOY, epochs=1, seed=0, out_dir=tmp_path)
