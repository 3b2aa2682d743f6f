"""The learned source-imaging network and its training loop.

Pipeline per scalp fragment: max-abs normalization, overlapped patching,
then N refinement blocks, each combining a spectral view (FFT, per-part
temperature softmax, inverse FFT), a temporal view (temperature softmax
along time), a convex fusion of the two, and a patch-wise view (energy-based
key-patch selection, self-attention over the key patch, broadcast of the
attention summary, Conv/TransposeConv blocks). The head merges patches,
upsamples channels to the source space with a transposed convolution, adds
an MLP projection and a learned residual projection of the input, and runs
a BiGRU over time.

Each fragment's patch grid is (b, n_c, n_p, l). The spectral and temporal
views work along its l samples; the patch-wise view's convs, which take
NHWC grids and OIHW kernels, read it as it is, the samples as channels.

The broadcast summary plane is never materialized. A convolution is linear
in its input channels, so the first conv over the grid stacked with the
plane is the sum of a conv over each; and the plane is constant along the
patch axis, so its conv is a conv of the summary alone followed by a fixed
0/1 map onto the patches (see :func:`patch_refine`). The split is exact in
real arithmetic; in floating point it sums in another order.
"""

import csv
import ctypes
import functools
import itertools
import json
import operator
from dataclasses import dataclass, asdict, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import layers
from .errors import ConfigError, DataError, DivergenceError, FormatError, ParameterError
from .nmm import iter_split
from .optim import AdamState, adam_step, load_adam_state, save_adam_state
from .patches import extract_patches, merge_patches, normalize_fragment
from .tensorio import load_tensor_dir, read_json, save_tensor_dir


@dataclass(frozen=True)
class FairConfig:
    n_channels: int
    n_regions: int
    n_timepoints: int
    patch_len: int = 16
    overlap: int = 8
    tau: float = 0.1
    alpha: float = 0.5
    n_blocks: int = 1
    attention_dim: int = 16
    mlp_hidden: int = 64
    batch_size: int = 16
    lr: float = 1e-4
    weight_decay: float = 1e-5
    use_spectral: bool = True
    use_temporal: bool = True
    use_patch: bool = True
    spectral_reweight: bool = False   # multiply spectra by their softmax
                                      # instead of replacing them

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError("alpha must be in [0, 1]")
        if self.tau <= 0:
            raise ConfigError("tau must be > 0")
        for name in ("n_channels", "n_regions", "n_timepoints", "n_blocks",
                     "attention_dim", "mlp_hidden", "batch_size"):
            if operator.index(getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be >= 1")
        l = self.patch_len
        if l < 2 or l & (l - 1):
            raise ConfigError(f"patch_len must be a power of two >= 2, got {l}")
        if not (0 <= operator.index(self.overlap) < l):
            raise ConfigError(f"overlap must be in [0, {l}), got {self.overlap}")
        if self.n_regions % 2:
            raise ConfigError(
                "n_regions must be even: the BiGRU output (two directions of "
                f"n_regions // 2) must equal n_regions; got {self.n_regions}"
            )

    @property
    def upsample_stride(self):
        return int(np.ceil(self.n_regions / self.n_channels))

    @property
    def upsample_kernel(self):
        return self.upsample_stride + 2


@dataclass
class RefinementTrace:
    """Intermediate states of one refinement block, kept for inspection.

    ``P`` (the block's input), ``P_S``, ``P_T``, ``P_L`` (the spectral,
    temporal and fused views) and ``P_O`` (the output) are (b, n_c, n_p, l);
    ``key_indices`` is (b, n_c); ``attention_out`` is (b, n_c, l, d); ``P_A``,
    the first conv's input (``P_L`` stacked with the broadcast summary), is
    (b, n_c, n_p, 2l).
    """
    P: np.ndarray = None
    P_S: np.ndarray = None
    P_T: np.ndarray = None
    P_L: np.ndarray = None
    key_indices: np.ndarray = None
    attention_out: np.ndarray = None
    P_A: np.ndarray = None
    P_O: np.ndarray = None


# ---------------------------------------------------------------------------
# parameter initialization


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def init_params(cfg, seed):
    """All learnable tensors, uniform(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    rng = np.random.Generator(np.random.PCG64(seed))
    l = cfg.patch_len
    d = cfg.attention_dim
    c_in = 2 * l              # refined plane + broadcast attention plane
    c_mid = 2 * c_in
    h = cfg.n_regions // 2     # per BiGRU direction
    params = {}
    for n in range(cfg.n_blocks):
        pre = f"block{n}."
        params[pre + "attn.embed_w"] = _uniform(rng, (d,), 1)
        params[pre + "attn.embed_b"] = np.zeros(d)
        params[pre + "attn.wq"] = _uniform(rng, (d, d), d)
        params[pre + "attn.wk"] = _uniform(rng, (d, d), d)
        params[pre + "attn.wv"] = _uniform(rng, (d, d), d)
        params[pre + "attn.out_w"] = _uniform(rng, (1, d), d)
        params[pre + "attn.out_b"] = np.zeros(1)
        params[pre + "conv.w1"] = _uniform(rng, (c_mid, c_in, 3, 3), c_in * 9)
        params[pre + "conv.b1"] = np.zeros(c_mid)
        params[pre + "conv.ln1_gain"] = np.ones(c_mid)
        params[pre + "conv.ln1_bias"] = np.zeros(c_mid)
        params[pre + "conv.w2"] = _uniform(rng, (c_mid, l, 3, 3), c_mid * 9)
        params[pre + "conv.b2"] = np.zeros(l)
        params[pre + "conv.ln2_gain"] = np.ones(l)
        params[pre + "conv.ln2_bias"] = np.zeros(l)
    kh = cfg.upsample_kernel
    params["head.up_w"] = _uniform(rng, (1, 1, kh, 1), kh)
    params["head.up_b"] = np.zeros(cfg.n_regions)
    params["head.mlp_w1"] = _uniform(rng, (cfg.mlp_hidden, cfg.n_channels),
                                     cfg.n_channels)
    params["head.mlp_b1"] = np.zeros(cfg.mlp_hidden)
    params["head.mlp_w2"] = _uniform(rng, (cfg.n_regions, cfg.mlp_hidden),
                                     cfg.mlp_hidden)
    params["head.mlp_b2"] = np.zeros(cfg.n_regions)
    params["head.res_w"] = _uniform(rng, (cfg.n_regions, cfg.n_channels),
                                    cfg.n_channels)
    for direction in ("fw", "bw"):
        params[f"gru.{direction}.w"] = _uniform(rng, (3 * h, cfg.n_regions),
                                                cfg.n_regions)
        params[f"gru.{direction}.u"] = _uniform(rng, (3 * h, h), h)
        params[f"gru.{direction}.b"] = np.zeros(3 * h)
    return params


# ---------------------------------------------------------------------------
# refinement views


def spectral_refine(grid, tau, reweight=False):
    """FFT each patch, temperature-softmax the real and imaginary parts
    independently, inverse-transform, keep the real part."""
    re, im = ad.fft(grid)
    rs = ad.temp_softmax(re, tau, axis=-1)
    is_ = ad.temp_softmax(im, tau, axis=-1)
    if reweight:
        rs = ad.mul(re, rs)
        is_ = ad.mul(im, is_)
    return ad.ifft(rs, is_)


def temporal_refine(grid, tau):
    """Temperature softmax along the time axis of each patch."""
    return ad.temp_softmax(grid, tau, axis=-1)


def fuse(p_s, p_t, alpha):
    """Elementwise convex combination alpha*p_s + (1-alpha)*p_t."""
    if not (0.0 <= alpha <= 1.0):
        raise ParameterError("alpha must be in [0, 1]")
    a, b = ad.as_var(p_s), ad.as_var(p_t)
    if a.shape != b.shape:
        raise ParameterError("fuse: shapes differ")
    return ad.add(ad.mul(a, alpha), ad.mul(b, 1.0 - alpha))


def select_key_patch(grid):
    """Per-channel index of the patch with maximal sum of squared entries.

    Accepts an array (..., n_patches, l); ties break to the smallest index.
    """
    grid = np.asarray(grid)
    energy = np.sum(grid * grid, axis=-1)
    return np.argmax(energy, axis=-1)


def patch_refine(grid, params, cfg, prefix="block0.", trace=None):
    """Key-patch self-attention summary broadcast onto every patch of its
    channel, then Conv2D-ELU-LayerNorm and TransposeConv2D-ELU-LayerNorm
    over the channel x patch grid, restoring the input feature depth.

    The first conv's input is the refined grid and the summary plane
    stacked along the feature axis. The plane is never built: a conv is
    linear in its input channels, so it splits exactly into a conv of the
    grid with the first half of ``conv.w1`` plus a conv of the plane with
    the second half, and the plane repeats one value along the patch axis,
    so that term is :func:`_summary_conv` of the summary alone.
    """
    g = ad.as_var(grid)
    b, n_c, n_p, l = g.shape
    key_idx = select_key_patch(g.data)                  # (b, n_c)
    idx = np.broadcast_to(key_idx[:, :, None, None], (b, n_c, 1, l)).copy()
    key = ad.take_along(g, idx, axis=-2)                # (b, n_c, 1, l)
    tokens = ad.reshape(key, (b, n_c, l, 1))
    emb = ad.add(ad.mul(tokens, params[prefix + "attn.embed_w"]),
                 params[prefix + "attn.embed_b"])       # (b, n_c, l, d)
    att = layers.attention(emb, params[prefix + "attn.wq"],
                           params[prefix + "attn.wk"],
                           params[prefix + "attn.wv"])  # (b, n_c, l, d)
    summary = ad.reshape(layers.linear(att, params[prefix + "attn.out_w"],
                                       params[prefix + "attn.out_b"]),
                         (b, n_c, 1, l))
    w1 = params[prefix + "conv.w1"]
    h1 = ad.add(ad.conv2d(g, w1[:, :l], stride=1, padding=1),
                _summary_conv(summary, w1[:, l:], n_p))
    h1 = ad.add(h1, params[prefix + "conv.b1"])
    h1 = ad.layer_norm(ad.elu(h1), params[prefix + "conv.ln1_gain"],
                       params[prefix + "conv.ln1_bias"])
    h2 = ad.transpose_conv2d(h1, params[prefix + "conv.w2"], stride=1, padding=1)
    h2 = ad.add(h2, params[prefix + "conv.b2"])
    h2 = ad.layer_norm(ad.elu(h2), params[prefix + "conv.ln2_gain"],
                       params[prefix + "conv.ln2_bias"])
    if trace is not None:
        trace.key_indices = key_idx.copy()
        trace.attention_out = att.data.copy()
        plane = np.broadcast_to(summary.data, g.shape)
        trace.P_A = np.concatenate([g.data, plane], axis=-1)
    return h2


def _summary_conv(summary, kernel, n_p):
    """``conv2d(plane, kernel, padding=1)`` for the plane that repeats
    ``summary`` (b, h, 1, c_in) ``n_p`` times along its width axis.

    Each of the 3x3 kernel's columns j sees the same summary rows wherever
    it lands inside the plane, so one conv of the summary with the columns
    as separate output channels gives every column's term; ``edge[p, j]``
    then adds column j into output position p when it reads inside the
    plane rather than its zero padding.
    """
    b, h, _, _ = summary.shape
    c_out, c_in, kh, kw = kernel.shape
    cols = ad.reshape(ad.transpose(kernel, (3, 0, 1, 2)), (kw * c_out, c_in, kh, 1))
    terms = ad.conv2d(summary, cols, stride=1, padding=(1, 0))  # (b, h, 1, kw*c_out)
    terms = ad.reshape(terms, (b, h, kw, c_out))
    reads = np.arange(n_p)[:, None] + np.arange(kw) - 1
    edge = ((reads >= 0) & (reads < n_p)).astype(np.float64)    # (n_p, kw)
    return ad.matmul(edge, terms)                               # (b, h, n_p, c_out)


def fair_block(grid, params, cfg, block_idx=0, trace=None):
    """One refinement pass on a Var grid; shape-preserving, so blocks stack."""
    prefix = f"block{block_idx}."
    p_s = spectral_refine(grid, cfg.tau, cfg.spectral_reweight) \
        if cfg.use_spectral else None
    p_t = temporal_refine(grid, cfg.tau) if cfg.use_temporal else None
    if p_s is not None and p_t is not None:
        p_l = fuse(p_s, p_t, cfg.alpha)
    elif p_s is not None:
        p_l = p_s
    elif p_t is not None:
        p_l = p_t
    else:
        p_l = grid
    if trace is not None:
        trace.P = grid.data.copy()
        if p_s is not None:
            trace.P_S = p_s.data.copy()
        if p_t is not None:
            trace.P_T = p_t.data.copy()
        trace.P_L = p_l.data.copy()
    out = patch_refine(p_l, params, cfg, prefix, trace) if cfg.use_patch else p_l
    if trace is not None:
        trace.P_O = out.data.copy()
    return out


# ---------------------------------------------------------------------------
# full forward / loss


def _as_param_vars(params):
    """Tracked leaves for training: ``backward`` fills each one's ``.grad``."""
    return {k: v if isinstance(v, ad.Var) else ad.Var(v) for k, v in params.items()}


def _check_fragment_shape(shape, cfg):
    if shape != (cfg.n_channels, cfg.n_timepoints):
        raise ParameterError(
            f"fragment is {'x'.join(map(str, shape))}, config expects "
            f"{cfg.n_channels}x{cfg.n_timepoints}"
        )


def check_fragment(x, cfg):
    """Raise ParameterError unless fragment ``x`` is (n_channels,
    n_timepoints), then DataError if it holds a non-finite value."""
    _check_fragment_shape(x.shape, cfg)
    if not np.all(np.isfinite(x)):
        raise DataError("fragment contains non-finite values")


# glibc mallopt (parameter, value) pairs that the first forward sets
_MALLOPT = ((-3, 32 << 20),    # M_MMAP_THRESHOLD, the largest glibc takes on 64-bit
            (-1, 256 << 20))   # M_TRIM_THRESHOLD, above a b=16 step's peak


@functools.cache
def _keep_freed_pages():
    """Keep the arrays a forward or backward frees in the heap; a no-op
    off glibc.

    Every array of a step (the largest, an im2col block, is ~17 MiB at b=16)
    stays below the mmap threshold and the freed heap top below the trim
    threshold, so the next step reuses those pages instead of the kernel
    unmapping them and faulting them in again. Left to glibc's own dynamic
    thresholds, an array as large as the largest one freed so far is mapped
    anew on every call, so which arrays fault depends on their sizes.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version
    except (OSError, TypeError, AttributeError):
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT:
        libc.mallopt(param, value)


def forward(X, params, cfg, return_trace=False):
    """Scalp fragment(s) -> source estimate(s).

    X is an array (n_channels, n_timepoints) or a (batch, ...) stack;
    parameters may be ndarrays, which build no tape, or tracked Vars, which
    keep it for training. Returns a Var; ``.data`` is the estimate. Row i of
    a batch's estimate has the bits of the estimate of ``X[i]`` alone. The
    first call sets glibc's mmap and trim thresholds for the process (see
    :func:`_keep_freed_pages`).
    """
    _keep_freed_pages()
    x_data = np.asarray(X, dtype=np.float64)
    single = x_data.ndim == 2
    if single:
        x_data = x_data[None]
    # every fragment of a stack has one shape; normalize_fragment raises the
    # DataError of a non-finite value
    _check_fragment_shape(x_data.shape[1:] if x_data.ndim == 3 else x_data.shape,
                          cfg)
    bsz, n_c, n_t = x_data.shape
    xn, scales = normalize_fragment(x_data)

    grid = extract_patches(xn, cfg.patch_len, cfg.overlap)
    g = ad.as_var(grid.patches)
    trace = RefinementTrace() if return_trace else None
    for n in range(cfg.n_blocks):
        g = fair_block(g, params, cfg, block_idx=n,
                       trace=trace if n == cfg.n_blocks - 1 else None)
    merged = merge_patches(replace(grid, patches=g))         # (b, n_c, n_t)

    # transposed convolution upsamples the channel axis n_c -> n_s
    s = cfg.upsample_stride
    up = ad.transpose_conv2d(ad.reshape(merged, (bsz, n_c, n_t, 1)),
                             params["head.up_w"], stride=(s, 1), padding=0)
    up = ad.reshape(up[:, :cfg.n_regions], (bsz, cfg.n_regions, n_t))
    up = ad.add(up, ad.reshape(params["head.up_b"], (-1, 1)))
    up_t = ad.transpose(up, (0, 2, 1))                       # (b, n_t, n_s)

    xn_t = ad.transpose(xn, (0, 2, 1))                       # (b, n_t, n_c)
    mlp_t = layers.mlp(xn_t, [(params["head.mlp_w1"], params["head.mlp_b1"]),
                              (params["head.mlp_w2"], params["head.mlp_b2"])])
    res_t = layers.linear(xn_t, params["head.res_w"])

    h = ad.add(ad.add(up_t, mlp_t), res_t)
    s_hat_t = layers.bigru(h, params)                        # (b, n_t, n_s)
    s_hat = ad.transpose(s_hat_t, (0, 2, 1))
    s_hat = ad.mul(s_hat, scales[:, None, None])
    if single:
        s_hat = ad.reshape(s_hat, (cfg.n_regions, n_t))
    if return_trace:
        return s_hat, trace
    return s_hat


# Fragments per forward when a split is solved. Every row of a forward has
# the bits of a batch-1 forward, so any size gives the same estimates; the
# size trades speed for memory, as each extra fragment adds about 2.5 MiB of
# peak RSS.
SOLVE_BATCH = 2


def solve_split(entries, params, cfg):
    """Yield (sample, estimate) for every sample of a manifest's test split,
    in manifest order, forwarding SOLVE_BATCH fragments at a time.

    Each estimate has the bits of ``forward(sample.X, params, cfg).data``.
    Every fragment of a batch is checked, in order, before it is stacked,
    so a wrong shape or a non-finite value raises as a lone forward would.
    """
    samples = iter_split(entries, "test")
    while batch := list(itertools.islice(samples, SOLVE_BATCH)):
        for sample in batch:
            check_fragment(sample.X, cfg)
        s_hat = forward(np.stack([sample.X for sample in batch]), params, cfg).data
        yield from zip(batch, s_hat)


def loss(s_hat, s_true):
    """Squared Frobenius error divided by the region count; batches average."""
    sh = ad.as_var(s_hat)
    st = np.asarray(s_true, dtype=np.float64)
    if sh.shape != st.shape:
        raise ParameterError(f"loss: shapes differ, {sh.shape} vs {st.shape}")
    n_s = st.shape[-2]
    diff = sh - ad.as_var(st)
    sq = ad.mul(diff, diff)
    total = ad.vsum(sq)
    batch = int(np.prod(st.shape[:-2])) if st.ndim > 2 else 1
    return ad.mul(total, 1.0 / (n_s * batch))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(out_dir, params, cfg, adam_state=None, epoch=None):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_tensor_dir(params, out_dir / "params")
    meta = {"config": asdict(cfg), "epoch": epoch}
    (out_dir / "model.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    if adam_state is not None:
        save_adam_state(adam_state, out_dir)


def load_checkpoint(in_dir):
    in_dir = Path(in_dir)
    cfg, shapes, epoch = read_json(in_dir / "model.json", lambda meta: (
        cfg := FairConfig(**{k: v for k, v in dict(meta["config"]).items()
                             if k != "gru_hidden"}),   # in older checkpoints
        _param_shapes(cfg),
        None if meta.get("epoch") is None else operator.index(meta["epoch"])))
    params = {k: v.astype(np.float64)
              for k, v in load_tensor_dir(in_dir / "params").items()}
    if {k: v.shape for k, v in params.items()} != shapes:
        raise FormatError(f"{in_dir}: params do not fit the checkpoint's config")
    adam_state = load_adam_state(in_dir) if (in_dir / "adam_state.json").exists() else None
    return params, cfg, epoch, adam_state


@functools.cache   # init_params draws every param; localize loads a checkpoint per call
def _param_shapes(cfg):
    return {k: v.shape for k, v in init_params(cfg, 0).items()}


# ---------------------------------------------------------------------------
# training


PLATEAU_TOL = 1e-4    # relative val-loss gain that counts as progress


@dataclass
class TrainResult:
    checkpoint_dir: Path
    log_path: Path
    history: list = field(default_factory=list)   # (epoch, train, val, lr)
    best_val: float = float("inf")


def _load_split(manifest_entries, split):
    xs, ss = zip(*((s.X, s.S) for s in iter_split(manifest_entries, split)))
    return np.stack(xs), np.stack(ss)


def evaluate_loss(xs, ss, params, cfg, batch_size=32):
    total, count = 0.0, 0
    for i in range(0, len(xs), batch_size):
        xb, sb = xs[i:i + batch_size], ss[i:i + batch_size]
        lv = loss(forward(xb, params, cfg), sb)
        total += float(lv.data) * len(xb)
        count += len(xb)
    return total / count


def train(manifest_entries, cfg, epochs=30, *, seed, out_dir,
          start_epoch=0, params=None, adam_state=None,
          plateau_patience=3, lr_floor=1e-6):
    """Mini-batch Adam with plateau LR halving and best-val checkpointing."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    xs_train, ss_train = _load_split(manifest_entries, "train")
    xs_val, ss_val = _load_split(manifest_entries, "val")
    if params is None:
        params = init_params(cfg, seed)
    if adam_state is None:
        adam_state = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    result = TrainResult(checkpoint_dir=out_dir / "best",
                         log_path=out_dir / "train_log.csv")
    stall = 0
    # a resume appends to its log; a fresh run, or a resume into a new
    # directory, starts one with a header
    new_log = not start_epoch or not result.log_path.exists()
    with open(result.log_path, "w" if new_log else "a", newline="") as log_fh:
        writer = csv.writer(log_fh)
        if new_log:
            writer.writerow(["epoch", "train_loss", "val_loss", "lr"])
        for epoch in range(start_epoch + 1, start_epoch + epochs + 1):
            order = rng.permutation(len(xs_train))
            epoch_loss, seen = 0.0, 0
            for i in range(0, len(order), cfg.batch_size):
                batch = order[i:i + cfg.batch_size]
                pvars = _as_param_vars(params)
                lv = loss(forward(xs_train[batch], pvars, cfg), ss_train[batch])
                if not np.isfinite(lv.data):
                    raise DivergenceError(f"non-finite loss at epoch {epoch}")
                lv.backward()
                grads = {k: (v.grad if v.grad is not None else np.zeros_like(v.data))
                         for k, v in pvars.items()}
                adam_step(adam_state, params, grads)
                epoch_loss += float(lv.data) * len(batch)
                seen += len(batch)
            train_loss = epoch_loss / seen
            val_loss = evaluate_loss(xs_val, ss_val, params, cfg)
            if not np.isfinite(val_loss):
                raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
            writer.writerow([epoch, f"{train_loss:.8e}", f"{val_loss:.8e}",
                             f"{adam_state.lr:.3e}"])
            log_fh.flush()
            result.history.append((epoch, train_loss, val_loss, adam_state.lr))
            if val_loss < result.best_val * (1.0 - PLATEAU_TOL):
                result.best_val = val_loss
                stall = 0
                save_checkpoint(result.checkpoint_dir, params, cfg,
                                adam_state, epoch)
            else:
                stall += 1
                if stall >= plateau_patience:
                    adam_state.lr = max(lr_floor, adam_state.lr / 2.0)
                    stall = 0
    return result
