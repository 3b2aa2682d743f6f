"""The learned source-imaging network and its training loop.

Pipeline per scalp fragment: max-abs normalization, overlapped patching,
then N refinement blocks, each combining a spectral view (FFT, per-part
temperature softmax, inverse FFT), a temporal view (temperature softmax
along time), a convex fusion of the two, and a patch-wise view (energy-based
key-patch selection, self-attention over the key patch, broadcast of the
attention summary, Conv/TransposeConv blocks). The head merges patches,
upsamples channels to the source space with a transposed convolution, adds
an MLP projection and a learned residual projection of the input, and runs
a BiGRU over time. :func:`forward` returns the estimate alone; the views
are public, so a block's intermediate grids are had by calling them.

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
from dataclasses import dataclass, asdict, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import layers
from .errors import ConfigError, DataError, DivergenceError, FormatError, ParameterError
from .nmm import iter_split
from .optim import AdamState, adam_step
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
        if not self.tau > 0:   # NaN too
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
    independently (reweighting the spectrum by that softmax if
    ``reweight``), inverse-transform, keep the real part."""
    spec = ad.fft(grid)
    w = ad.temp_softmax(spec, tau)
    return ad.ifft(ad.mul(spec, w) if reweight else w)


def temporal_refine(grid, tau):
    """Temperature softmax along the time axis of each patch."""
    return ad.temp_softmax(grid, tau)


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


def patch_refine(grid, params, prefix="block0."):
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


def fair_block(grid, params, cfg, block_idx=0):
    """One refinement pass on a Var grid; shape-preserving, so blocks stack."""
    p_s = spectral_refine(grid, cfg.tau, cfg.spectral_reweight) \
        if cfg.use_spectral else None
    p_t = temporal_refine(grid, cfg.tau) if cfg.use_temporal else None
    p_l = (fuse(p_s, p_t, cfg.alpha) if p_s is not None and p_t is not None
           else next((p for p in (p_s, p_t) if p is not None), grid))
    return patch_refine(p_l, params, f"block{block_idx}.") if cfg.use_patch else p_l


# ---------------------------------------------------------------------------
# full forward / loss


def _as_param_vars(params):
    """Tracked leaves for training: ``backward`` fills each one's ``.grad``."""
    return {k: ad.Var(v) for k, v in params.items()}


def check_fragment(x, cfg):
    """Raise ParameterError unless fragment ``x`` is (n_channels,
    n_timepoints), then DataError if it holds a non-finite value."""
    if x.shape != (cfg.n_channels, cfg.n_timepoints):
        raise ParameterError(
            f"fragment is {'x'.join(map(str, x.shape))}, config expects "
            f"{cfg.n_channels}x{cfg.n_timepoints}"
        )
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


def forward(X, params, cfg):
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
    # any shape but a stack's is checked whole, so the error names it
    for x in x_data if x_data.ndim == 3 else [x_data]:
        check_fragment(x, cfg)
    bsz, n_c, n_t = x_data.shape
    xn, scales = normalize_fragment(x_data)

    g = ad.as_var(extract_patches(xn, cfg.patch_len, cfg.overlap))
    for n in range(cfg.n_blocks):
        g = fair_block(g, params, cfg, block_idx=n)
    merged = merge_patches(g, cfg.overlap, n_t)              # (b, n_c, n_t)

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
    return s_hat


# Fragments per forward when a split is solved. Every row of a forward has
# the bits of a batch-1 forward, so any size gives the same estimates; the
# size trades speed for memory, as each extra fragment adds about 2.5 MiB of
# peak RSS.
SOLVE_BATCH = 2


def fair_solver(params, cfg):
    """The learned solver as :func:`solve_split` takes it: a batch of checked
    fragments is forwarded as one stack (see :data:`SOLVE_BATCH`)."""
    return (functools.partial(check_fragment, cfg=cfg),
            lambda xs: forward(np.stack(xs), params, cfg).data)


def solve_split(entries, solvers, n_regions):
    """Yield (sample, estimates) for every sample of a manifest's test split,
    in manifest order; ``estimates[j]`` is ``solvers[j]``'s estimate of it.

    A solver is a ``(check, solve)`` pair: ``check(x)`` raises its error for
    a fragment it cannot take; ``solve(xs)`` maps a list of checked fragments
    to their estimates. Each sample is read once, and its S and every check,
    in solver order, pass before the next is read; solves take SOLVE_BATCH.
    """
    samples = _checked_split(entries, "test", n_regions, [c for c, _ in solvers])
    while batch := list(itertools.islice(samples, SOLVE_BATCH)):
        xs = [sample.X for sample in batch]
        yield from zip(batch, zip(*(solve(xs) for _, solve in solvers)))


def _checked_split(entries, split, n_regions, checks):
    """Yield a split's samples in manifest order, each checked as it loads:
    its S for ``n_regions`` rows, then its X by each of ``checks``."""
    for sample in iter_split(entries, split, n_regions):
        for check in checks:
            check(sample.X)
        yield sample


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


_ADAM_SCALARS = ("lr", "beta1", "beta2", "eps", "weight_decay")


def save_checkpoint(out_dir, params, cfg, adam_state=None, epoch=None):
    """Write ``params/``, ``model.json`` (config and epoch) and, given an Adam
    state, its ``m/<param>``, ``v/<param>`` tensors in ``adam_moments/`` and
    its scalars in ``adam_state.json``; :func:`load_model` reads the first two,
    :func:`load_checkpoint` all four."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_tensor_dir(params, out_dir / "params")
    meta = {"config": asdict(cfg), "epoch": epoch}
    (out_dir / "model.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    if adam_state is not None:
        save_tensor_dir({f"{kind}/{k}": v for kind in "mv"
                         for k, v in getattr(adam_state, kind).items()},
                        out_dir / "adam_moments")
        scalars = {k: getattr(adam_state, k) for k in (*_ADAM_SCALARS, "step")}
        (out_dir / "adam_state.json").write_text(json.dumps(scalars, indent=2))


def load_model(in_dir):
    """(params, config, epoch) from ``params/`` and ``model.json`` of
    :func:`save_checkpoint`'s directory; FormatError unless the shapes fit."""
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
    return params, cfg, epoch


def load_checkpoint(in_dir):
    """:func:`load_model`'s three and the Adam state or None; FormatError
    unless ``m`` and ``v`` hold moments of the same params, in their shapes."""
    in_dir = Path(in_dir)
    params, cfg, epoch = load_model(in_dir)
    if not (in_dir / "adam_state.json").exists():
        return params, cfg, epoch, None
    adam_state = read_json(in_dir / "adam_state.json", lambda doc: AdamState(
        **{k: float(doc[k]) for k in _ADAM_SCALARS}, step=operator.index(doc["step"])))
    moments = load_tensor_dir(in_dir / "adam_moments")
    adam_state.m, adam_state.v = ({k[2:]: v.astype(np.float64) for k, v in moments.items()
                                   if k[:2] == kind} for kind in ("m/", "v/"))
    fitted = {k: params[k].shape for k in adam_state.m if k in params}
    if ({k: v.shape for k, v in moments.items()}
            != {f"{kind}/{k}": shape for kind in "mv" for k, shape in fitted.items()}):
        raise FormatError(f"{in_dir}: adam moments do not fit the checkpoint's params")
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


def _load_split(entries, split, cfg):
    samples = _checked_split(entries, split, cfg.n_regions,
                             [functools.partial(check_fragment, cfg=cfg)])
    xs, ss = zip(*((s.X, s.S) for s in samples))
    return np.stack(xs), np.stack(ss)


EVAL_BATCH = 32   # fragments per forward of the validation loss


def evaluate_loss(xs, ss, params, cfg):
    total = 0.0
    for i in range(0, len(xs), EVAL_BATCH):
        xb, sb = xs[i:i + EVAL_BATCH], ss[i:i + EVAL_BATCH]
        total += float(loss(forward(xb, params, cfg), sb).data) * len(xb)
    return total / len(xs)


def train(manifest_entries, cfg, epochs=30, *, seed, out_dir,
          start_epoch=0, params=None, adam_state=None,
          plateau_patience=3, lr_floor=1e-6):
    """Mini-batch Adam with plateau LR halving and best-val checkpointing."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    xs_train, ss_train = _load_split(manifest_entries, "train", cfg)
    xs_val, ss_val = _load_split(manifest_entries, "val", cfg)
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
            epoch_loss = 0.0
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
            train_loss = epoch_loss / len(order)
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
