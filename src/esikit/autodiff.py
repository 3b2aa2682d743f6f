"""Reverse-mode numerical core on numpy arrays.

Each primitive is a forward computation plus a hand-derived vector-Jacobian
product; :class:`Var` only records the call order so backward replays the
VJPs. Arrays passed to a primitive are constants, and so is every node built
from constants alone: it keeps no VJP, so a graph without a tracked leaf
holds no tape. ``Var.backward`` consumes the graph it sweeps: intermediate
nodes give up their cached activations and gradients as soon as the sweep
has used them, only tracked leaves and the root keep ``.grad``, and the
graph cannot be swept twice. All math runs in float64. A central-difference
checker (:func:`grad_check`) guards every gradient.

Convolutions are channels-last: input and output grids are NHWC, (b, h, w,
c), and kernels are OIHW, (c_out, c_in, kh, kw). Transforms use ``np.fft``;
a spectrum is one real (..., 2, l) array, its real part stacked over its
imaginary part. Scatters (the conv adjoint ``col2im`` and overlap-add) are
strided slice-adds made in a fixed order, so their sums equal an
``np.add.at`` over the same flattened index bit for bit.
"""

import numpy as np

from .errors import ParameterError

# ---------------------------------------------------------------------------
# tape


def _consumed(g):
    raise ParameterError("backward() through a graph an earlier backward() consumed")


class Var:
    """An ndarray node on the backward tape.

    ``Var(x)`` is a tracked leaf: ``backward`` gives it a ``.grad``. A
    constant (``tracked`` False) never receives a gradient: :func:`as_var`
    makes one of every array it wraps, and a node whose parents are all
    constants becomes one too, dropping its VJP closure and the activations
    that closure cached.
    """

    __slots__ = ("data", "grad", "tracked", "_parents", "_vjp")

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.tracked = vjp is None or any(p.tracked for p in parents)
        if self.tracked:
            self._parents, self._vjp = parents, vjp
        else:
            self._parents, self._vjp = (), None

    @property
    def shape(self):
        return self.data.shape

    def backward(self, seed=None):
        """Accumulate gradients into every reachable tracked leaf, consuming
        the graph.

        The sweep neither visits constants nor hands gradients to them. It
        frees each node's VJP closure, parent links and gradient as soon as it
        has used them, so cached activations go as it runs. Tracked leaves
        (``Var(x)``) and this root keep their ``.grad``; a second ``backward``
        through the consumed graph raises. Gradients are passed on without a
        copy, so a ``.grad`` may be a view or shared with another leaf: copy
        it before writing into it.
        """
        if seed is None:
            if self.data.size != 1:
                raise ParameterError("backward() without seed needs a scalar output")
            seed = np.ones_like(self.data)
        topo, visited = [], set()
        stack = [(self, False)]
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
                if p.tracked and id(p) not in visited:
                    stack.append((p, False))
        for node in topo:
            node.grad = None
        self.grad = np.asarray(seed, dtype=np.float64)
        while topo:
            node = topo.pop()
            vjp, parents, grad = node._vjp, node._parents, node.grad
            if vjp is None:
                continue
            node._vjp, node._parents = _consumed, ()
            if node is not self:
                node.grad = None
            if grad is None:
                continue
            # no VJP writes into its incoming gradient, so a parent may hold
            # a VJP's output as is; order="C" keeps 0-d gradients 0-d
            for parent, g in zip(parents, vjp(grad)):
                if g is None or not parent.tracked:
                    continue
                if parent.grad is None:
                    parent.grad = np.asarray(g, order="C")
                else:
                    parent.grad = parent.grad + g

    # operator sugar (thin wrappers over module-level primitives)
    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __getitem__(self, key):
        return getitem(self, key)


def as_var(x):
    """``x`` itself if it is a ``Var``, else a constant holding it."""
    if isinstance(x, Var):
        return x
    v = Var(x)
    v.tracked = False
    return v


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and structural primitives


def add(a, b):
    a, b = as_var(a), as_var(b)
    out = a.data + b.data
    return Var(out, (a, b), lambda g: (
        _unbroadcast(g, a.shape) if a.tracked else None,
        _unbroadcast(g, b.shape) if b.tracked else None))


def mul(a, b):
    a, b = as_var(a), as_var(b)
    out = a.data * b.data
    return Var(out, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.shape) if a.tracked else None,
        _unbroadcast(g * a.data, b.shape) if b.tracked else None))


def matmul(a, b):
    a, b = as_var(a), as_var(b)
    out = a.data @ b.data
    return Var(out, (a, b), lambda g: (
        _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.tracked else None,
        _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.tracked else None))


def reshape(x, shape):
    x = as_var(x)
    return Var(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),))


def transpose(x, axes):
    x = as_var(x)
    inv = np.argsort(axes)
    return Var(x.data.transpose(axes), (x,), lambda g: (g.transpose(inv),))


def concat(parts, axis):
    parts = [as_var(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]
    out = np.concatenate([p.data for p in parts], axis=axis)
    return Var(out, tuple(parts), lambda g: tuple(
        gp if p.tracked else None
        for p, gp in zip(parts, np.split(g, splits, axis=axis))))


def getitem(x, key):
    """Basic indexing (slices, ints, Ellipsis, None), which selects each
    element at most once; gather with :func:`take_along` instead."""
    x = as_var(x)
    parts = key if isinstance(key, tuple) else (key,)
    if not all(k is None or k is Ellipsis
               or (isinstance(k, (slice, int, np.integer)) and not isinstance(k, bool))
               for k in parts):
        raise ParameterError("Var indexing takes basic keys only (slices, "
                             "ints, Ellipsis, None); gather with take_along")

    def vjp(g):
        gx = np.zeros(x.shape)
        gx[key] = g
        return (gx,)

    return Var(x.data[key], (x,), vjp)


def take_along(x, idx, axis):
    """Gather along ``axis`` with an integer index array (not differentiated)."""
    x = as_var(x)
    idx = np.asarray(idx)

    def vjp(g):
        gx = np.zeros(x.shape)
        np.put_along_axis(gx, idx, g, axis=axis)
        return (gx,)

    return Var(np.take_along_axis(x.data, idx, axis=axis), (x,), vjp)


def vsum(x, axis=None):
    x = as_var(x)
    out = x.data.sum(axis=axis)

    def vjp(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return Var(out, (x,), vjp)


def elu(x):
    """elu(x) = x for x >= 0, exp(x) - 1 otherwise.

    One exp and no mask: ``x - min(x, 0)`` is x where x >= 0 and +0.0 below,
    and ``a = 1 - exp(min(x, 0))`` is +0.0 where x >= 0 and exactly
    ``-(exp(x) - 1)`` below, so ``x - min(x, 0) - a`` is each branch bit for
    bit, ``-0.0`` included. Only x = -inf gives nan instead of -1.
    """
    x = as_var(x)
    m = np.minimum(x.data, 0.0)
    m += 0.0                            # -0.0 -> +0.0, so x - m keeps x's sign
    out = x.data - m
    np.exp(m, out=m)
    a = np.subtract(1.0, m, out=m)
    out -= a
    deriv = np.subtract(1.0, a, out=a)  # (exp(x) - 1) + 1 below 0, 1.0 above
    return Var(out, (x,), lambda g: (g * deriv,))


# ---------------------------------------------------------------------------
# softmax / layer norm


def temp_softmax(x, tau):
    """Temperature-scaled softmax along the last axis (max-subtracted)."""
    if tau <= 0:
        raise ParameterError(f"softmax temperature must be > 0, got {tau}")
    x = as_var(x)
    s = x.data / tau
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot) / tau,)

    return Var(s, (x,), vjp)


def layer_norm(x, gain, bias):
    """Normalize the last axis to zero mean / unit variance (eps 1e-5),
    then affine."""
    x, gain, bias = as_var(x), as_var(gain), as_var(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        ggain = _unbroadcast(g * xhat, gain.shape)
        gbias = _unbroadcast(g, bias.shape)
        gh = g * gain.data
        gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        return gx, ggain, gbias

    return Var(out, (x, gain, bias), vjp)


# ---------------------------------------------------------------------------
# FFT (numpy's pocketfft; the VJPs below are hand-derived)


def _check_fft_length(l):
    if l & (l - 1) or l == 0:
        raise ParameterError(f"FFT length must be a power of two, got {l}")


def _stack_parts(f):
    """The (..., 2, l) real/imaginary stack of complex ``f``, C-ordered
    whatever ``f``'s memory order, so softmax sums over it keep their bits."""
    spec = np.empty(f.shape[:-1] + (2, f.shape[-1]))
    spec[..., 0, :] = f.real
    spec[..., 1, :] = f.imag
    return spec


def _ifft_complex(spec):
    spec = np.asarray(spec, dtype=np.float64)
    _check_fft_length(spec.shape[-1])
    return np.fft.ifft(spec[..., 0, :] + 1j * spec[..., 1, :])


def ifft_imag_residue(spec):
    """L2 norm of the discarded imaginary part of the inverse transform."""
    return float(np.linalg.norm(_ifft_complex(spec).imag))


def fft(x):
    """Differentiable last-axis DFT of a real Var: its (..., 2, l) spectrum."""
    x = as_var(x)
    _check_fft_length(x.shape[-1])
    # d re_k / d x_n = cos(2*pi*n*k/l) and d im_k / d x_n = -sin(2*pi*n*k/l)
    # are symmetric in (n, k), so vjp(g) = Re(F g_re) + Im(F g_im)
    def vjp(g):
        f = np.fft.fft(g)
        return (f[..., 0, :].real + f[..., 1, :].imag,)

    return Var(_stack_parts(np.fft.fft(x.data)), (x,), vjp)


def ifft(spec):
    """Differentiable real part of the inverse DFT of a (..., 2, l) spectrum."""
    spec = as_var(spec)
    l = spec.shape[-1]
    return Var(_ifft_complex(spec.data).real.copy(), (spec,),
               lambda g: (_stack_parts(np.fft.fft(g)) / l,))


# ---------------------------------------------------------------------------
# 2-D convolution (NHWC input, OIHW kernel, cross-correlation) and its adjoint


def _pair(v):
    return (v, v) if np.isscalar(v) else tuple(v)


def _im2col(x, kh, kw, stride, pad):
    """The (b, ho, wo, c * kh * kw) columns of NHWC ``x``, each in (c, kh,
    kw) order like ``kernel.reshape(c_out, -1)``."""
    (sh, sw), (ph, pw) = _pair(stride), _pair(pad)
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows[:, ::sh, ::sw]                      # (b, ho, wo, c, kh, kw)
    return windows.reshape(windows.shape[:3] + (-1,))


def _col2im(cols, x_shape, kh, kw, stride, pad):
    # taps are added in k = i*kw + j order, the order a scatter over the
    # flattened (k, position) index uses, so every sum is bit-identical to
    # np.add.at
    b, h, w, c = x_shape
    (sh, sw), (ph, pw) = _pair(stride), _pair(pad)
    ho, wo = cols.shape[1:3]
    xp = np.zeros((b, h + 2 * ph, w + 2 * pw, c))
    cols = cols.reshape(b, ho, wo, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            xp[:, i:i + sh * (ho - 1) + 1:sh, j:j + sw * (wo - 1) + 1:sw] += cols[..., i, j]
    return xp[:, ph:h + ph, pw:w + pw]


def _correlate(x, kernel, stride, pad):
    """im2col then matmul, (b, h, w, c_in) -> (b, ho, wo, c_out), plus the columns."""
    co, _, kh, kw = kernel.shape
    cols = _im2col(x, kh, kw, stride, pad)
    b, ho, wo, n = cols.shape
    out = cols.reshape(b, ho * wo, n) @ kernel.reshape(co, n).T
    return out.reshape(b, ho, wo, co), cols


def _correlate_adjoint(y, kernel, x_shape, stride, pad):
    """Adjoint of :func:`_correlate`: matmul then col2im onto ``x_shape``."""
    b, ho, wo, co = y.shape
    _, _, kh, kw = kernel.shape
    cols = y.reshape(b, ho * wo, co) @ kernel.reshape(co, -1)
    return _col2im(cols.reshape(b, ho, wo, -1), x_shape, kh, kw, stride, pad)


def _kernel_grad(y, cols, k_shape):
    """y (conv side) times the input-side columns, summed over the batch
    and every position."""
    return (y.reshape(-1, k_shape[0]).T @ cols.reshape(-1, cols.shape[-1])).reshape(k_shape)


def conv2d(x, kernel, stride=1, padding=0):
    """Cross-correlation of NHWC input (b, h, w, c_in) with an OIHW kernel
    (c_out, c_in, kh, kw); returns (b, ho, wo, c_out)."""
    x, kernel = as_var(x), as_var(kernel)
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ParameterError("conv2d expects 4-D input and kernel")
    if x.shape[-1] != kernel.shape[1]:
        raise ParameterError(
            f"conv2d channel mismatch: input {x.shape[-1]}, kernel {kernel.shape[1]}"
        )
    out, cols = _correlate(x.data, kernel.data, stride, padding)
    return Var(out, (x, kernel), lambda g: (
        _correlate_adjoint(g, kernel.data, x.shape, stride, padding)
        if x.tracked else None,
        _kernel_grad(g, cols, kernel.shape) if kernel.tracked else None))


def transpose_conv2d(y, kernel, stride=1, padding=0):
    """Exact adjoint of :func:`conv2d` with the same kernel: maps the conv
    output space (b, ho, wo, c_out) back to the input space (b, h, w, c_in)."""
    y, kernel = as_var(y), as_var(kernel)
    if y.data.ndim != 4 or kernel.data.ndim != 4:
        raise ParameterError("transpose_conv2d expects 4-D input and kernel")
    if y.shape[-1] != kernel.shape[0]:
        raise ParameterError(
            f"transpose_conv2d channel mismatch: input {y.shape[-1]}, kernel {kernel.shape[0]}"
        )
    b, ho, wo, _ = y.shape
    _, ci, kh, kw = kernel.shape
    (sh, sw), (ph, pw) = _pair(stride), _pair(padding)
    x_shape = (b, sh * (ho - 1) + kh - 2 * ph, sw * (wo - 1) + kw - 2 * pw, ci)
    out = _correlate_adjoint(y.data, kernel.data, x_shape, stride, padding)

    def vjp(g):
        gy, gcols = _correlate(g, kernel.data, stride, padding)
        return (gy if y.tracked else None,
                _kernel_grad(y.data, gcols, kernel.shape) if kernel.tracked else None)

    return Var(out, (y, kernel), vjp)


# ---------------------------------------------------------------------------
# overlap-add (linear scatter of windows back onto a time axis)


def gather_windows(x, n_p, l, stride):
    """Adjoint of :func:`overlap_add`: the ``n_p`` length-``l`` windows
    (..., n_p, l) of x's last axis at starts ``stride * p``."""
    return x[..., stride * np.arange(n_p)[:, None] + np.arange(l)]


def overlap_add(grid, stride, n_out):
    """Add windows (..., n_p, l) onto a length-``n_out`` axis at starts
    ``stride * p``, in patch order."""
    grid = as_var(grid)
    n_p, l = grid.shape[-2:]
    if stride * (n_p - 1) + l > n_out:
        raise ParameterError("overlap_add: windows overrun the output axis")
    out = np.zeros(grid.shape[:-2] + (n_out,))
    for p in range(n_p):
        out[..., stride * p:stride * p + l] += grid.data[..., p, :]
    return Var(out, (grid,), lambda g: (gather_windows(g, n_p, l, stride),))


# ---------------------------------------------------------------------------
# gradient checker


def grad_check(f, inputs, h=1e-5, max_coords_per_input=None, seed=0):
    """Compare analytic gradients of scalar-valued ``f`` against central
    finite differences; returns the max relative discrepancy.

    ``inputs`` is a list of ndarrays; ``f`` receives matching Vars. When
    ``max_coords_per_input`` is set, a seeded random subset of coordinates
    is probed per input (for large compositions).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    base = [np.asarray(x, dtype=np.float64).copy() for x in inputs]
    vars_ = [Var(x) for x in base]
    out = f(*vars_)
    out.backward()

    def eval_at(xs):
        return float(f(*[as_var(x) for x in xs]).data)

    worst = 0.0
    for i, x in enumerate(base):
        analytic = vars_[i].grad
        if analytic is None:
            analytic = np.zeros_like(x)
        coords = list(np.ndindex(x.shape)) if x.shape else [()]
        if max_coords_per_input is not None and len(coords) > max_coords_per_input:
            pick = rng.choice(len(coords), size=max_coords_per_input, replace=False)
            coords = [coords[j] for j in pick]
        for c in coords:
            xs = [b.copy() for b in base]
            xs[i][c] += h
            fp = eval_at(xs)
            xs[i][c] -= 2.0 * h
            fm = eval_at(xs)
            numeric = (fp - fm) / (2.0 * h)
            a = float(analytic[c]) if x.shape else float(analytic)
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
