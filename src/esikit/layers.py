"""Composite differentiable layers built from the autodiff primitives:
linear/MLP, scaled dot-product attention, and (bi)directional GRU with
backprop-through-time supplied by the tape."""

import numpy as np

from . import autodiff as ad
from .errors import ParameterError


def linear(x, weight, bias=None):
    """x (..., d_in) @ weight (d_out, d_in)^T + bias."""
    x, weight = ad.as_var(x), ad.as_var(weight)
    out = ad.matmul(x, ad.transpose(weight, (1, 0)))
    if bias is not None:
        out = ad.add(out, bias)
    return out


def mlp(x, layers):
    """Alternating linear + ELU; no activation after the last layer.

    ``layers`` is a list of (weight, bias) pairs.
    """
    out = ad.as_var(x)
    for i, (w, b) in enumerate(layers):
        out = linear(out, w, b)
        if i + 1 < len(layers):
            out = ad.elu(out)
    return out


def attention(x, w_q, w_k, w_v):
    """Scaled dot-product self-attention over the trailing two axes.

    x: (..., seq_len, d_in); projections are (d, d_in) for Q/K and
    (d_v, d_in) for V. Returns (..., seq_len, d_v).
    """
    x = ad.as_var(x)
    q = linear(x, w_q)
    k = linear(x, w_k)
    v = linear(x, w_v)
    d = q.shape[-1]
    scores = ad.mul(ad.matmul(q, ad.transpose(k, _swap_last(k))), 1.0 / np.sqrt(d))
    weights = ad.temp_softmax(scores, tau=1.0)
    return ad.matmul(weights, v)


def _swap_last(x):
    axes = list(range(len(x.shape)))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)


def gru_forward(x, w, u, b, reverse=False):
    """Single-direction GRU over x (batch, T, d_in), as a fused primitive.

    Stacked weights hold the update (z), reset (r), and candidate (n)
    blocks: w (3h, d_in), u (3h, h), b (3h,). The candidate uses the
    reset-gated hidden state. The backward pass is hand-derived
    backprop-through-time over the cached gate activations.
    Returns (batch, T, h).
    """
    return _gru(x, [(w, u, b)], [reverse])


def bigru(x, params):
    """Bidirectional GRU; concatenates forward and backward hidden states.

    ``params`` maps "gru.fw.w|u|b" and "gru.bw.w|u|b" to Vars or ndarrays.
    Both directions step in one time loop and form one node.
    Returns (batch, T, 2h).
    """
    return _gru(x, [tuple(params[f"gru.{d}.{k}"] for k in "wub")
                    for d in ("fw", "bw")], [False, True])


def _gru(x, weights, reverse):
    """GRU directions over x (batch, T, d_in), all in one time loop.

    ``weights`` holds one stacked (w, u, b) triple per direction and
    ``reverse`` one flag each. The recurrent products are taken per row, as
    (1, h) @ (h, k) products stacked over directions and batch rows, so row
    i of a batch has the bits of a batch-1 run on sample i. Returns the
    directions' hidden states concatenated on the last axis.
    """
    xv = ad.as_var(x)
    if len(xv.shape) != 3:
        raise ParameterError("gru_forward expects (batch, T, d_in) input")
    bsz, T, d_in = xv.shape
    wvs = [tuple(ad.as_var(v) for v in wub) for wub in weights]
    h3 = wvs[0][0].shape[0]
    for wv, uv, bv in wvs:
        if (h3 % 3 or wv.shape[0] != h3 or uv.shape != (h3, h3 // 3)
                or bv.shape != (h3,)):
            raise ParameterError(
                "stacked GRU weights must be (3h, d_in), (3h, h), (3h,)")
        if wv.shape[1] != d_in:
            raise ParameterError(f"GRU input dim {d_in} != weight dim {wv.shape[1]}")
    h, n_dir = h3 // 3, len(wvs)
    U = np.stack([uv.data for _, uv, _ in wvs])            # (D, 3h, h)
    xds = [xv.data[:, ::-1, :] if rev else xv.data for rev in reverse]
    xw = np.empty((n_dir, bsz, T, h3))          # input-to-hidden, every step
    for k, (xd, (wv, _, bv)) in enumerate(zip(xds, wvs)):
        np.matmul(xd, wv.data.T, out=xw[k])
        xw[k] += bv.data
    uzr_t = U[:, None, :2 * h].swapaxes(-1, -2)            # (D, 1, h, 2h)
    un_t = U[:, None, 2 * h:].swapaxes(-1, -2)             # (D, 1, h, h)

    zs = np.empty((T, n_dir, bsz, 1, h))
    rs = np.empty((T, n_dir, bsz, 1, h))
    ns = np.empty((T, n_dir, bsz, 1, h))
    hs = np.empty((T + 1, n_dir, bsz, 1, h))
    hs[0] = 0.0
    for t in range(T):
        hp = hs[t]
        # z and r from one product per row
        zr = 1.0 / (1.0 + np.exp(-(xw[:, :, t, None, :2 * h] + hp @ uzr_t)))
        z, r = zr[..., :h], zr[..., h:]
        n = np.tanh(xw[:, :, t, None, 2 * h:] + (r * hp) @ un_t)
        zs[t], rs[t], ns[t] = z, r, n
        hs[t + 1] = z * hp + (1.0 - z) * n
    outs = [hs[1:, k, :, 0].transpose(1, 0, 2) for k in range(n_dir)]
    out = np.concatenate([o[:, ::-1, :] if rev else o
                          for o, rev in zip(outs, reverse)], axis=-1)

    def vjp(g):
        # (D, T, B, h), each direction in its own time order
        gg = np.stack([(g[:, ::-1, k * h:(k + 1) * h] if rev
                        else g[:, :, k * h:(k + 1) * h]).transpose(1, 0, 2)
                       for k, rev in enumerate(reverse)])
        hs_, zs_, rs_, ns_ = (a.reshape(len(a), n_dir, bsz, h)
                              for a in (hs, zs, rs, ns))
        uz, ur, un = U[:, :h], U[:, h:2 * h], U[:, 2 * h:]
        d_az = np.empty((n_dir, T, bsz, h))
        d_ar = np.empty((n_dir, T, bsz, h))
        d_an = np.empty((n_dir, T, bsz, h))
        carry = np.zeros((n_dir, bsz, h))
        # the recurrent products here stay one (B, h) @ (h, h) matmul per
        # direction: only the forward output is promised batch-invariant
        for t in range(T - 1, -1, -1):
            gh = gg[:, t] + carry
            hp, z, r, n = hs_[t], zs_[t], rs_[t], ns_[t]
            daz = gh * (hp - n) * z * (1.0 - z)
            dan = gh * (1.0 - z) * (1.0 - n * n)
            s = dan @ un
            dar = s * hp * r * (1.0 - r)
            carry = gh * z + daz @ uz + dar @ ur + s * r
            d_az[:, t], d_ar[:, t], d_an[:, t] = daz, dar, dan
        gx = None
        grads = []
        for k, rev in enumerate(reverse):
            # the input gradient of every step after the loop, as three
            # stacked matmuls; each step's slice is the (B, h) @ (h, d_in)
            # product the loop would take, so the bits match at every batch
            # size, B=1 too
            wk = wvs[k][0].data
            gx_k = (d_az[k] @ wk[:h] + d_ar[k] @ wk[h:2 * h]
                    + d_an[k] @ wk[2 * h:]).transpose(1, 0, 2)
            gx_k = gx_k[:, ::-1, :] if rev else gx_k
            gx = gx_k if gx is None else gx + gx_k
            daz_f, dar_f, dan_f = (d[k].reshape(-1, h) for d in (d_az, d_ar, d_an))
            d_all = np.concatenate([daz_f, dar_f, dan_f], axis=1)   # (T*B, 3h)
            x_flat = xds[k].transpose(1, 0, 2).reshape(-1, d_in)
            hp_flat = hs_[:-1, k].reshape(-1, h)
            rhp_flat = (rs_[:, k] * hs_[:-1, k]).reshape(-1, h)
            gu = np.concatenate([daz_f.T @ hp_flat, dar_f.T @ hp_flat,
                                 dan_f.T @ rhp_flat], axis=0)
            grads += [d_all.T @ x_flat, gu, d_all.sum(axis=0)]
        return (gx, *grads)

    return ad.Var(out, (xv, *(v for wub in wvs for v in wub)), vjp)
