import numpy as np
import pytest

from esikit import autodiff as ad
from esikit import layers
from esikit.errors import ParameterError

RNG = np.random.Generator(np.random.PCG64(11))


def _sq(v):
    return ad.vsum(ad.mul(v, v))


def test_linear_identity():
    x = RNG.standard_normal((5, 4))
    out = layers.linear(x, np.eye(4), np.zeros(4)).data
    np.testing.assert_allclose(out, x, atol=1e-12)


def test_linear_matches_affine_oracle():
    x = RNG.standard_normal((3, 4))
    w = RNG.standard_normal((6, 4))
    b = RNG.standard_normal(6)
    np.testing.assert_allclose(layers.linear(x, w, b).data, x @ w.T + b, atol=1e-12)


def test_mlp_alternates_linear_elu():
    x = RNG.standard_normal((2, 3))
    w1, b1 = RNG.standard_normal((5, 3)), RNG.standard_normal(5)
    w2, b2 = RNG.standard_normal((4, 5)), RNG.standard_normal(4)
    out = layers.mlp(x, [(w1, b1), (w2, b2)]).data
    h = x @ w1.T + b1
    h = np.where(h >= 0, h, np.exp(h) - 1)
    np.testing.assert_allclose(out, h @ w2.T + b2, atol=1e-10)


# ---------------------------------------------------------------------------
# attention


def naive_attention(x, wq, wk, wv):
    q, k, v = x @ wq.T, x @ wk.T, x @ wv.T
    d = q.shape[-1]
    out = np.zeros_like(v)
    for i in range(x.shape[0]):
        scores = np.array([q[i] @ k[j] / np.sqrt(d) for j in range(x.shape[0])])
        scores = np.exp(scores - scores.max())
        w = scores / scores.sum()
        out[i] = sum(w[j] * v[j] for j in range(x.shape[0]))
    return out


def test_attention_single_token():
    x = RNG.standard_normal((1, 6))
    wq, wk = RNG.standard_normal((4, 6)), RNG.standard_normal((4, 6))
    wv = RNG.standard_normal((4, 6))
    out = layers.attention(x, wq, wk, wv).data
    np.testing.assert_allclose(out, x @ wv.T, atol=1e-10)


def test_attention_zero_logits_average():
    x = RNG.standard_normal((5, 6))
    wv = RNG.standard_normal((4, 6))
    out = layers.attention(x, np.zeros((4, 6)), np.zeros((4, 6)), wv).data
    mean_v = (x @ wv.T).mean(axis=0)
    np.testing.assert_allclose(out, np.tile(mean_v, (5, 1)), atol=1e-10)


def test_attention_matches_naive_oracle():
    x = RNG.standard_normal((4, 8))
    wq, wk, wv = (RNG.standard_normal((5, 8)) for _ in range(3))
    out = layers.attention(x, wq, wk, wv).data
    np.testing.assert_allclose(out, naive_attention(x, wq, wk, wv), atol=1e-8)


def test_attention_grad_check():
    x = 0.5 * RNG.standard_normal((3, 4))
    wq, wk, wv = (0.5 * RNG.standard_normal((4, 4)) for _ in range(3))
    err = ad.grad_check(
        lambda a, b, c, d: _sq(layers.attention(a, b, c, d)), [x, wq, wk, wv],
        h=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# GRU


def _gru_params(h, d_in, scale=0.4, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return (scale * rng.standard_normal((3 * h, d_in)),
            scale * rng.standard_normal((3 * h, h)),
            scale * rng.standard_normal(3 * h))


def naive_gru(x, w, u, b):
    """Scalar reference GRU over one sequence (T, d_in)."""
    h = w.shape[0] // 3
    wz, wr, wn = w[:h], w[h:2 * h], w[2 * h:]
    uz, ur, un = u[:h], u[h:2 * h], u[2 * h:]
    bz, br, bn = b[:h], b[h:2 * h], b[2 * h:]
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))
    hp = np.zeros(h)
    out = []
    for t in range(x.shape[0]):
        z = sig(wz @ x[t] + uz @ hp + bz)
        r = sig(wr @ x[t] + ur @ hp + br)
        n = np.tanh(wn @ x[t] + un @ (r * hp) + bn)
        hp = z * hp + (1 - z) * n
        out.append(hp.copy())
    return np.stack(out)


def test_gru_matches_naive_oracle():
    w, u, b = _gru_params(3, 4, seed=1)
    x = RNG.standard_normal((2, 6, 4))
    out = layers.gru_forward(x, w, u, b).data
    for i in range(2):
        np.testing.assert_allclose(out[i], naive_gru(x[i], w, u, b), atol=1e-10)


def _per_row(v, m):
    """(B, h) @ (h, k) as B stacked (1, h) @ (h, k) products."""
    return (v[:, None, :] @ m)[:, 0]


def three_matmul_gru(x, w, u, b, reverse=False):
    """The forward loop with one per-row hidden-to-hidden product per gate."""
    h = w.shape[0] // 3
    bsz, T, _ = x.shape
    xd = x[:, ::-1, :] if reverse else x
    uz, ur, un = u[:h], u[h:2 * h], u[2 * h:]
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))
    xw = xd @ w.T + b
    hs = np.empty((T + 1, bsz, h))
    hs[0] = 0.0
    for t in range(T):
        hp = hs[t]
        z = sig(xw[:, t, :h] + _per_row(hp, uz.T))
        r = sig(xw[:, t, h:2 * h] + _per_row(hp, ur.T))
        n = np.tanh(xw[:, t, 2 * h:] + _per_row(r * hp, un.T))
        hs[t + 1] = z * hp + (1.0 - z) * n
    out = hs[1:].transpose(1, 0, 2)
    return out[:, ::-1, :] if reverse else out


@pytest.mark.parametrize("bsz", [1, 16])
@pytest.mark.parametrize("reverse", [False, True])
def test_gru_bits_match_three_matmul_loop(bsz, reverse):
    # the model's sizes: h = n_regions // 2 = 32, d_in = 64, T = 128
    w, u, b = _gru_params(32, 64, scale=0.1, seed=6)
    x = RNG.standard_normal((bsz, 128, 64))
    out = layers.gru_forward(x, w, u, b, reverse=reverse).data
    assert np.array_equal(out, three_matmul_gru(x, w, u, b, reverse))


def in_loop_gru_input_grad(x, w, u, b, g, reverse=False):
    """BPTT with the input gradient of each step taken inside the time loop,
    after a forward loop with per-row recurrent products."""
    h = w.shape[0] // 3
    bsz, T, d_in = x.shape
    xd = x[:, ::-1, :] if reverse else x
    gg = g[:, ::-1, :] if reverse else g
    uz, ur, un = u[:h], u[h:2 * h], u[2 * h:]
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))
    xw = (xd @ w.T + b).transpose(1, 0, 2)
    hs = np.zeros((T + 1, bsz, h))
    zs, rs, ns = (np.empty((T, bsz, h)) for _ in range(3))
    for t in range(T):
        hp = hs[t]
        zr = sig(xw[t, :, :2 * h] + _per_row(hp, u[:2 * h].T))
        z, r = zr[:, :h], zr[:, h:]
        n = np.tanh(xw[t, :, 2 * h:] + _per_row(r * hp, un.T))
        zs[t], rs[t], ns[t] = z, r, n
        hs[t + 1] = z * hp + (1.0 - z) * n
    gx_rows = np.empty((T, bsz, d_in))
    carry = np.zeros((bsz, h))
    for t in range(T - 1, -1, -1):
        gh = gg[:, t, :] + carry
        hp, z, r, n = hs[t], zs[t], rs[t], ns[t]
        daz = gh * (hp - n) * z * (1.0 - z)
        dan = gh * (1.0 - z) * (1.0 - n * n)
        s = dan @ un
        dar = s * hp * r * (1.0 - r)
        carry = gh * z + daz @ uz + dar @ ur + s * r
        gx_rows[t] = daz @ w[:h] + dar @ w[h:2 * h] + dan @ w[2 * h:]
    gx = gx_rows.transpose(1, 0, 2)
    return gx[:, ::-1, :] if reverse else gx


@pytest.mark.parametrize("bsz", [1, 16])
@pytest.mark.parametrize("reverse", [False, True])
def test_gru_input_grad_bits_match_in_loop_matmuls(bsz, reverse):
    w, u, b = _gru_params(32, 64, scale=0.1, seed=7)
    x = RNG.standard_normal((bsz, 128, 64))
    g = RNG.standard_normal((bsz, 128, 32))
    xv = ad.Var(x)
    layers.gru_forward(xv, w, u, b, reverse=reverse).backward(g)
    assert np.array_equal(xv.grad, in_loop_gru_input_grad(x, w, u, b, g, reverse))


def test_gru_zero_weights_zero_output():
    x = RNG.standard_normal((1, 5, 3))
    out = layers.gru_forward(x, np.zeros((6, 3)), np.zeros((6, 2)),
                             np.zeros(6)).data
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_gru_reverse_is_time_flip():
    w, u, b = _gru_params(2, 3, seed=2)
    x = RNG.standard_normal((1, 7, 3))
    fwd_on_flipped = layers.gru_forward(x[:, ::-1, :].copy(), w, u, b).data
    rev = layers.gru_forward(x, w, u, b, reverse=True).data
    np.testing.assert_allclose(rev, fwd_on_flipped[:, ::-1, :], atol=1e-12)


def _bigru_params(h, d_in, scale=0.4, seed=0):
    fw, bw = _gru_params(h, d_in, scale, seed), _gru_params(h, d_in, scale, seed + 1)
    return {f"gru.{d}.{k}": v for d, wub in (("fw", fw), ("bw", bw))
            for k, v in zip("wub", wub)}


@pytest.mark.parametrize("bsz", [1, 16])
def test_bigru_bits_match_two_gru_forward_calls(bsz):
    # one loop for both directions: the same bits as one call per direction,
    # forward and backward, at the model's sizes
    params = _bigru_params(32, 64, scale=0.1, seed=8)
    x = RNG.standard_normal((bsz, 128, 64))
    g = RNG.standard_normal((bsz, 128, 64))
    runs = []
    for fused in (True, False):
        xv, pv = ad.Var(x), {k: ad.Var(v) for k, v in params.items()}
        if fused:
            out = layers.bigru(xv, pv)
        else:
            out = ad.concat([layers.gru_forward(
                xv, *(pv[f"gru.{d}.{k}"] for k in "wub"), reverse=d == "bw")
                for d in ("fw", "bw")], axis=-1)
        data = out.data.copy()
        out.backward(g)
        runs.append((data, xv.grad, {k: v.grad for k, v in pv.items()}))
    (out_a, gx_a, gp_a), (out_b, gx_b, gp_b) = runs
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(gx_a, gx_b)
    assert all(np.array_equal(gp_a[k], gp_b[k]) for k in params)


def test_bigru_rows_match_batch_one_runs():
    params = _bigru_params(32, 64, scale=0.1, seed=9)
    x = RNG.standard_normal((5, 128, 64))
    out = layers.bigru(x, params).data
    for i in range(len(x)):
        assert np.array_equal(out[i:i + 1], layers.bigru(x[i:i + 1], params).data)


def test_bigru_grad_check():
    params = _bigru_params(2, 3, seed=10)
    names = sorted(params)
    x = 0.5 * RNG.standard_normal((2, 4, 3))
    err = ad.grad_check(
        lambda xx, *ws: _sq(layers.bigru(xx, dict(zip(names, ws)))),
        [x] + [params[n] for n in names], h=1e-5)
    assert err < 1e-4


def test_bigru_single_step_directions_agree():
    w, u, b = _gru_params(2, 3, seed=3)
    params = {f"gru.{d}.{k}": v for d in ("fw", "bw")
              for k, v in zip(("w", "u", "b"), (w, u, b))}
    x = RNG.standard_normal((1, 1, 3))
    out = layers.bigru(x, params).data
    np.testing.assert_allclose(out[..., :2], out[..., 2:], atol=1e-12)


def test_bigru_shape():
    w, u, b = _gru_params(4, 5, seed=4)
    params = {f"gru.{d}.{k}": v for d in ("fw", "bw")
              for k, v in zip(("w", "u", "b"), (w, u, b))}
    out = layers.bigru(RNG.standard_normal((2, 9, 5)), params)
    assert out.shape == (2, 9, 8)


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_grad_check(reverse):
    w, u, b = _gru_params(2, 3, seed=5)
    x = 0.5 * RNG.standard_normal((2, 4, 3))
    err = ad.grad_check(
        lambda xx, ww, uu, bb: _sq(layers.gru_forward(xx, ww, uu, bb,
                                                      reverse=reverse)),
        [x, w, u, b], h=1e-5)
    assert err < 1e-4


def test_gru_shape_errors():
    with pytest.raises(ParameterError):
        layers.gru_forward(np.zeros((2, 3)), np.zeros((6, 3)), np.zeros((6, 2)),
                           np.zeros(6))
    with pytest.raises(ParameterError):
        layers.gru_forward(np.zeros((1, 2, 3)), np.zeros((7, 3)),
                           np.zeros((7, 2)), np.zeros(7))
    with pytest.raises(ParameterError):
        layers.gru_forward(np.zeros((1, 2, 4)), np.zeros((6, 3)),
                           np.zeros((6, 2)), np.zeros(6))
