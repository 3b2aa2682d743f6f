import numpy as np
import pytest

from esikit import autodiff as ad
from esikit.errors import ParameterError

RNG = np.random.Generator(np.random.PCG64(42))


def naive_dft(x):
    """O(l^2) reference DFT of a real vector."""
    l = len(x)
    n = np.arange(l)
    ang = -2.0 * np.pi * np.outer(n, n) / l
    return np.cos(ang) @ x, np.sin(ang) @ x


# ---------------------------------------------------------------------------
# FFT forward values


def test_fft_dc_only():
    x = np.full(16, 3.0)
    re, im = ad.fft(x).data
    expected = np.zeros(16)
    expected[0] = 16 * 3.0
    np.testing.assert_allclose(re, expected, atol=1e-12)
    np.testing.assert_allclose(im, 0.0, atol=1e-12)


def test_fft_matches_naive_dft():
    for _ in range(50):
        x = RNG.standard_normal(16)
        re, im = ad.fft(x).data
        nre, nim = naive_dft(x)
        np.testing.assert_allclose(re, nre, atol=1e-9)
        np.testing.assert_allclose(im, nim, atol=1e-9)


def test_fft_round_trip():
    for _ in range(50):
        x = RNG.standard_normal(32)
        np.testing.assert_allclose(ad.ifft(ad.fft(x)).data, x, atol=1e-10)


def test_fft_parseval():
    for _ in range(20):
        x = RNG.standard_normal(16)
        re, im = ad.fft(x).data
        assert abs(np.sum(x * x) - np.sum(re * re + im * im) / 16) < 1e-9


def test_fft_batched_leading_axes():
    x = RNG.standard_normal((3, 5, 8))
    spec = ad.fft(x).data
    assert spec.shape == (3, 5, 2, 8) and spec.flags.c_contiguous
    re, im = spec[..., 0, :], spec[..., 1, :]
    for i in range(3):
        for j in range(5):
            nre, nim = naive_dft(x[i, j])
            np.testing.assert_allclose(re[i, j], nre, atol=1e-9)
            np.testing.assert_allclose(im[i, j], nim, atol=1e-9)


def test_fft_rejects_non_power_of_two():
    with pytest.raises(ParameterError):
        ad.fft(np.zeros(12))
    with pytest.raises(ParameterError):
        ad.ifft(np.zeros((2, 12)))
    with pytest.raises(ParameterError):
        ad.ifft_imag_residue(np.zeros((2, 12)))


def test_ifft_imag_residue_zero_for_real_signal_spectrum():
    x = RNG.standard_normal(16)
    assert ad.ifft_imag_residue(ad.fft(x).data) < 1e-10


# ---------------------------------------------------------------------------
# softmax / layer norm values


def test_temp_softmax_uniform_input():
    out = ad.temp_softmax(np.zeros(8), tau=0.37).data
    np.testing.assert_allclose(out, 1.0 / 8, atol=1e-12)


def test_temp_softmax_winner_take_all():
    out = ad.temp_softmax(np.array([4.0, 0.0, 0.0, 0.0]), tau=0.1).data
    assert out[0] > 1.0 - 1e-15
    assert abs(out.sum() - 1.0) < 1e-9


def test_temp_softmax_shift_invariance():
    x = RNG.standard_normal(10)
    a = ad.temp_softmax(x, tau=0.5).data
    b = ad.temp_softmax(x + 100.0, tau=0.5).data
    np.testing.assert_allclose(a, b, atol=1e-9)
    assert np.all(a > 0)


def test_temp_softmax_rejects_nonpositive_tau():
    with pytest.raises(ParameterError):
        ad.temp_softmax(np.zeros(4), tau=0.0)
    with pytest.raises(ParameterError):
        ad.temp_softmax(np.zeros(4), tau=-1.0)


def test_layer_norm_normalizes_last_axis():
    x = RNG.standard_normal((5, 12)) * 3 + 2
    out = ad.layer_norm(x, np.ones(12), np.zeros(12)).data
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-7)
    assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-4)


def test_elu_values():
    x = np.array([-50.0, -1.0, 0.0, 1.0])
    out = ad.elu(x).data
    np.testing.assert_allclose(out, [np.exp(-50) - 1, np.exp(-1) - 1, 0.0, 1.0],
                               atol=1e-12)


def test_elu_bits_match_select_and_keep_signed_zero():
    # the masked two-select form, against the mask-free one exp of ad.elu
    x = RNG.standard_normal(1000)
    x[:6] = [-0.0, 0.0, -1e-300, 1e-300, -1e-17, np.nan]
    neg = np.exp(np.minimum(x, 0.0)) - 1.0
    ref_out = np.where(x >= 0.0, x, neg)
    ref_deriv = np.where(x >= 0.0, 1.0, neg + 1.0)
    xv = ad.Var(x)
    y = ad.elu(xv)
    y.backward(np.ones_like(x))
    assert np.array_equal(y.data, ref_out, equal_nan=True)
    assert np.array_equal(np.signbit(y.data), np.signbit(ref_out))
    assert np.signbit(y.data[0]) and not np.signbit(y.data[2])
    assert np.array_equal(xv.grad, ref_deriv, equal_nan=True)


# ---------------------------------------------------------------------------
# convolution values and adjointness


def test_conv2d_identity_kernel():
    x = RNG.standard_normal((2, 5, 7, 3))
    k = np.zeros((3, 3, 1, 1))
    for c in range(3):
        k[c, c, 0, 0] = 1.0
    np.testing.assert_allclose(ad.conv2d(x, k).data, x, atol=1e-12)


def test_conv2d_ones_kernel_constant_interior():
    x = np.full((1, 6, 6, 1), 2.0)
    k = np.ones((1, 1, 3, 3))
    out = ad.conv2d(x, k, stride=1, padding=1).data
    np.testing.assert_allclose(out[0, 1:-1, 1:-1, 0], 18.0, atol=1e-12)


def test_conv2d_matches_scipy_correlate():
    from scipy.signal import correlate2d

    x = RNG.standard_normal((1, 8, 9, 1))
    k = RNG.standard_normal((1, 1, 3, 3))
    out = ad.conv2d(x, k, stride=1, padding=1).data
    ref = correlate2d(x[0, :, :, 0], k[0, 0], mode="same")
    np.testing.assert_allclose(out[0, :, :, 0], ref, atol=1e-10)


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
def test_conv_pair_matches_definition(stride, padding):
    # out[b, y, x, o] = sum over taps (i, j) and channels c of
    # x_pad[b, y*s + i, x*s + j, c] * k[o, c, i, j], written as loops over
    # output pixels and taps; the transpose scatters the same products back
    rng = np.random.Generator(np.random.PCG64(8))
    x = rng.standard_normal((2, 7, 5, 3))
    k = rng.standard_normal((4, 3, 3, 3))
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho = (xp.shape[1] - 3) // stride + 1
    wo = (xp.shape[2] - 3) // stride + 1
    y = rng.standard_normal((2, ho, wo, 4))
    ref = np.zeros((2, ho, wo, 4))
    ref_t = np.zeros(xp.shape)
    for r in range(ho):
        for c in range(wo):
            for i in range(3):
                for j in range(3):
                    px = xp[:, r * stride + i, c * stride + j]        # (b, c_in)
                    ref[:, r, c] += px @ k[:, :, i, j].T
                    ref_t[:, r * stride + i, c * stride + j] += y[:, r, c] @ k[:, :, i, j]
    ref_t = ref_t[:, padding:xp.shape[1] - padding, padding:xp.shape[2] - padding]
    out = ad.conv2d(x, k, stride=stride, padding=padding).data
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
    back = ad.transpose_conv2d(y, k, stride=stride, padding=padding).data
    assert back.shape == ref_t.shape
    np.testing.assert_allclose(back, ref_t, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), ((2, 1), (1, 0))])
def test_transpose_conv_is_adjoint(stride, padding):
    # sizes chosen so the conv consumes the full (padded) input and the
    # transpose reconstruction is shape-exact
    x = RNG.standard_normal((2, 9, 9, 3))
    k = RNG.standard_normal((4, 3, 3, 3))
    y = ad.conv2d(x, k, stride=stride, padding=padding).data
    g = RNG.standard_normal(y.shape)
    back = ad.transpose_conv2d(g, k, stride=stride, padding=padding).data
    lhs = float(np.sum(y * g))
    rhs = float(np.sum(x * back))
    assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


# reference scatters: the np.add.at index math the slice-add kernels replace


def _ref_col2im(cols, x_shape, kh, kw, stride, pad):
    # cols is (b, ho * wo, c * kh * kw), each column in (c, kh, kw) order
    b, h, w, c = x_shape
    (sh, sw), (ph, pw) = ad._pair(stride), ad._pair(pad)
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    rows = sh * np.repeat(np.arange(ho), wo)[None, :] + np.repeat(np.arange(kh), kw)[:, None]
    colsx = sw * np.tile(np.arange(wo), ho)[None, :] + np.tile(np.arange(kw), kh)[:, None]
    xp = np.zeros((b, h + 2 * ph, w + 2 * pw, c))
    np.add.at(xp, (slice(None), rows, colsx, slice(None)),
              cols.reshape(b, ho * wo, c, kh * kw).transpose(0, 3, 1, 2))
    return xp[:, ph:h + ph, pw:w + pw]


def _ref_overlap_add(grid, stride, n_out):
    n_p, l = grid.shape[-2:]
    pos = stride * np.arange(n_p)[:, None] + np.arange(l)[None, :]
    out = np.zeros(grid.shape[:-2] + (n_out,))
    np.add.at(out, (..., pos.ravel()), grid.reshape(grid.shape[:-2] + (n_p * l,)))
    return out


# (NHWC conv input shape, kernel shape, stride, padding)
SCATTER_CASES = [
    ((2, 32, 15, 32), (64, 32, 3, 3), 1, 1),         # refinement conv pair
    ((2, 66, 128, 1), (1, 1, 4, 1), (2, 1), 0),      # head upsampler
    ((2, 9, 10, 3), (4, 3, 3, 2), 2, 1),             # non-square kernel, stride 2
]


@pytest.mark.parametrize("x_shape,k_shape,stride,padding", SCATTER_CASES)
def test_col2im_bit_identical_to_scatter(x_shape, k_shape, stride, padding):
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.standard_normal(x_shape)
    k = rng.standard_normal(k_shape)
    co, ci, kh, kw = k_shape
    w2 = k.reshape(co, ci * kh * kw)
    xv = ad.Var(x)
    y = ad.conv2d(xv, k, stride=stride, padding=padding)
    g = rng.standard_normal(y.shape)
    y.backward(g)
    g2 = g.reshape(x_shape[0], -1, co)
    ref_gx = _ref_col2im(g2 @ w2, x_shape, kh, kw, stride, padding)
    assert np.array_equal(xv.grad, ref_gx)
    # transpose_conv2d's forward is the same scatter of the same columns
    out = ad.transpose_conv2d(g, k, stride=stride, padding=padding).data
    assert np.array_equal(out, ref_gx)


@pytest.mark.parametrize("x_shape,k_shape,stride,padding", SCATTER_CASES)
def test_conv_pair_shares_maps(x_shape, k_shape, stride, padding):
    # conv2d and transpose_conv2d are each other's adjoint: each one's
    # forward is the other's input gradient, and with the seeds swapped
    # their kernel gradients are the same sum
    rng = np.random.Generator(np.random.PCG64(6))
    x = rng.standard_normal(x_shape)
    k = rng.standard_normal(k_shape)
    xv, kc = ad.Var(x), ad.Var(k)
    y = ad.conv2d(xv, kc, stride=stride, padding=padding)
    g = rng.standard_normal(y.shape)
    y.backward(g)
    gv, kt = ad.Var(g), ad.Var(k)
    t = ad.transpose_conv2d(gv, kt, stride=stride, padding=padding)
    t.backward(x)
    assert np.array_equal(y.data, gv.grad)
    assert np.array_equal(t.data, xv.grad)
    assert np.array_equal(kc.grad, kt.grad)


@pytest.mark.parametrize("n_p,l,stride,extra", [(6, 4, 2, 0), (5, 4, 4, 0), (7, 8, 3, 5)])
def test_overlap_add_bit_identical_to_scatter(n_p, l, stride, extra):
    rng = np.random.Generator(np.random.PCG64(n_p))
    grid = rng.standard_normal((2, 3, n_p, l))
    n_out = stride * (n_p - 1) + l + extra
    out = ad.overlap_add(grid, stride, n_out).data
    assert np.array_equal(out, _ref_overlap_add(grid, stride, n_out))


def test_conv2d_channel_mismatch():
    with pytest.raises(ParameterError):
        ad.conv2d(np.zeros((1, 4, 4, 2)), np.zeros((1, 3, 3, 3)))


# ---------------------------------------------------------------------------
# gradient checks: every primitive


def _sq(v):
    return ad.vsum(ad.mul(v, v))


@pytest.mark.parametrize("trial", range(10))
def test_grad_elementwise_ops(trial):
    rng = np.random.Generator(np.random.PCG64(trial))
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    err = ad.grad_check(lambda x, y: _sq(ad.add(ad.mul(x, y), x)), [a, b])
    assert err < 1e-6


def test_grad_broadcasting():
    a = RNG.standard_normal((3, 4))
    b = RNG.standard_normal((4,))
    assert ad.grad_check(lambda x, y: _sq(ad.add(x, y)), [a, b]) < 1e-6
    assert ad.grad_check(lambda x, y: _sq(ad.mul(x, y)), [a, b]) < 1e-6


def test_grad_matmul():
    a = RNG.standard_normal((3, 4))
    b = RNG.standard_normal((4, 5))
    assert ad.grad_check(lambda x, y: _sq(ad.matmul(x, y)), [a, b]) < 1e-6


def test_grad_structural_ops():
    x = RNG.standard_normal((2, 3, 4))
    assert ad.grad_check(lambda v: _sq(ad.reshape(v, (6, 4))), [x]) < 1e-7
    assert ad.grad_check(lambda v: _sq(ad.transpose(v, (2, 0, 1))), [x]) < 1e-7
    assert ad.grad_check(lambda v: _sq(v[..., 1:3]), [x]) < 1e-7
    assert ad.grad_check(
        lambda v: _sq(ad.concat([v, ad.mul(v, 2.0)], axis=1)), [x]) < 1e-7


def test_getitem_advanced_key_raises():
    v = ad.Var(np.zeros((3, 4)))
    with pytest.raises(ParameterError, match="take_along"):
        v[:, [0, 2]]


def test_grad_getitem_basic_and_advanced_keys():
    x = RNG.standard_normal((3, 4, 5))
    assert ad.grad_check(lambda v: _sq(v[1, :, None, 1:4:2]), [x]) < 1e-7
    for key in ((slice(None), [0, 2, 2]), np.array([True, False, True]), True):
        with pytest.raises(ParameterError, match="take_along"):
            ad.Var(x)[key]


def test_grad_take_along():
    x = RNG.standard_normal((2, 5, 4))
    idx = RNG.integers(0, 5, (2, 1, 4))
    assert ad.grad_check(lambda v: _sq(ad.take_along(v, idx, axis=1)), [x]) < 1e-7


def test_grad_reductions():
    x = RNG.standard_normal((3, 5))
    assert ad.grad_check(lambda v: ad.vsum(v), [x]) < 1e-7
    assert ad.grad_check(lambda v: _sq(ad.vsum(v, axis=1)), [x]) < 1e-7


@pytest.mark.parametrize("op", [ad.elu, lambda v: ad.temp_softmax(v, tau=1.0)],
                         ids=["elu", "temp_softmax"])
def test_grad_activations(op):
    for trial in range(10):
        rng = np.random.Generator(np.random.PCG64(100 + trial))
        x = rng.standard_normal((4, 6))
        assert ad.grad_check(lambda v: _sq(op(v)), [x]) < 1e-5


def test_grad_temp_softmax():
    for trial in range(10):
        rng = np.random.Generator(np.random.PCG64(200 + trial))
        x = rng.standard_normal((3, 8))
        err = ad.grad_check(lambda v: _sq(ad.temp_softmax(v, tau=0.5)), [x])
        assert err < 1e-5


def test_grad_temp_softmax_paper_temperature():
    x = 0.2 * RNG.standard_normal(8)
    err = ad.grad_check(lambda v: _sq(ad.temp_softmax(v, tau=0.1)), [x], h=1e-6)
    assert err < 1e-4


def test_grad_layer_norm():
    x = RNG.standard_normal((4, 6))
    g = RNG.standard_normal(6)
    b = RNG.standard_normal(6)
    err = ad.grad_check(lambda v, gg, bb: _sq(ad.layer_norm(v, gg, bb)), [x, g, b])
    assert err < 1e-5


def test_grad_fft_ifft():
    x = RNG.standard_normal((3, 8))
    err = ad.grad_check(lambda v: _sq(ad.fft(v)), [x])
    assert err < 1e-6
    re = RNG.standard_normal((3, 8))
    im = RNG.standard_normal((3, 8))
    err = ad.grad_check(lambda s: _sq(ad.ifft(s)), [np.stack([re, im], axis=-2)])
    assert err < 1e-6


def test_grad_conv_and_transpose_conv():
    x = RNG.standard_normal((2, 5, 5, 2))
    k = RNG.standard_normal((3, 2, 3, 3))
    err = ad.grad_check(lambda v, w: _sq(ad.conv2d(v, w, stride=1, padding=1)),
                        [x, k])
    assert err < 1e-5
    y = RNG.standard_normal((2, 5, 5, 3))
    err = ad.grad_check(
        lambda v, w: _sq(ad.transpose_conv2d(v, w, stride=1, padding=1)), [y, k])
    assert err < 1e-5


def test_grad_overlap_add():
    g = RNG.standard_normal((2, 3, 4))   # (channel, n_p, l)
    err = ad.grad_check(lambda v: _sq(ad.overlap_add(v, stride=2, n_out=10)), [g])
    assert err < 1e-7


def test_overlap_add_values():
    g = np.ones((2, 4))
    out = ad.overlap_add(g, stride=2, n_out=6).data
    np.testing.assert_allclose(out, [1, 1, 2, 2, 1, 1], atol=1e-12)
    with pytest.raises(ParameterError):
        ad.overlap_add(g, stride=4, n_out=6)


def test_backward_requires_scalar_without_seed():
    v = ad.Var(np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        ad.mul(v, 2.0).backward()


def test_backward_accumulates_across_reuse():
    x = ad.Var(np.array([3.0]))
    out = ad.vsum(ad.add(ad.mul(x, x), x))    # d/dx (x^2 + x) = 2x + 1
    out.backward()
    np.testing.assert_allclose(x.grad, [7.0], atol=1e-12)


def test_backward_consumes_graph_and_keeps_leaf_grads():
    x = ad.Var(RNG.standard_normal((3, 4)))
    w = ad.Var(RNG.standard_normal((4, 2)))
    inner = [ad.matmul(x, w)]
    inner.append(ad.elu(inner[-1]))
    inner.append(ad.mul(inner[-1], inner[-1]))
    out = ad.vsum(inner[-1])
    out.backward()
    assert x.grad.shape == (3, 4) and w.grad.shape == (4, 2)
    assert out.grad == 1.0
    for v in inner:
        assert v.grad is None and v._parents == ()
    assert out._parents == ()


def test_second_backward_raises():
    x = ad.Var(np.array([1.0, 2.0]))
    out = ad.vsum(ad.mul(x, x))
    out.backward()
    with pytest.raises(ParameterError, match="consumed"):
        out.backward()
    with pytest.raises(ParameterError, match="consumed"):
        ad.mul(out, 2.0).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_constant_graph_holds_no_closures():
    a = ad.as_var(RNG.standard_normal((2, 8)))
    b = ad.as_var(RNG.standard_normal((8, 3)))
    spec = ad.fft(ad.elu(a))
    out = ad.vsum(ad.matmul(ad.ifft(ad.temp_softmax(spec, 0.5)), b))
    assert not a.tracked and not b.tracked
    assert not out.tracked and out._vjp is None and out._parents == ()
    out.backward()
    assert out.grad == 1.0 and a.grad is None and b.grad is None


# two-parent primitives: (op, shape of each parent)
TWO_PARENT_OPS = {
    "add": (ad.add, (3, 4), (4,)),
    "mul": (ad.mul, (3, 4), (3, 1)),
    "matmul": (ad.matmul, (2, 3, 4), (4, 5)),
    "concat": (lambda a, b: ad.concat([a, b], axis=1), (3, 4), (3, 2)),
    "conv2d": (lambda x, k: ad.conv2d(x, k, stride=1, padding=1),
               (2, 5, 5, 2), (3, 2, 3, 3)),
    "transpose_conv2d": (lambda y, k: ad.transpose_conv2d(y, k, stride=1, padding=1),
                         (2, 5, 5, 3), (3, 2, 3, 3)),
}


@pytest.mark.parametrize("constant", [0, 1])
@pytest.mark.parametrize("name", sorted(TWO_PARENT_OPS))
def test_vjp_skips_constant_parent(name, constant):
    # the VJP leaves a constant parent's slot empty and gives the tracked
    # parent the bits it gets when both parents are tracked
    op, *shapes = TWO_PARENT_OPS[name]
    rng = np.random.Generator(np.random.PCG64(7))
    data = [rng.standard_normal(shape) for shape in shapes]
    both = op(*(ad.Var(d) for d in data))
    g = rng.standard_normal(both.shape)
    parents = [ad.Var(d) for d in data]
    parents[constant] = ad.as_var(data[constant])
    grads = op(*parents)._vjp(g)
    assert grads[constant] is None
    tracked = 1 - constant
    assert np.array_equal(grads[tracked], both._vjp(g)[tracked])


def test_backward_skips_constant_branches():
    # a tracked leaf times a constant subgraph: only the leaf gets a gradient,
    # and the constant branch is folded into constants as it is built
    x_data, c_data = RNG.standard_normal((3, 4)), RNG.standard_normal((3, 4))
    x, c = ad.Var(x_data), ad.as_var(c_data)
    branch = ad.elu(ad.mul(c, 2.0))
    out = ad.vsum(ad.mul(x, branch))
    assert x.tracked and out.tracked and not branch.tracked
    assert branch._vjp is None
    out.backward()
    c2 = c_data * 2.0
    np.testing.assert_array_equal(x.grad, np.where(c2 >= 0.0, c2, np.exp(c2) - 1.0))
    assert c.grad is None and branch.grad is None
    # Var(x) stays a tracked leaf and as_var passes Vars through untouched
    assert ad.as_var(x) is x and ad.Var(c_data).tracked
