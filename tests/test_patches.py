import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esikit import autodiff as ad
from esikit.errors import ParameterError
from esikit.patches import (
    extract_patches,
    merge_patches,
    normalize_fragment,
    padded_length,
)

RNG = np.random.Generator(np.random.PCG64(23))


def test_paper_setting_patch_count():
    # N_t=500, l=16, overlap=8: pad to 504, stride 8, 62 windows per channel
    x = RNG.standard_normal((4, 500))
    grid = extract_patches(x, 16, 8)
    assert grid.shape == (4, 62, 16)
    np.testing.assert_array_equal(grid[:, 1], x[:, 8:24])   # stride 16 - 8
    # explicit enumeration of window starts over the padded axis
    starts = [s for s in range(0, 504 - 16 + 1, 8)]
    assert len(starts) == 62
    assert padded_length(500, 16, 8) == 504


@pytest.mark.parametrize("n_t,l,overlap", [(500, 16, 8), (32, 8, 0), (37, 8, 5)])
def test_extract_is_overlap_add_adjoint(n_t, l, overlap):
    # cutting windows is the VJP of overlap-add over the padded axis
    x = RNG.standard_normal((2, 3, n_t))
    grid = extract_patches(x, l, overlap)
    n_pad = padded_length(n_t, l, l - overlap)
    xp = np.pad(x, ((0, 0), (0, 0), (0, n_pad - n_t)))
    windows = ad.Var(np.zeros(grid.shape))
    ad.overlap_add(windows, l - overlap, n_pad).backward(xp)
    assert np.array_equal(grid, windows.grad)


def test_disjoint_patches_concatenate_to_input():
    x = RNG.standard_normal((3, 32))
    grid = extract_patches(x, 16, 0)
    assert grid.shape == (3, 2, 16)
    np.testing.assert_array_equal(grid.reshape(3, 32), x)


def test_round_trip_exact():
    x = RNG.standard_normal((4, 64))
    np.testing.assert_allclose(merge_patches(extract_patches(x, 16, 8), 8, 64).data,
                               x, atol=1e-12)


def test_merge_zero_grid_is_zero():
    grid = extract_patches(np.zeros((2, 50)), 8, 4)
    np.testing.assert_array_equal(merge_patches(grid, 4, 50).data, np.zeros((2, 50)))


def test_merge_patches_gradient():
    # merge_patches is a Var map, so it carries gradients back to the patches
    grid = extract_patches(RNG.standard_normal((2, 3, 21)), 8, 5)

    def energy(p):
        merged = merge_patches(p, 5, 21)
        return ad.vsum(ad.mul(merged, merged))

    assert ad.grad_check(energy, [grid]) < 1e-7


def test_single_channel_ramp():
    x = np.arange(10, dtype=np.float64)[None, :]
    grid = extract_patches(x, 4, 2)
    np.testing.assert_allclose(merge_patches(grid, 2, 10).data, x, atol=1e-12)


def test_channel_permutation_permutes_patch_rows():
    x = RNG.standard_normal((5, 40))
    perm = RNG.permutation(5)
    a = extract_patches(x, 8, 4)
    b = extract_patches(x[perm], 8, 4)
    np.testing.assert_array_equal(b, a[perm])


def test_extract_parameter_errors():
    x = np.zeros((2, 32))
    with pytest.raises(ParameterError):
        extract_patches(x, 1, 0)
    with pytest.raises(ParameterError):
        extract_patches(x, 8, 8)
    with pytest.raises(ParameterError):
        extract_patches(x, 8, -1)


@settings(max_examples=100, deadline=None)
@given(l=st.integers(2, 32), overlap_frac=st.floats(0.0, 0.99),
       n_t=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
def test_round_trip_property(l, overlap_frac, n_t, seed):
    overlap = int(overlap_frac * l)
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((2, n_t))
    grid = extract_patches(x, l, overlap)
    np.testing.assert_allclose(merge_patches(grid, overlap, n_t).data, x, atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(l=st.integers(2, 32), overlap_frac=st.floats(0.0, 0.99),
       n_t=st.integers(2, 200))
def test_patch_count_matches_enumeration(l, overlap_frac, n_t):
    overlap = int(overlap_frac * l)
    stride = l - overlap
    grid = extract_patches(np.zeros((1, n_t)), l, overlap)
    n_pad = padded_length(n_t, l, stride)
    enumerated = len(range(0, n_pad - l + 1, stride))
    assert grid.shape[-2] == enumerated
    assert n_pad >= n_t
    assert (n_pad - l) % stride == 0


def test_normalize_fragment_scale():
    x = np.array([[1.0, -4.0], [2.0, 0.5]])
    xn, scale = normalize_fragment(x)
    assert scale == 4.0
    assert np.max(np.abs(xn)) == 1.0
    np.testing.assert_allclose(xn * scale, x, atol=1e-7)


def test_normalize_all_zero_passthrough():
    x = np.zeros((3, 5))
    xn, scale = normalize_fragment(x)
    assert scale == 0.0
    np.testing.assert_array_equal(xn, x)


def test_normalize_stack_rows_match_lone_fragments():
    x = RNG.standard_normal((4, 3, 5))
    x[2] = 0.0
    xn, scale = normalize_fragment(x)
    assert scale.shape == (4,)
    assert scale[2] == 0.0
    for i in range(4):
        xi, si = normalize_fragment(x[i])
        assert np.array_equal(xn[i], xi)
        assert scale[i] == si
