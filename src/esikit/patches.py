"""Channel-independent, temporally overlapped patching of scalp fragments.

A fragment (..., n_channels, n_timepoints) is zero-padded at the tail and
cut into an array of windows (..., n_channels, n_patches, l) at stride
l - overlap; merge is exact overlap-add divided by per-sample coverage.
"""

import numpy as np

from . import autodiff as ad
from .errors import ParameterError


def padded_length(n_timepoints, l, stride):
    """Smallest windowable length >= n_timepoints for the given (l, stride)."""
    if n_timepoints <= l:
        return l
    n_windows = int(np.ceil((n_timepoints - l) / stride)) + 1
    return stride * (n_windows - 1) + l


def extract_patches(x, l, overlap):
    """Cut (..., n_c, n_t) into overlapping windows (..., n_c, n_patches, l)."""
    if l < 2:
        raise ParameterError(f"patch length must be >= 2, got {l}")
    if not (0 <= overlap < l):
        raise ParameterError(f"overlap must be in [0, {l}), got {overlap}")
    x = np.asarray(x, dtype=np.float64)
    stride = l - overlap
    n_t = x.shape[-1]
    n_pad = padded_length(n_t, l, stride)
    if n_pad > n_t:
        pad = [(0, 0)] * (x.ndim - 1) + [(0, n_pad - n_t)]
        x = np.pad(x, pad)
    return ad.gather_windows(x, (n_pad - l) // stride + 1, l, stride)


def merge_patches(patches, overlap, n_timepoints):
    """Overlap-add ``patches`` (an array or a Var), divide by the per-sample
    coverage and keep the first ``n_timepoints`` samples, as a Var: the
    exact inverse of :func:`extract_patches` for unmodified patches."""
    p = ad.as_var(patches)
    l = p.shape[-1]
    cov = coverage_counts(p.shape[-2], l, l - overlap)
    out = ad.mul(ad.overlap_add(p, l - overlap, cov.size), 1.0 / cov)
    return out[..., :n_timepoints]


def coverage_counts(n_patches, l, stride):
    """How many windows cover each padded time sample."""
    n_pad = stride * (n_patches - 1) + l
    return ad.overlap_add(np.ones((n_patches, l)), stride, n_pad).data


def normalize_fragment(x):
    """Divide each fragment of (..., n_channels, n_timepoints) by its max
    absolute value; returns the stack and the per-fragment scales (...).
    Takes finite fragments only: :func:`esikit.model.forward` checks first.

    An all-zero fragment passes unchanged with scale 0, so multiplying an
    estimate by the scale keeps it linear in the input down to zero.
    """
    x = np.asarray(x, dtype=np.float64)
    scale = np.max(np.abs(x), axis=(-2, -1))
    return x / np.where(scale == 0.0, 1.0, scale)[..., None, None], scale
