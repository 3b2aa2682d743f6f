"""Standardized minimum-norm inverse (sLORETA-style) baseline.

Kernel T = G^T (G G^T + lambda * trace(G G^T)/n_channels * I)^(-1); the raw
minimum-norm estimate J = T X is standardized row-wise by the square root
of the resolution-matrix diagonal R = T G.
"""

import numpy as np

from .errors import DataError, NumericalError, ParameterError

DEFAULT_LAMBDA = 0.05


def minimum_norm_kernel(lf, lam=DEFAULT_LAMBDA):
    if lam < 0:
        raise ParameterError("regularization lambda must be >= 0")
    G = np.asarray(lf.matrix, dtype=np.float64)
    n_c = G.shape[0]
    gram = G @ G.T
    reg = lam * np.trace(gram) / n_c
    try:
        inv = np.linalg.inv(gram + reg * np.eye(n_c))
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"singular sensor covariance: {err}") from err
    return G.T @ inv


def sloreta_operator(lf, lam=DEFAULT_LAMBDA):
    """The standardized solve for one lead field, built once.

    Returns ``solve(X)`` mapping a scalp fragment X (n_c x n_t) to its
    standardized source estimate; the kernel and the resolution diagonal
    depend only on ``lf`` and ``lam``.
    """
    G = np.asarray(lf.matrix, dtype=np.float64)
    T = minimum_norm_kernel(lf, lam)
    r_diag = np.einsum("sc,cs->s", T, G)
    if np.any(r_diag <= 0):
        raise NumericalError("resolution matrix has non-positive diagonal")
    root = np.sqrt(r_diag)[:, None]

    def solve(X):
        X = np.asarray(X, dtype=np.float64)
        if X.shape[0] != G.shape[0]:
            raise ParameterError(
                f"fragment has {X.shape[0]} channels, lead field has {G.shape[0]}"
            )
        if not np.all(np.isfinite(X)):
            raise DataError("fragment contains non-finite values")
        return (T @ X) / root

    return solve


def sloreta_solve(lf, X, lam=DEFAULT_LAMBDA):
    """Standardized source estimate for a scalp fragment X (n_c x n_t)."""
    return sloreta_operator(lf, lam)(X)
