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


def check_fragment(X, lf):
    """ParameterError unless X has ``lf``'s channels, then DataError if non-finite."""
    if X.shape[0] != len(lf.matrix):
        raise ParameterError(
            f"fragment has {X.shape[0]} channels, lead field has {len(lf.matrix)}")
    if not np.all(np.isfinite(X)):
        raise DataError("fragment contains non-finite values")


def sloreta_operator(lf, lam=DEFAULT_LAMBDA):
    """The standardized solve for one lead field, built once.

    Returns ``solve(X)`` mapping a scalp fragment X (n_c x n_t) that
    :func:`check_fragment` passes to its standardized source estimate; the
    kernel and the resolution diagonal depend only on ``lf`` and ``lam``.
    """
    G = np.asarray(lf.matrix, dtype=np.float64)
    T = minimum_norm_kernel(lf, lam)
    r_diag = np.einsum("sc,cs->s", T, G)
    if np.any(r_diag <= 0):
        raise NumericalError("resolution matrix has non-positive diagonal")
    root = np.sqrt(r_diag)[:, None]
    return lambda X: (T @ np.asarray(X, dtype=np.float64)) / root


def sloreta_solver(lf, lam):
    """sLORETA as :func:`esikit.model.solve_split` takes it: each fragment is
    checked, then solved on its own by :func:`sloreta_operator`."""
    solve = sloreta_operator(lf, lam)
    return (lambda X: check_fragment(X, lf)), (lambda xs: [solve(X) for X in xs])


def sloreta_solve(lf, X, lam=DEFAULT_LAMBDA):
    """Standardized source estimate for a scalp fragment X (n_c x n_t)."""
    solve = sloreta_operator(lf, lam)   # a singular kernel raises before the check
    check_fragment(X := np.asarray(X, dtype=np.float64), lf)
    return solve(X)
