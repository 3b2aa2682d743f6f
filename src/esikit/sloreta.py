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


def sloreta_solver(lf, lam=DEFAULT_LAMBDA):
    """sLORETA's ``(check, solve)`` pair for :func:`esikit.model.solve_split`,
    built once per lead field: ``check`` is :func:`check_fragment`, and ``solve``
    maps checked float64 fragments (n_c x n_t) to their standardized estimates."""
    T = minimum_norm_kernel(lf, lam)
    r_diag = np.einsum("sc,cs->s", T, np.asarray(lf.matrix, dtype=np.float64))
    if np.any(r_diag <= 0):
        raise NumericalError("resolution matrix has non-positive diagonal")
    root = np.sqrt(r_diag)[:, None]
    return (lambda X: check_fragment(X, lf)), (lambda xs: [(T @ X) / root for X in xs])


def sloreta_solve(lf, X, lam=DEFAULT_LAMBDA):
    """Standardized source estimate for a scalp fragment X (n_c x n_t)."""
    check, solve = sloreta_solver(lf, lam)   # a singular kernel raises before the check
    check(X := np.asarray(X, dtype=np.float64))
    return solve([X])[0]
