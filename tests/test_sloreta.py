import re

import numpy as np
import pytest

from esikit.errors import NumericalError, ParameterError
from esikit.geometry import LeadField, build_lead_field, build_synthetic_source_space
from esikit.sloreta import (
    DEFAULT_LAMBDA,
    minimum_norm_kernel,
    sloreta_solve,
    sloreta_solver,
)

RNG = np.random.Generator(np.random.PCG64(17))


@pytest.fixture(scope="module")
def system():
    space = build_synthetic_source_space(16, 3, seed=0)
    return space, build_lead_field(space, 8, seed=1)


def test_kernel_matches_dense_oracle(system):
    _, lf = system
    G = lf.matrix
    lam = 0.05
    gram = G @ G.T
    reg = lam * np.trace(gram) / G.shape[0]
    # explicit elimination-based inverse as the oracle
    oracle = G.T @ np.linalg.solve(gram + reg * np.eye(G.shape[0]),
                                   np.eye(G.shape[0]))
    np.testing.assert_allclose(minimum_norm_kernel(lf, lam), oracle, atol=1e-6)


def test_zero_input_zero_output(system):
    _, lf = system
    out = sloreta_solve(lf, np.zeros((8, 10)))
    np.testing.assert_array_equal(out, 0.0)


def test_noiseless_single_source_peak(system):
    _, lf = system
    for s in range(16):
        S = np.zeros((16, 4))
        S[s] = 1.0
        X = lf.matrix @ S
        est = sloreta_solve(lf, X, lam=1e-6)
        energy = np.sum(est * est, axis=1)
        assert int(np.argmax(energy)) == s


def test_scale_invariance_of_localization(system):
    _, lf = system
    X = RNG.standard_normal((8, 12))
    a = sloreta_solve(lf, X)
    b = sloreta_solve(lf, 7.5 * X)
    np.testing.assert_allclose(b, 7.5 * a, rtol=1e-9)
    assert np.argmax(np.sum(a * a, axis=1)) == np.argmax(np.sum(b * b, axis=1))


def test_default_lambda():
    assert DEFAULT_LAMBDA == 0.05


def test_parameter_errors(system):
    _, lf = system
    with pytest.raises(ParameterError):
        minimum_norm_kernel(lf, lam=-0.1)
    with pytest.raises(ParameterError):
        sloreta_solve(lf, np.zeros((7, 4)))


def test_rank_deficient_lambda_zero():
    # duplicated channels make G G^T singular at lambda = 0
    g = RNG.standard_normal((1, 6))
    lf = LeadField(matrix=np.vstack([g, g]))
    with pytest.raises(NumericalError):
        # either the inversion fails outright or the standardization
        # diagonal collapses; both surface as a NumericalError
        sloreta_solve(lf, np.zeros((2, 3)), lam=0.0)


def per_fragment_sloreta(lf, X, lam):
    """The estimate with the kernel and diagonal rebuilt for one fragment."""
    T = minimum_norm_kernel(lf, lam)
    J = T @ X
    return J / np.sqrt(np.einsum("sc,cs->s", T, lf.matrix))[:, None]


@pytest.mark.parametrize("lam", [0.0, 1e-6, DEFAULT_LAMBDA, 2.0])
def test_operator_matches_solve_bitwise(system, lam):
    _, lf = system
    _, solve = sloreta_solver(lf, lam)
    xs = [RNG.standard_normal((8, n_t)) for n_t in (1, 10, 32)]
    for X, est in zip(xs, solve(xs), strict=True):
        assert np.array_equal(est, sloreta_solve(lf, X, lam))
        assert np.array_equal(est, per_fragment_sloreta(lf, X, lam))


def test_operator_rank_deficient_lambda_zero_same_error():
    g = RNG.standard_normal((1, 6))
    lf = LeadField(matrix=np.vstack([g, g]))
    X = RNG.standard_normal((2, 3))
    with pytest.raises(NumericalError) as via_solve:
        sloreta_solve(lf, X, lam=0.0)
    with pytest.raises(NumericalError) as via_solver:
        sloreta_solver(lf, 0.0)
    assert str(via_solver.value) == str(via_solve.value)
    # a singular kernel raises before a bad fragment is looked at
    with pytest.raises(NumericalError, match=re.escape(str(via_solve.value))):
        sloreta_solve(lf, np.full((5, 3), np.nan), lam=0.0)
    # a ridge makes the same lead field solvable, identically on both paths
    assert np.array_equal(sloreta_solver(lf, 0.1)[1]([X])[0],
                          sloreta_solve(lf, X, lam=0.1))


def test_operator_channel_mismatch(system):
    _, lf = system
    with pytest.raises(ParameterError, match="7 channels, lead field has 8"):
        sloreta_solve(lf, np.zeros((7, 4)))
    check, _ = sloreta_solver(lf)
    with pytest.raises(ParameterError, match="7 channels, lead field has 8"):
        check(np.zeros((7, 4)))
