import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from conftest import random_stable_model
from longrun import FactorModel, ModelValidationError, stationary_covariance
from longrun.linalg import (
    DimensionError,
    NumericError,
    check_stability,
    lyapunov_operator,
    psd_sqrt,
    solve_lyapunov_stack,
)


def solve_one(B: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``B S + S B' = Q`` on the route D takes: the factored operator."""
    return solve_lyapunov_stack(B, lyapunov_operator(B), Q[None])[0]


def kron_lyapunov(B: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Dense vectorization oracle for B S + S B' = Q.

    Column-major vec turns the equation into
    (I kron B + B kron I) vec(S) = vec(Q), solved densely here; the library
    factors the row-major form once per B.  scipy's Bartels-Stewart solver
    is the independent reference (test_matches_scipy_on_scalar).
    """
    n = B.shape[0]
    M = np.kron(np.eye(n), B) + np.kron(B, np.eye(n))
    s = np.linalg.solve(M, Q.flatten(order="F"))
    return s.reshape((n, n), order="F")


def test_scalar_solution_is_exact():
    # 2 B s = q  =>  s = q / (2B); pinned worked value for the scalar case
    S = solve_one(np.array([[-0.021]]), np.array([[1.0]]))
    assert S[0, 0] == 1.0 / (2.0 * -0.021)
    assert S[0, 0] == -23.809523809523807


def test_matches_scipy_on_scalar():
    B = np.array([[-0.37]])
    Q = np.array([[0.83]])
    ours = solve_one(B, Q)
    ref = scipy.linalg.solve_continuous_lyapunov(B, Q)
    assert_allclose(ours, ref, rtol=1e-13)

    # scipy's Bartels-Stewart stays the reference for the Kronecker solve
    rng = np.random.default_rng(44)
    for _ in range(40):
        B = random_stable_model(rng, 1, int(rng.integers(1, 5))).B
        R = rng.normal(size=B.shape)
        for Q in (R + R.T, R):
            ours = solve_one(B, Q)
            ref = scipy.linalg.solve_continuous_lyapunov(B, Q)
            assert_allclose(ours, ref, rtol=1e-11, atol=1e-13 * np.abs(ref).max())


def test_random_models_residual_and_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        model = random_stable_model(rng, 1, n)
        B = model.B
        C = model.Lambda @ model.Lambda.T

        dlt = stationary_covariance(model)
        res = np.linalg.norm(B @ dlt + dlt @ B.T + C)
        scale = np.linalg.norm(B) * np.linalg.norm(dlt) + np.linalg.norm(C)
        assert res <= 1e-10 * max(scale, 1e-300)
        assert_allclose(dlt, dlt.T, atol=1e-14)
        assert np.linalg.eigvalsh(dlt).min() >= -1e-10 * max(np.linalg.eigvalsh(dlt).max(), 1.0)

        assert_allclose(dlt, kron_lyapunov(B, -C), rtol=1e-8, atol=1e-10)

        # general (symmetric, indefinite) right-hand side
        R = rng.normal(size=(n, n))
        Q = R + R.T
        S = solve_one(B, Q)
        assert_allclose(S, S.T, atol=1e-12)
        assert_allclose(S, kron_lyapunov(B, Q), rtol=1e-8, atol=1e-10)


def test_asymmetric_rhs_not_symmetrized():
    B = np.array([[-1.0, 0.3], [0.0, -2.0]])
    Q = np.array([[1.0, 2.0], [0.0, 1.0]])
    S = solve_one(B, Q)
    assert not np.allclose(S, S.T)
    assert_allclose(B @ S + S @ B.T, Q, atol=1e-12)


def test_stability_report_fields():
    rep = check_stability(np.diag([-0.5, -2.0]))
    assert rep.is_stable
    assert rep.margin == -0.5
    assert_allclose(rep.eigenvalue_real_parts, [-0.5, -2.0])

    rep = check_stability(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # pure rotation
    assert not rep.is_stable
    assert abs(rep.margin) < 1e-12


def test_unstable_matrix_rejected():
    # 0.3 is unstable; 1e-13 sits inside the stability margin.  Both are flagged
    # by check_stability, and a model built on them never reaches a Lyapunov solve.
    for b in (0.3, 1e-13):
        B = np.array([[b]])
        assert not check_stability(B).is_stable
        with pytest.raises(ModelValidationError, match="stability"):
            FactorModel(
                a=np.array([0.1]),
                A=np.array([[0.0]]),
                B=B,
                Sigma=np.array([[0.1, 0.0]]),
                Lambda=np.array([[0.0, 0.2]]),
            )


def test_dimension_errors():
    with pytest.raises(DimensionError):
        check_stability(np.zeros((2, 3)))


def test_non_finite_rejected():
    with pytest.raises(NumericError):
        check_stability(np.array([[np.nan]]))


def test_psd_sqrt_roundtrip():
    rng = np.random.default_rng(7)
    R = rng.normal(size=(4, 4))
    M = R @ R.T
    root = psd_sqrt(M)
    assert_allclose(root @ root, M, rtol=1e-10, atol=1e-12)
    assert_allclose(root, root.T, atol=1e-13)

    # rank-deficient input is fine
    v = rng.normal(size=3)
    root = psd_sqrt(np.outer(v, v))
    assert_allclose(root @ root, np.outer(v, v), atol=1e-12)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NumericError):
        psd_sqrt(np.diag([1.0, -0.5]))
    with pytest.raises(NumericError):
        psd_sqrt(np.array([[-1e-3]]))
