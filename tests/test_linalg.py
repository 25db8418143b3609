import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import longrun.linalg as linalg
from conftest import random_stable_model
from longrun import FactorModel, ModelValidationError, stationary_covariance
from longrun.linalg import (
    DimensionError,
    NumericError,
    check_stability,
    expm,
    inverse,
    lyapunov_operator,
    psd_sqrt,
    refined_failures,
)


def solve_one(B: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``B S + S B' = Q`` on the route D takes: vec(Q) times the operator's inverse, checked."""
    L = lyapunov_operator(B)
    LT, LT_inv = L.T, inverse(L).T
    S = (Q.reshape(1, -1) @ LT_inv).reshape(Q.shape)
    bad, residual, bound = refined_failures(LT, LT_inv, S[None], Q[None], np.linalg.norm(B))
    assert not bad[0], f"residual {residual[0]:.3e} exceeds {bound[0]:.3e}"
    return S


def kron_lyapunov(B: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Dense vectorization oracle for B S + S B' = Q.

    Column-major vec turns the equation into
    (I kron B + B kron I) vec(S) = vec(Q), solved densely here; the library
    inverts the row-major form once per B.  scipy's Bartels-Stewart solver
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


def test_refinement_touches_only_the_failed_slices():
    rng = np.random.default_rng(12)
    B = random_stable_model(rng, 1, 3).B
    R = rng.normal(size=(2, 3, 3))
    Q = R + R.transpose(0, 2, 1)
    S = np.stack([solve_one(B, q) for q in Q])
    S = 0.5 * (S + S.transpose(0, 2, 1))       # as D is: the step keeps it symmetric
    exact = S.copy()
    S[1] += 1e-6 * Q[1]                        # far outside the tolerance
    L = lyapunov_operator(B)
    bad = refined_failures(L.T, inverse(L).T, S, Q, np.linalg.norm(B))[0]
    assert not bad.any()
    assert np.array_equal(S[0], exact[0])
    assert_allclose(S[1], exact[1], rtol=1e-12, atol=1e-14 * np.abs(exact[1]).max())
    assert np.array_equal(S[1], S[1].T)


def test_stationary_covariance_held_to_its_residual(monkeypatch):
    model = random_stable_model(np.random.default_rng(13), 3, 3)
    monkeypatch.setattr(linalg, "LYAPUNOV_RTOL", 0.0)
    with pytest.raises(NumericError, match="Lyapunov residual .* exceeds its bound"):
        model.prepared


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


def test_expm_matches_scipy():
    # scipy.linalg.expm is the oracle: both are Pade scaling and squaring, so
    # they agree to rounding at small norms and to the squarings' growth at dt = 10
    for seed in range(400):
        rng = np.random.default_rng(seed)
        B = random_stable_model(rng, 1 + seed % 3, 1 + seed % 8).B
        for dt, rtol in ((0.01, 1e-15), (0.1, 1e-15), (1.0, 1e-12), (10.0, 1e-12)):
            ref = scipy.linalg.expm(B * dt)
            assert np.abs(expm(B * dt) - ref).max() <= rtol * np.abs(ref).max(), (seed, dt)
    for n in (2, 3, 8):
        assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))
    x = np.array([[-0.37]])     # the reference model's transitions are 1 x 1
    assert np.array_equal(expm(x), np.exp(x))
