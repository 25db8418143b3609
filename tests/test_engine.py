"""The batched moment engine against a one-strategy-at-a-time reference.

The reference below is the per-strategy matrix algebra with scipy's
Bartels-Stewart Lyapunov solver, written out here so that it shares no code
with the engine (which uses a factored Kronecker operator and stacked
products).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import longrun.criterion as criterion
import longrun.linalg as linalg
from conftest import degenerate_model, random_stable_model, scalar_strategy, stencil_gradient
from longrun import (
    CriterionParams,
    DimensionError,
    NumericError,
    OptimizerConfig,
    Strategy,
    evaluate,
    moments,
    optimize,
    reference_model,
    stationary_covariance,
    validate_model,
)
from longrun.criterion import _h_terms

RTOL = 1e-12


def reference(model, h, H, theta, gamma):
    """(K, rate, P, Y, S, W) for one strategy, the textbook way."""
    a, A, B, Sg, Lm = model.a, model.A, model.B, model.Sigma, model.Lambda
    D = scipy.linalg.solve_continuous_lyapunov(B, -Lm @ Lm.T)
    SS = Sg @ Sg.T
    K = h @ a - 0.5 * (h @ SS @ h) + np.trace(D @ (H.T @ A - 0.5 * (H.T @ SS @ H)))
    P = np.linalg.solve(B, D @ (H.T @ (SS @ h) - A.T @ h - H.T @ a) - Lm @ (Sg.T @ h))
    row = (SS @ h) @ H - h @ A - a @ H
    Y = np.linalg.solve(B.T, row) @ Lm + h @ Sg
    HtA, HtSSH = H.T @ A, H.T @ SS @ H
    Q = -2.0 * (D @ HtA @ D) + D @ HtSSH @ D - 2.0 * (Lm @ Sg.T) @ H @ D
    S = scipy.linalg.solve_continuous_lyapunov(B, 0.5 * (Q + Q.T))
    rate = Y @ Y + np.trace(2.0 * (S @ HtA) + (D - S) @ HtSSH)
    return K, rate, P, Y, S, K - 0.25 * theta * rate + gamma @ P


def cases():
    rng = np.random.default_rng(2024)
    out = []
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            out.append(random_stable_model(rng, m, n))
    out.append(degenerate_model())
    return out


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("theta", [0.0, 1.0, 4.0])
def test_engine_matches_loop_reference(k, theta):
    rng = np.random.default_rng(int(10 * theta) + k)
    for model in cases():
        m, n = model.m, model.n
        h = rng.uniform(-2.0, 2.0, (k, m))
        H = rng.uniform(-2.0, 2.0, (k, m, n))
        prm = CriterionParams(theta=theta, gamma=rng.normal(scale=0.3, size=n))
        for scale in (1.0, 1e3):            # large strategies: the engine's coefficients must be exact
            mom = moments(model, (scale * h, scale * H))
            W = evaluate(model, (scale * h, scale * H), prm)
            assert mom.growth_rate.shape == (k,) and W.shape == (k,)
            assert mom.second_moment_offset.shape == (k, n, n)
            for i in range(k):
                want = reference(model, scale * h[i], scale * H[i], theta, prm.gamma)
                got = (mom.growth_rate[i], mom.variance_rate[i], mom.wealth_factor_cov[i],
                       mom.shock_loading[i], mom.second_moment_offset[i], W[i])
                for g, r in zip(got, want):
                    assert_allclose(g, r, rtol=RTOL)
            assert_allclose(mom.factor_cov, stationary_covariance(model), rtol=0, atol=0)


def test_batched_equals_pointwise():
    # A Strategy is a stack of one row, and every product is batched over
    # the stack row by row: it equals its row of any stack bit for bit.
    rng = np.random.default_rng(7)
    for model in cases():
        m, n = model.m, model.n
        h = rng.uniform(-2.0, 2.0, (6, m))
        H = rng.uniform(-2.0, 2.0, (6, m, n))
        prm = CriterionParams(theta=1.5, gamma=rng.normal(scale=0.3, size=n))
        stack = moments(model, (h, H))
        W = evaluate(model, (h, H), prm)
        for i in range(6):
            one = moments(model, Strategy(h=h[i], H=H[i]))
            assert isinstance(one.growth_rate, float) and isinstance(one.variance_rate, float)
            for name, value in vars(one).items():
                row = stack.factor_cov if name == "factor_cov" else getattr(stack, name)[i]
                assert np.array_equal(value, row), name
            w = evaluate(model, Strategy(h=h[i], H=H[i]), prm)
            assert isinstance(w, float)
            assert w == W[i]


@pytest.mark.parametrize("m, n", [(6, 6), (8, 8), (2, 8)])
def test_wide_models_match_reference(m, n):
    # the n <= 8 models linalg serves: every field to RTOL, and every stack row
    # bit for bit its single Strategy with an exactly symmetric S
    for s in range(3):
        model = random_stable_model(np.random.default_rng(100 + s), m, n)
        rng = np.random.default_rng(s)
        h, H = rng.uniform(-2.0, 2.0, (5, m)), rng.uniform(-2.0, 2.0, (5, m, n))
        stack = moments(model, (h, H))
        for i in range(5):
            want = reference(model, h[i], H[i], 0.0, np.zeros(n))[:5]
            got = (stack.growth_rate[i], stack.variance_rate[i], stack.wealth_factor_cov[i],
                   stack.shock_loading[i], stack.second_moment_offset[i])
            for g, r in zip(got, want):
                assert_allclose(g, r, rtol=RTOL)
            one = moments(model, Strategy(h=h[i], H=H[i]))
            for name, value in vars(one).items():
                row = stack.factor_cov if name == "factor_cov" else getattr(stack, name)[i]
                assert np.array_equal(value, row), name
            assert np.array_equal(one.second_moment_offset, one.second_moment_offset.T)


def test_prepared_model_is_read_only_and_cached():
    model = random_stable_model(np.random.default_rng(3), 2, 2)
    pm = model.prepared
    assert model.prepared is pm
    constants = (pm.drift, pm.linear, pm.rhs, pm.offset, pm.mirror)
    for arr in (pm.D, pm.SS, pm.B_inv, pm.K, pm.G0, pm.lyapunov, pm.lyapunov_inv) + constants:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        pm.D[0, 0] = 1.0
    assert_allclose(pm.D, scipy.linalg.solve_continuous_lyapunov(model.B, -model.Lambda @ model.Lambda.T),
                    rtol=1e-12)
    assert [arr.shape for arr in constants] == [(2, 3), (24, 8), (2, 4), (4, 3), (2, 2)]
    strat = Strategy(h=[0.3, -0.2], H=[[0.5, 0.1], [-0.4, 0.2]])
    first, again = moments(model, strat), moments(model, strat)
    assert first.growth_rate == again.growth_rate
    assert first.variance_rate == again.variance_rate
    assert np.array_equal(first.second_moment_offset, again.second_moment_offset)


def test_large_stack_memory_is_bounded():
    # 4,096 rows of an 8 x 8 model: the engine's (k, n, n) and (k, m, 1 + n)
    # temporaries take about 2 MB each and [U; Omega; Hb] 7.7 MB; the traced
    # peak is about 22 MB
    model = random_stable_model(np.random.default_rng(3), 8, 8)
    rng = np.random.default_rng(4)
    stack = (rng.uniform(-1.0, 1.0, (4096, 8)), rng.uniform(-1.0, 1.0, (4096, 8, 8)))
    model.prepared
    tracemalloc.start()
    try:
        moments(model, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_replaced_model_gets_its_own_cache():
    model = random_stable_model(np.random.default_rng(8), 1, 2)
    D = model.prepared.D
    other = dataclasses.replace(model, B=2.0 * model.B)
    assert other.prepared is not model.prepared
    assert_allclose(other.prepared.D, 0.5 * D, rtol=1e-12)
    assert model.prepared.D is D


def test_residual_check_runs_on_the_batched_path(monkeypatch):
    model = random_stable_model(np.random.default_rng(5), 2, 2)
    rng = np.random.default_rng(6)
    stack = (rng.normal(size=(4, 2)), rng.normal(size=(4, 2, 2)))
    moments(model, stack)                          # builds the cache at the real tolerance
    monkeypatch.setattr(linalg, "LYAPUNOV_RTOL", 0.0)
    with pytest.raises(NumericError, match="Lyapunov residual"):
        moments(model, stack)
    with pytest.raises(NumericError, match="Lyapunov residual"):
        evaluate(model, stack, CriterionParams(theta=1.0, gamma=[0.0, 0.0]))


def test_gamma_length_checked():
    model = reference_model()
    wrong = CriterionParams(theta=1.0, gamma=[0.0, 0.0])
    with pytest.raises(DimensionError, match="gamma"):
        evaluate(model, scalar_strategy(1.0, 0.0), wrong)
    with pytest.raises(DimensionError, match="gamma"):
        evaluate(model, scalar_strategy(1.0, 0.0), CriterionParams(theta=1.0, gamma=[0.1, 0.2]))
    with pytest.raises(DimensionError, match="gamma"):
        optimize(model, wrong)
    with pytest.raises(DimensionError, match="gamma"):
        _h_terms(model, wrong)


def test_strategy_shape_checked():
    model = random_stable_model(np.random.default_rng(9), 2, 3)
    prm = CriterionParams(theta=1.0, gamma=np.zeros(3))
    with pytest.raises(DimensionError, match="strategy"):
        evaluate(model, Strategy(h=np.ones(3), H=np.zeros((3, 3))), prm)
    with pytest.raises(DimensionError, match="strategy"):
        moments(model, Strategy(h=np.ones(2), H=np.zeros((2, 2))))
    with pytest.raises(DimensionError, match="h must"):
        moments(model, (np.ones((4, 3)), np.zeros((4, 2, 3))))
    with pytest.raises(DimensionError, match="h must"):
        moments(model, (np.ones(2), np.zeros((2, 3))))
    with pytest.raises(DimensionError, match="H must"):
        moments(model, (np.ones((4, 2)), np.zeros((4, 2, 2))))
    with pytest.raises(DimensionError, match="H must"):
        evaluate(model, (np.ones((4, 2)), np.zeros((5, 2, 3))), prm)


def test_evaluations_count_every_strategy_scored(monkeypatch):
    scored = []
    original = criterion.moments

    def counting(model, strategy):
        scored.append(1 if isinstance(strategy, Strategy) else len(strategy[0]))
        return original(model, strategy)

    monkeypatch.setattr(criterion, "moments", counting)
    res = optimize(reference_model(), CriterionParams(theta=1.0, gamma=[0.0]),
                   OptimizerConfig(grid_points=31, local_restarts=3))
    assert res.evaluations == sum(scored)
    assert max(scored) == 31                      # the whole scan in one call


def _gradient(model, prm, x):
    """``criterion._gradient`` at one point x = (h, vec H), flattened as x is."""
    m, n = model.m, model.n
    h, H = x[None, :m], x[None, m:].reshape(1, m, n)
    g = criterion._gradient(model, h, H, moments(model, (h, H)), np.array([prm.theta]), prm.gamma[None])[0]
    return np.concatenate([g[:, 0], g[:, 1:].ravel()])


def test_stencil_gradient_is_exact():
    # W is quartic in (h, H), so the 5-point stencil has no truncation error:
    # a tenfold step gives the same gradient up to rounding.  The closed-form
    # gradient, the engine's products run backwards, matches it.
    rng = np.random.default_rng(31)
    models = [random_stable_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
              for _ in range(30)]
    for i, model in enumerate(models + [degenerate_model()]):
        prm = CriterionParams(theta=float(rng.uniform(0.0, 4.0)) if i % 3 else 0.0,
                              gamma=rng.normal(scale=0.3, size=model.n) + 0.1)
        x = rng.uniform(-2.0, 2.0, model.m * (1 + model.n))
        g, g10 = (stencil_gradient(model, prm, x, step) for step in (0.1, 1.0))
        assert np.linalg.norm(g10 - g) <= 1e-9 * np.linalg.norm(g)
        assert np.linalg.norm(_gradient(model, prm, x) - g) <= 1e-10 * np.linalg.norm(g)


@pytest.mark.parametrize("theta", [0.5, 4.0])
def test_optimum_has_no_h_gradient(theta):
    # The search moves H only, with h = h*(H); its gradient is exact only if
    # dW/dh vanishes there.
    for model in (reference_model(), random_stable_model(np.random.default_rng(12), 2, 2)):
        prm = CriterionParams(theta=theta, gamma=np.full(model.n, 0.05))
        res = optimize(model, prm, OptimizerConfig(grid_points=15, local_restarts=2))
        x = np.concatenate([res.strategy.h, res.strategy.H.ravel()])
        g = stencil_gradient(model, prm, x)[:model.m]
        assert res.stationary, res.message
        assert np.linalg.norm(g) <= 1e-6 * (1.0 + abs(res.value))


def test_near_undamped_model_offsets_pass_their_check():
    # B has eigenvalues -1e-10 +- i, so L is ill-conditioned and an offset summed
    # from vec(Q) times the columns of L^-T cancels: rows of this box fail the
    # residual check at first, and pass after the one refinement step.
    model = validate_model(a=[0.01], A=[[0.01, 0.0]], B=[[-1e-10, 1.0], [-1.0, -1e-10]],
                           Sigma=[[0.05, 0.0, 0.0]], Lambda=[[0.0, 0.5, 0.0], [0.0, 0.0, 0.5]])
    grid = np.linspace(-3.0, 3.0, 61)
    H = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 1, 2)
    mom = moments(model, (np.ones((len(H), 1)), H))
    S = mom.second_moment_offset
    assert np.isfinite(S).all() and np.array_equal(S, S.transpose(0, 2, 1))
    res = optimize(model, CriterionParams(theta=1.0, gamma=[0.0, 0.0]))
    assert_allclose(res.value, 0.0132890366448, rtol=1e-10)
