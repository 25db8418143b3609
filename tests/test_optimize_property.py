"""Seeded property tests of optimize over random stable models with m, n <= 3.

optimize must raise exactly when theta = 0 and w'Dw > 1 (w = B^-T gamma, D
the stationary factor covariance); otherwise it must return a finite,
stationary point that no random probe, near or far, beats.  At theta = 0,
where W is quadratic in (h, H), the exact optimum certifies it.
"""

import numpy as np
import pytest

import longrun.criterion as criterion
from conftest import random_stable_model
from longrun import (
    CriterionParams,
    OptimizerConfig,
    Strategy,
    UnboundedCriterionError,
    evaluate,
    optimize,
    reference_model,
    stationary_covariance,
)

QUICK = OptimizerConfig(grid_points=15, local_restarts=2)
SHAPES = ((1, 1), (1, 2), (2, 1))
# Seeds from 18 on draw m*n > 2, where the scan is a Latin hypercube.
LHS_SHAPES = ((1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3))


@pytest.mark.parametrize("seed", range(54))
def test_optimize_raises_iff_unbounded_else_global(seed):
    rng = np.random.default_rng(seed)
    m, n = SHAPES[seed % 3] if seed < 18 else LHS_SHAPES[seed % 6]
    model = random_stable_model(rng, m, n)
    theta = float(rng.choice([0.0, 0.0, 0.5, 2.0]))
    params = CriterionParams(theta=theta, gamma=rng.normal(scale=0.3, size=n))
    w = np.linalg.solve(model.B.T, params.gamma)
    unbounded = theta == 0.0 and float(w @ stationary_covariance(model) @ w) > 1.0

    if unbounded:
        with pytest.raises(UnboundedCriterionError):
            optimize(model, params, QUICK)
        return
    res = optimize(model, params, QUICK)
    x = np.concatenate([res.strategy.h, res.strategy.H.ravel()])
    assert np.all(np.isfinite(x)) and np.isfinite(res.value)
    assert res.stationary, res.message

    near = x + rng.normal(scale=0.05, size=(40, x.size))
    wide = rng.uniform(-3.0, 3.0, size=(40, x.size))
    rays = rng.normal(size=(10, x.size))
    far = np.concatenate([rays * s for s in (10.0, 100.0, 1000.0)])
    tol = 1e-9 * (1.0 + abs(res.value))
    for p in np.concatenate([near, wide, far]):
        probe = Strategy(h=p[:m], H=p[m:].reshape(m, n))
        assert evaluate(model, probe, params) <= res.value + tol


def _quadratic_terms(model, params):
    """Gradient and Hessian of W at 0 over x = (h, vec H), from one ``evaluate`` call.

    Central differences with step 1; they are exact when W is quadratic in x.
    """
    m, n = model.m, model.n
    d = m * (1 + n)
    E = np.eye(d)
    i, j = np.triu_indices(d, 1)
    X = np.vstack([np.zeros(d), E, -E, E[i] + E[j], E[i] - E[j], E[j] - E[i], -E[i] - E[j]])
    f = evaluate(model, (X[:, :m], X[:, m:].reshape(-1, m, n)), params)
    up, down = f[1:1 + d], f[1 + d:1 + 2 * d]
    pp, pm, mp, mm = f[1 + 2 * d:].reshape(4, -1)
    hess = np.diag(up - 2.0 * f[0] + down)
    hess[i, j] = hess[j, i] = 0.25 * (pp - pm - mp + mm)
    return 0.5 * (up - down), hess


@pytest.mark.parametrize("seed", range(36))
def test_theta_zero_optimum_is_the_newton_point(seed):
    # At theta = 0, W is quadratic in (h, H) jointly: it has a maximum iff its
    # Hessian has no positive eigenvalue, and one Newton step from 0 lands on it.
    rng = np.random.default_rng(1000 + seed)
    m, n = 1 + seed % 3, 1 + seed // 3 % 3
    model = random_stable_model(rng, m, n)
    params = CriterionParams(theta=0.0, gamma=rng.normal(scale=0.4, size=n))
    grad, hess = _quadratic_terms(model, params)

    if np.linalg.eigvalsh(hess)[-1] > 0.0:
        with pytest.raises(UnboundedCriterionError):
            optimize(model, params, QUICK)
        return
    x = -np.linalg.solve(hess, grad)
    newton = evaluate(model, Strategy(h=x[:m], H=x[m:].reshape(m, n)), params)
    res = optimize(model, params, QUICK)
    assert abs(res.value - newton) <= 1e-10 * (1.0 + abs(newton))


@pytest.mark.parametrize("seed", [None, *range(5)])
def test_optimum_is_no_worse_than_its_best_scan_row(seed, monkeypatch):
    # Each ascent starts from a best scan row, scored alike, and keeps only the
    # steps that raise W: no scan row can beat the optimum beyond the tie tolerance.
    if seed is None:
        model, config = reference_model(), OptimizerConfig()
        params = CriterionParams(theta=1.0, gamma=[0.0])
    else:
        rng = np.random.default_rng(3000 + seed)
        model, config = random_stable_model(rng, *(SHAPES + LHS_SHAPES)[2 * seed]), QUICK
        params = CriterionParams(theta=float(rng.uniform(0.5, 4.0)), gamma=rng.normal(scale=0.3, size=model.n))
    calls = []
    original = criterion.evaluate
    monkeypatch.setattr(criterion, "evaluate", lambda *args: calls.append(original(*args)) or calls[-1])
    res = optimize(model, params, config)
    scan = calls[0]                            # the whole scan, in the first engine call
    assert len(scan) == len(criterion._scan_points(config, model.m * model.n))
    assert res.value >= scan.max() - config.simplex_tolerance * (1.0 + abs(res.value))
