"""Seeded property test of optimize over random stable models with m, n <= 3.

optimize must raise exactly when theta = 0 and w'Dw > 1 (w = B^-T gamma, D
the stationary factor covariance); otherwise it must return a finite,
stationary point that no random probe, near or far, beats.
"""

import numpy as np
import pytest

from conftest import random_stable_model
from longrun import (
    CriterionParams,
    OptimizerConfig,
    Strategy,
    UnboundedCriterionError,
    evaluate,
    optimize,
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
