"""The batched Newton refine of optimize: exact 1x1 certificates, batch independence, engine calls.

A sweep scores all its points together, yet each point must come out as
:func:`~longrun.optimize` returns it alone, to the last bit.

With one asset and one factor, W is a concave quadratic in h for fixed H, so
max_h W = N(H) / d(H) with N of degree 6 and d of degree 2, and its critical
points are the real roots of the degree-7 polynomial N'd - Nd'.  Those
polynomials are fitted exactly from ``evaluate`` alone, never from the
optimizer, so the best real root certifies each optimum.
"""

import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import longrun.criterion as criterion
from conftest import random_stable_model
from longrun import (
    CriterionParams,
    OptimizerConfig,
    UnboundedCriterionError,
    evaluate,
    moments,
    optimize,
    reference_estimates,
    reference_model,
    report_from_estimates,
    sweep_gamma,
    sweep_theta,
    validate_model,
)

QUICK = OptimizerConfig(grid_points=31, local_restarts=3)
# the CLI's default sweep grids
THETA_GRID = np.geomspace(0.25, 64.0, 13)
GAMMA_GRID = np.linspace(0.0, 0.01, 11)


def _certificate(model, params):
    """Best value of W over the real critical points of max_h W(h, H), and its H."""
    Hs = np.linspace(-2.0, 2.0, 13)
    h = np.array([-1.0, 0.0, 1.0])
    hh, HH = np.meshgrid(h, Hs, indexing="ij")
    f = evaluate(model, (hh.reshape(-1, 1), HH.reshape(-1, 1, 1)), params).reshape(3, -1)
    # W = c0 + c1 h + c2 h^2 at each H; c0, c1, c2 have degrees 4, 3, 2 in H
    c0 = P.polyfit(Hs, f[1], 4)
    c1 = P.polyfit(Hs, 0.5 * (f[2] - f[0]), 3)
    c2 = P.polyfit(Hs, 0.5 * (f[2] + f[0]) - f[1], 2)
    N = P.polysub(4.0 * P.polymul(c0, c2), P.polymul(c1, c1))
    d = 4.0 * c2
    crit = P.polysub(P.polymul(P.polyder(N), d), P.polymul(N, P.polyder(d)))
    assert len(crit) == 8                          # degree 7
    roots = P.polyroots(crit)
    real = roots.real[np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots.real))]
    h_star = -P.polyval(real, c1) / (2.0 * P.polyval(real, c2))
    values = evaluate(model, (h_star[:, None], real[:, None, None]), params)
    best = int(np.argmax(values))
    return values[best], real[best]


@pytest.mark.parametrize("seed", range(30))
def test_one_by_one_optimum_is_the_best_real_critical_point(seed):
    rng = np.random.default_rng(3000 + seed)
    model = random_stable_model(rng, 1, 1)
    gamma = rng.normal(scale=0.3, size=1)
    for theta in (0.5, 1.0, 4.0, 16.0):
        params = CriterionParams(theta=theta, gamma=gamma)
        w_cert, H_cert = _certificate(model, params)
        res = optimize(model, params)
        assert res.stationary, res.message
        assert abs(res.value - w_cert) <= 1e-10 * abs(w_cert), (theta, res.value, w_cert)
        assert abs(res.strategy.H[0, 0] - H_cert) <= 1e-5 * (1.0 + abs(H_cert))


def _counting_engine_calls(monkeypatch) -> list:
    """A list that gains an entry at every engine call of the optimizer: the scan and the refine rounds."""
    calls = []
    original = criterion.moments
    monkeypatch.setattr(criterion, "moments", lambda *args: calls.append(1) or original(*args))
    return calls


def test_engine_calls_per_optimize(monkeypatch):
    # one scan call and the refine rounds
    calls = _counting_engine_calls(monkeypatch)
    optimize(reference_model(), CriterionParams(theta=1.0, gamma=np.zeros(1)))
    assert len(calls) <= 5
    calls.clear()
    model = random_stable_model(np.random.default_rng(0), 3, 2)
    optimize(model, CriterionParams(theta=1.0, gamma=np.zeros(2)),
             OptimizerConfig(local_restarts=2, max_iterations=500))
    assert len(calls) <= 6


def test_near_undamped_optimize_stays_within_its_budget(monkeypatch):
    # B's eigenvalues are -1e-10 +- i, so W*(H) is extremely steep in H; an
    # ascent that kept accepting steps at the rounding of x would run on
    calls = _counting_engine_calls(monkeypatch)
    model = validate_model(a=[0.01], A=[[0.01, 0.0]], B=[[-1e-10, 1.0], [-1.0, -1e-10]],
                           Sigma=[[0.05, 0.0, 0.0]], Lambda=[[0.0, 0.5, 0.0], [0.0, 0.0, 0.5]])
    res = optimize(model, CriterionParams(theta=1.0, gamma=np.zeros(2)))
    assert len(calls) <= 55
    assert res.stationary, res.message
    assert res.value >= 0.01328903664479254


def test_a_start_concave_on_every_axis_keeps_its_first_step():
    # on a concave quadratic each start's first trial is the Newton step onto the maximum
    curvature = np.array([4.0, 0.25])
    trials = []

    def objective(X, i):
        trials.append(X.copy())
        W = -0.5 * (X * X) @ curvature
        return W, -X * curvature, np.tile(-np.diag(curvature), (len(X), 1, 1)), np.finfo(float).eps * np.abs(W)

    X, W, *_ = criterion._refine(objective, np.array([[1.0, -2.0], [-3.0, 0.5]]), 100)
    assert len(trials) == 2 and np.abs(trials[1]).max() <= 1e-15
    assert np.abs(X).max() <= 1e-15 and np.all(W >= -1e-30)


@pytest.mark.parametrize("case", ["reference", "2x2", "3x2"])
def test_each_start_refined_alone_matches_the_batch(monkeypatch, case):
    if case == "reference":
        model = reference_model()
    else:
        model = random_stable_model(np.random.default_rng(0), 2 if case == "2x2" else 3, 2)
    params = CriterionParams(theta=2.0, gamma=np.full(model.n, 0.05))
    runs = []
    original = criterion._refine

    def recording(objective, starts, max_iterations):
        out = original(objective, starts, max_iterations)
        runs.append((objective, starts, max_iterations, out[1]))
        return out

    monkeypatch.setattr(criterion, "_refine", recording)
    res = optimize(model, params)
    (objective, starts, max_iterations, W), = runs
    assert len(starts) == 5 and [w for _, w in res.restarts] == list(W)
    for j in range(len(starts)):
        _, alone, *_ = original(objective, starts[j:j + 1], max_iterations)
        assert abs(alone[0] - W[j]) <= 1e-12 * abs(W[j])


def _calibrated():
    return report_from_estimates(reference_estimates()).model


def _assert_points_as_alone(model, sweep, make_params, config):
    """Every point of ``sweep`` is what optimize returns, or raises, at that point alone.

    The per-point results come from the routine the sweep ran,
    :func:`criterion._optimize`, on the sweep's points together.
    """
    with warnings.catch_warnings(record=True):
        results = criterion._optimize(model, [make_params(p) for p in sweep.parameter_values],
                                      config)
    for i, p in enumerate(sweep.parameter_values):
        try:
            with warnings.catch_warnings(record=True):
                alone = optimize(model, make_params(p), config)
        except UnboundedCriterionError as err:
            assert sweep.failed[i] and isinstance(results[i], UnboundedCriterionError)
            assert sweep.messages[i] == str(err)
            continue
        res = results[i]
        assert not sweep.failed[i]
        for got in (res.strategy.h, sweep.h_star[i]):
            assert np.array_equal(got, alone.strategy.h), (i, got, alone.strategy.h)
        for got in (res.strategy.H, sweep.H_star[i]):
            assert np.array_equal(got, alone.strategy.H), (i, got, alone.strategy.H)
        assert res.value == sweep.values[i] == alone.value
        assert res.stationary == sweep.stationary[i] == alone.stationary
        assert res.message == sweep.messages[i] == alone.message
        assert res.evaluations == alone.evaluations
        assert res.gradient_norm == alone.gradient_norm
        assert [w for _, w in res.restarts] == [w for _, w in alone.restarts]


def test_calibrated_default_sweeps_match_optimize_alone():
    model, config = _calibrated(), OptimizerConfig()
    gamma = np.zeros(1)
    theta_sweep = sweep_theta(model, THETA_GRID, gamma=gamma, config=config)
    _assert_points_as_alone(model, theta_sweep, lambda t: CriterionParams(theta=t, gamma=gamma),
                            config)
    gamma_sweep = sweep_gamma(model, 1.0, GAMMA_GRID, config=config)
    _assert_points_as_alone(model, gamma_sweep, lambda g: CriterionParams(theta=1.0, gamma=[g]),
                            config)
    assert not theta_sweep.failed.any() and not gamma_sweep.failed.any()


@pytest.mark.parametrize("seed", range(16))
def test_random_model_sweeps_match_optimize_alone(seed):
    # seeds 12 and 13 refine one start alone in a round: h* of a single row
    rng = np.random.default_rng(4000 + seed)
    m, n = (int(v) for v in rng.integers(1, 4, size=2))
    model = random_stable_model(rng, m, n)
    gamma = rng.normal(scale=0.2, size=n)
    thetas = [0.0, 0.5, 2.0, 8.0]
    _assert_points_as_alone(model, sweep_theta(model, thetas, gamma=gamma, config=QUICK),
                            lambda t: CriterionParams(theta=t, gamma=gamma), QUICK)
    e = np.eye(n)[0]
    _assert_points_as_alone(model, sweep_gamma(model, 1.0, [-0.1, 0.0, 0.3], config=QUICK),
                            lambda g: CriterionParams(theta=1.0, gamma=g * e), QUICK)


def _polished_root(model, params, x):
    """The root of the exact gradient of W near x = (h, H) of a 1x1 model, by secant steps.

    Each step solves with the secant slopes of ``criterion._gradient`` across
    x +- 1e-6 (1 + |x|); the polish stops when the gradient no longer falls.
    """
    def gradient(X):
        h, H = X[:, :1], X[:, 1:].reshape(-1, 1, 1)
        return criterion._gradient(model, h, H, moments(model, (h, H)), np.full(len(X), params.theta),
                                   np.tile(params.gamma, (len(X), 1))).reshape(len(X), 2)

    g = gradient(x[None])[0]
    while True:
        steps = 1e-6 * (1.0 + np.abs(x))
        up, down = gradient(np.concatenate([x + np.diag(steps), x - np.diag(steps)])).reshape(2, 2, 2)
        trial = x - np.linalg.solve((up - down).T / (2.0 * steps), g)
        g_trial = gradient(trial[None])[0]
        if np.abs(g_trial).max() >= np.abs(g).max():
            assert np.abs(g).max() <= 1e-15
            return x
        x, g = trial, g_trial


def test_default_theta_sweep_is_fixed_to_rounding():
    # W* flattens as theta grows, so an absolute gradient bound alone would fix
    # the optimum only to about 1e-8 relative at theta near 10
    model = _calibrated()
    sweep = sweep_theta(model, THETA_GRID)
    for theta, h, H in zip(THETA_GRID, sweep.h_star[:, 0], sweep.H_star[:, 0, 0]):
        x = np.array([h, H])
        root = _polished_root(model, CriterionParams(theta=theta, gamma=np.zeros(1)), x)
        assert np.all(np.abs(x - root) <= 1e-11 * np.abs(root)), (theta, x, root)


def test_sweep_flags_an_unbounded_middle_point_and_warns_once():
    # theta = 0: gamma = 0 warns, gamma = 0.05 has no maximum, gamma = 0.001 is bounded
    model = _calibrated()
    with pytest.warns(UserWarning, match="theta = 0") as caught:
        sweep = sweep_gamma(model, 0.0, [0.0, 0.05, 0.001], config=QUICK)
    assert len(caught) == 1
    assert sweep.failed.tolist() == [False, True, False]
    assert "without bound" in sweep.messages[1] and np.isnan(sweep.h_star[1, 0])
    _assert_points_as_alone(model, sweep, lambda g: CriterionParams(theta=0.0, gamma=[g]), QUICK)


def test_engine_calls_per_sweep(monkeypatch):
    # one scan call for all points and the refine rounds
    calls = _counting_engine_calls(monkeypatch)
    model = _calibrated()
    sweep_theta(model, THETA_GRID)
    assert len(calls) <= 6
    calls.clear()
    sweep_gamma(model, 1.0, GAMMA_GRID)
    assert len(calls) <= 6
    calls.clear()
    sweep_theta(model, [16.0, 64.0])        # where a gradient first step overshoots
    assert len(calls) <= 6


def test_sweep_scan_calls_stay_within_the_scan_budget(monkeypatch):
    # a 3x3 model scans a 4,096-row Latin hypercube per point: one point per call
    rows = []
    original = criterion.evaluate
    monkeypatch.setattr(criterion, "evaluate",
                        lambda model, stack, *args: rows.append(len(stack[0])) or original(model, stack, *args))
    model = random_stable_model(np.random.default_rng(3), 3, 3)
    sweep_theta(model, np.linspace(0.5, 8.0, 13), config=OptimizerConfig(local_restarts=2, max_iterations=200))
    assert max(rows) <= 4096
