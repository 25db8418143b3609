import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import longrun.criterion as criterion
from conftest import degenerate_model, random_stable_model, scalar_strategy
from longrun import (
    CriterionParams,
    DimensionError,
    FactorModel,
    ModelValidationError,
    NumericError,
    OptimizerConfig,
    Strategy,
    SweepResult,
    UnboundedCriterionError,
    evaluate,
    moments,
    optimize,
    stationary_covariance,
    sweep_gamma,
    sweep_theta,
)
from longrun.criterion import _h_solver, _h_terms, _scan_points

QUICK = OptimizerConfig(grid_points=31, local_restarts=3)


def params(theta=0.0, gamma=0.0):
    return CriterionParams(theta=theta, gamma=np.atleast_1d(gamma))


def test_evaluate_composes_moments(model, hold_only):
    mom = moments(model, hold_only)
    w = evaluate(model, hold_only, params(theta=1.0))
    assert_allclose(w, mom.growth_rate - 0.25 * mom.variance_rate, rtol=1e-14)
    assert_allclose(w, -0.012841562389226745, rtol=1e-12)


def test_evaluate_theta_zero_is_growth_rate(model, hold_only):
    mom = moments(model, hold_only)
    assert evaluate(model, hold_only, params()) == mom.growth_rate


def test_evaluate_gamma_term(model, hold_only):
    mom = moments(model, hold_only)
    w = evaluate(model, hold_only, params(gamma=0.01))
    assert_allclose(w, mom.growth_rate + 0.01 * mom.wealth_factor_cov[0], rtol=1e-13)


def test_evaluate_under_a_stack_of_criteria():
    # row i under criterion i, bit for bit what that criterion alone gives row i
    model = random_stable_model(np.random.default_rng(21), 2, 3)
    rng = np.random.default_rng(22)
    stack = (rng.normal(size=(7, 2)), rng.normal(size=(7, 2, 3)))
    theta = np.array([0.0, 0.5, 4.0, 1.0, 0.0, 2.0, 8.0])
    gamma = rng.normal(size=(7, 3))
    gamma[4] = 0.0
    w = evaluate(model, stack, (theta, gamma))
    assert w.shape == (7,)
    for i in range(7):
        assert w[i] == evaluate(model, stack, CriterionParams(theta=theta[i], gamma=gamma[i]))[i]
    for bad in ((theta[:6], gamma), (theta, gamma[:, :2]), (theta[:, None], gamma),
                (theta, gamma[:6])):
        with pytest.raises(DimensionError, match="a stack of k criteria"):
            evaluate(model, stack, bad)
    with pytest.raises(DimensionError, match="one Strategy"):
        evaluate(model, Strategy(h=stack[0][0], H=stack[1][0]), (theta[:1], gamma[:1]))
    for t in (-0.5, np.nan, np.inf):
        with pytest.raises(ModelValidationError, match="theta"):
            evaluate(model, stack, (np.where(np.arange(7) == 3, t, theta), gamma))
    for g in (np.nan, np.inf):
        bad = gamma.copy()
        bad[2, 1] = g
        with pytest.raises(ModelValidationError, match="gamma"):
            evaluate(model, stack, (theta, bad))


def test_zero_strategy_evaluates_to_zero(model):
    assert evaluate(model, scalar_strategy(0.0, 0.0), params(theta=3.0, gamma=0.2)) == 0.0


def test_pointwise_strictly_decreasing_in_theta(model):
    strat = scalar_strategy(1.0, 0.5)
    values = [evaluate(model, strat, params(theta=t)) for t in (0.0, 0.5, 1.0, 2.0, 8.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_theta_quarter_coefficient(model, hold_only):
    # the risk penalty enters as theta/4, not theta/2
    mom = moments(model, hold_only)
    w1 = evaluate(model, hold_only, params(theta=4.0))
    assert_allclose(w1, mom.growth_rate - mom.variance_rate, rtol=1e-13)


def test_optimize_reference_model(model):
    res = optimize(model, params(theta=1.0), QUICK)
    assert res.stationary
    assert res.message.startswith("converged")
    # refined optimum beats simple candidate points
    for h, H in [(1.0, 0.0), (0.0, 0.0), (0.1, -0.1), (0.2, -0.3)]:
        assert res.value >= evaluate(model, scalar_strategy(h, H), params(theta=1.0)) - 1e-12
    assert_allclose(evaluate(model, res.strategy, params(theta=1.0)), res.value, rtol=1e-12)
    # one asset in a predictable market: lean long with a negative tilt
    assert res.strategy.h[0] > 0
    assert res.strategy.H[0, 0] < 0


def test_stationary_judges_convergence_to_rounding(model):
    # after two kept steps the gradient is about 6e-9 and W is 3e-17 short of its
    # maximum: an absolute gradient bound passes it, the decrement does not
    cut = optimize(model, params(theta=1.0), OptimizerConfig(max_iterations=2))
    assert not cut.stationary and "Newton decrement" in cut.message
    res = optimize(model, params(theta=1.0), OptimizerConfig(max_iterations=3))
    assert res.stationary, res.message
    assert res.value > cut.value


def test_optimize_shrinks_with_theta(model):
    lo = optimize(model, params(theta=1.0), QUICK)
    hi = optimize(model, params(theta=10.0), QUICK)
    assert abs(hi.strategy.h[0]) < abs(lo.strategy.h[0])
    assert abs(hi.strategy.H[0, 0]) < abs(lo.strategy.H[0, 0])
    assert abs(hi.strategy.h[0]) < 0.05 and abs(hi.strategy.H[0, 0]) < 0.05
    assert hi.value < lo.value


def test_symmetric_toy_has_zero_optimum():
    toy = FactorModel(
        a=np.array([0.0]), A=np.array([[0.0]]), B=np.array([[-0.5]]),
        Sigma=np.array([[0.2, 0.0]]), Lambda=np.array([[0.0, 0.3]]),
    )
    res = optimize(toy, params(theta=1.0), QUICK)
    assert abs(res.strategy.h[0]) < 1e-4
    assert abs(res.strategy.H[0, 0]) < 1e-4
    assert res.value <= 1e-10


def test_gamma_moves_h_more_than_H(model):
    base = optimize(model, params(theta=1.0), QUICK)
    tilt = optimize(model, params(theta=1.0, gamma=0.01), QUICK)
    dh = abs((tilt.strategy.h[0] - base.strategy.h[0]) / base.strategy.h[0])
    dH = abs((tilt.strategy.H[0, 0] - base.strategy.H[0, 0]) / base.strategy.H[0, 0])
    assert tilt.strategy.h[0] < base.strategy.h[0]
    assert dH < dh


def test_unbounded_direction_detected(model):
    # with no risk penalty a strong factor-covariance reward has no maximum
    with pytest.raises(UnboundedCriterionError) as exc:
        optimize(model, params(theta=0.0, gamma=0.05), QUICK)
    assert exc.value.direction.shape == (2,)


def test_theta_zero_gamma_zero_warns(model):
    with pytest.warns(UserWarning, match="theta = 0"):
        optimize(model, params(), QUICK)


def test_optimize_deterministic(model):
    a = optimize(model, params(theta=2.0), QUICK)
    b = optimize(model, params(theta=2.0), QUICK)
    assert a.value == b.value
    assert np.array_equal(a.strategy.h, b.strategy.h)
    assert np.array_equal(a.strategy.H, b.strategy.H)
    assert a.evaluations == b.evaluations


def test_two_factor_optimize():
    model = FactorModel(
        a=np.array([0.02]),
        A=np.array([[-0.01, 0.005]]),
        B=np.array([[-0.05, 0.0], [0.0, -0.4]]),
        Sigma=np.array([[0.05, 0.001, 0.002]]),
        Lambda=np.array([[0.0, 0.6, 0.1], [0.0, 0.05, 0.3]]),
    )
    res = optimize(model, CriterionParams(theta=2.0, gamma=np.zeros(2)), QUICK)
    assert res.strategy.H.shape == (1, 2)
    assert res.stationary
    base = evaluate(model, Strategy(h=np.zeros(1), H=np.zeros((1, 2))),
                    CriterionParams(theta=2.0, gamma=np.zeros(2)))
    assert res.value > base


def test_sweep_theta_basics(model):
    thetas = [0.5, 1.0, 2.0, 4.0]
    res = sweep_theta(model, thetas, config=QUICK)
    assert_allclose(res.parameter_values, thetas)
    assert not res.failed.any()
    assert res.stationary.all()
    # pointwise dominance makes the optimal value non-increasing
    assert all(a >= b - 1e-12 for a, b in zip(res.values, res.values[1:]))
    ratios = res.ratio()
    assert np.all(np.isfinite(ratios))
    assert np.all(ratios < 0)


def test_sweep_gamma_endpoint_matches_theta_sweep(model):
    g = sweep_gamma(model, 1.0, [0.0, 0.005], config=QUICK)
    t = sweep_theta(model, [1.0], config=QUICK)
    assert_allclose(g.h_star[0], t.h_star[0], atol=1e-7)
    assert_allclose(g.values[0], t.values[0], rtol=1e-9)
    assert g.h_star[1, 0] < g.h_star[0, 0]


def test_sweep_flags_failures_and_continues(model):
    with pytest.warns(UserWarning):
        res = sweep_gamma(model, 0.0, [0.0, 0.05], config=QUICK)
    assert not res.failed[0]
    assert res.failed[1]
    assert np.isnan(res.h_star[1, 0])
    assert np.isfinite(res.values[0])
    assert "without bound" in res.messages[1]


def test_sweep_reproducible(model):
    a = sweep_theta(model, [1.0, 4.0], config=QUICK)
    b = sweep_theta(model, [1.0, 4.0], config=QUICK)
    assert np.array_equal(a.h_star, b.h_star)
    assert np.array_equal(a.values, b.values)


def test_ratio_needs_scalar_case():
    res = SweepResult(
        parameter_values=np.array([1.0]),
        h_star=np.zeros((1, 2)),
        H_star=np.zeros((1, 2, 2)),
        values=np.zeros(1),
        stationary=np.ones(1, dtype=bool),
        failed=np.zeros(1, dtype=bool),
        messages=("ok",),
    )
    with pytest.raises(ValueError, match="m = n = 1"):
        res.ratio()


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(grid_bounds=(2.0, -2.0))
    with pytest.raises(ValueError):
        OptimizerConfig(grid_points=1)
    with pytest.raises(ValueError):
        OptimizerConfig(simplex_tolerance=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(local_restarts=0)
    # the integer fields take NumPy integers, and no float or boolean
    for name in ("grid_points", "local_restarts", "max_iterations", "seed"):
        assert getattr(OptimizerConfig(**{name: np.int64(7)}), name) == 7
    for name, value in (("seed", 1.5), ("seed", True), ("seed", np.nan), ("max_iterations", True),
                        ("local_restarts", 2.5), ("grid_points", 61.0), ("grid_points", np.True_)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            OptimizerConfig(**{name: value})
    # the tolerance and the bounds take real numbers, finite, and no boolean
    for value in (np.inf, np.nan, True, "x", None):
        with pytest.raises(ValueError, match="simplex_tolerance must be"):
            OptimizerConfig(simplex_tolerance=value)
    for bounds in ((True, 3.0), (-3.0, np.True_), ("a", 1.0), (None, 1.0), (-np.inf, 1.0)):
        with pytest.raises(ValueError, match="grid_bounds must be"):
            OptimizerConfig(grid_bounds=bounds)
    assert OptimizerConfig(grid_bounds=(np.int64(-2), 2), simplex_tolerance=np.float32(1e-8))


def test_sweep_memory_grows_at_most_linearly_with_points(model):
    # each row is scored under its own point's criterion: doubling the points
    # at most doubles the traced peak (3.6x when every row was scored under
    # every point's criterion)
    config = OptimizerConfig(grid_points=11, local_restarts=2, max_iterations=200)
    peaks = []
    for points in (200, 400):
        tracemalloc.start()
        try:
            sweep_theta(model, np.geomspace(0.5, 64.0, points), config=config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0], [p / 1e6 for p in peaks]


def test_empty_sweep_rejected(model):
    with pytest.raises(ValueError):
        sweep_theta(model, [])
    with pytest.raises(ValueError):
        sweep_gamma(model, 1.0, [])


def _runaway_model(seed):
    return random_stable_model(np.random.default_rng(seed), 2, 2)


def _w_dlt_w(model, gamma):
    w = np.linalg.solve(model.B.T, gamma)
    return float(w @ stationary_covariance(model) @ w)


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_theta_zero_runaway_raises(seed):
    # w'Dw > 1: the growth reward along H = u w' outpaces the tilt cost
    model = _runaway_model(seed)
    gamma = 0.5 * np.ones(2)
    assert _w_dlt_w(model, gamma) > 1.0
    with pytest.raises(UnboundedCriterionError, match="without bound") as exc:
        optimize(model, CriterionParams(theta=0.0, gamma=gamma), QUICK)
    e = exc.value.direction
    assert e.shape == (6,)
    assert_allclose(np.linalg.norm(e), 1.0, rtol=1e-12)
    # W rises along the reported ray
    far = [evaluate(model, Strategy(h=t * e[:2], H=t * e[2:].reshape(2, 2)),
                    CriterionParams(theta=0.0, gamma=gamma)) for t in (10.0, 100.0, 1000.0)]
    assert far[0] < far[1] < far[2]


def test_theta_zero_bounded_seed_is_stationary():
    model = _runaway_model(2)
    gamma = 0.5 * np.ones(2)
    assert _w_dlt_w(model, gamma) < 1.0
    res = optimize(model, CriterionParams(theta=0.0, gamma=gamma), QUICK)
    assert np.all(np.isfinite(res.strategy.h)) and np.all(np.isfinite(res.strategy.H))
    assert np.linalg.norm(res.strategy.H) < 100.0
    assert res.stationary


def _riskless_toy(a, A):
    # the asset carries no diffusion: Sigma Sigma' = 0
    return FactorModel(a=np.array([a]), A=np.array([[A]]), B=np.array([[-0.05]]),
                       Sigma=np.array([[0.0, 0.0]]), Lambda=np.array([[0.0, 0.5]]))


SINGULAR_DIFFUSION = {
    "riskless": lambda: _riskless_toy(0.01, -0.01),
    "riskless-flat-drift": lambda: _riskless_toy(0.01, 0.0),
    "riskless-no-constant-drift": lambda: _riskless_toy(0.0, -0.01),
    "redundant-2x2": degenerate_model,
    "redundant-2x1": lambda: degenerate_model(n=1),
}


@pytest.mark.parametrize("theta", [0.0, 1.0])
@pytest.mark.parametrize("name", SINGULAR_DIFFUSION)
def test_singular_diffusion_rejected_before_scoring(monkeypatch, name, theta):
    # optimize takes only the markets validate_model accepts
    model = SINGULAR_DIFFUSION[name]()
    calls = []
    monkeypatch.setattr(criterion, "moments", lambda *args: calls.append(args))
    prm = CriterionParams(theta=theta, gamma=np.zeros(model.n))
    with pytest.raises(ModelValidationError, match="Sigma Sigma' is not positive definite"):
        optimize(model, prm, QUICK)
    with pytest.raises(ModelValidationError, match="Sigma Sigma' is not positive definite"):
        sweep_theta(model, [theta], config=QUICK)
    assert calls == []


@pytest.mark.parametrize("seed", range(4))
def test_h_solver_maximizes_over_h(seed):
    # the closed-form h*(H) is the maximizer of W over h, batched or one at a time
    rng = np.random.default_rng(seed)
    m, n = (1, 1) if seed == 0 else (2, 2)
    model = random_stable_model(rng, m, n)
    prm = CriterionParams(theta=float(rng.uniform(0.2, 3.0)), gamma=rng.normal(scale=0.1, size=n))
    h_star, terms = _h_solver(model), _h_terms(model, prm)
    Hs = rng.uniform(-2.0, 2.0, size=(5, m, n))
    batch = h_star(Hs, *terms)
    for H, h in zip(Hs, batch):
        assert_allclose(h_star(H[None], *terms)[0], h, rtol=1e-12, atol=1e-14)
        best = evaluate(model, Strategy(h=h, H=H), prm)
        for dh in rng.normal(scale=0.05, size=(10, m)):
            assert evaluate(model, Strategy(h=h + dh, H=H), prm) < best


@pytest.mark.parametrize("dim", [3, 4, 6])
def test_scan_above_two_dims_is_seeded_latin_hypercube(dim):
    config = OptimizerConfig(grid_bounds=(-2.0, 1.0))
    points = _scan_points(config, dim)
    assert points.shape == (4096, dim)
    # one point in each of the 4,096 strata of every axis
    strata = np.floor((points + 2.0) / 3.0 * 4096).astype(int)
    for column in strata.T:
        assert np.array_equal(np.sort(column), np.arange(4096))
    assert np.array_equal(_scan_points(config, dim), points)
    assert not np.array_equal(_scan_points(OptimizerConfig(grid_bounds=(-2.0, 1.0), seed=1), dim),
                              points)


def test_optimize_on_latin_hypercube_scan():
    # 3 x 2: the scan over the 6 entries of H is the seeded LHS
    model = random_stable_model(np.random.default_rng(0), 3, 2)
    prm = CriterionParams(theta=1.0, gamma=np.zeros(2))
    config = OptimizerConfig(local_restarts=1)
    res = optimize(model, prm, config)
    assert res.stationary and res.message == "converged"
    again = optimize(model, prm, config)
    assert again.value == res.value and again.evaluations == res.evaluations
    other = optimize(model, prm, OptimizerConfig(local_restarts=1, seed=1))
    assert_allclose(other.value, res.value, rtol=1e-10)


def test_seed_is_taken_modulo_2_64():
    # 2 x 2: the scan is the seeded Latin hypercube
    model = random_stable_model(np.random.default_rng(0), 2, 2)
    prm = CriterionParams(theta=1.0, gamma=np.zeros(2))
    low = optimize(model, prm, OptimizerConfig(local_restarts=1, seed=-1))
    high = optimize(model, prm, OptimizerConfig(local_restarts=1, seed=2**64 - 1))
    assert low.value == high.value and np.array_equal(low.strategy.H, high.strategy.H)
    assert low.stationary


def test_overflowed_scan_rows_are_dropped(model):
    # of five points from -1e200 only H = 0 is finite: it alone starts the ascent
    wide = OptimizerConfig(grid_bounds=(-1e200, 1e200), grid_points=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = optimize(model, params(theta=1.0), wide)
    assert res.stationary
    assert len(res.restarts) == 1
    assert_allclose(res.value, optimize(model, params(theta=1.0)).value, rtol=1e-12)


def test_scan_without_a_finite_row_raises_numeric_error(model):
    none_finite = OptimizerConfig(grid_bounds=(1e100, 2e100), grid_points=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="no finite start"):
            optimize(model, params(theta=1.0), none_finite)
        res = sweep_theta(model, [0.5, 2.0], config=none_finite)
    assert res.failed.all()
    assert all("no finite start" in msg for msg in res.messages)
