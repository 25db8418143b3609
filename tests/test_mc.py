import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_stable_model, scalar_strategy
from longrun import (
    DimensionError,
    FactorModel,
    PathStats,
    SimConfig,
    SimulationError,
    Strategy,
    estimate_asymptotics,
    moments,
    simulate,
    simulate_discrete,
    stationary_covariance,
    timeseries_to_csv,
)
from longrun import mc
from longrun.mc import BLOCK, CHUNK, recommended_horizon

FAST = SimConfig(dt=0.25, horizon=100.0, paths=512, seed=3)


def two_factor():
    """One asset, two coupled factors, and a strategy tilted on both."""
    model = FactorModel(
        a=np.array([0.02]),
        A=np.array([[-0.01, 0.005]]),
        B=np.array([[-0.05, 0.02], [-0.03, -0.4]]),
        Sigma=np.array([[0.05, 0.001, 0.002]]),
        Lambda=np.array([[0.0, 0.6, 0.1], [0.0, 0.05, 0.3]]),
    )
    return model, Strategy(h=np.array([0.5]), H=np.array([[0.1, -0.2]]))


def column_se(values, antithetic):
    """Standard error of the mean of one column, pairs averaged first."""
    if antithetic:
        values = 0.5 * (values[0::2] + values[1::2])
    return values.std(ddof=1) / np.sqrt(values.shape[0])


def test_config_validation():
    with pytest.raises(ValueError, match="dt"):
        SimConfig(dt=0.0, horizon=10.0, paths=16)
    with pytest.raises(ValueError, match="horizon"):
        SimConfig(dt=0.1, horizon=-1.0, paths=16)
    with pytest.raises(ValueError, match="paths"):
        SimConfig(dt=0.1, horizon=10.0, paths=1)
    with pytest.raises(ValueError, match="factor_scheme"):
        SimConfig(dt=0.1, horizon=10.0, paths=16, factor_scheme="milstein")
    with pytest.raises(ValueError, match="even"):
        SimConfig(dt=0.1, horizon=10.0, paths=15, antithetic=True)


def test_same_seed_bitwise_identical(model, hold_only):
    a = simulate(model, hold_only, FAST)
    b = simulate(model, hold_only, FAST)
    assert a.mean_u == b.mean_u
    assert a.var_u == b.var_u
    assert np.array_equal(a.cov_ux, b.cov_ux)
    assert np.array_equal(a.mean_uxx, b.mean_uxx)


def test_thread_count_does_not_change_results(model, hold_only):
    a = simulate(model, hold_only, FAST, threads=1)
    b = simulate(model, hold_only, FAST, threads=4)
    assert a.mean_u == b.mean_u
    assert a.var_u == b.var_u
    assert np.array_equal(a.cov_ux, b.cov_ux)

    # three blocks, so the worker pool runs; every field, paths kept
    cfg = SimConfig(dt=0.5, horizon=5.0, paths=2 * BLOCK + 100, seed=3)
    wide = random_stable_model(np.random.default_rng(7), 3, 2)
    tilted = Strategy(h=np.array([0.4, -0.2, 0.3]), H=np.full((3, 2), 0.1))
    for mdl, strat in ((model, hold_only), two_factor(), (wide, tilted)):
        a = simulate(mdl, strat, cfg, threads=1)
        b = simulate(mdl, strat, cfg, threads=3)
        for field in dataclasses.fields(PathStats):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


def test_seed_and_stream_offset_decorrelate(model, hold_only):
    base = simulate(model, hold_only, FAST)
    other_seed = simulate(model, hold_only,
                          SimConfig(dt=0.25, horizon=100.0, paths=512, seed=4))
    other_stream = simulate(model, hold_only, FAST, stream_offset=1)
    assert base.mean_u != other_seed.mean_u
    assert base.mean_u != other_stream.mean_u


def test_var_matches_kept_paths(model, hold_only):
    cfg = SimConfig(dt=0.25, horizon=50.0, paths=700, seed=9)
    stats = simulate(model, hold_only, cfg)
    assert stats.final_u.shape == (700,)
    assert stats.final_x.shape == (700, 1)
    assert_allclose(stats.mean_u, stats.final_u.mean(), rtol=1e-13)
    assert_allclose(stats.var_u, stats.final_u.var(ddof=1), rtol=1e-12)


def test_antithetic_mirrors_factor_paths(model, hold_only):
    cfg = SimConfig(dt=0.5, horizon=20.0, paths=64, seed=2, antithetic=True)
    stats = simulate(model, hold_only, cfg)
    assert_allclose(stats.final_x[1::2], -stats.final_x[0::2], atol=1e-14)
    stats = simulate(*two_factor(), cfg)
    assert_allclose(stats.final_x[1::2], -stats.final_x[0::2], atol=1e-14)


def test_deterministic_market_is_exact():
    model = FactorModel(
        a=np.array([0.03]), A=np.array([[0.0]]), B=np.array([[-0.5]]),
        Sigma=np.zeros((1, 2)), Lambda=np.zeros((1, 2)),
    )
    cfg = SimConfig(dt=0.1, horizon=10.0, paths=8, seed=0)
    stats = simulate(model, scalar_strategy(2.0, 0.0), cfg)
    assert_allclose(stats.mean_u, 0.06 * 10.0, rtol=1e-12)
    assert stats.var_u == 0.0
    assert stats.mean_u_se == 0.0


def test_stationary_start_hits_invariant_law(model, hold_only):
    # the marginal law of X is time-invariant from the first step, so even a
    # short horizon must reproduce the asymptotic factor covariance
    cfg = SimConfig(dt=0.05, horizon=5.0, paths=20_000, seed=1)
    stats = simulate(model, hold_only, cfg, threads=2)
    delta = stationary_covariance(model)[0, 0]
    x = stats.final_x[:, 0]
    mean_se = np.sqrt(delta / cfg.paths)
    assert abs(x.mean()) < 3 * mean_se
    var_se = delta * np.sqrt(2.0 / (cfg.paths - 1))
    assert abs(x.var(ddof=1) - delta) < 3 * var_se


def test_zero_start_is_not_stationary(model, hold_only):
    cfg = SimConfig(dt=0.05, horizon=2.0, paths=4000, seed=1,
                    stationary_start=False)
    stats = simulate(model, hold_only, cfg)
    delta = stationary_covariance(model)[0, 0]
    # far less spread than the invariant law this early in the relaxation
    assert stats.final_x[:, 0].var(ddof=1) < 0.2 * delta


def test_growth_estimate_consistent(model):
    strat = scalar_strategy(1.0, 1.0)
    cfg = SimConfig(dt=0.25, horizon=2000.0, paths=2000, seed=6)
    stats = simulate(model, strat, cfg, threads=4)
    mom = moments(model, strat)
    z = (stats.mean_u - mom.growth_rate * cfg.horizon) / stats.mean_u_se
    assert abs(z) < 4.0


def test_antithetic_growth_unbiased(model, hold_only):
    cfg = SimConfig(dt=0.25, horizon=500.0, paths=2000, seed=8, antithetic=True)
    stats = simulate(model, hold_only, cfg, threads=2)
    mom = moments(model, hold_only)
    z = (stats.mean_u - mom.growth_rate * cfg.horizon) / stats.mean_u_se
    assert abs(z) < 4.0


def test_euler_scheme_agrees_with_exact(model, hold_only):
    exact = simulate(model, hold_only,
                     SimConfig(dt=0.02, horizon=100.0, paths=3000, seed=12),
                     threads=4)
    euler = simulate(model, hold_only,
                     SimConfig(dt=0.02, horizon=100.0, paths=3000, seed=13,
                               factor_scheme="euler"),
                     threads=4)
    se = np.hypot(exact.mean_u_se, euler.mean_u_se)
    assert abs(exact.mean_u - euler.mean_u) < 4.0 * se

    # two factors: the Euler step is the matrix recursion with I + B dt
    two, strat = two_factor()
    exact = simulate(two, strat, SimConfig(dt=0.1, horizon=20.0, paths=2000, seed=12))
    euler = simulate(two, strat, SimConfig(dt=0.1, horizon=20.0, paths=2000, seed=13,
                                           factor_scheme="euler"))
    se = np.hypot(exact.mean_u_se, euler.mean_u_se)
    assert abs(exact.mean_u - euler.mean_u) < 4.0 * se


def test_non_finite_blowup_located(model):
    with pytest.raises(SimulationError, match="non-finite value at step"):
        simulate(model, scalar_strategy(1e200, 0.0),
                 SimConfig(dt=0.1, horizon=5.0, paths=4, seed=0))


def test_strategy_shape_checked(model):
    bad = Strategy(h=np.zeros(2), H=np.zeros((2, 1)))
    with pytest.raises(DimensionError, match="strategy has h of shape"):
        simulate(model, bad, FAST)


def test_recommended_horizon_formula(model):
    assert_allclose(recommended_horizon(model), 100.0 * np.log(2.0) / 0.021,
                    rtol=1e-12)


def test_multi_factor_stat_shapes():
    model = FactorModel(
        a=np.array([0.02]),
        A=np.array([[-0.01, 0.005]]),
        B=np.array([[-0.05, 0.0], [0.0, -0.4]]),
        Sigma=np.array([[0.05, 0.001, 0.002]]),
        Lambda=np.array([[0.0, 0.6, 0.1], [0.0, 0.05, 0.3]]),
    )
    strat = Strategy(h=np.array([0.5]), H=np.array([[0.1, -0.2]]))
    stats = simulate(model, strat, SimConfig(dt=0.5, horizon=50.0, paths=256, seed=0))
    assert stats.cov_ux.shape == (2,)
    assert stats.cov_ux_se.shape == (2,)
    assert stats.mean_uxx.shape == (2, 2)
    assert stats.mean_uxx_se.shape == (2, 2)
    assert np.all(np.isfinite(stats.mean_uxx))


def test_asymptotics_zero_strategy_is_flat(model):
    cfg = SimConfig(dt=0.5, horizon=1.0, paths=64, seed=0)
    est = estimate_asymptotics(model, scalar_strategy(0.0, 0.0), cfg,
                               [10.0, 20.0, 30.0, 40.0])
    assert est.growth_slope == 0.0
    assert est.variance_slope == 0.0
    assert_allclose(est.second_moment_slope, 0.0, atol=1e-30)
    assert len(est.per_horizon) == 4


def test_asymptotics_validation(model, hold_only):
    cfg = SimConfig(dt=0.5, horizon=1.0, paths=64, seed=0)
    with pytest.raises(ValueError, match="4"):
        estimate_asymptotics(model, hold_only, cfg, [10.0, 20.0, 30.0])
    with pytest.raises(ValueError, match="increasing"):
        estimate_asymptotics(model, hold_only, cfg, [10.0, 20.0, 20.0, 30.0])


def test_discrete_series_deterministic(model):
    a = simulate_discrete(model, 60, seed=5)
    b = simulate_discrete(model, 60, seed=5)
    assert timeseries_to_csv(a) == timeseries_to_csv(b)
    c = simulate_discrete(model, 60, seed=6)
    assert timeseries_to_csv(a) != timeseries_to_csv(c)


def test_discrete_series_dates_and_shapes(model):
    data = simulate_discrete(model, 30, seed=0)
    assert data.dates[0] == "1970-01"
    assert data.dates[12] == "1971-01"
    assert data.excess_returns.shape == (30, 1)
    assert data.factor_levels.shape == (30, 1)


def test_discrete_series_noise_free_factors():
    model = FactorModel(
        a=np.array([0.01]), A=np.array([[-0.01]]), B=np.array([[-0.1]]),
        Sigma=np.array([[0.05, 0.0]]), Lambda=np.zeros((1, 2)),
    )
    data = simulate_discrete(model, 40, seed=1)
    assert_allclose(data.factor_levels, 0.0, atol=1e-16)
    assert data.excess_returns.std() > 0


def test_discrete_series_minimum_length(model):
    with pytest.raises(ValueError, match="24"):
        simulate_discrete(model, 23)


def test_draw_layout_pinned(model):
    # values recorded from the released draw layout; a change to the
    # generator, the block/chunk grouping or the draw order fails here
    cfg = SimConfig(dt=0.5, horizon=10.0, paths=64, seed=11)
    one = simulate(model, scalar_strategy(1.0, 0.5), cfg)
    assert_allclose(one.mean_u, -0.32130010051907165, rtol=1e-12)
    assert_allclose(one.var_u, 0.4251350539472187, rtol=1e-12)
    assert_allclose(one.final_u[:3], [0.21608580330333613, 0.10854752321942886,
                                      -0.2793234421178068], rtol=1e-12)
    two = simulate(*two_factor(), cfg)
    assert_allclose(two.mean_u, 0.07477278224382353, rtol=1e-12)
    assert_allclose(two.var_u, 0.010415819650705862, rtol=1e-12)
    assert_allclose(two.final_u[:3], [0.0003236058612103264, 0.1723725953253914,
                                      0.06073981960352743], rtol=1e-12)


@pytest.mark.parametrize("antithetic", [False, True])
def test_two_factor_standard_errors_match_kept_paths(antithetic):
    cfg = SimConfig(dt=0.5, horizon=20.0, paths=600, seed=5, antithetic=antithetic)
    stats = simulate(*two_factor(), cfg)
    u, x = stats.final_u, stats.final_x
    du, dx = u - u.mean(), x - x.mean(axis=0)
    for j in range(2):
        assert_allclose(stats.cov_ux_se[j], column_se(du * dx[:, j], antithetic), rtol=1e-12)
        for k in range(2):
            assert_allclose(stats.mean_uxx_se[j, k], column_se(u * x[:, j] * x[:, k], antithetic),
                            rtol=1e-12)


def reference_march(model, strategy, config):
    """Terminal (u, x) of one block, one step at a time through the direct formula.

    Draws follow the documented layout: the stationary start, then per
    CHUNK-step slab the Brownian normals and, for the exact scheme, the
    extra factor normals, each generated for a full block and sliced.  The
    increment is w'(mu dt + Sigma dW) - w'SS'w dt / 2 with w = h + Hx and
    mu = a + Ax, at the step's left endpoint.
    """
    m, n, dt, rows = model.m, model.n, config.dt, config.paths
    tr = mc._transition(model, dt, config.factor_scheme)
    rng = mc._block_rng(config.seed, 0, 0)

    def normals(shape):
        Z = rng.standard_normal(shape)
        if config.antithetic:
            Z[1::2] = -Z[0::2]
        return Z[:rows]

    SS = model.Sigma @ model.Sigma.T
    x = normals((BLOCK, n)) @ tr.x0_sqrt.T
    u = np.zeros(rows)
    steps = int(round(config.horizon / dt))
    for start in range(0, steps, CHUNK):
        dW = normals((BLOCK, CHUNK, m + n)) * np.sqrt(dt)
        extra = normals((BLOCK, CHUNK, n)) if tr.nu_from_z is not None else None
        for j in range(min(CHUNK, steps - start)):
            w = strategy.h + x @ strategy.H.T
            mu = model.a + x @ model.A.T
            drift = np.einsum("pm,pm->p", w, mu)
            quad = np.einsum("pm,pm->p", w @ SS, w)
            shock = np.einsum("pm,pm->p", w, dW[:, j] @ model.Sigma.T)
            u += (drift - 0.5 * quad) * dt + shock
            nu = dW[:, j] @ tr.nu_from_dw
            if extra is not None:
                nu = nu + extra[:, j] @ tr.nu_from_z
            x = x @ tr.phi.T + nu
    return u, x


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (3, 2), (2, 3)])
def test_increment_matches_direct_formula(shape):
    m, n = shape
    rng = np.random.default_rng(10 * m + n)
    model = random_stable_model(rng, m, n)
    strategy = Strategy(h=rng.normal(scale=0.5, size=m), H=rng.normal(scale=0.3, size=(m, n)))
    for scheme in ("exact", "euler"):
        for antithetic in (False, True):
            # 300 steps: one full slab and a partial last one
            cfg = SimConfig(dt=0.1, horizon=30.0, paths=64, seed=5, factor_scheme=scheme,
                            antithetic=antithetic)
            stats = simulate(model, strategy, cfg)
            u, x = reference_march(model, strategy, cfg)
            label = (scheme, antithetic)
            assert np.abs(stats.final_u - u).max() <= 1e-12 * np.abs(u).max(), label
            assert np.abs(stats.final_x - x).max() <= 1e-12 * np.abs(x).max(), label


def test_single_factor_path_is_the_linear_filter():
    from scipy.signal import lfilter

    rng = np.random.default_rng(2)
    x0, nu = rng.normal(size=(50, 1)), rng.normal(size=(CHUNK, 50, 1))
    c = 0.97
    path = mc._factor_path(x0, nu, np.array([[c]]))
    expected, _ = lfilter([1.0], [1.0, -c], nu[..., 0], axis=0, zi=c * x0[:, 0][None])
    assert np.array_equal(path[0], x0)
    assert np.array_equal(path[1:, :, 0], expected)
