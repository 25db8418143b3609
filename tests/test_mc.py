import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from conftest import random_stable_model, scalar_strategy
from longrun import (
    CriterionParams,
    DimensionError,
    FactorModel,
    ModelValidationError,
    OptimizerConfig,
    PathStats,
    SimConfig,
    SimulationError,
    Strategy,
    calibrate,
    estimate_asymptotics,
    moments,
    optimize,
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
    # dt and horizon take finite real numbers, and no boolean or string
    for name in ("dt", "horizon"):
        for value in (True, np.True_, "0.1", None, np.inf, np.nan):
            with pytest.raises(ValueError, match=f"{name} must be a finite positive number"):
                SimConfig(**{"dt": 0.1, "horizon": 10.0, "paths": 16, name: value})
    assert SimConfig(dt=np.float32(0.5), horizon=np.int64(10), paths=16).horizon == 10
    with pytest.raises(ValueError, match="paths"):
        SimConfig(dt=0.1, horizon=10.0, paths=1)
    with pytest.raises(ValueError, match="factor_scheme"):
        SimConfig(dt=0.1, horizon=10.0, paths=16, factor_scheme="milstein")
    with pytest.raises(ValueError, match="even"):
        SimConfig(dt=0.1, horizon=10.0, paths=15, antithetic=True)
    for paths in (64.0, 64.5, float("nan"), True, "64"):
        with pytest.raises(ValueError, match="paths must be an integer"):
            SimConfig(dt=0.1, horizon=10.0, paths=paths)
    assert SimConfig(dt=0.1, horizon=10.0, paths=np.int64(64)).paths == 64
    for seed in (1.5, float("nan"), True, "3"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimConfig(dt=0.1, horizon=10.0, paths=16, seed=seed)
    assert SimConfig(dt=0.1, horizon=10.0, paths=16, seed=np.uint64(2**63)).seed == 2**63
    for name in ("antithetic", "stationary_start"):
        for value in ("no", 1, None):
            with pytest.raises(ValueError, match=f"{name} must be a boolean"):
                SimConfig(dt=0.1, horizon=10.0, paths=16, **{name: value})
    assert SimConfig(dt=0.1, horizon=10.0, paths=16, antithetic=np.True_).antithetic


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
    # values recorded from draw contract v3; a change to the generator, the
    # block grouping, the draw order or the shock map fails here
    cfg = SimConfig(dt=0.5, horizon=10.0, paths=64, seed=11)
    one = simulate(model, scalar_strategy(1.0, 0.5), cfg)
    assert_allclose(one.mean_u, -0.4107612416208554, rtol=1e-12)
    assert_allclose(one.var_u, 0.9283540701503009, rtol=1e-12)
    assert_allclose(one.final_u[:3], [-0.030546158982185857, -0.302539719994515,
                                      -0.2593287820631455], rtol=1e-12)
    two = simulate(*two_factor(), cfg)
    assert_allclose(two.mean_u, 0.05090980861266929, rtol=1e-12)
    assert_allclose(two.var_u, 0.012805074540081184, rtol=1e-12)
    assert_allclose(two.final_u[:3], [0.2199069279009681, -0.06850452631931171,
                                      0.11285439914421871], rtol=1e-12)


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

    Draws follow the documented layout: the stationary start, then one
    (n, BLOCK) array of normals per step, then one closing (BLOCK,) array,
    each drawn for a full block and sliced.  The law comes from the joint
    covariance of one step's [nu | Y], Y = dW G with G = Sigma'[h H], not
    from the shock map: nu = z R with R'R = Cov(nu), R upper triangular with
    a positive diagonal, and Gaussian conditioning gives E[Y | nu] and
    Cov(Y | nu).  The increment is w'mu dt - w'SS'w dt / 2 + E[Y | nu].(1, x)
    with w = h + Hx and mu = a + Ax, at the step's left endpoint; the rest
    of the shock adds sqrt(V) times the closing normal, V summing
    (1, x)'Cov(Y | nu)(1, x) over the steps.
    """
    n, dt, rows = model.n, config.dt, config.paths
    tr = mc._transition(model, dt, config.factor_scheme)
    G = model.Sigma.T @ np.column_stack([strategy.h, strategy.H])
    cov = step_covariance(model, dt, config.factor_scheme, G)
    cov_nu, cov_nu_y = cov[:n, :n], cov[:n, n:]
    R = np.linalg.cholesky(cov_nu).T
    gain = np.linalg.solve(cov_nu, cov_nu_y)            # E[Y | nu] = nu @ gain
    cond = cov[n:, n:] - cov_nu_y.T @ gain              # Cov(Y | nu)
    rng = mc._block_rng(config.seed, 0, 0)

    def normals(shape):
        Z = rng.standard_normal(shape)
        if config.antithetic:
            Z[..., 1::2] = -Z[..., 0::2]
        return Z[..., :rows]

    SS = model.Sigma @ model.Sigma.T
    x = (tr.x0_sqrt @ normals((n, BLOCK))).T
    u, V = np.zeros(rows), np.zeros(rows)
    for _ in range(int(round(config.horizon / dt))):
        nu = normals((n, BLOCK)).T @ R
        one_x = np.column_stack([np.ones(rows), x])
        w = strategy.h + x @ strategy.H.T
        mu = model.a + x @ model.A.T
        drift = np.einsum("pm,pm->p", w, mu)
        quad = np.einsum("pm,pm->p", w @ SS, w)
        u += (drift - 0.5 * quad) * dt + np.einsum("pi,pi->p", one_x, nu @ gain)
        V += np.einsum("pi,ij,pj->p", one_x, cond, one_x)
        x = x @ tr.phi.T + nu
    return u + np.sqrt(V) * normals(BLOCK), x


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (3, 2), (2, 3)])
def test_increment_matches_direct_formula(shape):
    m, n = shape
    rng = np.random.default_rng(10 * m + n)
    model = random_stable_model(rng, m, n)
    strategy = Strategy(h=rng.normal(scale=0.5, size=m), H=rng.normal(scale=0.3, size=(m, n)))
    for scheme in ("exact", "euler"):
        for antithetic in (False, True):
            # 300 steps: nine full slabs and a partial last one
            cfg = SimConfig(dt=0.1, horizon=30.0, paths=64, seed=5, factor_scheme=scheme,
                            antithetic=antithetic)
            stats = simulate(model, strategy, cfg)
            u, x = reference_march(model, strategy, cfg)
            label = (scheme, antithetic)
            assert np.abs(stats.final_u - u).max() <= 1e-12 * np.abs(u).max(), label
            assert np.abs(stats.final_x - x).max() <= 1e-12 * np.abs(x).max(), label


def step_covariance(model, dt, scheme, G):
    """Joint covariance of one step's [nu | dW G], from the transition's closed forms."""
    Lm = model.Lambda
    if scheme == "euler":
        cov_nu, cov_nu_dw = Lm @ Lm.T * dt, Lm * dt
    else:
        phi = scipy.linalg.expm(model.B * dt)
        delta = stationary_covariance(model)
        cov_nu = delta - phi @ delta @ phi.T
        cov_nu_dw = np.linalg.solve(model.B, (phi - np.eye(model.n)) @ Lm)
    cross = cov_nu_dw @ G
    return np.block([[cov_nu, cross], [cross.T, G.T @ G * dt]])


@pytest.mark.parametrize("scheme", ["exact", "euler"])
def test_shock_map_has_the_step_law(scheme):
    dt = 0.1
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            rng = np.random.default_rng(100 + 10 * m + n)
            model = random_stable_model(rng, m, n)
            strategy = Strategy(h=rng.normal(size=m), H=rng.normal(size=(m, n)))
            F = mc._increment(model, strategy, mc._transition(model, dt, scheme), dt)[-1]
            G = model.Sigma.T @ np.column_stack([strategy.h, strategy.H])
            cov = step_covariance(model, dt, scheme, G)
            rows = m + n + (n if scheme == "exact" else 0)
            assert F.shape == (min(rows, 1 + 2 * n), 1 + 2 * n), (m, n)
            assert np.array_equal(F, np.triu(F)), (m, n)
            assert np.all(F[n:, :n] == 0.0), (m, n)
            assert np.abs(F.T @ F - cov).max() <= 1e-14 * np.abs(cov).max(), (m, n)


@pytest.mark.parametrize("scheme", ["exact", "euler"])
def test_shock_map_sign_is_canonical(model, scheme):
    # F is the triangular factor of T'T with a nonnegative diagonal
    dt = 0.1
    for m, n in ((1, 1), (2, 3), (3, 2)):
        rng = np.random.default_rng(200 + 10 * m + n)
        wide = random_stable_model(rng, m, n)
        strategy = Strategy(h=rng.normal(size=m), H=rng.normal(size=(m, n)))
        F = mc._increment(wide, strategy, mc._transition(wide, dt, scheme), dt)[-1]
        assert not np.any(np.signbit(np.diag(F))), (m, n)

    # a zero of T rounded to -0.0 or +0.0 gives the same bits: the reference
    # model's Lambda[0, 0] = 0 in cov(nu, dW), and the zero tilt of H = 0
    tr = mc._transition(model, dt, scheme)
    assert tr.nu_from_dw[0, 0] == 0.0
    for G in (model.Sigma.T @ np.array([[1.0, 0.5]]), model.Sigma.T @ np.array([[1.0, 0.0]])):
        F = mc._shock_map(tr, G, dt)
        for zero in (0.0, -0.0):
            nu_from_dw = tr.nu_from_dw.copy()
            nu_from_dw[0, 0] = zero
            flipped = np.where(G == 0.0, zero, G)
            other = mc._shock_map(dataclasses.replace(tr, nu_from_dw=nu_from_dw), flipped, dt)
            assert other.tobytes() == F.tobytes(), zero


def test_block_draws_only_the_factor_normals(monkeypatch):
    # per block: n normals per path for the start, n per path and step, and
    # one closing normal per path
    drawn = []

    def counting(rng, out, antithetic):
        drawn.append(out.size)
        return normals(rng, out, antithetic)

    normals = mc._normals
    monkeypatch.setattr(mc, "_normals", counting)
    for m, n in ((1, 1), (3, 2), (2, 3)):
        model = random_stable_model(np.random.default_rng(50 + 10 * m + n), m, n)
        strategy = Strategy(h=np.full(m, 0.5), H=np.full((m, n), 0.1))
        for scheme in ("exact", "euler"):
            for antithetic in (False, True):
                # 45 steps: slabs of 16, 16 and 13
                cfg = SimConfig(dt=0.2, horizon=9.0, paths=100, seed=2, factor_scheme=scheme,
                                antithetic=antithetic)
                drawn.clear()
                simulate(model, strategy, cfg)
                assert sum(drawn) == BLOCK * n + 45 * BLOCK * n + BLOCK, (m, n, scheme, antithetic)


@pytest.mark.parametrize("scheme", ["exact", "euler"])
def test_factor_paths_shared_across_strategies(scheme):
    for m, n in ((2, 3), (3, 3), (3, 2)):
        rng = np.random.default_rng(30 + 10 * m + n)
        model = random_stable_model(rng, m, n)
        cfg = SimConfig(dt=0.5, horizon=20.0, paths=BLOCK + 40, seed=4, factor_scheme=scheme)
        zero = simulate(model, Strategy(h=np.zeros(m), H=np.zeros((m, n))), cfg)
        assert np.all(zero.final_u == 0.0), (m, n)
        for strategy in (Strategy(h=rng.normal(size=m), H=np.zeros((m, n))),
                         Strategy(h=rng.normal(size=m), H=rng.normal(scale=0.3, size=(m, n)))):
            stats = simulate(model, strategy, cfg)
            assert np.array_equal(stats.final_x, zero.final_x), (m, n)
            assert np.all(stats.final_u != 0.0), (m, n)


def test_chunk_sets_only_memory(monkeypatch):
    # u is summed over fixed periods that no slab straddles, so the slab
    # length moves neither the draws nor the rounding of any result
    model = random_stable_model(np.random.default_rng(8), 2, 3)
    strategy = Strategy(h=np.array([0.4, -0.3]), H=np.full((2, 3), 0.2))
    for scheme in ("exact", "euler"):
        # 300 steps: eighteen slabs of 16 and one of 12, or eight of 37 and one of 4
        cfg = SimConfig(dt=0.1, horizon=30.0, paths=100, seed=6, factor_scheme=scheme,
                        antithetic=True)
        base = simulate(model, strategy, cfg)
        for chunk in (1, 5, 8, 37):
            with monkeypatch.context() as patch:
                patch.setattr(mc, "CHUNK", chunk)
                other = simulate(model, strategy, cfg)
            for field in dataclasses.fields(PathStats):
                assert np.array_equal(getattr(other, field.name), getattr(base, field.name)), \
                    (scheme, chunk, field.name)


@pytest.mark.parametrize("scheme", ["exact", "euler"])
def test_overflowing_strategy_raises_without_warning(model, scheme):
    wide = random_stable_model(np.random.default_rng(9), 3, 2)
    cases = ((model, scalar_strategy(1e200, 0.0)),
             (wide, Strategy(h=np.full(3, 1e200), H=np.zeros((3, 2)))))
    for mdl, strategy in cases:
        cfg = SimConfig(dt=0.1, horizon=5.0, paths=4, seed=0, factor_scheme=scheme)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match="non-finite value at step"):
                simulate(mdl, strategy, cfg)


@pytest.mark.parametrize("h, dt, message", [
    (1e140, 0.1, "non-finite mean_uxx_se"),     # u x x' overflows in its standard error
    (3e154, 0.1, "non-finite mean_u"),          # the sum over paths overflows
    (1e155, 1.0, "non-finite log wealth by step 32, path 0"),   # one slab's sum overflows
])
def test_overflowing_summary_raises_without_warning(model, h, dt, message):
    cfg = SimConfig(dt=dt, horizon=100.0, paths=4, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match=message):
            simulate(model, scalar_strategy(h, 0.0), cfg)


def test_slab_memory_peak():
    # two blocks of 300 steps: the traced peak is each running block's working
    # set, 3.6 MB at 3x2 with slabs of 16 steps under draw contract v3 (8.1 MB
    # with 32 and fresh arrays every slab, 46 MB with 256, under earlier ones)
    model = random_stable_model(np.random.default_rng(7), 3, 2)
    strategy = Strategy(h=np.array([0.4, -0.2, 0.3]), H=np.full((3, 2), 0.1))
    cfg = SimConfig(dt=0.1, horizon=30.0, paths=2 * BLOCK, seed=1)
    for threads in (1, 2):
        tracemalloc.start()
        try:
            simulate(model, strategy, cfg, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6 * threads, (threads, peak / 1e6)


def test_single_factor_path_is_the_linear_filter():
    from scipy.signal import lfilter

    rng = np.random.default_rng(2)
    x0, nu = rng.normal(size=(50, 1)), rng.normal(size=(CHUNK, 50, 1))
    c = 0.97
    path = mc._factor_path(x0.T, nu.transpose(0, 2, 1), np.array([[c]]))
    expected, _ = lfilter([1.0], [1.0, -c], nu[..., 0], axis=0, zi=c * x0[:, 0][None])
    assert np.array_equal(path[0], x0.T)
    assert np.array_equal(path[1:, 0], expected)


def stack_of(strategies):
    """The ``(h, H)`` stack of a list of Strategy."""
    return np.array([s.h for s in strategies]), np.array([s.H for s in strategies])


SHARED_FIELDS = ("horizon", "dt", "paths", "final_x")


def assert_row_matches(stacked, i, single, label):
    """Row i of a stacked PathStats is bit for bit the single-strategy result."""
    for field in dataclasses.fields(PathStats):
        got = getattr(stacked, field.name)
        if field.name not in SHARED_FIELDS:
            got = got[i]
        want = getattr(single, field.name)
        assert np.shape(got) == np.shape(want), (label, field.name)
        assert np.array_equal(got, want), (label, field.name)


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 3)])
def test_stack_rows_match_single_runs(shape):
    m, n = shape
    rng = np.random.default_rng(40 + 10 * m + n)
    model = random_stable_model(rng, m, n)
    strategies = [Strategy(h=np.zeros(m), H=np.zeros((m, n))),
                  Strategy(h=rng.normal(scale=0.5, size=m), H=np.zeros((m, n))),
                  Strategy(h=rng.normal(scale=0.5, size=m), H=rng.normal(scale=0.3, size=(m, n)))]
    for scheme in ("exact", "euler"):
        for antithetic in (False, True):
            # two blocks, 45 steps: a partial slab in the second summation period
            cfg = SimConfig(dt=0.2, horizon=9.0, paths=BLOCK + 40, seed=7, factor_scheme=scheme,
                            antithetic=antithetic)
            singles = [simulate(model, s, cfg) for s in strategies]
            for threads in (1, 2):
                stacked = simulate(model, stack_of(strategies), cfg, threads=threads)
                assert stacked.final_u.shape == (3, cfg.paths)
                assert stacked.mean_uxx.shape == (3, n, n)
                for i, single in enumerate(singles):
                    assert_row_matches(stacked, i, single, (scheme, antithetic, threads, i))
            one = simulate(model, stack_of(strategies[2:]), cfg)
            assert_row_matches(one, 0, singles[2], (scheme, antithetic, "stack of one"))


def test_stack_input_checked(model):
    h, H = np.ones((2, 1)), np.zeros((2, 1, 1))
    cfg = SimConfig(dt=0.5, horizon=5.0, paths=8)
    for bad in ((np.ones((2, 2)), H), (np.ones(2), H), (h, np.zeros((2, 1, 2))),
                (h, np.zeros((3, 1, 1))), (np.ones((0, 1)), np.zeros((0, 1, 1)))):
        with pytest.raises(DimensionError):
            simulate(model, bad, cfg)
    for value in (np.nan, np.inf):
        with pytest.raises(ModelValidationError, match="non-finite"):
            simulate(model, (np.array([[1.0], [value]]), H), cfg)
        with pytest.raises(ModelValidationError, match="non-finite"):
            simulate(model, (h, np.array([[[0.0]], [[value]]])), cfg)


def test_stack_errors_name_the_strategy(model):
    cfg = SimConfig(dt=0.1, horizon=5.0, paths=4, seed=0)
    stack = (np.array([[1.0], [1e200]]), np.zeros((2, 1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match="non-finite value at step 0, path 0, strategy 1"):
            simulate(model, stack, cfg)
        with pytest.raises(SimulationError, match=r"non-finite mean_uxx_se, strategy 1"):
            simulate(model, (np.array([[1.0], [1e140]]), np.zeros((2, 1, 1))), cfg)


def test_requests_call_no_scipy_routine_that_wakes_its_pool(monkeypatch):
    # scipy.linalg.expm and solve_triangular wake the worker of scipy's own
    # OpenBLAS copy, which then spins on another core: no request reaches them
    def refuse(*args, **kwargs):
        raise AssertionError("a request path called a scipy.linalg routine that wakes its pool")

    for name in ("expm", "solve_triangular"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    model = random_stable_model(np.random.default_rng(0), 3, 2)
    assert calibrate(simulate_discrete(model, 240, seed=1)).model.B.shape == (2, 2)
    strategy = Strategy(h=np.array([0.4, -0.2, 0.3]), H=np.full((3, 2), 0.1))
    assert np.isfinite(moments(model, strategy).growth_rate)
    best = optimize(model, CriterionParams(theta=1.0, gamma=np.zeros(2)),
                    OptimizerConfig(local_restarts=2))
    cfg = SimConfig(dt=0.5, horizon=10.0, paths=2 * BLOCK, seed=2)
    assert np.isfinite(simulate(model, best.strategy, cfg, threads=2).mean_u)
    fit = estimate_asymptotics(model, strategy, cfg, [5.0, 10.0, 15.0, 20.0], threads=2)
    assert np.isfinite(fit.growth_slope)
