"""End-to-end acceptance checks for the whole package.

Each test pins one of the headline guarantees: dual-route agreement of the
closed forms, Lyapunov solver correctness against a dense vectorization
oracle, Monte Carlo confirmation of every asymptotic moment, the published
calibration constants, statistical round-tripping of the calibration
pipeline, the qualitative shape of the optimal strategy as the risk and
factor sensitivities move, and byte-exact reproducibility of the CLI.

The two Monte Carlo tests dominate the runtime (about 80 s with four worker
threads on two cores); everything else finishes in seconds.
"""

import json
import time

import numpy as np
from numpy.testing import assert_allclose

from conftest import random_stable_model, scalar_strategy
from longrun import (
    SimConfig,
    estimate_asymptotics,
    estimate_discrete,
    moments,
    reference_model,
    report_from_estimates,
    reference_estimates,
    scalar_moments,
    simulate,
    simulate_discrete,
    stationary_covariance,
    sweep_gamma,
    sweep_theta,
    to_continuous,
)
from longrun.cli import main
from test_linalg import kron_lyapunov

THREADS = 4


# 1. scalar-route and matrix-route closed forms agree everywhere -------------

def test_scalar_and_matrix_routes_agree():
    model = reference_model()
    grid = np.linspace(-3.0, 3.0, 21)
    start = time.perf_counter()
    for h in grid:
        for H in grid:
            strat = scalar_strategy(h, H)
            a = moments(model, strat)
            b = scalar_moments(model, strat)
            assert_allclose(b.growth_rate, a.growth_rate, rtol=1e-10, atol=1e-300)
            assert_allclose(b.wealth_factor_cov, a.wealth_factor_cov,
                            rtol=1e-10, atol=1e-12)
            assert_allclose(b.variance_rate, a.variance_rate, rtol=1e-10, atol=1e-12)
    assert time.perf_counter() - start < 1.0


# 2. Lyapunov solutions vs dense vectorization oracle ------------------------

def test_lyapunov_solver_against_dense_oracle():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(1, 5))
        model = random_stable_model(rng, 1, n)
        B = model.B
        C = model.Lambda @ model.Lambda.T
        dlt = stationary_covariance(model)
        res = np.linalg.norm(B @ dlt + dlt @ B.T + C)
        scale = np.linalg.norm(B) * np.linalg.norm(dlt) + np.linalg.norm(C)
        assert res <= 1e-10 * max(scale, 1e-300)
        assert_allclose(dlt, dlt.T, atol=1e-13)
        assert np.linalg.eigvalsh(dlt).min() >= -1e-10 * max(abs(np.linalg.eigvalsh(dlt)).max(), 1.0)
        oracle = kron_lyapunov(B, -C)
        assert_allclose(dlt, oracle, rtol=1e-8, atol=1e-12)
    assert time.perf_counter() - start < 5.0


# 5. published estimates map to the documented constants ---------------------

def test_reference_tables_reproduce_documented_constants():
    model = to_continuous(reference_estimates())
    assert_allclose(model.a[0], 0.01993, rtol=5e-4)
    assert_allclose(model.A[0, 0], -0.01177, rtol=5e-4)
    assert_allclose(model.B[0, 0], -0.021, rtol=5e-4)
    lam = np.linalg.norm(model.Lambda[0])
    assert_allclose(lam, 0.6329, rtol=5e-4)
    eta = (model.Lambda @ model.Sigma.T)[0, 0] / lam
    assert_allclose(eta, 0.000874, rtol=5e-4)
    assert_allclose(np.linalg.norm(model.Sigma[0]), 0.044249, rtol=5e-4)


# 6. synthetic series -> calibration recovers the generator ------------------

def test_calibration_round_trip_within_five_percent():
    model = reference_model()
    data = simulate_discrete(model, 100_000, seed=0)
    est = report_from_estimates(estimate_discrete(data)).model

    def rel(est_block, true_block):
        t = np.linalg.norm(np.atleast_1d(true_block))
        return np.linalg.norm(np.atleast_1d(est_block) - np.atleast_1d(true_block)) / t

    assert rel(est.a, model.a) < 0.05
    assert rel(est.A, model.A) < 0.05
    assert rel(est.B, model.B) < 0.05
    assert rel(est.Sigma @ est.Sigma.T, model.Sigma @ model.Sigma.T) < 0.05
    assert rel(est.Lambda @ est.Lambda.T, model.Lambda @ model.Lambda.T) < 0.05
    assert rel(est.Lambda @ est.Sigma.T, model.Lambda @ model.Sigma.T) < 0.05


# 7. variance rate has a non-trivial interior minimum in the tilt ------------

def test_variance_rate_interior_minimum():
    model = reference_model()
    grid = np.linspace(-3.0, 3.0, 121)
    rates = [moments(model, scalar_strategy(1.0, H)).variance_rate for H in grid]
    k = int(np.argmin(rates))
    assert 0 < k < len(grid) - 1
    assert abs(grid[k]) > 0.01


# 8. risk-sensitivity sweep shapes -------------------------------------------

def test_risk_sweep_monotone_with_stable_ratio():
    model = reference_model()
    thetas = np.geomspace(0.25, 64.0, 13)
    res = sweep_theta(model, thetas)
    assert not res.failed.any()
    w = res.values
    assert all(w[i + 1] <= w[i] for i in range(len(w) - 1))
    h = res.h_star[:, 0]
    assert np.all(h > 0)
    assert all(h[i + 1] <= h[i] * 1.01 for i in range(len(h) - 1))
    ratios = res.ratio()
    top = ratios[thetas >= thetas[-4]]
    spread = (top.max() - top.min()) / abs(np.mean(top))
    assert spread < 0.10


# 9. factor-sensitivity sweep moves the level more than the tilt -------------

def test_factor_sweep_shifts_level_more_than_tilt():
    model = reference_model()
    res = sweep_gamma(model, 1.0, np.linspace(0.0, 0.01, 11))
    assert not res.failed.any()
    h = res.h_star[:, 0]
    H = res.H_star[:, 0, 0]
    assert h[-1] < h[0]
    dh = abs((h[-1] - h[0]) / h[0])
    dH = abs((H[-1] - H[0]) / H[0])
    assert dH < dh


# 10. CLI runs replay byte-identically from their manifests ------------------

def test_cli_manifest_replay_byte_identical(tmp_path):
    cal = tmp_path / "cal"
    assert main(["calibrate", "--from-tables", "--out", str(cal)]) == 0
    model_file = str(cal / "model.json")
    runs = [
        ["calibrate", "--from-tables"],
        ["moments", "--model", model_file, "--h", "0.5", "--H=-1"],
        ["sweep", "--model", model_file, "--mode", "H", "--range=-1:1:9"],
        ["simulate", "--model", model_file, "--dt", "0.5", "--horizon", "40",
         "--paths", "64", "--dump-paths"],
        ["simulate", "--model", model_file, "--discrete", "36"],
        ["optimize", "--model", model_file, "--theta", "2", "--grid-points", "31"],
    ]
    for k, argv in enumerate(runs):
        first = tmp_path / f"run{k}a"
        second = tmp_path / f"run{k}b"
        assert main(argv + ["--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert main(manifest["argv"] + ["--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (
                f"{argv[0]}: {name} differs on replay")


# 3. Monte Carlo confirmation of the closed-form moments ---------------------

def test_monte_carlo_confirms_closed_forms():
    model = reference_model()
    cfg = SimConfig(dt=0.1, horizon=10_000.0, paths=10_000, seed=0)
    cases = [(1.0, 0.0), (1.0, 1.0), (0.5, -1.0)]
    # one march for the three strategies; each row is bit for bit its own run
    stack = (np.array([[h] for h, _ in cases]), np.array([[[H]] for _, H in cases]))
    stats = simulate(model, stack, cfg, threads=THREADS)
    T = stats.horizon
    for i, (h, H) in enumerate(cases):
        mom = moments(model, scalar_strategy(h, H))
        z_growth = (stats.mean_u[i] - mom.growth_rate * T) / stats.mean_u_se[i]
        z_var = (stats.var_u[i] - mom.variance_rate * T) / stats.var_u_se[i]
        z_cov = (stats.cov_ux[i, 0] - mom.wealth_factor_cov[0]) / stats.cov_ux_se[i, 0]
        for name, z in (("growth", z_growth), ("variance", z_var), ("covariance", z_cov)):
            assert abs(z) < 3.0, f"(h={h}, H={H}) {name} z={z:+.2f}"


# 4. second-moment slope equals growth rate times factor covariance ----------

def test_second_moment_slope_confirmed_by_simulation():
    model = reference_model()
    strat = scalar_strategy(1.0, 1.0)
    mom = moments(model, strat)
    cfg = SimConfig(dt=0.25, horizon=1.0, paths=4000, seed=0)
    est = estimate_asymptotics(model, strat, cfg,
                               [2500.0, 5000.0, 7500.0, 10_000.0],
                               threads=THREADS)
    slope = mom.second_moment_slope[0, 0]
    assert_allclose(slope, mom.growth_rate * mom.factor_cov[0, 0], rtol=1e-14)
    z_slope = (est.second_moment_slope[0, 0] - slope) / est.second_moment_slope_se[0, 0]
    assert abs(z_slope) < 3.0, f"slope z={z_slope:+.2f}"
    offset = mom.second_moment_offset[0, 0]
    z_off = (est.second_moment_offset[0, 0] - offset) / est.second_moment_offset_se[0, 0]
    assert abs(z_off) < 5.0, f"offset z={z_off:+.2f}"
