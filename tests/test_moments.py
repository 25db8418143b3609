import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_stable_model, scalar_strategy
from longrun import (
    NumericError,
    Strategy,
    moments,
    scalar_moments,
    stationary_covariance,
)
from longrun.moments import _engine

# Frozen outputs for the bundled model, cross-validated against the
# independent scalar route and the Monte Carlo oracle before pinning.
PINNED = {
    (1.0, 0.0): dict(
        K=0.0189506310615,
        var=0.12716877380290698,
        P=-5.31903296201814,
        Y=[0.044249, -0.3538513809523809],
        S=0.0,
    ),
    (1.0, 1.0): dict(
        K=-0.10264265341432623,
        var=1.4575783231554489,
        P=2.842658723617457,
        Y=[0.044249, 0.18776822845936672],
        S=-54.97066454622897,
    ),
    (0.5, -1.0): dict(
        K=0.11263256689431067,
        var=1.5820082123134114,
        P=-11.265990912999204,
        Y=[0.0221245, -0.7480616142296833],
        S=46.48670031736268,
    ),
}


def test_stationary_covariance_pinned(model):
    dlt = stationary_covariance(model)
    assert dlt.shape == (1, 1)
    assert_allclose(dlt[0, 0], 9.537200238095238, rtol=1e-14)


@pytest.mark.parametrize("point", sorted(PINNED))
def test_pinned_values_matrix_route(model, point):
    mom = moments(model, scalar_strategy(*point))
    want = PINNED[point]
    assert_allclose(mom.growth_rate, want["K"], rtol=1e-12)
    assert_allclose(mom.variance_rate, want["var"], rtol=1e-12)
    assert_allclose(mom.wealth_factor_cov[0], want["P"], rtol=1e-12)
    assert_allclose(mom.shock_loading, want["Y"], rtol=1e-12)
    assert_allclose(mom.second_moment_offset[0, 0], want["S"], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("point", sorted(PINNED))
def test_pinned_values_scalar_route(model, point):
    mom = scalar_moments(model, scalar_strategy(*point))
    want = PINNED[point]
    assert_allclose(mom.growth_rate, want["K"], rtol=1e-12)
    assert_allclose(mom.variance_rate, want["var"], rtol=1e-12)
    assert_allclose(mom.wealth_factor_cov[0], want["P"], rtol=1e-12)


def test_routes_agree_on_grid(model):
    # tighter, smaller version of the acceptance sweep
    for h in np.linspace(-2, 2, 7):
        for H in np.linspace(-2, 2, 7):
            s = scalar_strategy(h, H)
            a = moments(model, s)
            b = scalar_moments(model, s)
            assert_allclose(a.growth_rate, b.growth_rate, rtol=1e-12, atol=1e-15)
            assert_allclose(a.variance_rate, b.variance_rate, rtol=1e-12, atol=1e-15)
            assert_allclose(a.wealth_factor_cov, b.wealth_factor_cov, rtol=1e-12, atol=1e-15)
            assert_allclose(a.second_moment_offset, b.second_moment_offset, rtol=1e-12, atol=1e-15)
            assert_allclose(a.shock_loading, b.shock_loading, rtol=1e-12, atol=1e-15)


def test_scalar_route_requires_scalar_model():
    rng = np.random.default_rng(5)
    big = random_stable_model(rng, 2, 1)
    with pytest.raises(ValueError, match="m = n = 1"):
        scalar_moments(big, Strategy(h=np.ones(2), H=np.zeros((2, 1))))


def test_zero_strategy_is_all_zero(model):
    mom = moments(model, scalar_strategy(0.0, 0.0))
    assert mom.growth_rate == 0.0
    assert mom.variance_rate == 0.0
    assert_allclose(mom.wealth_factor_cov, 0.0, atol=0.0)
    assert_allclose(mom.shock_loading, 0.0, atol=0.0)
    assert_allclose(mom.second_moment_offset, 0.0, atol=0.0)


def test_growth_rate_separates_h_and_H(model):
    # the growth rate has no h-H cross term, so it decomposes exactly
    rng = np.random.default_rng(11)
    for _ in range(20):
        h, H = rng.normal(size=2)
        full = moments(model, scalar_strategy(h, H)).growth_rate
        parts = (moments(model, scalar_strategy(h, 0.0)).growth_rate
                 + moments(model, scalar_strategy(0.0, H)).growth_rate)
        assert_allclose(full, parts, rtol=1e-12, atol=1e-16)


def test_second_moment_slope_construction(model):
    mom = moments(model, scalar_strategy(1.0, 1.0))
    assert_allclose(
        mom.second_moment_slope,
        mom.growth_rate * mom.factor_cov,
        rtol=0, atol=0,
    )


def test_brownian_rotation_invariance():
    # Sigma and Lambda enter every limit only through their Gram products,
    # so rotating the m+n Brownian coordinates must not change anything.
    rng = np.random.default_rng(303)
    for _ in range(10):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        model = random_stable_model(rng, m, n)
        k = m + n
        Qmat, _ = np.linalg.qr(rng.normal(size=(k, k)))
        rotated = type(model)(
            a=model.a, A=model.A, B=model.B,
            Sigma=model.Sigma @ Qmat, Lambda=model.Lambda @ Qmat,
        )
        strat = Strategy(h=rng.normal(size=m), H=rng.normal(size=(m, n)))
        a_side = moments(model, strat)
        b_side = moments(rotated, strat)
        assert_allclose(a_side.growth_rate, b_side.growth_rate, rtol=1e-10, atol=1e-12)
        assert_allclose(a_side.variance_rate, b_side.variance_rate, rtol=1e-10, atol=1e-12)
        assert_allclose(a_side.wealth_factor_cov, b_side.wealth_factor_cov, rtol=1e-10, atol=1e-12)
        assert_allclose(a_side.second_moment_offset, b_side.second_moment_offset, rtol=1e-9, atol=1e-10)
        # the shock loading itself rotates; only its length is invariant
        assert_allclose(
            np.linalg.norm(a_side.shock_loading),
            np.linalg.norm(b_side.shock_loading),
            rtol=1e-10,
        )


def test_variance_rate_nonnegative_random():
    rng = np.random.default_rng(99)
    for _ in range(50):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        model = random_stable_model(rng, m, n)
        strat = Strategy(h=rng.normal(size=m), H=rng.normal(size=(m, n)))
        mom = moments(model, strat)
        rate, Y, S = mom.variance_rate, mom.shock_loading, mom.second_moment_offset
        assert rate >= -1e-9
        assert np.all(np.isfinite(Y))
        assert_allclose(S, S.T, atol=1e-8 * max(1.0, np.abs(S).max()))


def test_multi_factor_shapes():
    rng = np.random.default_rng(42)
    model = random_stable_model(rng, 2, 3)
    strat = Strategy(h=rng.normal(size=2), H=rng.normal(size=(2, 3)))
    mom = moments(model, strat)
    assert mom.factor_cov.shape == (3, 3)
    assert mom.wealth_factor_cov.shape == (3,)
    assert mom.shock_loading.shape == (5,)
    assert mom.second_moment_offset.shape == (3, 3)
    assert mom.second_moment_slope.shape == (3, 3)
    assert np.isfinite(mom.variance_rate)


def test_variance_rate_shape_in_H_has_interior_minimum(model):
    # with full investment the variance is not minimized by refusing to
    # hedge: some nonzero tilt strictly beats H = 0
    grid = np.linspace(-3, 3, 121)
    rates = [moments(model, scalar_strategy(1.0, v)).variance_rate for v in grid]
    k = int(np.argmin(rates))
    assert 0 < k < len(grid) - 1
    assert abs(grid[k]) > 0.01
    assert rates[k] < moments(model, scalar_strategy(1.0, 0.0)).variance_rate


@pytest.mark.parametrize("h, H, field", [
    (1.0, 1e150, "variance_rate"),       # only the rate's S M product overflows
    (1.0, 1e200, "growth_rate"),         # H'SS'H overflows, and with it the offset's solve
    (1e200, 0.0, "growth_rate"),
])
def test_overflowed_moment_raises_numeric_error(model, h, H, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # no RuntimeWarning on the way
        with pytest.raises(NumericError, match=f"non-finite {field}"):
            moments(model, scalar_strategy(h, H))


def test_overflowed_row_fails_its_stack():
    model = random_stable_model(np.random.default_rng(5), 3, 2)
    h, H = np.ones((2, 3)), np.ones((2, 3, 2))
    assert np.all(np.isfinite(moments(model, (h, H)).variance_rate))
    H[1, 0, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite growth_rate"):
            moments(model, (h, H))


def test_unchecked_engine_keeps_the_finite_rows():
    model = random_stable_model(np.random.default_rng(5), 3, 2)
    h, H = np.ones((4, 3)), np.ones((4, 3, 2))
    H[1, 0, 0] = 1e200
    H[3, 0, 0] = 1e150        # S is finite, but its residual check overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mom = _engine(model, h, H, check=False)
    assert not np.isfinite(mom.growth_rate[1])
    assert np.isfinite(mom.growth_rate[3]) and np.isnan(mom.second_moment_offset[3]).all()
    keep = moments(model, (h[[0, 2]], H[[0, 2]]))
    for name in ("growth_rate", "variance_rate", "wealth_factor_cov", "second_moment_offset"):
        assert_allclose(getattr(mom, name)[[0, 2]], getattr(keep, name), rtol=1e-13, err_msg=name)
