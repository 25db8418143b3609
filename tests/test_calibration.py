import numpy as np
import pytest
from numpy.testing import assert_allclose

from longrun import (
    CalibrationDataError,
    CalibrationNumericError,
    DiscreteEstimates,
    TimeSeriesData,
    calibrate,
    estimate_discrete,
    read_timeseries_csv,
    reference_estimates,
    report_from_estimates,
    simulate_discrete,
    timeseries_to_csv,
    to_continuous,
)
from conftest import random_stable_model


def month_range(count, start_year=1990):
    out = []
    y, m = start_year, 0
    for _ in range(count):
        out.append(f"{y:04d}-{m + 1:02d}")
        m += 1
        if m == 12:
            y, m = y + 1, 0
    return out


def synthetic_data(T=120, seed=3, n=1):
    rng = np.random.default_rng(seed)
    returns = 0.01 + 0.04 * rng.standard_normal((T, 1))
    levels = np.cumsum(0.1 * rng.standard_normal((T, n)), axis=0)
    return TimeSeriesData(tuple(month_range(T)), returns, levels)


# ---------------------------------------------------------------------------
# published-table fixture


def test_reference_estimates_shapes():
    est = reference_estimates()
    assert est.nobs == 371
    assert est.return_const.shape == (1,)
    assert est.persistence.shape == (1, 1)
    assert est.innovation_cov.shape == (2, 2)
    assert est.innovation_cov[0, 1] == est.innovation_cov[1, 0]
    assert est.return_tstats.shape == (1, 2)


def test_reference_model_parameter_values():
    model = report_from_estimates(reference_estimates()).model
    assert_allclose(model.a[0], 0.01993, rtol=1e-12)
    assert_allclose(model.A[0, 0], -0.01177, rtol=1e-12)
    assert_allclose(model.B[0, 0], -0.021, rtol=1e-12)
    lam = model.Lambda[0, 1]
    assert_allclose(lam, 0.6329, rtol=5e-4)
    # loading of the asset noise on the factor shock direction
    eta = (model.Lambda @ model.Sigma.T)[0, 0] / lam
    assert_allclose(eta, 0.000874, rtol=5e-4)
    sigma = np.linalg.norm(model.Sigma[0])
    assert_allclose(sigma, 0.044249, rtol=5e-4)


def test_reference_report_metadata():
    report = report_from_estimates(reference_estimates())
    assert report.persistence_map == "euler"
    assert report.unit_conventions["time_unit"] == "month"
    assert report.unit_conventions["return_scale"] == 100.0


# ---------------------------------------------------------------------------
# continuous map


def test_to_continuous_inverts_exactly():
    # euler map and the covariance factorization are exact inverses of the
    # block reassembly, whatever the (valid) inputs
    est = reference_estimates()
    model = to_continuous(est, persistence_map="euler")
    scale = 100.0
    vrr = model.Sigma @ model.Sigma.T * scale ** 2
    vfr = model.Lambda @ model.Sigma.T * scale
    vff = model.Lambda @ model.Lambda.T
    rebuilt = np.block([[vrr, vfr.T], [vfr, vff]])
    assert_allclose(rebuilt, est.innovation_cov, rtol=1e-12, atol=1e-18)
    assert_allclose(np.eye(1) + model.B, est.persistence, rtol=1e-14)
    assert_allclose(model.a * scale, est.return_const, rtol=1e-14)
    assert_allclose(model.A * scale, est.return_slope, rtol=1e-14)


def test_persistence_log_map():
    est = reference_estimates()
    model = to_continuous(est, persistence_map="log")
    assert_allclose(model.B[0, 0], np.log(0.979), rtol=1e-12)


def test_unknown_persistence_map_rejected():
    with pytest.raises(ValueError, match="persistence_map"):
        to_continuous(reference_estimates(), persistence_map="midpoint")


def test_unit_root_rejected():
    est = reference_estimates()
    bad = DiscreteEstimates(
        nobs=est.nobs, factor_means=est.factor_means,
        return_const=est.return_const, return_slope=est.return_slope,
        return_tstats=est.return_tstats, factor_const=est.factor_const,
        persistence=np.array([[1.0 - 1e-6]]), factor_tstats=est.factor_tstats,
        innovation_cov=est.innovation_cov,
    )
    with pytest.raises(CalibrationNumericError, match="unit root"):
        to_continuous(bad)


def test_degenerate_factor_innovation_rejected():
    est = reference_estimates()
    cov = est.innovation_cov.copy()
    cov[1, 1] = 0.0
    cov[0, 1] = cov[1, 0] = 0.0
    bad = DiscreteEstimates(
        nobs=est.nobs, factor_means=est.factor_means,
        return_const=est.return_const, return_slope=est.return_slope,
        return_tstats=est.return_tstats, factor_const=est.factor_const,
        persistence=est.persistence, factor_tstats=est.factor_tstats,
        innovation_cov=cov,
    )
    with pytest.raises(CalibrationNumericError, match="positive definite"):
        to_continuous(bad)


def test_excess_cross_correlation_rejected():
    est = reference_estimates()
    cov = est.innovation_cov.copy()
    cov[0, 1] = cov[1, 0] = 3.0  # implies more return variance than observed
    bad = DiscreteEstimates(
        nobs=est.nobs, factor_means=est.factor_means,
        return_const=est.return_const, return_slope=est.return_slope,
        return_tstats=est.return_tstats, factor_const=est.factor_const,
        persistence=est.persistence, factor_tstats=est.factor_tstats,
        innovation_cov=cov,
    )
    with pytest.raises(CalibrationNumericError, match="cross-correlation"):
        to_continuous(bad)


def test_zero_cross_covariance_gives_orthogonal_noise():
    est = reference_estimates()
    cov = np.diag(np.diag(est.innovation_cov))
    ind = DiscreteEstimates(
        nobs=est.nobs, factor_means=est.factor_means,
        return_const=est.return_const, return_slope=est.return_slope,
        return_tstats=est.return_tstats, factor_const=est.factor_const,
        persistence=est.persistence, factor_tstats=est.factor_tstats,
        innovation_cov=cov,
    )
    model = to_continuous(ind)
    assert_allclose(model.Lambda @ model.Sigma.T, 0.0, atol=1e-18)


# ---------------------------------------------------------------------------
# discrete estimation


def test_estimate_discrete_matches_lstsq(model):
    data = simulate_discrete(model, 400, seed=11)
    est = estimate_discrete(data)
    r = data.excess_returns * 100.0
    x = data.factor_levels
    lag = x[:-1] - x.mean(axis=0)
    X = np.hstack([np.ones((len(lag), 1)), lag])
    beta, *_ = np.linalg.lstsq(X, r[1:], rcond=None)
    assert_allclose(est.return_const, beta[0], rtol=1e-10)
    assert_allclose(est.return_slope, beta[1:].T, rtol=1e-10)
    # factor regression runs on raw levels, so the slope is the same but the
    # intercept keeps the raw-unit location
    Xf = np.hstack([np.ones((len(lag), 1)), x[:-1]])
    betaf, *_ = np.linalg.lstsq(Xf, x[1:], rcond=None)
    assert_allclose(est.persistence, betaf[1:].T, rtol=1e-10)
    assert_allclose(est.factor_const, betaf[0], rtol=1e-10)
    assert est.nobs == 399


def test_estimate_discrete_residual_cov_ddof(model):
    data = simulate_discrete(model, 300, seed=5)
    est = estimate_discrete(data)
    assert est.innovation_cov.shape == (2, 2)
    w, _ = np.linalg.eigh(est.innovation_cov)
    assert w[0] > 0


def test_constant_factor_column_named():
    T = 60
    rng = np.random.default_rng(0)
    returns = rng.standard_normal((T, 1))
    levels = np.hstack([rng.standard_normal((T, 1)), np.full((T, 1), 2.5)])
    data = TimeSeriesData(tuple(month_range(T)), returns, levels)
    with pytest.raises(CalibrationDataError, match="factor_2"):
        estimate_discrete(data)


def test_collinear_factors_rejected():
    T = 80
    rng = np.random.default_rng(1)
    returns = rng.standard_normal((T, 1))
    base = np.cumsum(rng.standard_normal((T, 1)), axis=0)
    levels = np.hstack([base, 3.0 * base])
    data = TimeSeriesData(tuple(month_range(T)), returns, levels)
    with pytest.raises(CalibrationDataError, match="rank-deficient"):
        estimate_discrete(data)


def test_calibrate_end_to_end(model):
    data = simulate_discrete(model, 20_000, seed=0)
    report = calibrate(data)
    est = model.B[0, 0]
    assert abs(report.model.B[0, 0] - est) / abs(est) < 0.25
    assert report.model.m == 1 and report.model.n == 1
    assert report.discrete.nobs == 19_999


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3)])
def test_multi_asset_round_trip(shape):
    # the diffusion map matches the monthly innovation covariance by
    # convention, so Lambda Lambda' and the euler map's B stay off at any
    # sample length and are not checked; B and Sigma Sigma' converge
    m, n = shape
    model = random_stable_model(np.random.default_rng(10 * m + n), m, n)
    est = calibrate(simulate_discrete(model, 20_000, seed=0), persistence_map="log").model

    def rel(est_block, true_block):
        return np.linalg.norm(est_block - true_block) / np.linalg.norm(true_block)

    assert rel(est.B, model.B) < 0.10
    assert rel(est.Sigma @ est.Sigma.T, model.Sigma @ model.Sigma.T) < 0.10


# ---------------------------------------------------------------------------
# container validation


def test_series_columns_coerced_and_frozen():
    T = 30
    data = TimeSeriesData(tuple(month_range(T)), np.zeros(T) + 0.01,
                          np.linspace(0.0, 1.0, T))
    assert data.excess_returns.shape == (T, 1)
    assert data.m == 1 and data.n == 1
    with pytest.raises(ValueError):
        data.factor_levels[0, 0] = 9.9


def test_series_too_short():
    with pytest.raises(CalibrationDataError, match="24"):
        TimeSeriesData(tuple(month_range(10)), np.zeros((10, 1)), np.zeros((10, 1)))


def test_series_length_mismatch():
    with pytest.raises(CalibrationDataError):
        TimeSeriesData(tuple(month_range(30)), np.zeros((29, 1)), np.zeros((30, 1)))


def test_series_non_finite_located():
    T = 30
    levels = np.zeros((T, 1)) + np.arange(T)[:, None] * 0.1
    levels[17, 0] = np.nan
    with pytest.raises(CalibrationDataError, match="17"):
        TimeSeriesData(tuple(month_range(T)), np.ones((T, 1)), levels)


def test_series_date_gap_rejected():
    dates = month_range(30)
    dates[12] = "1995-06"
    with pytest.raises(CalibrationDataError, match="consecutive"):
        TimeSeriesData(tuple(dates), np.ones((30, 1)), np.ones((30, 1)) * 0.1
                       + np.arange(30)[:, None])


def test_series_bad_date_format():
    dates = month_range(30)
    dates[3] = "1990/04"
    with pytest.raises(CalibrationDataError, match="YYYY-MM"):
        TimeSeriesData(tuple(dates), np.ones((30, 1)),
                       np.arange(30, dtype=float)[:, None])


def test_five_digit_years_accepted():
    y, m = 9999, 10
    dates = []
    for _ in range(30):
        dates.append(f"{y:04d}-{m + 1:02d}")
        m += 1
        if m == 12:
            y, m = y + 1, 0
    data = TimeSeriesData(tuple(dates), np.ones((30, 1)),
                          np.arange(30, dtype=float)[:, None])
    assert data.dates[-1].startswith("10002")


# ---------------------------------------------------------------------------
# CSV io


def test_csv_round_trip(tmp_path):
    data = synthetic_data(T=48, n=2)
    path = tmp_path / "series.csv"
    path.write_text(timeseries_to_csv(data))
    back = read_timeseries_csv(path)
    assert back.dates == data.dates
    assert np.array_equal(back.excess_returns, data.excess_returns)
    assert np.array_equal(back.factor_levels, data.factor_levels)


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,excess_return_1\n" + "1990-01,0.1\n" * 30)
    with pytest.raises(CalibrationDataError, match="factor_1"):
        read_timeseries_csv(path)


def test_csv_unexpected_column(tmp_path):
    path = tmp_path / "bad.csv"
    rows = "\n".join(f"{d},0.1,0.2,0.3" for d in month_range(30))
    path.write_text("date,excess_return_1,factor_1,volume\n" + rows + "\n")
    with pytest.raises(CalibrationDataError, match="volume"):
        read_timeseries_csv(path)


def test_csv_non_numeric_cell_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [f"{d},0.1,{i * 0.1}" for i, d in enumerate(month_range(30))]
    rows[10] = rows[10].rsplit(",", 1)[0] + ",n/a"
    path.write_text("date,excess_return_1,factor_1\n" + "\n".join(rows) + "\n")
    with pytest.raises(CalibrationDataError, match="line 12"):
        read_timeseries_csv(path)


def test_csv_text_deterministic():
    data = synthetic_data(T=36)
    assert timeseries_to_csv(data) == timeseries_to_csv(data)
    first = timeseries_to_csv(data).splitlines()[0]
    assert first == "date,excess_return_1,factor_1"
