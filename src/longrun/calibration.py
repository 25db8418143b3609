"""Parameter estimation from monthly time series.

Pipeline: ordinary least squares at the monthly frequency
(:func:`estimate_discrete`), then a unit-aware map to the continuous-time
model (:func:`to_continuous`); :func:`calibrate` composes the two.

Unit conventions (recorded in every report): time is measured in months;
excess returns enter and leave in decimal fractions but are regressed in
percent, matching how such estimates are conventionally tabulated; factor
levels are used in their native units (percentage points for the bundled
interest-rate example) and are never rescaled.  The factor process of the
continuous model is zero mean, so the factor is de-meaned before the return
regression; the sample mean is reported, not baked into the model.

The persistence-to-drift map defaults to ``drift = persistence - identity``
(the Euler map, exact to first order in one month); a matrix-logarithm map
is available as an option.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .linalg import psd_sqrt
from .model import FactorModel, _require_definite_diffusion

__all__ = [
    "RETURN_PERCENT_SCALE",
    "UNIT_ROOT_MARGIN",
    "CalibrationDataError",
    "CalibrationNumericError",
    "TimeSeriesData",
    "DiscreteEstimates",
    "CalibrationReport",
    "estimate_discrete",
    "to_continuous",
    "calibrate",
    "report_from_estimates",
    "reference_estimates",
    "read_timeseries_csv",
    "timeseries_to_csv",
]

# Returns are stored in decimals but regressed in percent.
RETURN_PERCENT_SCALE = 100.0

# Reject persistence this close to a unit root: the implied drift is not
# meaningfully identified from the sample and every long-run quantity
# downstream diverges as 1/|drift|.
UNIT_ROOT_MARGIN = 1e-5

_MIN_OBSERVATIONS = 24


class CalibrationDataError(ValueError):
    """The input series is malformed (shape, missing value, bad column)."""


class CalibrationNumericError(ArithmeticError):
    """The estimates exist but do not map to a valid continuous model."""


def _as_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise CalibrationDataError(f"{name} must be a (T, k) array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class TimeSeriesData:
    """Aligned monthly observations.

    ``dates`` are "YYYY-MM" strings forming a consecutive month sequence (a
    gap would be a missing observation, which is rejected rather than
    imputed).  ``excess_returns`` is (T, m) in decimal fractions;
    ``factor_levels`` is (T, n) in native factor units.
    """

    dates: tuple
    excess_returns: np.ndarray
    factor_levels: np.ndarray

    def __post_init__(self):
        returns = _as_matrix(self.excess_returns, "excess_returns")
        factors = _as_matrix(self.factor_levels, "factor_levels")
        object.__setattr__(self, "dates", tuple(str(d) for d in self.dates))
        object.__setattr__(self, "excess_returns", returns)
        object.__setattr__(self, "factor_levels", factors)
        T = len(self.dates)
        if returns.shape[0] != T or factors.shape[0] != T:
            raise CalibrationDataError(
                f"length mismatch: {T} dates, {returns.shape[0]} return rows, "
                f"{factors.shape[0]} factor rows"
            )
        if T < _MIN_OBSERVATIONS:
            raise CalibrationDataError(
                f"need at least {_MIN_OBSERVATIONS} observations, got {T}"
            )
        if returns.shape[1] < 1 or factors.shape[1] < 1:
            raise CalibrationDataError("need at least one asset and one factor column")
        for label, arr in (("excess_returns", returns), ("factor_levels", factors)):
            if not np.all(np.isfinite(arr)):
                t, j = np.argwhere(~np.isfinite(arr))[0]
                raise CalibrationDataError(
                    f"missing or non-finite value in {label} at row {t} "
                    f"({self.dates[t]}), column {j + 1}"
                )
        months = [_parse_month(d) for d in self.dates]
        for i in range(1, T):
            if months[i] != months[i - 1] + 1:
                raise CalibrationDataError(
                    f"dates must be consecutive months; gap between "
                    f"{self.dates[i - 1]} and {self.dates[i]}"
                )
        returns.setflags(write=False)
        factors.setflags(write=False)

    @property
    def m(self) -> int:
        return self.excess_returns.shape[1]

    @property
    def n(self) -> int:
        return self.factor_levels.shape[1]


def _parse_month(date: str) -> int:
    parts = date.split("-")
    # four-digit years normally; synthetic series longer than 8000 years
    # legitimately run into five digits
    if len(parts) != 2 or len(parts[0]) < 4:
        raise CalibrationDataError(f"dates must be YYYY-MM, got {date!r}")
    try:
        year, month = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise CalibrationDataError(f"dates must be YYYY-MM, got {date!r}") from exc
    if not 1 <= month <= 12:
        raise CalibrationDataError(f"month out of range in {date!r}")
    return year * 12 + (month - 1)


@dataclass(frozen=True)
class DiscreteEstimates:
    """Monthly-frequency OLS output.

    Return rows regress percent excess returns on a constant and the lagged
    de-meaned factors; factor rows regress each factor level on a constant
    and all lagged levels (slopes are invariant to de-meaning, so the
    persistence block is the same either way, while the constant keeps its
    raw-units reading).  ``innovation_cov`` is the joint residual covariance,
    returns in percent, factors native, order (returns..., factors...).
    ``tstats`` columns are (constant, regressor_1..regressor_n).
    """

    nobs: int
    factor_means: np.ndarray
    return_const: np.ndarray
    return_slope: np.ndarray
    return_tstats: np.ndarray
    factor_const: np.ndarray
    persistence: np.ndarray
    factor_tstats: np.ndarray
    innovation_cov: np.ndarray


@dataclass(frozen=True)
class CalibrationReport:
    """Everything calibrate() produced, model plus provenance."""

    model: FactorModel
    discrete: DiscreteEstimates
    unit_conventions: dict
    persistence_map: str


def _ols(X: np.ndarray, Y: np.ndarray, col_names) -> tuple:
    """OLS of every column of Y on X; returns (coef, tstats, resid).

    coef has shape (Y cols, X cols); tstats likewise; resid has the shape of
    Y.  Raises on rank deficiency, naming the offending columns.
    """
    T, p = X.shape
    spread = X.std(axis=0)
    dead = [col_names[j] for j in range(1, p) if spread[j] < 1e-12 * max(1.0, abs(X[:, j].mean()))]
    if dead:
        raise CalibrationDataError(
            "rank-deficient regression: constant column(s) " + ", ".join(dead)
        )
    G = X.T @ X
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > 1e12:
        raise CalibrationDataError(
            "rank-deficient regression: collinear columns among " + ", ".join(col_names)
        )
    Ginv = np.linalg.inv(G)
    coef = Y.T @ X @ Ginv                      # (k, p)
    resid = Y - X @ coef.T
    dof = T - p
    if dof < 1:
        raise CalibrationDataError(f"too few observations ({T}) for {p} regressors")
    s2 = (resid ** 2).sum(axis=0) / dof        # (k,)
    se = np.sqrt(np.outer(s2, np.diag(Ginv)))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstats = np.where(se > 0, coef / se, np.inf * np.sign(coef))
    return coef, tstats, resid


def estimate_discrete(data: TimeSeriesData) -> DiscreteEstimates:
    """Monthly OLS: returns on lagged factors, factors on their own lags.

    The return regression uses de-meaned lagged factors so its constant is
    the mean percent excess return.  The factor autoregression runs on raw
    levels.  Residuals from both are pooled into one innovation covariance.
    """
    m, n = data.m, data.n
    ret = data.excess_returns * RETURN_PERCENT_SCALE
    fac = data.factor_levels
    means = fac.mean(axis=0)
    demeaned = fac - means

    ones = np.ones((len(data.dates) - 1, 1))
    lag_names = [f"factor_{j + 1}" for j in range(n)]

    Xr = np.hstack([ones, demeaned[:-1]])
    coef_r, t_r, resid_r = _ols(Xr, ret[1:], ["constant"] + lag_names)

    Xf = np.hstack([ones, fac[:-1]])
    coef_f, t_f, resid_f = _ols(Xf, fac[1:], ["constant"] + lag_names)

    resid = np.hstack([resid_r, resid_f])
    cov = np.cov(resid, rowvar=False, ddof=1)      # 2-D: at least one asset and one factor

    return DiscreteEstimates(
        nobs=len(data.dates) - 1,
        factor_means=means,
        return_const=coef_r[:, 0],
        return_slope=coef_r[:, 1:].reshape(m, n),
        return_tstats=t_r,
        factor_const=coef_f[:, 0],
        persistence=coef_f[:, 1:].reshape(n, n),
        factor_tstats=t_f,
        innovation_cov=cov,
    )


def to_continuous(estimates: DiscreteEstimates, persistence_map: str = "euler") -> FactorModel:
    """Map monthly OLS estimates to the continuous-time model.

    Drift and loadings convert percent returns to decimals (divide by 100);
    the factor keeps its native units.  The monthly persistence matrix maps
    to the drift matrix by subtracting the identity ("euler", default) or by
    the matrix logarithm ("log").  The m + n Brownian coordinates are fixed
    by convention: factor loadings are zero on the first m coordinates with
    a Cholesky factor on the rest, and the asset loadings are solved so the
    joint innovation covariance is matched exactly, by a numpy solve.  Only
    the "log" map calls ``scipy.linalg.logm``, which wakes scipy's thread
    pool (see :mod:`longrun.linalg`).
    """
    if persistence_map not in ("euler", "log"):
        raise ValueError(f"persistence_map must be 'euler' or 'log', got {persistence_map!r}")
    P = np.atleast_2d(np.asarray(estimates.persistence, dtype=float))
    n = P.shape[0]
    m = estimates.return_const.shape[0]
    rho = float(np.abs(np.linalg.eigvals(P)).max())
    if rho >= 1.0 - UNIT_ROOT_MARGIN:
        raise CalibrationNumericError(
            f"factor persistence has spectral radius {rho:.8f}, within "
            f"{UNIT_ROOT_MARGIN:g} of a unit root: the continuous drift is "
            "not identified at the monthly sample"
        )
    if persistence_map == "euler":
        B = P - np.eye(n)
    else:
        L = scipy.linalg.logm(P)
        if np.abs(L.imag).max() > 1e-12:
            raise CalibrationNumericError(
                "matrix logarithm of the persistence is complex; use the euler map"
            )
        B = L.real
    # B is stable here: Re eig(B) <= rho - 1 (euler) or ln(rho) (log), both < 0

    scale = RETURN_PERCENT_SCALE
    a = estimates.return_const / scale
    A = estimates.return_slope / scale

    V = np.asarray(estimates.innovation_cov, dtype=float)
    if V.shape != (m + n, m + n):
        raise CalibrationNumericError(
            f"innovation covariance must be {(m + n, m + n)}, got {V.shape}"
        )
    Vrr = V[:m, :m] / scale ** 2
    Vfr = V[m:, :m] / scale
    Vff = V[m:, m:]
    try:
        L_f = np.linalg.cholesky(Vff)
    except np.linalg.LinAlgError as exc:
        raise CalibrationNumericError(
            "factor innovation covariance is not positive definite"
        ) from exc
    Sigma_f = np.linalg.solve(L_f, Vfr).T   # (m, n)
    asset_block = Vrr - Sigma_f @ Sigma_f.T
    w = np.linalg.eigvalsh(0.5 * (asset_block + asset_block.T))
    if w[0] < -1e-10 * max(float(w[-1]), 1e-30):
        raise CalibrationNumericError(
            "cross-correlation too large for factorization: implied asset "
            f"noise covariance has eigenvalue {w[0]:.3e}"
        )
    try:
        Sigma_a = np.linalg.cholesky(asset_block)
    except np.linalg.LinAlgError:
        Sigma_a = psd_sqrt(asset_block)
    Sigma = np.hstack([Sigma_a, Sigma_f])
    Lambda = np.hstack([np.zeros((n, m)), L_f])
    return FactorModel(a=a, A=A, B=B, Sigma=Sigma, Lambda=Lambda)


def report_from_estimates(estimates: DiscreteEstimates,
                          persistence_map: str = "euler") -> CalibrationReport:
    """Convert discrete estimates and wrap them with provenance.

    The returned model always passes the full market validation; any
    violation surfaces as :class:`CalibrationNumericError` instead of a
    silently unusable model.
    """
    for label, t in (("return", estimates.return_tstats), ("factor", estimates.factor_tstats)):
        if not np.all(np.isfinite(t)):
            raise CalibrationNumericError(f"non-finite t-ratio in the {label} regression")
    model = to_continuous(estimates, persistence_map=persistence_map)
    try:
        _require_definite_diffusion(model)
    except ValueError as exc:
        raise CalibrationNumericError(f"calibrated model invalid: {exc}") from exc
    conventions = {
        "time_unit": "month",
        "returns": "decimal in data, percent in regression",
        "return_scale": RETURN_PERCENT_SCALE,
        "factors": "native units, de-meaned for the return regression",
        "factor_means": estimates.factor_means.tolist(),
    }
    return CalibrationReport(
        model=model,
        discrete=estimates,
        unit_conventions=conventions,
        persistence_map=persistence_map,
    )


def calibrate(data: TimeSeriesData, persistence_map: str = "euler") -> CalibrationReport:
    """Full pipeline: OLS, unit conversion, model validation."""
    return report_from_estimates(estimate_discrete(data), persistence_map=persistence_map)


def reference_estimates() -> DiscreteEstimates:
    """Published monthly estimates for the bundled stock/interest-rate data.

    Point estimates and t-ratios for three decades of monthly US data:
    percent stock index excess returns on the lagged 3-month rate, the
    rate's own AR(1), and the joint innovation covariance.  Feeding this
    through :func:`to_continuous` yields the reference model's parameters.
    The factor mean is the one implied by the AR constant and slope.
    """
    return DiscreteEstimates(
        nobs=371,
        factor_means=np.array([0.120 / (1.0 - 0.979)]),
        return_const=np.array([1.993]),
        return_slope=np.array([[-1.177]]),
        return_tstats=np.array([[3.505, -14.220]]),
        factor_const=np.array([0.120]),
        persistence=np.array([[0.979]]),
        factor_tstats=np.array([[0.911, 42.885]]),
        innovation_cov=np.array([[19.587, 0.0553], [0.0553, 0.4006]]),
    )


def read_timeseries_csv(path) -> TimeSeriesData:
    """Parse `date,excess_return_1..m,factor_1..n` CSV into TimeSeriesData."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CalibrationDataError(f"{path}: not UTF-8 text ({exc})") from exc
    return _parse_timeseries(text, str(path))


def _parse_timeseries(text: str, origin: str) -> TimeSeriesData:
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise CalibrationDataError(f"{origin}: unreadable CSV ({exc})") from exc
    rows = [r for r in rows if r]
    if not rows:
        raise CalibrationDataError(f"{origin}: empty file")
    header = [c.strip() for c in rows[0]]
    if not header or header[0] != "date":
        raise CalibrationDataError(f"{origin}: first column must be 'date', got {header[:1]}")
    m = 0
    while 1 + m < len(header) and header[1 + m] == f"excess_return_{m + 1}":
        m += 1
    n = 0
    while 1 + m + n < len(header) and header[1 + m + n] == f"factor_{n + 1}":
        n += 1
    if m == 0:
        raise CalibrationDataError(f"{origin}: missing column excess_return_1")
    if n == 0:
        raise CalibrationDataError(f"{origin}: missing column factor_1")
    if 1 + m + n != len(header):
        raise CalibrationDataError(
            f"{origin}: unexpected column {header[1 + m + n]!r} "
            f"(want date,excess_return_1..{m},factor_1..{n})"
        )
    dates, ret, fac = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CalibrationDataError(
                f"{origin}: line {lineno} has {len(row)} fields, expected {len(header)}"
            )
        dates.append(row[0].strip())
        values = []
        for v in row[1:]:
            try:
                values.append(float(v))
            except ValueError:
                raise CalibrationDataError(
                    f"{origin}: line {lineno}: non-numeric value {v.strip()!r}"
                ) from None
        ret.append(values[:m])
        fac.append(values[m:])
    return TimeSeriesData(
        dates=tuple(dates),
        excess_returns=np.array(ret, dtype=float),
        factor_levels=np.array(fac, dtype=float),
    )


def timeseries_to_csv(data: TimeSeriesData) -> str:
    """Canonical CSV text for TimeSeriesData (shortest round-trip decimals)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["date"]
        + [f"excess_return_{j + 1}" for j in range(data.m)]
        + [f"factor_{j + 1}" for j in range(data.n)]
    )
    for t, date in enumerate(data.dates):
        writer.writerow(
            [date]
            + [repr(float(v)) for v in data.excess_returns[t]]
            + [repr(float(v)) for v in data.factor_levels[t]]
        )
    return buf.getvalue()
