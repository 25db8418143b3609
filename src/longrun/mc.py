"""Monte Carlo oracle for the closed-form long-run moments.

The simulator integrates the log-wealth increment directly,

    du = (h + Hx)'((a + Ax) dt + Sigma dW) - (h + Hx)'SS'(h + Hx)/2 dt,

with an Euler step (left endpoint), while the factor transition is exact by
default: x advances by the one-step map e^{B dt} with innovation covariance
``Delta - e^{B dt} Delta e^{B' dt}``, drawn jointly with the Brownian
increment through the exact conditional law (cov(nu, dW) = B^{-1}(e^{B dt} -
I) Lambda).  With a stationary start this makes the sample mean of u(T) an
unbiased estimate of growth_rate * T at any step size; variances and
covariances carry only O(dt) discretization error.  A plain Euler factor
step is available for convergence studies.

Reproducibility contract: the normal draws consumed by path i at step j are
a function of (seed, stream offset, i, j) only, independent of the total
path count, the thread count, and scheduling.  Paths are grouped in fixed
blocks of ``BLOCK``, each block owning one Philox stream keyed by
(seed, stream offset, block index); draws are generated in fixed
``CHUNK``-step slabs always sized for a full block and sliced.  Identical
inputs therefore give bit-identical :class:`PathStats`.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.signal import lfilter

from .calibration import TimeSeriesData
from .linalg import NumericError, psd_sqrt
from .model import FactorModel, Strategy

__all__ = [
    "SimConfig",
    "PathStats",
    "AsymptoticEstimates",
    "SimulationError",
    "simulate",
    "estimate_asymptotics",
    "simulate_discrete",
    "recommended_horizon",
]

# Fixed grouping constants.  Both are part of the draw-position contract
# described in the module docstring; changing either changes every stream.
BLOCK = 2048
CHUNK = 256

_MASK32 = 0xFFFFFFFF
# stream-offset tag for the single-path monthly generator, keeping its draws
# disjoint from the path simulator's blocks at the same seed
_DISCRETE_TAG = 0xD15C


class SimulationError(RuntimeError):
    """A path produced a non-finite value; the message locates it."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings.

    ``factor_scheme`` is "exact" (default) or "euler".  With
    ``stationary_start`` the initial factor state is drawn from the
    stationary law; otherwise it starts at zero.  ``antithetic`` pairs each
    even path with a sign-flipped twin.  ``keep_paths`` returns the per-path
    terminal values in the result.
    """

    dt: float
    horizon: float
    paths: int
    seed: int = 0
    factor_scheme: str = "exact"
    antithetic: bool = False
    stationary_start: bool = True
    keep_paths: bool = False

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.paths < 2:
            raise ValueError(f"need at least 2 paths, got {self.paths}")
        if self.factor_scheme not in ("exact", "euler"):
            raise ValueError(f"factor_scheme must be 'exact' or 'euler', got {self.factor_scheme!r}")
        if self.antithetic and self.paths % 2:
            raise ValueError("antithetic pairing needs an even path count")


@dataclass(frozen=True)
class PathStats:
    """Cross-path statistics of the terminal state.

    ``mean_u`` estimates growth_rate * horizon; ``var_u`` estimates
    variance_rate * horizon + O(1); ``cov_ux`` (centered) estimates the
    wealth-factor covariance limit; ``mean_uxx`` estimates the raw second
    moment E[u x x'] ~ slope * t + offset.  Each estimate carries a standard
    error.  ``final_u``/``final_x`` are populated when keep_paths is set.
    """

    horizon: float
    dt: float
    paths: int
    mean_u: float
    mean_u_se: float
    var_u: float
    var_u_se: float
    cov_ux: np.ndarray
    cov_ux_se: np.ndarray
    mean_uxx: np.ndarray
    mean_uxx_se: np.ndarray
    final_u: np.ndarray | None = None
    final_x: np.ndarray | None = None


@dataclass(frozen=True)
class AsymptoticEstimates:
    """Weighted-least-squares fit of the horizon dependence.

    Slopes estimate the per-unit-time rates; the second-moment intercept
    estimates the constant term of E[u x x'].  Standard errors come from the
    WLS normal equations with the per-horizon Monte Carlo errors as weights.
    """

    horizons: np.ndarray
    growth_slope: float
    growth_slope_se: float
    variance_slope: float
    variance_slope_se: float
    second_moment_slope: np.ndarray
    second_moment_slope_se: np.ndarray
    second_moment_offset: np.ndarray
    second_moment_offset_se: np.ndarray
    per_horizon: tuple


def recommended_horizon(model: FactorModel) -> float:
    """100 times the slowest factor half-life: long enough for the limits."""
    eigs = np.linalg.eigvals(model.B).real
    return float(100.0 * math.log(2.0) / abs(eigs.max()))


def _block_rng(seed: int, stream_offset: int, block: int) -> np.random.Generator:
    key = np.array(
        [seed & 0xFFFFFFFFFFFFFFFF,
         ((stream_offset & _MASK32) << 32) | (block & _MASK32)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _transition(model: FactorModel, dt: float, scheme: str, need_stationary: bool):
    """One-step factor transition and shock-coupling pieces."""
    B, Lm = model.B, model.Lambda
    n = model.n
    pre = {"scheme": scheme}
    if scheme == "exact" or need_stationary:
        dlt = model.prepared.D
        pre["x0_sqrt"] = psd_sqrt(dlt)
    if scheme == "exact":
        phi = scipy.linalg.expm(B * dt)
        step_cov = dlt - phi @ dlt @ phi.T
        # cov(nu, dW) with Var(dW) = dt I
        M = np.linalg.solve(B, (phi - np.eye(n)) @ Lm)
        resid = step_cov - (M @ M.T) / dt
        pre["phi"] = phi
        pre["nu_from_dw"] = (M / dt).T      # (m+n, n): nu = dW @ this + extra
        pre["resid_sqrt"] = psd_sqrt(resid)
    return pre


def _march_block(model, strategy, config, pre, steps, block, rows, stream_offset):
    """Advance one block of paths to the terminal time.

    Returns (u, x) of shapes (rows,) and (rows, n).  Draw layout is fixed:
    [initial-state draws if stationary] then per 256-step slab the Brownian
    draws followed by the exact-transition extra draws, always generated at
    full block size and sliced to ``rows``.
    """
    m, n = model.m, model.n
    k = m + n
    dt = config.dt
    sqdt = math.sqrt(dt)
    exact = pre["scheme"] == "exact"
    rng = _block_rng(config.seed, stream_offset, block)

    a = model.a
    AT = model.A.T
    SS = model.Sigma @ model.Sigma.T
    SgT = model.Sigma.T
    LmT = model.Lambda.T
    BT = model.B.T
    h, HT = strategy.h, strategy.H.T

    if config.stationary_start:
        Z0 = rng.standard_normal((BLOCK, n))
        if config.antithetic:
            Z0[1::2] = -Z0[0::2]
        x = Z0[:rows] @ pre["x0_sqrt"].T
    else:
        x = np.zeros((rows, n))

    u = np.zeros(rows)
    scalar_fast = n == 1
    if scalar_fast:
        coef = float(pre["phi"][0, 0]) if exact else 1.0 + float(model.B[0, 0]) * dt

    for c0 in range(0, steps, CHUNK):
        L = min(CHUNK, steps - c0)
        Z = rng.standard_normal((BLOCK, CHUNK, k))
        if config.antithetic:
            Z[1::2] = -Z[0::2]
        dW = Z[:rows, :L] * sqdt
        if exact:
            Z2 = rng.standard_normal((BLOCK, CHUNK, n))
            if config.antithetic:
                Z2[1::2] = -Z2[0::2]
            nu = dW @ pre["nu_from_dw"] + Z2[:rows, :L] @ pre["resid_sqrt"].T
        else:
            nu = dW @ LmT                          # Euler factor shock

        xleft = np.empty((rows, L, n))
        if scalar_fast:
            innov = nu[:, :, 0]
            path, _ = lfilter([1.0], [1.0, -coef], innov, axis=1, zi=(coef * x[:, 0])[:, None])
            xleft[:, 0, 0] = x[:, 0]
            xleft[:, 1:, 0] = path[:, :-1]
            x = path[:, -1:].copy()
        else:
            xi = x
            for j in range(L):
                xleft[:, j, :] = xi
                if exact:
                    xi = xi @ pre["phi"].T + nu[:, j]
                else:
                    xi = xi + (xi @ BT) * dt + nu[:, j]
            x = xi

        w = h + xleft @ HT                          # (rows, L, m)
        mu = a + xleft @ AT
        drift = np.einsum("plm,plm->pl", w, mu)
        quad = np.einsum("plm,plm->pl", w @ SS, w)
        shock = np.einsum("plm,plm->pl", w, dW @ SgT)
        inc = (drift - 0.5 * quad) * dt + shock

        if not np.all(np.isfinite(inc)):
            bad = np.argwhere(~np.isfinite(inc))
            j = int(bad[:, 1].min())
            p = int(bad[bad[:, 1] == j][:, 0].min())
            raise SimulationError(
                f"non-finite value at step {c0 + j}, path {block * BLOCK + p}"
            )
        u += inc.sum(axis=1)
        if not np.all(np.isfinite(x)):
            p = int(np.argwhere(~np.isfinite(x))[0, 0])
            raise SimulationError(
                f"non-finite factor state by step {c0 + L}, path {block * BLOCK + p}"
            )
    return u, x


def _mean_se(values: np.ndarray, antithetic: bool) -> float:
    """Standard error of the mean; antithetic pairs are averaged first."""
    if antithetic:
        values = 0.5 * (values[0::2] + values[1::2])
    nobs = values.shape[0]
    return float(values.std(ddof=1) / math.sqrt(nobs))


def simulate(model: FactorModel, strategy: Strategy, config: SimConfig,
             threads: int = 1, stream_offset: int = 0) -> PathStats:
    """Simulate terminal (u, x) across paths and summarize.

    ``threads`` parallelizes over path blocks without changing any output
    bit (each block's draws and its slice of the result are fixed).
    ``stream_offset`` selects a disjoint stream family; batches run with
    different offsets are statistically independent at the same seed.
    """
    if strategy.h.shape[0] != model.m or strategy.H.shape != (model.m, model.n):
        raise ValueError(
            f"strategy shaped for (m={strategy.h.shape[0]}, n={strategy.H.shape[1] if strategy.H.ndim == 2 else '?'}), "
            f"model has (m={model.m}, n={model.n})"
        )
    steps = int(round(config.horizon / config.dt))
    if steps < 1:
        raise ValueError("horizon shorter than one step")
    eff_horizon = steps * config.dt

    pre = _transition(model, config.dt, config.factor_scheme, config.stationary_start)
    paths, n = config.paths, model.n
    u = np.empty(paths)
    xf = np.empty((paths, n))
    nblocks = (paths + BLOCK - 1) // BLOCK

    def run(block: int):
        lo = block * BLOCK
        rows = min(BLOCK, paths - lo)
        ub, xb = _march_block(model, strategy, config, pre, steps, block, rows, stream_offset)
        u[lo:lo + rows] = ub
        xf[lo:lo + rows] = xb

    if threads > 1 and nblocks > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(nblocks)))
    else:
        for b in range(nblocks):
            run(b)

    du = u - u.mean()
    nobs = paths
    m2 = float(u.var(ddof=1))
    var_se = _mean_se(du ** 2, config.antithetic)

    dx = xf - xf.mean(axis=0)
    cov_prod = du[:, None] * dx                      # (paths, n)
    cov_ux = cov_prod.sum(axis=0) / (nobs - 1)
    cov_se = np.array([_mean_se(cov_prod[:, j], config.antithetic) for j in range(n)])

    uxx = u[:, None, None] * (xf[:, :, None] * xf[:, None, :])
    mean_uxx = uxx.mean(axis=0)
    uxx_se = np.empty((n, n))
    for r in range(n):
        for s in range(n):
            uxx_se[r, s] = _mean_se(uxx[:, r, s], config.antithetic)

    return PathStats(
        horizon=eff_horizon,
        dt=config.dt,
        paths=paths,
        mean_u=float(u.mean()),
        mean_u_se=_mean_se(u, config.antithetic),
        var_u=m2,
        var_u_se=var_se,
        cov_ux=cov_ux,
        cov_ux_se=cov_se,
        mean_uxx=mean_uxx,
        mean_uxx_se=uxx_se,
        final_u=u if config.keep_paths else None,
        final_x=xf if config.keep_paths else None,
    )


def _wls_line(t: np.ndarray, y: np.ndarray, se: np.ndarray):
    """Weighted least squares of y on (1, t).

    Returns (intercept, slope, intercept_se, slope_se).  Weights are the
    inverse squared standard errors, floored so exact (zero-error) points
    keep finite weight.
    """
    floor = 1e-12 * max(float(np.max(np.abs(y))), 1.0) + 1e-300
    w = 1.0 / np.maximum(se, floor) ** 2
    X = np.column_stack([np.ones_like(t), t])
    A = X.T @ (w[:, None] * X)
    b = X.T @ (w * y)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if not np.isfinite(det) or det <= 1e-12 * A[0, 0] * A[1, 1]:
        raise NumericError("degenerate horizon grid: cannot separate slope from intercept")
    coef = np.linalg.solve(A, b)
    cov = np.linalg.inv(A)
    return float(coef[0]), float(coef[1]), math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])


def estimate_asymptotics(model: FactorModel, strategy: Strategy, config: SimConfig,
                         t_grid, threads: int = 1) -> AsymptoticEstimates:
    """Estimate the long-run rates by regression on a horizon grid.

    Runs one independent simulation per horizon (disjoint streams at the
    same seed; ``config.horizon`` is ignored) and fits straight lines
    through the per-horizon estimates.  The grid must be increasing with at
    least 4 points, long enough that the O(1) transients are negligible;
    see :func:`recommended_horizon`.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.shape[0] < 4:
        raise ValueError("need an increasing grid of at least 4 horizons")
    if not np.all(np.diff(t) > 0):
        raise ValueError("horizon grid must be strictly increasing")

    runs = []
    for j, horizon in enumerate(t):
        cfg = SimConfig(
            dt=config.dt, horizon=float(horizon), paths=config.paths,
            seed=config.seed, factor_scheme=config.factor_scheme,
            antithetic=config.antithetic, stationary_start=config.stationary_start,
            keep_paths=False,
        )
        runs.append(simulate(model, strategy, cfg, threads=threads, stream_offset=j))

    horizons = np.array([r.horizon for r in runs])
    _, g_slope, _, g_se = _wls_line(
        horizons, np.array([r.mean_u for r in runs]), np.array([r.mean_u_se for r in runs])
    )
    _, v_slope, _, v_se = _wls_line(
        horizons, np.array([r.var_u for r in runs]), np.array([r.var_u_se for r in runs])
    )
    n = model.n
    slope = np.empty((n, n)); slope_se = np.empty((n, n))
    offset = np.empty((n, n)); offset_se = np.empty((n, n))
    for r in range(n):
        for s in range(n):
            y = np.array([run.mean_uxx[r, s] for run in runs])
            e = np.array([run.mean_uxx_se[r, s] for run in runs])
            off, sl, off_e, sl_e = _wls_line(horizons, y, e)
            slope[r, s], slope_se[r, s] = sl, sl_e
            offset[r, s], offset_se[r, s] = off, off_e

    return AsymptoticEstimates(
        horizons=horizons,
        growth_slope=g_slope, growth_slope_se=g_se,
        variance_slope=v_slope, variance_slope_se=v_se,
        second_moment_slope=slope, second_moment_slope_se=slope_se,
        second_moment_offset=offset, second_moment_offset_se=offset_se,
        per_horizon=tuple(runs),
    )


def simulate_discrete(model: FactorModel, months: int, seed: int = 0,
                      start_year: int = 1970, start_month: int = 1) -> TimeSeriesData:
    """One sample path at the monthly frequency, in calibration units.

    The factor advances by the exact one-month transition; the return over
    month t is ``a + A x_{t-1}`` plus the month's Brownian shock, drawn
    jointly with the factor innovation.  Output columns follow the
    calibration conventions (returns decimal, factors percent), so feeding
    the result to :func:`longrun.calibration.calibrate` closes the loop.
    """
    if months < 24:
        raise ValueError("need at least 24 months for a calibratable series")
    m, n = model.m, model.n
    k = m + n
    pre = _transition(model, 1.0, "exact", need_stationary=True)
    rng = _block_rng(seed, _DISCRETE_TAG, 0)

    Z0 = rng.standard_normal(n)
    Z = rng.standard_normal((months, k))
    Z2 = rng.standard_normal((months, n))

    x0 = pre["x0_sqrt"] @ Z0
    nu = Z @ pre["nu_from_dw"] + Z2 @ pre["resid_sqrt"].T
    phi = pre["phi"]

    levels = np.empty((months, n))
    if n == 1:
        coef = float(phi[0, 0])
        path, _ = lfilter([1.0], [1.0, -coef], nu[:, 0], zi=np.array([coef * x0[0]]))
        levels[:, 0] = path
    else:
        xi = x0
        for t in range(months):
            xi = phi @ xi + nu[t]
            levels[t] = xi
    prev = np.vstack([x0, levels[:-1]])
    returns = model.a + prev @ model.A.T + Z @ model.Sigma.T

    dates = []
    base = start_year * 12 + (start_month - 1)
    for i in range(months):
        yy, mm = divmod(base + i, 12)
        dates.append(f"{yy:04d}-{mm + 1:02d}")

    return TimeSeriesData(dates=tuple(dates), excess_returns=returns, factor_levels=levels)
