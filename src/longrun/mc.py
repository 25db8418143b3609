"""Monte Carlo oracle for the closed-form long-run moments.

The simulator integrates the log-wealth increment directly,

    du = (h + Hx)'((a + Ax) dt + Sigma dW) - (h + Hx)'SS'(h + Hx)/2 dt,

with an Euler step (left endpoint).  In x the step is c0 + c1'x + x'C2x +
dW'Sigma'(h + Hx), with c0 = (h'a - h'SS'h/2) dt, c1 = (A'h + H'a - H'SS'h) dt
and C2 = sym(H'A - H'SS'H/2) dt computed once per simulation.  The factor
path and the increment run step-major, shaped (steps, paths, .).  Both
factor schemes run one recursion for every n, x_j = phi x_{j-1} + nu_j, one
matrix product per step.  The default is exact: phi = e^{B dt}, and nu, of
covariance ``Delta - phi Delta phi'``, is drawn jointly with the Brownian
increment through the exact conditional law (cov(nu, dW) = B^{-1}(phi - I)
Lambda) with n extra normals per step.  With a stationary start this makes
the sample mean of u(T) an unbiased estimate of growth_rate * T at any step
size; variances and covariances carry only O(dt) discretization error.  The
Euler scheme, for convergence studies, is the same recursion with phi = I +
B dt and nu = Lambda dW, and draws nothing extra.

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
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .calibration import TimeSeriesData
from .linalg import NumericError, psd_sqrt
from .model import FactorModel, Strategy
from .moments import _stack

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
    even path with a sign-flipped twin.
    """

    dt: float
    horizon: float
    paths: int
    seed: int = 0
    factor_scheme: str = "exact"
    antithetic: bool = False
    stationary_start: bool = True

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
    error.  ``final_u``/``final_x`` hold the per-path terminal values.
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
    final_u: np.ndarray
    final_x: np.ndarray


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


@dataclass(frozen=True)
class _Transition:
    """One factor step ``x_j = x_{j-1} phi' + nu_j`` and the law of its start.

    ``nu = dW @ nu_from_dw + Z @ nu_from_z`` (both maps C-contiguous, for
    speed) with Z one extra normal per factor, drawn only when ``nu_from_z``
    is not None; ``x0_sqrt`` maps standard normals to the stationary law.
    """

    phi: np.ndarray
    nu_from_dw: np.ndarray      # (m+n, n)
    nu_from_z: np.ndarray | None
    x0_sqrt: np.ndarray


def _transition(model: FactorModel, dt: float, scheme: str) -> _Transition:
    """One-step factor transition and shock-coupling pieces."""
    B, Lm, dlt = model.B, model.Lambda, model.prepared.D
    eye = np.eye(model.n)
    if scheme == "euler":
        return _Transition(eye + B * dt, Lm.T.copy(), None, psd_sqrt(dlt))
    phi = scipy.linalg.expm(B * dt)
    step_cov = dlt - phi @ dlt @ phi.T
    # cov(nu, dW) with Var(dW) = dt I
    M = np.linalg.solve(B, (phi - eye) @ Lm)
    resid = step_cov - (M @ M.T) / dt
    return _Transition(phi, (M / dt).T.copy(), psd_sqrt(resid).T.copy(), psd_sqrt(dlt))


def _normals(rng: np.random.Generator, shape, antithetic: bool) -> np.ndarray:
    """Standard normals of ``shape``; antithetic pairs flip the odd rows' signs."""
    Z = rng.standard_normal(shape)
    if antithetic:
        Z[1::2] = -Z[0::2]
    return Z


def _factor_path(x: np.ndarray, nu: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """States x_0..x_L of ``x_j = x_{j-1} phi' + nu_j``, step-major.

    ``x`` has shape (..., n) and ``nu`` (L, ..., n); the result has shape
    (L + 1, ..., n) with ``x`` first.
    """
    out = np.empty((nu.shape[0] + 1,) + x.shape)
    out[0] = x
    for j in range(nu.shape[0]):
        np.matmul(out[j], phi.T, out=out[j + 1])
        out[j + 1] += nu[j]
    return out


def _increment(model: FactorModel, strategy: Strategy, dt: float):
    """Per-step coefficients (c0, c1, C2, G) of the log-wealth increment.

    From factor state x with Brownian increment dW the increment is
    ``c0 + c1'x + x'C2x + Y[0] + x'Y[1:]`` with ``Y = dW G``.
    """
    h, H, a, SS = strategy.h, strategy.H, model.a, model.prepared.SS
    with np.errstate(over="ignore", invalid="ignore"):
        SSh, HSS = SS @ h, H.T @ SS
        c0 = (h @ a - 0.5 * h @ SSh) * dt
        c1 = (model.A.T @ h + H.T @ a - HSS @ h) * dt
        C2 = H.T @ model.A - 0.5 * HSS @ H
        C2 = 0.5 * (C2 + C2.T) * dt
        G = model.Sigma.T @ np.column_stack([h, H])
    return c0, c1, C2, G


def _march_block(coef, config, tr, steps, block, rows, stream_offset):
    """Advance one block of paths to the terminal time.

    ``coef`` comes from :func:`_increment`.  Returns (u, x) of shapes (rows,)
    and (rows, n).  Draw layout is fixed: [initial-state draws if
    stationary] then per 256-step slab the Brownian draws followed by the
    exact-transition extra draws, always generated at full block size and
    sliced to ``rows``.  The factor path and the increment of each slab run
    step-major, shaped (L, rows, .).
    """
    c0, c1, C2, G = coef
    n = c1.shape[0]
    sqdt = math.sqrt(config.dt)
    anti = config.antithetic
    rng = _block_rng(config.seed, stream_offset, block)

    if config.stationary_start:
        x = _normals(rng, (BLOCK, n), anti)[:rows] @ tr.x0_sqrt.T
    else:
        x = np.zeros((rows, n))

    u = np.zeros(rows)
    for start in range(0, steps, CHUNK):
        L = min(CHUNK, steps - start)
        dW = _normals(rng, (BLOCK, CHUNK, G.shape[0]), anti)[:rows, :L] * sqdt
        nu = dW @ tr.nu_from_dw
        if tr.nu_from_z is not None:
            nu += _normals(rng, (BLOCK, CHUNK, n), anti)[:rows, :L] @ tr.nu_from_z
        path = _factor_path(x, nu.transpose(1, 0, 2), tr.phi)
        xleft, x = path[:-1], path[-1]

        Y = dW.transpose(1, 0, 2) @ G               # level shock, then tilt shocks
        tilt = xleft @ C2
        tilt += c1
        tilt += Y[..., 1:]
        inc = np.einsum("lpi,lpi->lp", xleft, tilt)     # (L, rows)
        inc += Y[..., 0]
        inc += c0

        bad = ~np.isfinite(inc)
        if bad.any():
            j, p = divmod(int(np.argmax(bad)), rows)   # earliest step, then lowest path
            raise SimulationError(
                f"non-finite value at step {start + j}, path {block * BLOCK + p}"
            )
        u += inc.sum(axis=0)
        if not np.all(np.isfinite(x)):
            p = int(np.argwhere(~np.isfinite(x))[0, 0])
            raise SimulationError(
                f"non-finite factor state by step {start + L}, path {block * BLOCK + p}"
            )
    return u, x


def _mean_se(values: np.ndarray, antithetic: bool) -> np.ndarray:
    """Standard error of the mean along axis 0; antithetic pairs are averaged first."""
    if antithetic:
        values = 0.5 * (values[0::2] + values[1::2])
    return values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])


def simulate(model: FactorModel, strategy: Strategy, config: SimConfig,
             threads: int = 1, stream_offset: int = 0) -> PathStats:
    """Simulate terminal (u, x) across paths and summarize.

    ``threads`` parallelizes over path blocks without changing any output
    bit (each block's draws and its slice of the result are fixed).
    ``stream_offset`` selects a disjoint stream family; batches run with
    different offsets are statistically independent at the same seed.
    """
    _stack(model, strategy)     # DimensionError if the strategy does not fit the model
    steps = int(round(config.horizon / config.dt))
    if steps < 1:
        raise ValueError("horizon shorter than one step")

    tr = _transition(model, config.dt, config.factor_scheme)
    coef = _increment(model, strategy, config.dt)
    paths, n = config.paths, model.n
    u = np.empty(paths)
    xf = np.empty((paths, n))
    nblocks = (paths + BLOCK - 1) // BLOCK

    def run(block: int):
        lo = block * BLOCK
        rows = min(BLOCK, paths - lo)
        u[lo:lo + rows], xf[lo:lo + rows] = _march_block(
            coef, config, tr, steps, block, rows, stream_offset)

    if threads > 1 and nblocks > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(nblocks)))
    else:
        list(map(run, range(nblocks)))

    anti = config.antithetic
    du = u - u.mean()
    cov_prod = du[:, None] * (xf - xf.mean(axis=0))      # (paths, n)
    uxx = u[:, None, None] * (xf[:, :, None] * xf[:, None, :])

    return PathStats(
        horizon=steps * config.dt,
        dt=config.dt,
        paths=paths,
        mean_u=float(u.mean()),
        mean_u_se=float(_mean_se(u, anti)),
        var_u=float(u.var(ddof=1)),
        var_u_se=float(_mean_se(du ** 2, anti)),
        cov_ux=cov_prod.sum(axis=0) / (paths - 1),
        cov_ux_se=_mean_se(cov_prod, anti),
        mean_uxx=uxx.mean(axis=0),
        mean_uxx_se=_mean_se(uxx, anti),
        final_u=u,
        final_x=xf,
    )


def _wls_lines(t: np.ndarray, y: np.ndarray, se: np.ndarray):
    """Weighted least squares of each column of y (len(t), q) on (1, t).

    Returns (intercept, slope, intercept_se, slope_se), each of shape (q,).
    Weights are the inverse squared standard errors, floored per column so
    exact (zero-error) points keep finite weight.
    """
    floor = 1e-12 * np.maximum(np.abs(y).max(axis=0), 1.0) + 1e-300
    w = 1.0 / np.maximum(se, floor) ** 2
    X = np.column_stack([np.ones_like(t), t])
    A = np.einsum("tq,ti,tj->qij", w, X, X)
    b = np.einsum("tq,ti,tq->qi", w, X, y)
    det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
    if not np.all(np.isfinite(det) & (det > 1e-12 * A[:, 0, 0] * A[:, 1, 1])):
        raise NumericError("degenerate horizon grid: cannot separate slope from intercept")
    coef = np.linalg.solve(A, b[..., None])[..., 0]
    cov = np.linalg.inv(A)
    return coef[:, 0], coef[:, 1], np.sqrt(cov[:, 0, 0]), np.sqrt(cov[:, 1, 1])


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

    runs = tuple(
        simulate(model, strategy, replace(config, horizon=float(horizon)),
                 threads=threads, stream_offset=j)
        for j, horizon in enumerate(t)
    )
    horizons = np.array([r.horizon for r in runs])
    # one column per fitted line: mean_u, var_u, then mean_uxx row-major
    y = np.array([[r.mean_u, r.var_u, *r.mean_uxx.ravel()] for r in runs])
    se = np.array([[r.mean_u_se, r.var_u_se, *r.mean_uxx_se.ravel()] for r in runs])
    offset, slope, offset_se, slope_se = _wls_lines(horizons, y, se)
    n = model.n
    return AsymptoticEstimates(
        horizons=horizons,
        growth_slope=float(slope[0]), growth_slope_se=float(slope_se[0]),
        variance_slope=float(slope[1]), variance_slope_se=float(slope_se[1]),
        second_moment_slope=slope[2:].reshape(n, n),
        second_moment_slope_se=slope_se[2:].reshape(n, n),
        second_moment_offset=offset[2:].reshape(n, n),
        second_moment_offset_se=offset_se[2:].reshape(n, n),
        per_horizon=runs,
    )


def simulate_discrete(model: FactorModel, months: int, seed: int = 0) -> TimeSeriesData:
    """One sample path at the monthly frequency, in calibration units, dated from 1970-01.

    The factor advances by the exact one-month transition; the return over
    month t is ``a + A x_{t-1}`` plus the month's Brownian shock, drawn
    jointly with the factor innovation.  Output columns follow the
    calibration conventions (returns decimal, factors percent), so feeding
    the result to :func:`longrun.calibration.calibrate` closes the loop.
    """
    if months < 24:
        raise ValueError("need at least 24 months for a calibratable series")
    n = model.n
    tr = _transition(model, 1.0, "exact")
    rng = _block_rng(seed, _DISCRETE_TAG, 0)

    x0 = tr.x0_sqrt @ rng.standard_normal(n)
    Z = rng.standard_normal((months, model.m + n))
    Z2 = rng.standard_normal((months, n))
    path = _factor_path(x0, Z @ tr.nu_from_dw + Z2 @ tr.nu_from_z, tr.phi)
    prev, levels = path[:-1], path[1:]
    returns = model.a + prev @ model.A.T + Z @ model.Sigma.T

    dates = tuple(f"{1970 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(months))
    return TimeSeriesData(dates=dates, excess_returns=returns, factor_levels=levels)
