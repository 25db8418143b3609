"""Monte Carlo oracle for the closed-form long-run moments.

The simulator integrates the log-wealth increment directly,

    du = (h + Hx)'((a + Ax) dt + Sigma dW) - (h + Hx)'SS'(h + Hx)/2 dt,

with an Euler step (left endpoint).  With w = (1, x) the step is
w'Cw + Y.w, where the drift C = [[c0, c1'/2], [c1/2, C2]] has c0 = (h'a -
h'SS'h/2) dt, c1 = (A'h + H'a - H'SS'h) dt and C2 = sym(H'A - H'SS'H/2) dt,
computed once per simulation, and Y = dW Sigma'[h H] is the step's
Brownian shock.  Both factor schemes run one recursion for every n,
x_j = phi x_{j-1} + nu_j, one matrix product per step.  The default is
exact: phi = e^{B dt}, and nu, of covariance ``Delta - phi Delta phi'``, is
drawn jointly with the Brownian increment through the exact conditional law
(cov(nu, dW) = B^{-1}(phi - I) Lambda).  With a stationary start this makes
the sample mean of u(T) an unbiased estimate of growth_rate * T at any step
size; variances and covariances carry only O(dt) discretization error.  The
Euler scheme, for convergence studies, is the same recursion with
phi = I + B dt and nu = Lambda dW.  The exponential is
:func:`longrun.linalg.expm`, numpy products and one numpy solve, so a
simulation calls no scipy.linalg routine and never wakes scipy's thread pool
(the rule of :mod:`longrun.linalg`).

One upper-triangular F = [[R, top], [0, tail]] (:func:`_shock_map`) maps
standard normals z = (z_nu, z_rest) to [nu | Y] with exactly the step's
joint law, so nu = z_nu R and Y = z_nu top + z_rest tail.  Each step draws
only the n normals z_nu: they give nu and E[Y | nu] = z_nu top.  The other
normals reach u only through sum_j (z_rest,j tail).w_j, which, given the
factor path, is exactly N(0, V) with V = sum_j w_j'Mw_j and M = tail'tail.
So each path draws one closing normal eps after its last step and adds
sqrt(V) eps to u, and (u(T), x(T)) keeps the law of the step-by-step
scheme.  Each step's w'Cw is read from its products w_a w_b, and V from
their sums over the steps; both are formed once for every strategy of a
stack.  R depends only on the model and the step, so at one seed all
strategies share their factor paths.

Reproducibility contract, version 3: the normal draws consumed by path i at
step j are a function of (seed, stream offset, i, j) only, independent of
the total path count, the thread count, and scheduling.  Paths are grouped
in fixed blocks of ``BLOCK``, each block owning one SFC64 stream seeded by
``SeedSequence([seed, stream offset, block index])``.  A block's stream
gives its stationary-start normals, shaped (n, BLOCK), then per step one
(n, BLOCK) array, then the closing (BLOCK,) array, always for the full
block and sliced to its paths (antithetic pairs flip the odd paths' signs).
Steps are drawn in slabs of at most ``CHUNK`` = 16 as one (L, n, BLOCK)
array, which holds the same normals as L single steps, and u and the
products of w sum over periods of ``_SUM_STEPS`` = 32 steps whatever the
slab length, so ``CHUNK`` sets only memory use.  A block allocates its
working set once: the slab's draws, its factor path with the products of w,
and one shock and one increment scratch that every strategy of a stack
reuses, under 4 MB per running block at 3x2.  A stack of strategies runs
one march: the draws, the factor path and the products of w are formed once
per slab and only the increment and V are taken per strategy, so each
strategy's result is bit for bit what it gives alone.  Identical inputs
therefore give bit-identical :class:`PathStats`; a path or a cross-path
statistic that overflows raises :class:`SimulationError`.
:func:`simulate_discrete` draws from its own Philox stream, unchanged by
version 3.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, replace

import numpy as np

from .calibration import TimeSeriesData
from .linalg import DimensionError, NumericError, expm, psd_sqrt
from .model import FactorModel, Strategy, _finite_real
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

# Paths are grouped in blocks of ``BLOCK``, each with its own stream; this is
# part of the draw-position contract described in the module docstring.  A
# block's draws are generated at most ``CHUNK`` steps at a time, which sets
# only the memory a slab uses: the draws do not depend on it, and u and the
# products of w are summed in periods of ``_SUM_STEPS`` steps that no slab
# straddles.  16 steps hold a block's working set near 3.6 MB at 3x2.
BLOCK = 2048
CHUNK = 16
_SUM_STEPS = 32

_MASK64 = 0xFFFFFFFFFFFFFFFF
# Philox key tag of the single-path monthly generator, which keeps the
# stream it has always drawn from
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
        for name, value in (("dt", self.dt), ("horizon", self.horizon)):
            if not (_finite_real(value) and value > 0.0):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        for name, value in (("paths", self.paths), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.paths < 2:
            raise ValueError(f"need at least 2 paths, got {self.paths}")
        for name in ("antithetic", "stationary_start"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a boolean, got {getattr(self, name)!r}")
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

    For a stack of s strategies every field but ``horizon``, ``dt``,
    ``paths`` and ``final_x``, which the strategies share, gains a leading
    axis of length s.
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
    """100 times the slowest factor half-life, ``100 ln 2 / |max Re eig(B)|``.

    By then the factor state has forgotten its start, but the O(1) terms of
    the finite-horizon moments are not negligible against the O(T) ones: on
    the reference model with (h, H) = (1, 0), the constant term of
    Var[u(T)] is still about 1.4% of variance_rate * T, near one standard
    error of ``var_u`` at 10^4 paths.  That bias, in z units, grows like the
    square root of the path count.
    """
    eigs = np.linalg.eigvals(model.B).real
    return float(100.0 * math.log(2.0) / abs(eigs.max()))


def _block_rng(seed: int, stream_offset: int, block: int) -> np.random.Generator:
    """The SFC64 stream of one block of paths; the seed is taken modulo 2^64."""
    key = np.random.SeedSequence([seed & _MASK64, stream_offset, block])
    return np.random.Generator(np.random.SFC64(key))


@dataclass(frozen=True)
class _Transition:
    """One factor step ``x_j = x_{j-1} phi' + nu_j`` and the law of its start.

    ``nu = dW @ nu_from_dw + Z @ nu_from_z`` with Z one extra normal per
    factor (``nu_from_z`` is None for the Euler scheme, which needs none);
    :func:`_shock_map` folds both maps into one.  ``x0_sqrt`` maps standard
    normals to the stationary law.
    """

    phi: np.ndarray
    nu_from_dw: np.ndarray      # (m+n, n)
    nu_from_z: np.ndarray | None
    x0_sqrt: np.ndarray


def _transition(model: FactorModel, dt: float, scheme: str) -> _Transition:
    """One-step factor transition and shock-coupling pieces.

    The exact phi = e^{B dt} is :func:`longrun.linalg.expm`, within rounding of
    ``scipy.linalg.expm`` and bit for bit ``np.exp`` at n = 1.
    """
    B, Lm, dlt = model.B, model.Lambda, model.prepared.D
    eye = np.eye(model.n)
    if scheme == "euler":
        return _Transition(eye + B * dt, Lm.T.copy(), None, psd_sqrt(dlt))
    phi = expm(B * dt)
    step_cov = dlt - phi @ dlt @ phi.T
    M = model.prepared.B_inv @ ((phi - eye) @ Lm)     # cov(nu, dW) with Var(dW) = dt I
    resid = step_cov - (M @ M.T) / dt
    return _Transition(phi, (M / dt).T.copy(), psd_sqrt(resid).T.copy(), psd_sqrt(dlt))


def _normals(rng: np.random.Generator, out: np.ndarray, antithetic: bool) -> np.ndarray:
    """Fill the C-contiguous ``out`` with standard normals, paths on the last axis.

    Antithetic pairs flip the odd paths' signs.
    """
    rng.standard_normal(out=out)
    if antithetic:
        np.negative(out[..., 0::2], out=out[..., 1::2])
    return out


def _factor_path(x: np.ndarray, nu: np.ndarray, phi: np.ndarray, out=None) -> np.ndarray:
    """States x_0..x_L of ``x_j = phi x_{j-1} + nu_j``, factor-major.

    ``x`` has shape (n, ...) and ``nu`` (L, n, ...); the result has shape
    (L + 1, n, ...) with ``x`` first, written to ``out`` when given.
    """
    if out is None:
        out = np.empty((nu.shape[0] + 1,) + x.shape)
    out[0] = x
    for j in range(nu.shape[0]):
        np.matmul(phi, out[j], out=out[j + 1])
        out[j + 1] += nu[j]
    return out


def _pair_weights(Q: np.ndarray) -> np.ndarray:
    """Weights q with ``w'Qw = q . pairs(w)`` for a symmetric Q.

    ``pairs(w)`` lists the products w_a w_b, a <= b, in the order of
    ``np.triu_indices``; with w = (1, x) it starts 1, x_1, ..., x_n.
    """
    rows, cols = np.triu_indices(Q.shape[0])
    return np.where(rows == cols, 1.0, 2.0) * Q[rows, cols]


def _increment(model: FactorModel, strategy: Strategy, tr: _Transition, dt: float):
    """Per-step pieces (drift, top, var, F) of the log-wealth increment.

    From factor state x with Brownian increment dW the increment is
    ``w'Cw + Y.w`` with w = (1, x), ``Y = dW G`` and ``G = Sigma'[h H]``.
    ``F = [[R, top], [0, tail]]`` is the :func:`_shock_map` of G; ``drift``
    and ``var`` are the :func:`_pair_weights` of C and of M = tail'tail, and
    ``top`` is transposed, so E[Y | nu] = top @ z_nu.
    """
    h, H, a, SS = strategy.h, strategy.H, model.a, model.prepared.SS
    n = model.n
    with np.errstate(over="ignore", invalid="ignore"):
        SSh, HSS = SS @ h, H.T @ SS
        C = np.empty((n + 1, n + 1))
        C[0, 0] = (h @ a - 0.5 * h @ SSh) * dt
        C[1:, 0] = C[0, 1:] = 0.5 * (model.A.T @ h + H.T @ a - HSS @ h) * dt
        C2 = H.T @ model.A - 0.5 * HSS @ H
        C[1:, 1:] = 0.5 * (C2 + C2.T) * dt
        F = _shock_map(tr, model.Sigma.T @ np.column_stack([h, H]), dt)
        tail = F[n:, n:]
        var = _pair_weights(tail.T @ tail)
    return _pair_weights(C), np.ascontiguousarray(F[:n, n:].T), var, F


def _shock_map(tr: _Transition, G: np.ndarray, dt: float) -> np.ndarray:
    """Upper-triangular F with ``z @ F`` distributed as one step's [nu | dW G].

    ``T = [T_nu | T_y]`` maps the step's standard normals (the Brownian
    ones, then the exact scheme's extra ones) to [nu | Y = dW G].  F is the
    triangular factor of T'T with a nonnegative diagonal, so F'F = T'T and
    the law is exact, with k = min(rows of T, 1 + 2n) rows.  It is built in
    two stages, ``T_nu = Q R`` and then the QR of the rows of ``Q'T_y``
    below the first n, so that F[:n, :n] = R depends only on the
    transition: ``nu`` reads the first n normals through the same bits for
    every strategy.  (One QR of all of T does not give that: LAPACK skips
    zero trailing columns, such as those of H = 0, and the last bits of R
    move with them.)  Householder QR takes each row's sign, and its last
    bits, from its input, down to the sign of a zero, so T and F are taken
    with every -0.0 turned into +0.0 (by adding +0.0), and each row of F is
    scaled by the sign of its diagonal entry, 0 counting as +.
    """
    n = tr.phi.shape[0]
    sqdt = math.sqrt(dt)
    T_nu, T_y = tr.nu_from_dw * sqdt, G * sqdt
    if tr.nu_from_z is not None:
        T_nu = np.vstack([T_nu, tr.nu_from_z])
        T_y = np.vstack([T_y, np.zeros((n, G.shape[1]))])
    Q, R = np.linalg.qr(T_nu + 0.0, mode="complete")
    rot = Q.T @ (T_y + 0.0)
    tail = np.linalg.qr(rot[n:], mode="r")
    F = np.zeros((n + tail.shape[0], n + G.shape[1]))
    F[:n, :n] = R[:n]
    F[:n, n:] = rot[:n]
    F[n:, n:] = tail
    return F * np.where(np.diag(F) < 0.0, -1.0, 1.0)[:, None] + 0.0


def _march_block(coefs, config, tr, steps, block, rows, stream_offset):
    """Advance one block of paths to the terminal time under every strategy of a stack.

    ``coefs`` holds one :func:`_increment` tuple per strategy.  Returns (u, x)
    of shapes (s, rows) and (rows, n).  Draws follow contract v3 (module
    docstring): after the (n, BLOCK) stationary-start normals, each slab of
    L steps is one (L, n, BLOCK) array sliced to ``rows``, and after the last
    step one (BLOCK,) closing array.  The march is factor-major, paths on
    the last axis.  ``pairs`` holds per step the entries of pairs(w) after
    the constant 1 (:func:`_pair_weights`): x, then the products x_a x_b.
    Its rows 1..L + 1 carry the states x_0..x_L of the slab, and row 0 the
    sums over the period so far, which one reduction then continues, as row
    0 of ``inc`` does for a strategy's increments.  nu, the factor path and
    ``pairs`` do not depend on the strategy and are formed once a slab; each
    strategy reads its drift from ``pairs`` and its shock from its own
    product with z, and at the end its V from the sums of ``pairs``.
    """
    n = tr.phi.shape[0]
    R_t = np.ascontiguousarray(coefs[0][3][:n, :n].T)       # the same for every strategy
    label = _labels(len(coefs))
    anti = config.antithetic
    rng = _block_rng(config.seed, stream_offset, block)
    products = [(n + j, a, b) for j, (a, b) in enumerate(zip(*np.triu_indices(n)))]

    draws = np.empty((CHUNK, n, BLOCK))
    pairs = np.empty((CHUNK + 2, n + len(products), rows))
    shock = np.empty((CHUNK, n + 1, rows))      # nu, then each strategy's E[Y | nu]
    inc = np.empty((CHUNK + 1, rows))
    part = np.zeros((len(coefs), rows))     # each strategy's sum over the current period
    u = np.zeros((len(coefs), rows))
    pairs_part = np.zeros(pairs.shape[1:])
    pairs_sum = np.zeros(pairs.shape[1:])
    x = pairs[1:, :n]

    if config.stationary_start:
        x[0] = tr.x0_sqrt @ _normals(rng, np.empty((n, BLOCK)), anti)[:, :rows]
    else:
        x[0] = 0.0

    start = 0
    while start < steps:
        L = min(CHUNK, steps - start, _SUM_STEPS - start % _SUM_STEPS)
        z = _normals(rng, draws[:L], anti)[..., :rows]
        np.matmul(R_t, z, out=shock[:L, :n])
        _factor_path(x[0], shock[:L, :n], tr.phi, out=x[:L + 1])
        for j, a, b in products:
            np.multiply(x[:L, a], x[:L, b], out=pairs[1:L + 1, j])
        step_inc = inc[1:L + 1]
        for i, (drift, top, _, _) in enumerate(coefs):
            np.matmul(drift[1:], pairs[1:L + 1], out=step_inc)
            step_inc += drift[0]
            np.matmul(top, z, out=shock[:L])
            shock[:L, 1:] *= x[:L]
            for k in range(n + 1):
                step_inc += shock[:L, k]

            bad = ~np.isfinite(step_inc)
            if bad.any():
                j, p = divmod(int(np.argmax(bad)), rows)   # earliest step, then lowest path
                raise SimulationError(
                    f"non-finite value at step {start + j}, path {block * BLOCK + p}{label[i]}"
                )
            inc[0] = part[i]
            with np.errstate(over="ignore"):
                np.add.reduce(inc[:L + 1], axis=0, out=part[i])
        pairs[0] = pairs_part
        with np.errstate(over="ignore"):
            np.add.reduce(pairs[:L + 1], axis=0, out=pairs_part)
        start += L
        if start % _SUM_STEPS == 0 or start == steps:
            with np.errstate(over="ignore"):
                u += part
                pairs_sum += pairs_part
            part[:] = 0.0
            pairs_part[:] = 0.0
            for i in range(len(coefs)):
                _check_wealth(u[i], start, block, label[i])
            bad = ~np.all(np.isfinite(x[L]), axis=0)
            if bad.any():
                p = int(np.argmax(bad))
                raise SimulationError(
                    f"non-finite factor state by step {start}, path {block * BLOCK + p}"
                )
        x[0] = x[L]

    eps = _normals(rng, np.empty(BLOCK), anti)[:rows]
    for i, (_, _, var, _) in enumerate(coefs):
        with np.errstate(over="ignore", invalid="ignore"):
            V = var[1:] @ pairs_sum + var[0] * steps
            # V >= 0, but a singular M can leave it a rounding error below 0
            u[i] += np.sqrt(np.maximum(V, 0.0)) * eps
        _check_wealth(u[i], steps, block, label[i])
    return u, x[0].T


def _check_wealth(u: np.ndarray, step: int, block: int, label: str) -> None:
    """Raise SimulationError at the first path of a block whose log wealth is not finite."""
    if not np.all(np.isfinite(u)):
        p = int(np.argmax(~np.isfinite(u)))
        raise SimulationError(f"non-finite log wealth by step {step}, path {block * BLOCK + p}{label}")


def _labels(count: int) -> list:
    """The suffix that names each strategy in an error message: none for a single one."""
    return [f", strategy {i}" if count > 1 else "" for i in range(count)]


def _mean_se(values: np.ndarray, antithetic: bool) -> np.ndarray:
    """Standard error of the mean along axis 0; antithetic pairs are averaged first."""
    if antithetic:
        values = 0.5 * (values[0::2] + values[1::2])
    return values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])


def _summary(u: np.ndarray, xf: np.ndarray, antithetic: bool, label: str = "") -> dict:
    """One strategy's cross-path statistics of terminal (u, x), in PathStats field order."""
    paths = u.shape[0]
    # finite paths can still overflow a summary; it is located below instead
    with np.errstate(over="ignore", invalid="ignore"):
        du = u - u.mean()
        cov_prod = du[:, None] * (xf - xf.mean(axis=0))      # (paths, n)
        uxx = u[:, None, None] * (xf[:, :, None] * xf[:, None, :])
        summary = dict(
            mean_u=float(u.mean()),
            mean_u_se=float(_mean_se(u, antithetic)),
            var_u=float(u.var(ddof=1)),
            var_u_se=float(_mean_se(du ** 2, antithetic)),
            cov_ux=cov_prod.sum(axis=0) / (paths - 1),
            cov_ux_se=_mean_se(cov_prod, antithetic),
            mean_uxx=uxx.mean(axis=0),
            mean_uxx_se=_mean_se(uxx, antithetic),
        )
    for name, value in summary.items():
        if not np.all(np.isfinite(value)):
            raise SimulationError(f"non-finite {name}{label}: the terminal values overflow it")
    return summary


def simulate(model: FactorModel, strategy, config: SimConfig,
             threads: int = 1, stream_offset: int = 0) -> PathStats:
    """Simulate terminal (u, x) across paths and summarize.

    ``strategy`` is a :class:`~longrun.model.Strategy`, or a stack ``(h, H)``
    of s strategies with shapes (s, m) and (s, m, n), as in
    :func:`~longrun.moments.moments`.  A stack runs one march: its
    strategies share the draws and the factor paths, and each one's
    statistics are bit for bit what it gives alone.  Every field of the
    result but ``horizon``, ``dt``, ``paths`` and ``final_x`` then gains a
    leading axis of length s.  Raises :class:`~longrun.linalg.DimensionError`
    when the shapes do not fit the model (or the stack is empty) and
    :class:`~longrun.model.ModelValidationError` when a stack has a
    non-finite entry.

    ``threads`` parallelizes over path blocks without changing any output
    bit (each block's draws and its slice of the result are fixed).
    ``stream_offset`` selects a disjoint stream family; batches run with
    different offsets are statistically independent at the same seed.
    """
    h, H = _stack(model, strategy)
    if h.shape[0] == 0:
        raise DimensionError("the strategy stack is empty")
    steps = int(round(config.horizon / config.dt))
    if steps < 1:
        raise ValueError("horizon shorter than one step")

    tr = _transition(model, config.dt, config.factor_scheme)
    coefs = [_increment(model, Strategy(h=hi, H=Hi), tr, config.dt) for hi, Hi in zip(h, H)]
    paths, n = config.paths, model.n
    u = np.empty((len(coefs), paths))
    xf = np.empty((paths, n))
    nblocks = (paths + BLOCK - 1) // BLOCK

    def run(block: int):
        lo = block * BLOCK
        rows = min(BLOCK, paths - lo)
        u[:, lo:lo + rows], xf[lo:lo + rows] = _march_block(
            coefs, config, tr, steps, block, rows, stream_offset)

    if threads > 1 and nblocks > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(nblocks)))
    else:
        list(map(run, range(nblocks)))

    stats = [_summary(row, xf, config.antithetic, label)
             for row, label in zip(u, _labels(len(coefs)))]
    common = dict(horizon=steps * config.dt, dt=config.dt, paths=paths, final_x=xf)
    if isinstance(strategy, Strategy):
        return PathStats(**common, **stats[0], final_u=u[0])
    return PathStats(**common, **{name: np.array([s[name] for s in stats]) for name in stats[0]},
                     final_u=u)


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
    adjugate = np.stack([A[:, 1, 1], -A[:, 0, 1], -A[:, 1, 0], A[:, 0, 0]], axis=-1)
    cov = adjugate.reshape(-1, 2, 2) / det[:, None, None]      # A^-1, from the det tested above
    coef = (cov @ b[..., None])[..., 0]
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
    key = np.array([seed & _MASK64, _DISCRETE_TAG << 32], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))

    x0 = tr.x0_sqrt @ rng.standard_normal(n)
    Z = rng.standard_normal((months, model.m + n))
    Z2 = rng.standard_normal((months, n))
    path = _factor_path(x0, Z @ tr.nu_from_dw + Z2 @ tr.nu_from_z, tr.phi)
    prev, levels = path[:-1], path[1:]
    returns = model.a + prev @ model.A.T + Z @ model.Sigma.T

    dates = tuple(f"{1970 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(months))
    return TimeSeriesData(dates=dates, excess_returns=returns, factor_levels=levels)
