"""Risk- and factor-sensitive performance criterion and its optimizer.

The objective over linear strategies (h, H) is

    W = growth_rate - (theta/4) * variance_rate + gamma . wealth_factor_cov,

with the theta coefficient exactly theta/4.  W is quartic and nonconvex in
(h, H) jointly, but for fixed H a concave quadratic in h: the Lyapunov
offset of the variance rate depends on H only, and the shock loading
Y = G h + y0 is affine in h.  So the optimizer scans the m*n entries of H
alone, refines the best local_restarts scan points by BFGS, and solves for
h at each point.  The whole scan (a grid_points^(m n) mesh when m n <= 2,
else a 4,096-point Latin hypercube) is h-solved and scored in one call of
the batched moment engine (:mod:`longrun.moments`).  W is a quartic
polynomial in (h, H), so a 5-point central difference is its exact gradient
up to rounding.  One BFGS ascent carries every start: each round scores the
trial points of all starts still running, with their gradients, in one
engine call.  A trial is kept if it passes the Armijo test, else its step is
halved.  A start stops when its largest |gradient| entry is at most 1e-9,
after max_iterations kept steps, or when the gain its step predicts falls
below the rounding of W.  The stationarity test takes one more engine call.

Unboundedness is decided exactly.  With SS' = Sigma Sigma', D the
stationary factor covariance and w = B^-T gamma:

* theta = 0: with h maximized out, W is quadratic in H with curvature
  tr(H'SS'H (D w w'D - D)) / 2, so it is unbounded iff w'D w > 1, along
  H = u w', h = H D w.
* theta > 0: the quartic part of the variance rate bounds W.

Both rules need SS' positive definite, which :func:`optimize` checks first.

Everything here is deterministic: the sampling plan for high-dimensional
scans is seeded from the config, restart results are merged by index, and
ties are broken by smallest strategy norm, then lexicographically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError
from .model import CriterionParams, FactorModel, Strategy, _require_definite_diffusion
from .moments import moments

__all__ = [
    "OptimizerConfig",
    "OptimizationResult",
    "SweepResult",
    "UnboundedCriterionError",
    "evaluate",
    "optimize",
    "sweep_theta",
    "sweep_gamma",
]

# Full-mesh grids above this dimension would explode combinatorially; switch
# to a seeded Latin hypercube of _SCAN_BUDGET points.
_FULL_GRID_MAX_DIM = 2
_SCAN_BUDGET = 4096
# The stencil is exact for a quartic at any step (relative to 1 + |x|); a
# large one keeps the rounding error small.
_STENCIL_STEP = 1e-3
_STATIONARITY_NORM = 1e-6
_GTOL = 1e-3 * _STATIONARITY_NORM   # per H partial: restarts at one optimum agree well below 1e-6
_ARMIJO = 1e-4              # share of the predicted gain a kept step must reach
_EPS = np.finfo(float).eps


class UnboundedCriterionError(RuntimeError):
    """The criterion increases without bound along some strategy direction."""

    def __init__(self, message: str, direction: np.ndarray):
        super().__init__(message)
        self.direction = direction


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid-scan and refinement settings for the search over H.

    ``grid_bounds`` applies to every entry of H (h is solved for).
    ``grid_points`` only sets the mesh resolution per axis, used when
    m*n <= 2; ``seed`` (any integer, modulo 2**64) only seeds the Latin
    hypercube used above that.  The best ``local_restarts`` scan points start
    one batched BFGS ascent, where each start keeps at most ``max_iterations``
    steps.  ``simplex_tolerance`` only sets the relative tolerance within
    which refined values tie (see :func:`optimize`).
    """

    grid_bounds: tuple = (-3.0, 3.0)
    grid_points: int = 61
    local_restarts: int = 5
    simplex_tolerance: float = 1e-10
    max_iterations: int = 2000
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.grid_bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"grid_bounds must be a finite interval, got {self.grid_bounds}")
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        if self.local_restarts < 1:
            raise ValueError("local_restarts must be at least 1")
        if not self.simplex_tolerance > 0:
            raise ValueError("simplex_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimize() call.

    ``stationary`` reports the gradient test over all of (h, H); a False
    value flags the point rather than raising.  ``restarts`` holds the
    (point, value) pair of every local refinement, in start order.
    ``evaluations`` counts every strategy scored: scan points, the points
    of every BFGS round and those of the stationarity test.
    """

    strategy: Strategy
    value: float
    stationary: bool
    gradient_norm: float
    restarts: tuple
    evaluations: int
    message: str


@dataclass(frozen=True)
class SweepResult:
    """Optima along a parameter path.

    ``failed`` marks points where the optimizer raised (e.g. unbounded
    direction); their strategy entries are NaN and the sweep continued.
    """

    parameter_values: np.ndarray
    h_star: np.ndarray
    H_star: np.ndarray
    values: np.ndarray
    stationary: np.ndarray
    failed: np.ndarray
    messages: tuple
    results: tuple

    def ratio(self) -> np.ndarray:
        """Signed H*/h* per point, for the one-asset, one-factor case."""
        if self.H_star.shape[1:] != (1, 1):
            raise ValueError("ratio is defined for m = n = 1 only")
        h = self.h_star[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(h != 0.0, self.H_star[:, 0, 0] / h, np.nan)


def evaluate(model: FactorModel, strategy, params: CriterionParams, factor_cov=None):
    """Criterion value W for a Strategy (a float), or for a stack ``(h, H)`` (shape (k,)).

    A stack has ``h`` of shape (k, m) and ``H`` of shape (k, m, n), as in
    :func:`~longrun.moments.moments`.  ``factor_cov`` is accepted for
    compatibility and not used: the model keeps its stationary covariance.
    Raises :class:`~longrun.linalg.DimensionError` when ``gamma`` or the
    strategy does not fit the model.
    """
    _check_gamma(model, params)
    mom = moments(model, strategy)
    w = mom.growth_rate - 0.25 * params.theta * mom.variance_rate + mom.wealth_factor_cov @ params.gamma
    return w if np.ndim(w) else float(w)


def _check_gamma(model: FactorModel, params: CriterionParams) -> None:
    if params.gamma.shape != (model.n,):
        raise DimensionError(
            f"gamma must have length n={model.n}, got {params.gamma.shape[0]}"
        )


def _scan_points(config: OptimizerConfig, dim: int) -> np.ndarray:
    """Deterministic global scan: full mesh when affordable, LHS otherwise."""
    lo, hi = config.grid_bounds
    if dim > _FULL_GRID_MAX_DIM:
        key = np.array([config.seed % 2**64, 0x5CA1], dtype=np.uint64)   # as simulate takes it
        rng = np.random.Generator(np.random.Philox(key=key))
        u = (rng.permuted(np.tile(np.arange(_SCAN_BUDGET, dtype=float)[:, None], (1, dim)), axis=0)
             + rng.random((_SCAN_BUDGET, dim))) / _SCAN_BUDGET
        return lo + (hi - lo) * u
    axes = [np.linspace(lo, hi, config.grid_points)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _h_solver(model: FactorModel, params: CriterionParams):
    """Raise if W has no maximum; else return ``H -> h*(H)``, H of shape (m, n) or (k, m, n).

    h* solves (SS' + (theta/2) G'G) h = a - (theta/2) G'y0 + (SS'H D - A D - Sigma Lambda') w
    with G = Sigma' + Lambda'B^-T (H'SS' - A'), y0 = -Lambda'B^-T H'a.  Raises
    :class:`~longrun.model.ModelValidationError` unless SS' is positive definite.
    """
    _check_gamma(model, params)
    _require_definite_diffusion(model)
    a, A, Sg = model.a, model.A, model.Sigma
    SS = model.prepared.SS
    dlt = model.prepared.D
    K = np.linalg.solve(model.B, model.Lambda).T        # Lambda' B^-T
    w = np.linalg.solve(model.B.T, params.gamma)
    dw = dlt @ w
    G0 = Sg.T - K @ A.T
    r0 = a - A @ dw - Sg @ (model.Lambda.T @ w)
    half = 0.5 * params.theta
    if params.theta == 0.0 and float(w @ dw) > 1.0:
        H = np.outer(np.linalg.eigh(SS)[1][:, -1], w)    # along the top eigenvector of SS'
        _unbounded(np.concatenate([H @ dw, H.ravel()]),
                   f"theta = 0 and w'Dw = {float(w @ dw):.4g} > 1")

    def h_star(H: np.ndarray) -> np.ndarray:
        Ht = np.swapaxes(H, -1, -2)
        G = G0 + K @ Ht @ SS
        Gt = np.swapaxes(G, -1, -2)
        r = r0 + (H @ dw) @ SS + half * (Gt @ ((Ht @ a) @ K.T)[..., None])[..., 0]
        return np.linalg.solve(SS + half * (Gt @ G), r[..., None])[..., 0]

    return h_star


def _unbounded(direction: np.ndarray, reason: str):
    e = direction / np.linalg.norm(direction)
    raise UnboundedCriterionError(
        "criterion improves without bound along direction "
        f"{np.array2string(e, precision=4)} ({reason}); no finite optimum to report",
        direction=e,
    )


def _stencil(score, x: np.ndarray, coords) -> tuple:
    """W at ``x`` and its 5-point-stencil gradient along ``coords``.

    ``x`` is one point (dim,) or a stack of r points (r, dim).  ``score`` maps
    a (k, dim) stack to (k,) values; one call scores r (1 + 4 len(coords)) rows.
    """
    X = np.atleast_2d(x)
    steps = _STENCIL_STEP * (1.0 + np.abs(X[:, coords]))
    E = np.eye(X.shape[1])[coords] * steps[..., None]
    shifted = X[:, None] + np.multiply.outer([2.0, 1.0, -1.0, -2.0], E)
    f = score(np.vstack([X, shifted.reshape(-1, X.shape[1])]))
    p2, p1, m1, m2 = f[len(X):].reshape(4, len(X), -1)
    g = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * steps)
    return (f[0], g[0]) if x.ndim == 1 else (f[:len(X)], g)


def _refine(objective, starts: np.ndarray, max_iterations: int) -> tuple:
    """BFGS ascent from every row of ``starts`` at once, by the rules of the module docstring.

    ``objective`` maps a stack of points to their values and gradients.
    """
    X = starts.copy()
    W, G = objective(X)
    eye = np.eye(X.shape[1])
    inv_hess = np.tile(eye, (len(X), 1, 1))
    alpha = 1.0 / np.maximum(1.0, np.linalg.norm(G, axis=1))
    kept = np.zeros(len(X), dtype=int)
    fresh = np.ones(len(X), dtype=bool)       # inverse Hessian not yet scaled
    while True:
        P = np.einsum("rij,rj->ri", inv_hess, G)
        gain = alpha * np.einsum("ri,ri->r", G, P)
        i = np.flatnonzero((np.abs(G).max(axis=1) > _GTOL) & (kept < max_iterations)
                           & (gain > _EPS * np.abs(W)))
        if i.size == 0:
            return X, W
        trial = X[i] + alpha[i, None] * P[i]
        w, g = objective(trial)
        ok = w >= W[i] + _ARMIJO * gain[i]
        alpha[i[~ok]] *= 0.5
        i, trial, w, g = i[ok], trial[ok], w[ok], g[ok]
        s, y = trial - X[i], G[i] - g          # y is the change in the gradient of -W
        X[i], W[i], G[i], kept[i] = trial, w, g, kept[i] + 1
        sy = np.einsum("ri,ri->r", s, y)
        i, s, y, sy = i[sy > 0.0], s[sy > 0.0], y[sy > 0.0], sy[sy > 0.0]
        inv_hess[i[fresh[i]]] = eye * (sy / np.einsum("ri,ri->r", y, y))[fresh[i], None, None]
        fresh[i] = False
        rs = (s / sy[:, None])[:, :, None]
        V = eye - rs * y[:, None, :]
        inv_hess[i] = V @ inv_hess[i] @ np.swapaxes(V, 1, 2) + rs * s[:, None, :]
        alpha[i] = 1.0


def optimize(model: FactorModel, params: CriterionParams,
             config: OptimizerConfig | None = None) -> OptimizationResult:
    """Maximize the criterion over (h, H).

    Scan over H, then refine the best ``local_restarts`` scan points by one
    batched BFGS ascent over H; every point takes the maximizing h for its H.
    A start stops at a largest |gradient| entry of 1e-9, after
    ``config.max_iterations`` kept steps, or when the gain its step predicts
    falls below the rounding of W.  Raises,
    before scoring a strategy, :class:`UnboundedCriterionError` when W has
    no maximum (see the module docstring), :class:`~longrun.model.ModelValidationError`
    when Sigma Sigma' is not positive definite, and :class:`~longrun.linalg.DimensionError`
    when ``gamma`` does not have length n.  Ties within ``config.simplex_tolerance``
    go to the smallest-norm point, then lexicographic.
    """
    config = config or OptimizerConfig()
    m, n = model.m, model.n
    h_star = _h_solver(model, params)
    if params.theta == 0.0 and not np.any(params.gamma != 0.0):
        warnings.warn(
            "theta = 0 and gamma = 0: the criterion reduces to the growth "
            "rate alone; the optimum ignores risk entirely",
            stacklevel=2,
        )
    evaluations = 0

    def score(X):
        """W at each row (h, vec H) of X."""
        nonlocal evaluations
        evaluations += len(X)
        return evaluate(model, (X[:, :m], X[:, m:].reshape(-1, m, n)), params)

    def full(Hx):
        return np.hstack([h_star(Hx.reshape(-1, m, n)), Hx])

    points = _scan_points(config, m * n)
    values = score(full(points))

    starts = points[np.argsort(-values, kind="stable")[:config.local_restarts]]

    def objective(Hx):
        # Envelope theorem: at h = h*(H), dW/dh = 0, so the partial gradient
        # along H is the exact gradient of W*(H) = max_h W(h, H).
        return _stencil(score, full(Hx), np.arange(m, m + m * n))

    Hx, W = _refine(objective, starts, config.max_iterations)
    trials = [(x, float(w)) for x, w in zip(full(Hx), W)]

    best_w = max(w for _, w in trials)
    tol = config.simplex_tolerance * (1.0 + abs(best_w))
    tied = [(x, w) for x, w in trials if w >= best_w - tol]
    x_star, w_star = min(tied, key=lambda t: (np.linalg.norm(t[0]), tuple(t[0])))

    g_norm = float(np.linalg.norm(_stencil(score, x_star, np.arange(x_star.size))[1]))
    stationary = g_norm <= _STATIONARITY_NORM * (1.0 + abs(w_star))
    message = "converged" if stationary else (
        f"gradient norm {g_norm:.3e} exceeds the stationarity tolerance"
    )
    if values.max() - w_star > tol:
        message += "; a scan point beat the refined optimum"
    return OptimizationResult(
        strategy=Strategy(h=x_star[:m], H=x_star[m:].reshape(m, n)),
        value=w_star,
        stationary=stationary,
        gradient_norm=g_norm,
        restarts=tuple((x, w) for x, w in trials),
        evaluations=evaluations,
        message=message,
    )


def _sweep(model, param_list, make_params, config, name) -> SweepResult:
    param_list = [float(p) for p in param_list]
    if len(param_list) == 0:
        raise ValueError(f"{name} is empty")
    h_star = np.full((len(param_list), model.m), np.nan)
    H_star = np.full((len(param_list), model.m, model.n), np.nan)
    values = np.full(len(param_list), np.nan)
    stationary = np.zeros(len(param_list), dtype=bool)
    messages, results = [], []
    for i, p in enumerate(param_list):
        try:
            res = optimize(model, make_params(p), config)
        except UnboundedCriterionError as err:
            messages.append(str(err))
            results.append(None)
            continue
        h_star[i] = res.strategy.h
        H_star[i] = res.strategy.H
        values[i] = res.value
        stationary[i] = res.stationary
        messages.append(res.message)
        results.append(res)
    failed = np.array([r is None for r in results])
    return SweepResult(np.array(param_list), h_star, H_star, values, stationary, failed,
                       tuple(messages), tuple(results))


def sweep_theta(model: FactorModel, theta_values, gamma=None,
                config: OptimizerConfig | None = None) -> SweepResult:
    """Optimize along an ascending list of risk sensitivities.

    Each point is optimized on its own, from its own grid scan.  ``gamma`` is
    a fixed factor-sensitivity vector (default zero).  Failed points are
    flagged and skipped, not fatal.
    """
    g = np.zeros(model.n) if gamma is None else np.asarray(gamma, dtype=float)
    return _sweep(model, theta_values, lambda t: CriterionParams(theta=t, gamma=g), config,
                  "theta_values")


def sweep_gamma(model: FactorModel, theta: float, gamma_values,
                config: OptimizerConfig | None = None) -> SweepResult:
    """Optimize along a list of factor-sensitivity values at fixed theta.

    Each scalar in ``gamma_values`` is the sensitivity to the first factor;
    the others get zero weight (for one factor, gamma is just the scalar).
    """
    e = np.eye(model.n)[0]
    return _sweep(model, gamma_values, lambda g: CriterionParams(theta=float(theta), gamma=g * e),
                  config, "gamma_values")
