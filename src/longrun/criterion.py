"""Risk- and factor-sensitive performance criterion and its optimizer.

The objective over linear strategies (h, H) is

    W = growth_rate - (theta/4) * variance_rate + gamma . wealth_factor_cov,

with the theta coefficient exactly theta/4.  W is quartic and nonconvex in
(h, H) jointly, but for fixed H a concave quadratic in h: the Lyapunov
offset of the variance rate depends on H only, and the shock loading
Y = G h + y0 is affine in h.  So the optimizer scans the m*n entries of H
alone, refines the best local_restarts scan points by Newton steps on
W*(H) = max_h W(h, H), and solves for h at each point.  The whole scan (a
grid_points^(m n) mesh when m n <= 2, else a 4,096-point Latin hypercube)
is h-solved and scored in one call of the batched moment engine
(:mod:`longrun.moments`).  W's gradient over (h, H) is the engine's products
run backwards; at h = h*(H) its h part vanishes, so its H part is W*'s exact
gradient, and central differences of that at H +- 1e-3 (1 + |H_j|) e_j, h
re-solved at each, are W*'s Hessian.  Each round scores the trial points of
all starts still running, 1 + 2 m n rows each, in one engine call.  A start
takes the Newton step of its Hessian N with every eigenvalue made negative
(its absolute value); a trial is kept if it passes the Armijo test, else
its step is halved.  A start stops after max_iterations kept steps, when the
gain its step predicts falls below the rounding of W, or when its step no
longer changes its point.  It has converged (is stationary) where, at its last
point, lambda^2 / 2 = g'N^-1 g / 2 (lambda the Newton decrement) is at most the
rounding of W's three terms, eps times the sum of their absolute values: a
scale-free test that takes no engine call of its own.

A sweep optimizes each of its points independently, but scores them
together: the scans go to the engine in slices of whole points, at most
4,096 rows a call (one call for a 13-point sweep over a 61-point mesh), one
Newton ascent carries every point's starts (h* solved for all of them at
once), each row scored under its own point's theta and gamma alone.  So a
13-point sweep makes about as many engine calls as one optimize (6 and 5 on
the calibrated model), and each point's result is bit for bit what optimize
returns there.
A point whose W has no maximum is flagged before any scoring.

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

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, NumericError
from .model import (CriterionParams, FactorModel, ModelValidationError, Strategy,
                    _finite_real, _require_definite_diffusion)
from .moments import AsymptoticMoments, _engine, moments

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
# to a seeded Latin hypercube of _SCAN_BUDGET points.  A sweep's scans are
# also scored at most _SCAN_BUDGET rows a call, each row under its own
# point's criterion, so the scan's memory stays flat in the number of points.
_FULL_GRID_MAX_DIM = 2
_SCAN_BUDGET = 4096
# The step (relative to 1 + |H_j|) of the central differences of W*'s gradient
# that give its Hessian; a large one keeps the rounding error small.
_HESSIAN_STEP = 1e-3
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
    one batched Newton ascent, where each start keeps at most ``max_iterations``
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
        if not (_finite_real(lo) and _finite_real(hi) and lo < hi):
            raise ValueError(f"grid_bounds must be a finite interval, got {self.grid_bounds}")
        for name in ("grid_points", "local_restarts", "max_iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        if self.local_restarts < 1:
            raise ValueError("local_restarts must be at least 1")
        tol = self.simplex_tolerance
        if not (_finite_real(tol) and tol > 0):
            raise ValueError(f"simplex_tolerance must be a finite positive number, got {tol!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimize() call.

    ``stationary`` reports whether the chosen start's ascent converged (see
    the module docstring); a False value flags the point rather than raising,
    and ``message`` names its decrement and W's rounding.  ``gradient_norm``
    is the norm of W*'s gradient over H at the point.  ``restarts`` holds the
    (point, value) pair of every local refinement, in start order.
    ``evaluations`` counts every strategy scored: scan points and the points
    of every Newton round, each with its 2 m n shifted points.
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
    """Optima along a parameter path: each point as :func:`optimize` returns it.

    ``failed`` marks points where the optimizer raised (an unbounded
    direction, or overflow at every scan point); their strategy entries and
    values are NaN, ``messages`` holds the error, and the sweep continued.
    """

    parameter_values: np.ndarray
    h_star: np.ndarray
    H_star: np.ndarray
    values: np.ndarray
    stationary: np.ndarray
    failed: np.ndarray
    messages: tuple

    def ratio(self) -> np.ndarray:
        """Signed H*/h* per point, for the one-asset, one-factor case."""
        if self.H_star.shape[1:] != (1, 1):
            raise ValueError("ratio is defined for m = n = 1 only")
        h = self.h_star[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(h != 0.0, self.H_star[:, 0, 0] / h, np.nan)


def evaluate(model: FactorModel, strategy, params, factor_cov=None):
    """Criterion value W for a Strategy (a float), or for a stack ``(h, H)`` (shape (k,)).

    A stack has ``h`` of shape (k, m) and ``H`` of shape (k, m, n), as in
    :func:`~longrun.moments.moments`.  For a stack, ``params`` may also be a
    stack of criteria ``(theta, gamma)`` of shapes (k,) and (k, n): W of row i
    is then under criterion i, bit for bit as under its own CriterionParams.
    ``factor_cov`` is accepted for compatibility and not used.  Raises
    :class:`~longrun.linalg.DimensionError` when gamma, the strategy or the
    criteria do not fit, and :class:`~longrun.model.ModelValidationError`
    where CriterionParams would.  As in :func:`~longrun.moments.moments`, a
    single Strategy gives, bit for bit, the W of its row in any stack.
    """
    mom = moments(model, strategy)
    w = _values(mom, *_criteria(model, np.shape(mom.growth_rate), params))
    return w if np.ndim(w) else float(w)


def _criteria(model: FactorModel, shape: tuple, params) -> tuple:
    """``(theta, gamma)`` of one CriterionParams, or of a stack of criteria for W of ``shape``."""
    if isinstance(params, CriterionParams):
        if params.gamma.shape != (model.n,):
            raise DimensionError(f"gamma must have length n={model.n}, got {params.gamma.shape[0]}")
        return params.theta, params.gamma
    theta, gamma = (np.asarray(v, dtype=float) for v in params)
    if shape == () or theta.shape != shape or gamma.shape != shape + (model.n,):
        got = f"k={shape[0]}" if shape else "one Strategy"
        raise DimensionError(f"a stack of k criteria takes theta (k,) and gamma (k, n={model.n}) "
                             f"for k strategies; got {theta.shape} and {gamma.shape} for {got}")
    if not (np.isfinite(theta) & (theta >= 0.0)).all():
        raise ModelValidationError(["theta must be finite and >= 0"])
    if not np.isfinite(gamma).all():
        raise ModelValidationError(["gamma contains non-finite entries"])
    return theta, gamma


def _values(mom: AsymptoticMoments, theta, gamma) -> np.ndarray:
    """W from the moments of one strategy or a stack, under criteria that broadcast to them."""
    return (mom.growth_rate - 0.25 * theta * mom.variance_rate
            + (mom.wealth_factor_cov * gamma).sum(axis=-1))


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


def _h_terms(model: FactorModel, params: CriterionParams) -> tuple:
    """Raise if W has no maximum; else the criterion's terms ``(theta, D w, r0)`` of h*.

    Raises :class:`~longrun.linalg.DimensionError` when ``gamma`` does not
    have length n.  The unboundedness rule holds for SS' positive definite,
    which the caller has checked.
    """
    _criteria(model, (), params)        # raises unless gamma has length n
    w = params.gamma @ model.prepared.B_inv         # B^-T gamma
    dw = model.prepared.D @ w
    if params.theta == 0.0 and float(w @ dw) > 1.0:
        H = np.outer(np.linalg.eigh(model.prepared.SS)[1][:, -1], w)   # along the top eigenvector of SS'
        _unbounded(np.concatenate([H @ dw, H.ravel()]),
                   f"theta = 0 and w'Dw = {float(w @ dw):.4g} > 1")
    r0 = model.a - model.A @ dw - model.Sigma @ (model.Lambda.T @ w)
    return params.theta, dw, r0


def _h_solver(model: FactorModel):
    """``(H, theta, dw, r0) -> h*``: the maximizing h at each H of a stack (k, m, n).

    h* solves (SS' + (theta/2) G'G) h = a - (theta/2) G'y0 + (SS'H D - A D - Sigma Lambda') w
    with G = G0 + K H'SS', G0 = Sigma' - K A', K = Lambda'B^-T (both on
    ``FactorModel.prepared``) and y0 = -K H'a.  The criterion's terms
    ``theta``, ``dw`` and ``r0`` come from :func:`_h_terms`, and may carry one
    row per strategy, so rows of different criteria are solved together.
    """
    pm = model.prepared
    a_col, SS, K, G0 = model.a[:, None], pm.SS, pm.K, pm.G0

    def h_star(H: np.ndarray, theta, dw: np.ndarray, r0: np.ndarray) -> np.ndarray:
        KHt = K @ H.swapaxes(-1, -2)
        G = G0 + KHt @ SS
        Gt = G.swapaxes(-1, -2)
        half = 0.5 * np.asarray(theta)[..., None, None]
        # products of whole matrices: a row's h* does not depend on the rows solved with it
        r = r0[..., None] + SS @ (H @ dw[..., None]) + half * (Gt @ (KHt @ a_col))
        return np.linalg.solve(SS + half * (Gt @ G), r)[..., 0]

    return h_star


def _unbounded(direction: np.ndarray, reason: str):
    e = direction / np.linalg.norm(direction)
    raise UnboundedCriterionError(
        "criterion improves without bound along direction "
        f"{np.array2string(e, precision=4)} ({reason}); no finite optimum to report",
        direction=e,
    )


def _gradient(model: FactorModel, h: np.ndarray, H: np.ndarray, mom: AsymptoticMoments,
              theta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """dW/d[h H] (k, m, 1+n) of a stack with checked moments ``mom``, row i under criterion i.

    The engine's products run backwards (:func:`~longrun.moments._engine`): K, P and Y are linear in
    Z = [U; Omega; Hb], and <S, Omega_11> takes the adjoint R = sym(Omega_11) L^-1 back through Q.
    """
    pm, n, k = model.prepared, model.n, len(h)
    Hb = np.concatenate([h[:, :, None], H], axis=2)
    T = pm.SS @ Hb
    Om11 = H.transpose(0, 2, 1) @ (model.A - 0.5 * T[:, :, 1:])
    t = theta[:, None]
    c = np.concatenate([np.ones_like(t), -0.25 * t, gamma, -0.5 * t * mom.shock_loading], axis=1)
    G = (c[:, None] @ pm.linear.T).reshape(k, -1, 1 + n)       # dW/dZ through K, P and Y
    M = -0.25 * t[:, :, None] * (Om11 + Om11.transpose(0, 2, 1))   # dW/dS, symmetric as S is
    R = (M.reshape(k, 1, n * n) @ pm.lyapunov_inv.T).reshape(k, n, n)
    G[:, n + 2:, 1:] += pm.rhs.T @ (R + R.transpose(0, 2, 1)) @ pm.D    # back through Q = E + E'
    G[:, n + 2:2 * n + 2, 1:] -= 0.5 * t[:, :, None] * mom.second_moment_offset
    GO = G[:, n + 1:2 * n + 2]
    GU = G[:, :n + 1] - 0.5 * GO                # Omega = Hb'[a A] - U/2
    return G[:, 2 * n + 2:] + T @ (GU + GU.transpose(0, 2, 1)) + pm.drift @ GO.transpose(0, 2, 1)


def _refine(objective, starts: np.ndarray, max_iterations: int) -> tuple:
    """Newton ascent from every row of ``starts`` at once, by the rules of the module docstring.

    ``objective(X, i)`` maps a stack of points, the current points of the
    starts ``i``, to their values, gradients, Hessians and values' rounding.
    Returns each start's last point, value, gradient, lambda^2 / 2 and rounding.
    """
    X = starts.copy()
    W, G, C, rho = objective(X, np.arange(len(X)))
    alpha, kept = np.ones(len(X)), np.zeros(len(X), dtype=int)
    while True:
        lam, V = np.linalg.eigh(C)
        lam = np.maximum(np.abs(lam), _EPS * np.abs(lam).max(axis=1, keepdims=True))
        newton = (V @ ((G[:, None] @ V).swapaxes(1, 2) / lam[:, :, None]))[:, :, 0]
        decrement = (G * newton).sum(axis=1)                # lambda^2
        step, gain = alpha[:, None] * newton, alpha * decrement
        i = ((kept < max_iterations) & (gain > _EPS * np.abs(W))
             & (np.abs(step) > _EPS * np.abs(X)).any(axis=1)).nonzero()[0]
        if i.size == 0:
            return X, W, G, 0.5 * decrement, rho
        trial = X[i] + step[i]
        w, g, c, r = objective(trial, i)
        ok = w >= W[i] + _ARMIJO * gain[i]
        alpha[i[~ok]] *= 0.5
        i = i[ok]
        X[i], W[i], G[i], C[i], rho[i] = trial[ok], w[ok], g[ok], c[ok], r[ok]
        kept[i], alpha[i] = kept[i] + 1, 1.0


def _optimize(model: FactorModel, params: list, config: OptimizerConfig) -> list:
    """Maximize the criterion at every point of ``params``, each as :func:`optimize` does alone.

    Returns, per point, its :class:`OptimizationResult`, the
    :class:`UnboundedCriterionError` it raised, or a
    :class:`~longrun.linalg.NumericError` when h* or W overflows at every
    scan row (a row that overflows is dropped from the scan, without a
    warning).  The points are optimized independently but scored together:
    the scans in engine calls of whole points, at most ``_SCAN_BUDGET`` rows
    each where a point fits, and one Newton ascent for every point's starts.
    A scored row is (h, vec H, theta, gamma, p), scored under its own criterion
    (theta, gamma), that of point p; the shifted rows of the Hessian keep it.
    """
    m, n, d = model.m, model.n, model.m * (1 + model.n)
    _criteria(model, (), params[0])     # a wrong-length gamma raises before an indefinite SS'
    _require_definite_diffusion(model)
    outcomes, live = [], []
    for prm in params:
        try:
            theta, dw, r0 = _h_terms(model, prm)
        except UnboundedCriterionError as err:
            outcomes.append(err)
            continue
        outcomes.append(None)
        # a row per point: the terms of h*, then the criterion and the point
        live.append(np.concatenate([dw, r0, [theta], prm.gamma, [len(live)]]))
        if prm.theta == 0.0 and not np.any(prm.gamma != 0.0):
            warnings.warn(
                "theta = 0 and gamma = 0: the criterion reduces to the growth "
                "rate alone; the optimum ignores risk entirely",
                stacklevel=3,
            )
    if not live:
        return outcomes
    terms = np.array(live)
    h_star = _h_solver(model)
    evaluations = np.zeros(len(live), dtype=int)

    def scan(X):
        """W at each scan row of X, under the row's criterion; a row whose h* or W is not finite scores -inf.

        :func:`evaluate` raises on an overflow for the whole stack; only then is the slice scored unchecked.
        """
        evaluations[:] += np.bincount(X[:, -1].astype(int), minlength=len(live))
        if np.isfinite(X).all():
            try:
                return evaluate(model, (X[:, :m], X[:, m:d].reshape(-1, m, n)),
                                (X[:, d], X[:, d + 1:-1]))
            except NumericError:
                pass
        finite = np.isfinite(X).all(axis=1)
        rows = X[finite]                # the rows it can, each on its own
        with np.errstate(over="ignore", invalid="ignore"):
            mom = _engine(model, rows[:, :m], rows[:, m:d].reshape(-1, m, n), check=False)
            w = _values(mom, rows[:, d], rows[:, d + 1:-1])
        out = np.full(len(X), -np.inf)
        out[finite] = np.where(np.isfinite(w), w, -np.inf)
        return out

    def full(Hx, T):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            h = h_star(Hx.reshape(-1, m, n), T[:, n + m], T[:, :n], T[:, n:n + m])
        return np.concatenate([h, Hx, T[:, n + m:]], axis=1)

    points = _scan_points(config, m * n)
    step = max(1, _SCAN_BUDGET // len(points))      # whole points per engine call
    values = np.vstack([
        scan(full(np.tile(points, (len(p), 1)), terms[p.repeat(len(points))]))
        .reshape(len(p), -1)
        for p in np.split(np.arange(len(live)), np.arange(step, len(live), step))])
    # every point starts from its best finite scan rows
    counts = np.minimum(config.local_restarts, np.isfinite(values).sum(axis=1))
    order = np.argsort(-values, axis=1, kind="stable")
    starts = points[np.concatenate([order[j, :c] for j, c in enumerate(counts)])]
    start_terms = terms[np.arange(len(live)).repeat(counts)]    # gathered once per ascent
    first = np.concatenate([[0], np.cumsum(counts)])

    def objective(Hx, i):
        # Envelope theorem: at h = h*(H), dW/dh = 0, so the gradient along H is that of
        # W*(H) = max_h W(h, H); its differences, h re-solved at each H, are W*'s Hessian.
        r, q = Hx.shape
        steps = _HESSIAN_STEP * (1.0 + np.abs(Hx))
        shifted = Hx + np.multiply.outer([1.0, -1.0], np.eye(q)[:, None] * steps)    # (sign, j, start, q)
        X = full(np.concatenate([Hx, shifted.reshape(-1, q)]), start_terms[np.tile(i, 1 + 2 * q)])
        evaluations[:] += np.bincount(X[:, -1].astype(int), minlength=len(live))
        if not np.isfinite(X).all():
            raise NumericError("h* overflows at a point of the ascent")
        h, H, theta, gamma = X[:, :m], X[:, m:d].reshape(-1, m, n), X[:, d], X[:, d + 1:-1]
        mom = moments(model, (h, H))
        g = _gradient(model, h, H, mom, theta, gamma)[:, :, 1:].reshape(len(X), q)
        gp, gm = g[r:].reshape(2, q, r, q)
        C = (gp - gm).swapaxes(0, 1) / (2.0 * steps[..., None])
        K, V = mom.growth_rate[:r], 0.25 * theta[:r] * mom.variance_rate[:r]   # W's terms at Hx
        P = (mom.wealth_factor_cov[:r] * gamma[:r]).sum(axis=-1)
        return K - V + P, g[:r], 0.5 * (C + C.swapaxes(1, 2)), _EPS * (np.abs(K) + np.abs(V) + np.abs(P))

    results = [NumericError("h* or W overflows at every scan point: no finite start")
               if c == 0 else None for c in counts]
    found = np.flatnonzero(counts)
    if found.size:
        Hx, W, G, gap, rho = _refine(objective, starts, config.max_iterations)
        X, converged = full(Hx, start_terms), gap <= rho
        for j in found:
            rows = range(first[j], first[j + 1])
            best_w = float(W[rows].max())
            tied = [k for k in rows if W[k] >= best_w - config.simplex_tolerance * (1.0 + abs(best_w))]
            k = min(tied, key=lambda k: (np.linalg.norm(X[k, :d]), tuple(X[k, :d])))
            results[j] = OptimizationResult(
                strategy=Strategy(h=X[k, :m], H=X[k, m:d].reshape(m, n)),
                value=float(W[k]),
                stationary=bool(converged[k]),
                gradient_norm=float(np.linalg.norm(G[k])),
                restarts=tuple((X[i, :d], float(W[i])) for i in rows),
                evaluations=int(evaluations[j]),
                message="converged" if converged[k] else
                        f"Newton decrement lambda^2/2 = {gap[k]:.3e} exceeds the rounding of W, {rho[k]:.3e}",
            )
    results = iter(results)
    return [next(results) if out is None else out for out in outcomes]


def optimize(model: FactorModel, params: CriterionParams,
             config: OptimizerConfig | None = None) -> OptimizationResult:
    """Maximize the criterion over (h, H).

    Scan over H, then refine the best ``local_restarts`` scan points by one
    batched Newton ascent on W*(H) = max_h W(h, H), from its closed-form
    gradient and the Hessian of its central differences; every point takes
    the maximizing h for its H.  A start stops after ``config.max_iterations``
    kept steps, when the gain its step predicts falls below the rounding of
    W, or when its step no longer changes its point.  ``stationary`` reports
    whether the chosen start converged: at its last point, half its squared
    Newton decrement is at most the rounding of W's terms.  Raises,
    before scoring a strategy, :class:`UnboundedCriterionError` when W has
    no maximum (see the module docstring), :class:`~longrun.model.ModelValidationError`
    when Sigma Sigma' is not positive definite, and :class:`~longrun.linalg.DimensionError`
    when ``gamma`` does not have length n.  A scan row whose h* or W
    overflows is dropped; :class:`~longrun.linalg.NumericError` is raised
    when every row overflows, or when a step of the ascent does.  Ties
    within ``config.simplex_tolerance`` go to the smallest-norm point, then
    lexicographic.  This is the one-point
    case of the routine that optimizes a sweep's points together.
    """
    result, = _optimize(model, [params], config or OptimizerConfig())
    if isinstance(result, Exception):
        raise result
    return result


def _sweep(model, param_list, make_params, config, name) -> SweepResult:
    param_list = np.array([float(p) for p in param_list])
    if len(param_list) == 0:
        raise ValueError(f"{name} is empty")
    outcomes = _optimize(model, [make_params(p) for p in param_list], config or OptimizerConfig())
    h_star = np.full((len(param_list), model.m), np.nan)
    H_star = np.full((len(param_list), model.m, model.n), np.nan)
    values = np.full(len(param_list), np.nan)
    stationary = np.zeros(len(param_list), dtype=bool)
    failed = np.array([isinstance(res, Exception) for res in outcomes])
    for i in np.flatnonzero(~failed):
        res = outcomes[i]
        h_star[i], H_star[i], values[i] = res.strategy.h, res.strategy.H, res.value
        stationary[i] = res.stationary
    messages = tuple(str(res) if bad else res.message for res, bad in zip(outcomes, failed))
    return SweepResult(param_list, h_star, H_star, values, stationary, failed, messages)


def sweep_theta(model: FactorModel, theta_values, gamma=None,
                config: OptimizerConfig | None = None) -> SweepResult:
    """Optimize along a list of risk sensitivities, in any order.

    Each point is optimized on its own, from its own grid scan, and comes out
    as :func:`optimize` returns it; all points are scored in shared engine
    calls (see the module docstring).  ``gamma`` is a fixed factor-sensitivity
    vector (default zero).  Failed points are flagged and skipped, not fatal.
    """
    g = np.zeros(model.n) if gamma is None else np.asarray(gamma, dtype=float)
    return _sweep(model, theta_values, lambda t: CriterionParams(theta=t, gamma=g), config,
                  "theta_values")


def sweep_gamma(model: FactorModel, theta: float, gamma_values,
                config: OptimizerConfig | None = None) -> SweepResult:
    """Optimize along a list of factor-sensitivity values at fixed theta.

    Each scalar in ``gamma_values`` is the sensitivity to the first factor;
    the others get zero weight (for one factor, gamma is just the scalar).
    As in :func:`sweep_theta`, the points are optimized independently and
    scored together, and failed points are flagged, not fatal.
    """
    e = np.eye(model.n)[0]
    return _sweep(model, gamma_values, lambda g: CriterionParams(theta=float(theta), gamma=g * e),
                  config, "gamma_values")
