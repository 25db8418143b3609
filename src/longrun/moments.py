"""Long-run joint moments of log wealth and the factors.

For a :class:`~longrun.model.FactorModel` and a linear
:class:`~longrun.model.Strategy`, the log wealth u(t) and the factor vector
x(t) satisfy, as t grows:

    E[u(t)]        ~  growth_rate * t
    Var[u(t)]      ~  variance_rate * t + O(1)
    E[u(t) x(t)]   ->  wealth_factor_cov
    E[u(t) x x']   ~  second_moment_slope * t + second_moment_offset

with every coefficient in closed form in terms of the stationary factor
covariance D.  Two independent code paths compute them:

* :func:`moments`: the matrix engine, valid for any (m, n).  Everything that
  depends only on the model (D from one Lyapunov solve, Sigma Sigma',
  Lambda Sigma', B^-1 and the LU factors of the n^2 x n^2 Lyapunov
  operator) is computed once per model and kept on it
  (``FactorModel.prepared``).  A strategy then costs a few small matrix
  products and one more Lyapunov equation for the offset S, and a stack of
  k strategies, ``h`` of shape (k, m) and ``H`` of shape (k, m, n), is
  evaluated at once: its k offsets are one multi-right-hand-side solve with
  the factored operator (:func:`~longrun.linalg.solve_lyapunov_stack`, the
  route D takes too), each passing the residual check of
  :func:`~longrun.linalg.check_lyapunov_residual`.  Every moment is a field
  of its result.
* :func:`scalar_moments`: explicit scalar algebra for the one-asset,
  one-factor case with the diffusion convention Sigma = (sig, eta),
  Lambda = (0, lam).  It shares no linear-algebra code with the matrix
  engine, so agreement between the two is a real consistency check.

The two routes must agree to near machine precision; the test suite enforces
this on a grid and validates both against the Monte Carlo oracle in
:mod:`longrun.mc`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, NumericError, solve_lyapunov_stack
from .model import FactorModel, ModelValidationError, Strategy

__all__ = [
    "AsymptoticMoments",
    "stationary_covariance",
    "moments",
    "scalar_moments",
]


@dataclass(frozen=True)
class AsymptoticMoments:
    """Closed-form long-run moments for one (model, strategy) pair.

    For a stack of k strategies every attribute but the strategy-independent
    ``factor_cov`` gains a leading axis of length k.

    Attributes
    ----------
    growth_rate : float
        lim E[u(t)] / t, the expected log growth per unit time.
    variance_rate : float
        lim Var[u(t)] / t.  Nonnegative.
    wealth_factor_cov : ndarray, shape (n,)
        lim E[u(t) x(t)], the long-run covariance of log wealth with each
        factor (the factors are zero-mean).
    factor_cov : ndarray, shape (n, n)
        Stationary covariance of the factors.  Strategy-independent.
    shock_loading : ndarray, shape (m+n,)
        Long-run loading of log wealth on the Brownian shocks; its squared
        norm is the base term of ``variance_rate``.
    second_moment_offset : ndarray, shape (n, n)
        Constant term S in E[u(t) x x'] ~ R t + S.  Symmetric.
    second_moment_slope : ndarray, shape (n, n)
        Slope R = growth_rate * factor_cov, constructed (not solved).
    """

    growth_rate: float
    variance_rate: float
    wealth_factor_cov: np.ndarray
    factor_cov: np.ndarray
    shock_loading: np.ndarray
    second_moment_offset: np.ndarray
    second_moment_slope: np.ndarray


def stationary_covariance(model: FactorModel) -> np.ndarray:
    """Stationary covariance of the factor process (symmetric PSD, read-only)."""
    return model.prepared.D


def _stack(model: FactorModel, strategy):
    """``(h, H)`` of shapes (k, m), (k, m, n) from a Strategy (k = 1) or a stack pair."""
    m, n = model.m, model.n
    if isinstance(strategy, Strategy):
        h, H = strategy.h, strategy.H
        if h.shape != (m,) or H.shape != (m, n):
            raise DimensionError(
                f"strategy has h of shape {h.shape} and H of shape {H.shape}; "
                f"the model needs ({m},) and ({m}, {n})"
            )
        return h[None], H[None]
    h, H = (np.asarray(v, dtype=float) for v in strategy)
    if h.ndim != 2 or h.shape[1] != m:
        raise DimensionError(f"h must have shape (k, m={m}), got {h.shape}")
    if H.shape != (h.shape[0], m, n):
        raise DimensionError(f"H must have shape (k={h.shape[0]}, m={m}, n={n}), got {H.shape}")
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(H))):
        raise ModelValidationError(["strategy contains non-finite entries"])
    return h, H


def _engine(model: FactorModel, h: np.ndarray, H: np.ndarray,
            check: bool = True) -> AsymptoticMoments:
    """All long-run moments of the strategy stack ``h`` (k, m), ``H`` (k, m, n).

    Raises NumericError on an overflowed moment; with ``check=False`` the
    rows that overflow come back non-finite instead, the others as they are.
    """
    pm = model.prepared
    a, A, B = model.a, model.A, model.B
    D, SS = pm.D, pm.SS
    Ht = np.swapaxes(H, -1, -2)
    # NumPy tests its floating-point flags after every operation anyway; the
    # callback only records an overflow, so finite moments cost no extra pass.
    overflow = []
    with np.errstate(over="call", invalid="call", call=lambda *_: overflow.append(True)):
        SSh = h @ SS                                     # (k, m); SS is symmetric
        HtSSH = Ht @ (SS @ H)                            # (k, n, n)
        M = 2.0 * (Ht @ A) - HtSSH                       # twice the factor tilt of the growth rate

        # tr(D X) = sum(D * X) for symmetric D, and likewise for S below
        K = h @ a - 0.5 * np.sum(h * SSh, axis=-1) + 0.5 * np.sum(D * M, axis=(-2, -1))

        # long-run shock loading of u: direct diffusion plus the factor feedback
        row = (SSh[:, None, :] @ H)[:, 0] - h @ A - a @ H      # (k, n) = H'SS'h - A'h - H'a
        P = (row @ D - h @ pm.LS.T) @ pm.B_inv.T               # B^-1 (D row - Lambda Sigma' h)
        Y = (row @ pm.B_inv) @ model.Lambda + h @ model.Sigma  # (k, m+n)

        # The offset S solves a Lyapunov equation whose right-hand side is
        # symmetrized first: a no-op for n = 1, and for n > 1 what makes S the
        # genuine (symmetric) constant term of E[u x x'], as the Monte Carlo
        # oracle confirms.
        Q = -(D @ M @ D) - 2.0 * (pm.LS @ H) @ D
        Q = 0.5 * (Q + np.swapaxes(Q, -1, -2))
        # A row that fails the residual check comes back NaN. An overflow, which
        # may first happen inside the check (the norms of S square it), names
        # the row below; a failure that no overflow explains is the solve's own.
        S = solve_lyapunov_stack(B, pm.lyapunov, Q, strict=False)
        if not overflow and np.isnan(S).any():
            raise NumericError("Lyapunov residual of the offset S exceeds its tolerance")
        S = 0.5 * (S + np.swapaxes(S, -1, -2))

        rate = np.sum(Y * Y, axis=-1) + np.sum(S * M + D * HtSSH, axis=(-2, -1))
        mom = AsymptoticMoments(
            growth_rate=K,
            variance_rate=rate,
            wealth_factor_cov=P,
            factor_cov=D,
            shock_loading=Y,
            second_moment_offset=S,
            second_moment_slope=K[:, None, None] * D,
        )
    if overflow and check:
        for name, value in vars(mom).items():
            if not np.isfinite(value).all():
                raise NumericError(f"non-finite {name}: the strategy overflows it")
    return mom


def moments(model: FactorModel, strategy) -> AsymptoticMoments:
    """All long-run moments via the matrix engine (any m, n).

    ``strategy`` is a :class:`~longrun.model.Strategy`, or a stack ``(h, H)``
    of k strategies with shapes (k, m) and (k, m, n), whose attributes then
    carry a leading axis of length k.  Raises
    :class:`~longrun.linalg.DimensionError` when the shapes do not fit the
    model, and :class:`~longrun.linalg.NumericError`, naming the first
    moment in field order that overflows (for any row of a stack), without
    a floating-point warning.  A single Strategy can differ from the same
    strategy inside a stack by a few ulps (up to about 4e-15 relative):
    NumPy takes a one-row matrix product by its vector-matrix path, which
    rounds differently.
    """
    mom = _engine(model, *_stack(model, strategy))
    if not isinstance(strategy, Strategy):
        return mom
    return AsymptoticMoments(
        growth_rate=float(mom.growth_rate[0]),
        variance_rate=float(mom.variance_rate[0]),
        wealth_factor_cov=mom.wealth_factor_cov[0],
        factor_cov=mom.factor_cov,
        shock_loading=mom.shock_loading[0],
        second_moment_offset=mom.second_moment_offset[0],
        second_moment_slope=mom.second_moment_slope[0],
    )


def scalar_moments(model: FactorModel, strategy: Strategy) -> AsymptoticMoments:
    """Long-run moments for the one-asset, one-factor case, in closed form.

    Requires m = n = 1 and the diffusion convention Sigma = (sig, eta),
    Lambda = (0, lam) with lam >= 0: the first Brownian coordinate drives the
    asset only, the second drives the factor and leaks into the asset through
    eta.  Everything below is plain float arithmetic, an independent route
    to the same quantities as :func:`moments`.
    """
    if model.m != 1 or model.n != 1:
        raise ValueError(f"scalar route requires m = n = 1, got m={model.m}, n={model.n}")
    if model.Lambda[0, 0] != 0.0 or model.Lambda[0, 1] < 0.0:
        raise ValueError("scalar route requires the convention Lambda = (0, lam), lam >= 0")
    a = float(model.a[0])
    A = float(model.A[0, 0])
    B = float(model.B[0, 0])
    sig, eta = float(model.Sigma[0, 0]), float(model.Sigma[0, 1])
    lam = float(model.Lambda[0, 1])
    h = float(strategy.h[0])
    H = float(strategy.H[0, 0])

    ss = sig * sig + eta * eta          # return diffusion variance
    dlt = lam * lam / (-2.0 * B)        # stationary factor variance (B < 0)
    q = lam * lam / (2.0 * B)           # = -dlt; keeps the lines below short

    K = h * a - q * H * A - 0.5 * ss * (h * h - q * H * H)
    P = -(lam * lam / (2.0 * B * B)) * (h * H * ss - A * h - H * a) - (lam * eta / B) * h
    y1 = h * sig
    y2 = (h * H * ss - h * A - a * H) * (lam / B) + h * eta
    S = (lam * lam / (4.0 * B * B)) * (-2.0 * H * A * q + q * H * H * ss + 2.0 * H * lam * eta)
    rate = y1 * y1 + y2 * y2 + 2.0 * S * H * A + (dlt - S) * H * H * ss

    return AsymptoticMoments(
        growth_rate=K,
        variance_rate=rate,
        wealth_factor_cov=np.array([P]),
        factor_cov=np.array([[dlt]]),
        shock_loading=np.array([y1, y2]),
        second_moment_offset=np.array([[S]]),
        second_moment_slope=np.array([[K * dlt]]),
    )
