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

* :func:`moments`: the matrix engine, valid for any (m, n).  With Hb = [h H],
  the drift of u is w' Omega w in w = (1, x), Omega = Hb'([a A] - SS'Hb/2);
  K, P, Y, S and the rate are whole-matrix products of Omega, Hb and D with
  constants built once per model (``FactorModel.prepared``), O((m + n)^2 n
  + n^4) multiply-adds a row.  Every offset S passes the residual check
  against its own right-hand side, after one refinement step if it fails
  the first (:func:`~longrun.linalg.refined_failures`).  Every moment is a field.
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

from .linalg import DimensionError, NumericError, refined_failures
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
    if not (np.isfinite(h).all() and np.isfinite(H).all()):
        raise ModelValidationError(["strategy contains non-finite entries"])
    return h, H


def _engine(model: FactorModel, h: np.ndarray, H: np.ndarray,
            check: bool = True, one: bool = False) -> AsymptoticMoments:
    """All long-run moments of the strategy stack ``h`` (k, m), ``H`` (k, m, n).

    Every product is batched over the stack with shapes (k, ., .), so a row
    rounds alike in any stack.  With ``Hb = [h H]`` the drift of u is
    ``w' Omega w`` in ``w = (1, x)``, ``Omega = Hb'([a A] - SS'Hb/2)``, and:

    * K, <D, H'SS'H>, P and Y are the row-major [U; Omega; Hb], U = Hb'SS'Hb,
      times ``prepared.linear``;
    * S solves B S + S B' = Q, Q = E + E', E = -[D  Lambda Sigma'] [Omega_11; H] D.
      Q is symmetric, which for n > 1 makes S the constant term of E[u x x'], as
      the Monte Carlo oracle confirms.  vec(Q) times ``prepared.offset`` is S's
      upper triangle, read into both;
    * rate = |Y|^2 + 2 <S, Omega_11> + <D, H'SS'H>.  Read from Omega_11 and
      2 <H, A D> instead, the last term would cancel to rounding noise.

    Raises NumericError on an overflowed moment; with ``check=False`` the
    rows that overflow come back non-finite instead, the others as they are.
    With ``one``, the moments of the stack's one row, without its axis.
    """
    pm = model.prepared
    n, k = model.n, len(h)
    # NumPy tests its floating-point flags after every operation anyway; the
    # callback only records an overflow, so finite moments cost no extra pass.
    overflow = []
    with np.errstate(over="call", invalid="call", call=lambda *_: overflow.append(True)):
        Hb = np.concatenate([h[:, :, None], H], axis=2)
        Hbt, T = Hb.transpose(0, 2, 1), pm.SS @ Hb
        Z = np.concatenate([Hbt @ T, Hbt @ (pm.drift - 0.5 * T), Hb], axis=1)     # [U; Omega; Hb]
        del Hb, Hbt, T          # Z holds what is needed of them: a large stack's peak memory drops
        Om11 = Z[:, n + 2:2 * n + 2, 1:]
        KPY = (Z.reshape(k, 1, pm.linear.shape[0]) @ pm.linear)[:, 0]
        E = (pm.rhs @ Z[:, n + 2:, 1:]) @ pm.D                  # Z[:, n + 2:, 1:] = [Omega_11; H]
        Q = E + E.transpose(0, 2, 1)
        S = (Q.reshape(k, 1, n * n) @ pm.offset).take(pm.mirror, axis=2).reshape(k, n, n)
        # A row whose S still fails its residual check after the refinement step comes
        # back NaN if an overflow, which may first happen inside the check (the norms of
        # S square it), names the row below; a failure that no overflow explains is the engine's.
        bad = refined_failures(pm.lyapunov, pm.lyapunov_inv, S, Q, pm.B_norm)[0]
        if bad.any():
            if not overflow:
                raise NumericError("Lyapunov residual of the offset S exceeds its tolerance")
            S[bad] = np.nan
        K, P, Y = KPY[:, 0], KPY[:, 2:n + 2], KPY[:, n + 2:]
        rate = (Y * Y).sum(axis=-1) + 2.0 * (S * Om11).reshape(k, n * n).sum(axis=-1) + KPY[:, 1]
        if one:
            K, rate, P, Y, S = float(K[0]), float(rate[0]), P[0], Y[0], S[0]
        mom = AsymptoticMoments(K, rate, P, pm.D, Y, S, np.multiply.outer(K, pm.D))
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
    a floating-point warning.  A single Strategy gives, bit for bit, the
    moments of its row in any stack.
    """
    return _engine(model, *_stack(model, strategy), one=isinstance(strategy, Strategy))


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
