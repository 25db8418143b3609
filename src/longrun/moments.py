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

* :func:`moments`: the matrix engine, valid for any (m, n).  With
  z = (1, h, vec H), every moment of a strategy, the offset S included, is a
  quadratic form in z whose coefficients (:func:`moment_form`) depend only
  on the model: they are built once, S's as Q's times the one inverse of
  the Lyapunov operator that also gives D, and kept on the model with D
  (``FactorModel.prepared``).  A stack of k strategies, ``h`` of shape
  (k, m) and ``H`` of shape (k, m, n), then costs k vector-matrix products
  of z z' with them, and every S passes the residual check against its own
  right-hand side, after one refinement step if it fails the first
  (:func:`~longrun.linalg.refined_failures`).  Every moment is a field.
* :func:`scalar_moments`: explicit scalar algebra for the one-asset,
  one-factor case with the diffusion convention Sigma = (sig, eta),
  Lambda = (0, lam).  It shares no linear-algebra code with the matrix
  engine, so agreement between the two is a real consistency check.

The two routes must agree to near machine precision; the test suite enforces
this on a grid and validates both against the Monte Carlo oracle in
:mod:`longrun.mc`.
"""

from __future__ import annotations

import functools
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


# The engine forms z z' for at most this many pairs at a time: its memory stays bounded.
_PAIRS_AT_ONCE = 1 << 16


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


@functools.cache
def _upper_pairs(size: int) -> np.ndarray:
    """The (2, Z) read-only index pairs p <= q of a size x size matrix, row by row."""
    pairs = np.array(np.nonzero(~np.tri(size, k=-1, dtype=bool)))
    pairs.flags.writeable = False
    return pairs


@functools.cache
def _mirror(n: int) -> np.ndarray:
    """Read-only row-major indices that read an n x n upper triangle into both triangles."""
    index = np.sort(np.indices((n, n)).reshape(2, -1), axis=0).T @ np.array([n, 1])
    index.flags.writeable = False
    return index


def moment_form(model: FactorModel, D: np.ndarray, SS: np.ndarray, B_inv: np.ndarray,
                LT_inv: np.ndarray) -> np.ndarray:
    """The (Z, 2 + m + 2n + 3n^2) coefficients of the moments as quadratic forms in z = (1, h, vec H).

    Row j holds the coefficients of z_p z_q, (p, q) = ``_upper_pairs(d + 1)[:, j]``
    with d = m + m n, in the fields K, tr(D H'SS'H), P, Y, M = 2H'A - H'SS'H,
    Q and S (the last three n^2 each, row-major).  The offset S solves
    B S + S B' = Q, Q = -(D M D) - 2 Lambda Sigma' H D symmetrized (a no-op for
    n = 1; for n > 1 what makes S the genuine, symmetric, constant term of
    E[u x x'], as the Monte Carlo oracle confirms), so S's block is Q's times
    LT_inv, the transposed inverse of the matrix of
    :func:`~longrun.linalg.lyapunov_operator` of B, symmetrized.
    """
    a, A, Sg, Lm = model.a, model.A, model.Sigma, model.Lambda
    m, n = A.shape
    mn, nn, d, o, eye = m * n, n * n, m + m * n, 2 + m + 2 * n, np.eye(n)
    h, H, PY = slice(1, m + 1), slice(m + 1, d + 1), slice(2, o)
    M, Q = slice(o, o + nn), slice(o + nn, o + 2 * nn)
    W = np.concatenate([D @ B_inv.T, B_inv @ Lm], axis=1)
    AD = A @ D
    # C[p, q] holds the coefficient of z_p z_q; only C[p, q] + C[q, p] counts
    C = np.zeros((d + 1, d + 1, o + 3 * nn))
    # K = h'a - h'SS'h / 2 + <D, H'A> - tr(D H'SS'H) / 2
    C[0, h, 0] = a
    C[h, h, 0] = -0.5 * SS
    C[0, H, 0] = AD.ravel()
    C[H, H, :2] = (SS[:, None, :, None] * D[:, None, :]).reshape(mn, mn, 1) * np.array([-0.5, 1.0])
    # P = (row D - h'Sigma Lambda') B^-T and Y = row B^-1 Lambda + h'Sigma, row = h'SS'H - h'A - a'H
    C[0, h, PY] = np.concatenate([-(Sg @ W[:, n:].T), Sg], axis=1) - A @ W
    C[0, H, PY] = -(a[:, None, None] * W).reshape(mn, -1)
    C[h, H, PY] = (SS[:, :, None, None] * W).reshape(m, mn, -1)
    # M = 2H'A - H'SS'H
    C[0, H, M] = 2.0 * (eye[:, :, None] * A[:, None, None, :]).reshape(mn, nn)
    SS6 = SS[:, None, :, None, None, None]
    C[H, H, M] = -(SS6 * eye[:, None, None, :, None] * eye[:, None, :]).reshape(mn, mn, nn)
    # Q: its linear part symmetrized here, its quadratic part once folded below
    X = D[:, :, None] * AD[:, None, None, :] + (Sg @ Lm.T)[:, None, :, None] * D[:, None, :]
    C[0, H, Q] = -(X + X.transpose(0, 1, 3, 2)).reshape(mn, nn)
    C[H, H, Q] = (SS6 * D[:, None, None, :, None] * D[:, None, :]).reshape(mn, mn, nn)
    diagonal = np.arange(d + 1)
    C[diagonal, diagonal] *= 0.5
    iu, ju = _upper_pairs(d + 1)
    form = C[iu, ju] + C[ju, iu]
    # unchecked here: the engine holds every offset it computes to the residual check
    S = (form[:, Q] @ LT_inv).reshape(-1, n, n)
    form[:, Q.stop:] = (0.5 * (S + S.transpose(0, 2, 1))).reshape(-1, nn)
    return form


def _engine(model: FactorModel, h: np.ndarray, H: np.ndarray,
            check: bool = True, one: bool = False) -> AsymptoticMoments:
    """All long-run moments of the strategy stack ``h`` (k, m), ``H`` (k, m, n).

    Raises NumericError on an overflowed moment; with ``check=False`` the
    rows that overflow come back non-finite instead, the others as they are.
    With ``one``, the moments of the stack's one row, without its axis.
    """
    pm = model.prepared
    m, n, k = model.m, model.n, len(h)
    iu, ju = _upper_pairs(1 + m + m * n)
    z = np.concatenate([np.ones((k, 1)), h, H.reshape(k, m * n)], axis=1)
    step = max(1, _PAIRS_AT_ONCE // len(iu))
    # NumPy tests its floating-point flags after every operation anyway; the
    # callback only records an overflow, so finite moments cost no extra pass.
    overflow = []
    with np.errstate(over="call", invalid="call", call=lambda *_: overflow.append(True)):
        out = np.empty((k, pm.form.shape[1]))
        for i in range(0, k, step):
            zi = z[i:i + step]
            # one vector-matrix product per row, so a row rounds alike in any stack
            out[i:i + step] = ((zi.take(iu, axis=1) * zi.take(ju, axis=1))[:, None] @ pm.form)[:, 0]
        o, nn = 2 + m + 2 * n, n * n
        K, P, Y = out[:, 0], out[:, 2:2 + n], out[:, 2 + n:o]
        M, Q = out[:, o:o + nn], out[:, o + nn:o + 2 * nn]        # row-major n x n
        S = out[:, o + 2 * nn:].take(_mirror(n), axis=1).reshape(k, n, n)   # exactly symmetric
        # A row whose S still fails its residual check after the refinement step comes
        # back NaN if an overflow, which may first happen inside the check (the norms of
        # S square it), names the row below; a failure that no overflow explains is the form's.
        bad = refined_failures(pm.lyapunov, pm.lyapunov_inv, S, Q.reshape(k, n, n), pm.B_norm)[0]
        if bad.any():
            if not overflow:
                raise NumericError("Lyapunov residual of the offset S exceeds its tolerance")
            S[bad] = np.nan
        rate = (Y * Y).sum(axis=-1) + (S.reshape(k, nn) * M).sum(axis=-1) + out[:, 1]
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
