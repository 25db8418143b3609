"""Stability check and the one Lyapunov route for small dense systems.

Everything here operates on the factor feedback matrix of a linear factor
model, which must be a stability (Hurwitz) matrix: every eigenvalue has a
strictly negative real part.  :func:`lyapunov_operator` builds and
LU-factors the n^2 x n^2 operator of ``S -> B S + S B'`` once per B, and
:func:`solve_lyapunov_stack` solves a stack of right-hand sides with those
factors, checking every slice's residual (:func:`residual_failures`).  D
takes this route; the engine's offsets S take the operator's :func:`inverse`
and the same residual check.  The solves are dense LAPACK calls sized for
the n <= 8 systems this package works with; they enforce the residual
contract of the callers rather than chasing large-scale performance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "DimensionError",
    "NumericError",
    "StabilityReport",
    "check_stability",
    "psd_sqrt",
]

# Eigenvalue real parts this close to the imaginary axis are treated as
# unstable: the Lyapunov solves degrade as 1/|margin| and downstream limits
# stop being meaningful.
STABILITY_MARGIN = 1e-12

# Relative residual allowed for a Lyapunov solve, scaled by the problem data.
LYAPUNOV_RTOL = 1e-10


class DimensionError(ValueError):
    """An array argument has the wrong shape."""


class NumericError(ArithmeticError):
    """A dense solve failed or left a residual above contract."""


@dataclass(frozen=True)
class StabilityReport:
    """Result of a stability check.

    Attributes
    ----------
    eigenvalue_real_parts : ndarray
        Real parts of the eigenvalues, sorted descending.
    margin : float
        Largest real part.  Negative for a stable matrix.
    is_stable : bool
        True when ``margin`` clears the stability cutoff
        (``margin < -STABILITY_MARGIN``).
    """

    eigenvalue_real_parts: np.ndarray
    margin: float
    is_stable: bool


def _as_square(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NumericError(f"{name} contains non-finite entries")
    return M


def check_stability(B) -> StabilityReport:
    """Report whether ``B`` is a stability (Hurwitz) matrix.

    Parameters
    ----------
    B : array_like, shape (n, n)

    Returns
    -------
    StabilityReport

    Raises
    ------
    DimensionError
        If ``B`` is not square.
    NumericError
        If the eigensolver does not converge.
    """
    B = _as_square(B, "B")
    try:
        eigs = np.linalg.eigvals(B)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - QR rarely fails
        raise NumericError(f"eigensolver failed: {exc}") from exc
    real_parts = np.sort(eigs.real)[::-1]
    margin = float(real_parts[0])
    return StabilityReport(
        eigenvalue_real_parts=real_parts,
        margin=margin,
        is_stable=margin < -STABILITY_MARGIN,
    )


def lyapunov_operator(B: np.ndarray):
    """``(L, lu)``: the n^2 x n^2 matrix ``L = I (x) B + B (x) I`` of ``S -> B S + S B'``, and its LU factors.

    Row-major ``vec`` maps ``B S`` to ``(B (x) I) vec(S)`` and ``S B'`` to
    ``(I (x) B) vec(S)``.  L is nonsingular when B is stable (its
    eigenvalues are the pairwise sums of B's).
    """
    n = B.shape[0]
    eye = np.eye(n)
    L = (B[:, None, :, None] * eye[:, None, :] + eye[:, None, :, None] * B[:, None, :]).reshape(n * n, n * n)
    return L, scipy.linalg.lapack.dgetrf(L)[:2]


def residual_failures(LT: np.ndarray, S: np.ndarray, Q: np.ndarray, B_norm: float):
    """``(bad, residual, scale)`` per slice (n, n) of ``B S + S B' = Q``, given L' and ``||B||``.

    A slice is bad unless its residual is finite and at most ``rtol * scale``,
    ``scale = ||B|| ||S|| + ||Q||``, with ``rtol = LYAPUNOV_RTOL`` as it is at
    call time.  LT is the transpose of the matrix of :func:`lyapunov_operator`.
    """
    nn = LT.shape[0]
    S, Q = S.reshape(-1, nn), Q.reshape(-1, nn)
    parts = np.concatenate([S, Q, S @ LT - Q], axis=1).reshape(-1, 3, nn)
    parts *= parts
    S_norm, Q_norm, residual = np.sqrt(parts.sum(axis=-1)).T
    scale = B_norm * S_norm + Q_norm
    bad = ~(np.isfinite(residual) & (residual <= LYAPUNOV_RTOL * np.maximum(scale, 1e-300)))
    return bad, residual, scale


def inverse(M: np.ndarray) -> np.ndarray:
    """The inverse of a small nonsingular square matrix, from its LU factors.

    Applying it is a small matrix product; a LAPACK solve with several right-hand sides
    takes OpenBLAS's threaded path, which in some processes stalls ~8 ms a call.
    """
    return scipy.linalg.lapack.dgetri(*scipy.linalg.lapack.dgetrf(M)[:2])[0]


def solve_lyapunov_stack(B: np.ndarray, operator, Q: np.ndarray) -> np.ndarray:
    """Solve ``B S_i + S_i B' = Q_i`` for a stack Q of shape (k, n, n) in one solve.

    ``operator`` is :func:`lyapunov_operator` of ``B``, which the caller has
    checked to be stable (a :class:`~longrun.model.FactorModel` is).  Raises
    :class:`NumericError` if a slice fails :func:`residual_failures`.  The
    result is not symmetrized.
    """
    k, n = Q.shape[0], B.shape[0]
    x, info = scipy.linalg.lapack.dgetrs(*operator[1], Q.reshape(k, n * n).T)
    if info != 0:  # pragma: no cover - only for malformed arguments
        raise NumericError(f"Lyapunov solve failed: getrs info {info}")
    S = x.T.reshape(k, n, n)
    bad, residual, scale = residual_failures(operator[0].T, S, Q, np.linalg.norm(B))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise NumericError(
            f"Lyapunov residual {residual[i]:.3e} exceeds {LYAPUNOV_RTOL:.1e} * {scale[i]:.3e}"
        )
    return S


def psd_sqrt(M) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix.

    Eigenvalues inside -1e-10 * max(eig, 1) of zero are clipped to zero;
    anything more negative raises :class:`NumericError`, since it means the
    input was not a covariance to numerical precision.
    """
    M = np.asarray(M, dtype=float)
    sym = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(sym)
    floor = -1e-10 * max(float(w[-1]), 1.0)
    if w[0] < floor:
        raise NumericError(f"matrix is not positive semidefinite (eigenvalue {w[0]:.3e})")
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
