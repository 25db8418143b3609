"""Stability check and the one Lyapunov route for small dense systems.

Everything here operates on the factor feedback matrix of a linear factor
model, which must be a stability (Hurwitz) matrix: every eigenvalue has a
strictly negative real part.  :func:`lyapunov_operator` builds the n^2 x n^2
matrix L of ``S -> B S + S B'``, and a model inverts it once
(:func:`inverse`): D and every offset S are their right-hand sides times
L^-T.  :func:`refined_failures` holds a stack of such solutions
to one residual check (:func:`residual_failures`), after one refinement step
on the slices that fail it.  The products are dense and sized for the n <= 8
systems this package works with; they enforce the residual contract of the
callers rather than chasing large-scale performance.
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


def lyapunov_operator(B: np.ndarray) -> np.ndarray:
    """The n^2 x n^2 matrix ``L = I (x) B + B (x) I`` of ``S -> B S + S B'``.

    Row-major ``vec`` maps ``B S`` to ``(B (x) I) vec(S)`` and ``S B'`` to
    ``(I (x) B) vec(S)``.  L is nonsingular when B is stable (its
    eigenvalues are the pairwise sums of B's): ``vec(S) = vec(Q) L^-T``.
    """
    n = B.shape[0]
    eye = np.eye(n)
    return (B[:, None, :, None] * eye[:, None, :] + eye[:, None, :, None] * B[:, None, :]).reshape(n * n, n * n)


def residual_failures(LT: np.ndarray, S: np.ndarray, Q: np.ndarray, B_norm: float):
    """``(bad, residual, bound)`` per slice (n, n) of ``B S + S B' = Q``, given L' and ``||B||``.

    A slice is bad unless its residual is finite and at most its bound,
    ``rtol * (||B|| ||S|| + ||Q||)`` with ``rtol = LYAPUNOV_RTOL`` as it is at
    call time.  LT is the transpose of the matrix of :func:`lyapunov_operator`.
    """
    nn = LT.shape[0]
    S, Q = S.reshape(-1, nn), Q.reshape(-1, nn)
    parts = np.concatenate([S, Q, S @ LT - Q], axis=1).reshape(-1, 3, nn)
    parts *= parts
    S_norm, Q_norm, residual = np.sqrt(parts.sum(axis=-1)).T
    bound = LYAPUNOV_RTOL * np.maximum(B_norm * S_norm + Q_norm, 1e-300)
    return ~(np.isfinite(residual) & (residual <= bound)), residual, bound


def refined_failures(LT: np.ndarray, LT_inv: np.ndarray, S: np.ndarray, Q: np.ndarray, B_norm: float):
    """:func:`residual_failures` of a stack S (k, n, n) of solutions for symmetric Q, refined once.

    A slice that fails gets ``S -= sym((S L' - Q) L^-T)`` in place and is checked again; one
    that passes is not touched.  The step recovers a solution summed from terms that cancel.
    """
    bad, residual, bound = residual_failures(LT, S, Q, B_norm)
    rows = np.flatnonzero(bad)
    if rows.size:
        Sr, Qr = S[rows], Q[rows]
        step = ((Sr.reshape(rows.size, -1) @ LT - Qr.reshape(rows.size, -1)) @ LT_inv).reshape(Sr.shape)
        S[rows] = Sr = Sr - 0.5 * (step + step.transpose(0, 2, 1))
        bad[rows], residual[rows], bound[rows] = residual_failures(LT, Sr, Qr, B_norm)
    return bad, residual, bound


def inverse(M: np.ndarray) -> np.ndarray:
    """The inverse of a small nonsingular square matrix, from its LU factors.

    Applying it is a small matrix product; a LAPACK solve with several right-hand sides
    takes OpenBLAS's threaded path, which in some processes stalls ~8 ms a call.
    """
    return scipy.linalg.lapack.dgetri(*scipy.linalg.lapack.dgetrf(M)[:2])[0]


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
