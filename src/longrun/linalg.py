"""Stability check and the one Lyapunov route for small dense systems.

Everything here operates on the factor feedback matrix of a linear factor
model, which must be a stability (Hurwitz) matrix: every eigenvalue has a
strictly negative real part.  :func:`lyapunov_operator` LU-factors the
n^2 x n^2 operator of ``S -> B S + S B'`` once per B, and
:func:`solve_lyapunov_stack` solves a stack of right-hand sides with those
factors, checking every slice's residual.  The model's stationary covariance
D and the moment engine's offsets S both take this route.  The solves are
dense LAPACK calls sized for the n <= 8 systems this package works with;
they enforce the residual contract of the callers rather than chasing
large-scale performance.
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


def _residual_failures(B: np.ndarray, S: np.ndarray, Q: np.ndarray):
    """(bad, residual, scale) per slice of ``B S + S B' = Q``.

    A slice is bad as :func:`check_lyapunov_residual` defines it.
    """
    rtol = LYAPUNOV_RTOL
    scale = np.atleast_1d(np.linalg.norm(B) * np.linalg.norm(S, axis=(-2, -1))
                          + np.linalg.norm(Q, axis=(-2, -1)))
    residual = np.atleast_1d(np.linalg.norm(B @ S + S @ B.T - Q, axis=(-2, -1)))
    bad = ~(np.isfinite(residual) & (residual <= rtol * np.maximum(scale, 1e-300)))
    return bad, residual, scale


def check_lyapunov_residual(B: np.ndarray, S: np.ndarray, Q: np.ndarray) -> None:
    """Raise NumericError unless ``B S + S B' = Q`` to ``rtol * (||B|| ||S|| + ||Q||)``.

    ``rtol`` is ``LYAPUNOV_RTOL`` as it is at call time.  ``S`` and ``Q`` may
    be stacks of shape (k, n, n); every slice is checked against its own
    scale.
    """
    bad, residual, scale = _residual_failures(B, S, Q)
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise NumericError(
            f"Lyapunov residual {residual[i]:.3e} exceeds {LYAPUNOV_RTOL:.1e} * {scale[i]:.3e}"
        )


def lyapunov_operator(B: np.ndarray):
    """LU factors of ``I (x) B + B (x) I``, the n^2 x n^2 matrix of ``S -> B S + S B'``.

    Row-major ``vec`` maps ``B S`` to ``(B (x) I) vec(S)`` and ``S B'`` to
    ``(I (x) B) vec(S)``.  The matrix is nonsingular when B is stable (its
    eigenvalues are the pairwise sums of B's).
    """
    eye = np.eye(B.shape[0])
    return scipy.linalg.lu_factor(np.kron(eye, B) + np.kron(B, eye), check_finite=False)


def solve_lyapunov_stack(B: np.ndarray, lu, Q: np.ndarray, strict: bool = True) -> np.ndarray:
    """Solve ``B S_i + S_i B' = Q_i`` for a stack Q of shape (k, n, n) in one solve.

    ``lu`` is :func:`lyapunov_operator` of ``B``, which the caller has
    checked to be stable (a :class:`~longrun.model.FactorModel` is).  Every
    slice must pass :func:`check_lyapunov_residual`, else
    :class:`NumericError`; with ``strict=False`` a slice that fails comes
    back as NaN instead, and the others as they are.  Slices are solved
    independently, so one overflowed Q_i does not touch the rest.  The result
    is not symmetrized.
    """
    k, n = Q.shape[0], B.shape[0]
    x, info = scipy.linalg.lapack.dgetrs(*lu, Q.reshape(k, n * n).T)
    if info != 0:  # pragma: no cover - only for malformed arguments
        raise NumericError(f"Lyapunov solve failed: getrs info {info}")
    S = x.T.reshape(k, n, n)
    if strict:
        check_lyapunov_residual(B, S, Q)
    else:
        S[_residual_failures(B, S, Q)[0]] = np.nan
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
