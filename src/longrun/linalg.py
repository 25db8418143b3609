"""Stability check, the one Lyapunov route and the matrix exponential for small dense systems.

Everything here operates on the factor feedback matrix of a linear factor
model, which must be a stability (Hurwitz) matrix: every eigenvalue has a
strictly negative real part.  :func:`lyapunov_operator` builds the n^2 x n^2
matrix L of ``S -> B S + S B'``, and a model inverts it once
(:func:`inverse`): D and every offset S are their right-hand sides times
L^-T.  :func:`refined_failures` holds a stack of such solutions
to one residual check (:func:`residual_failures`), after one refinement step
on the slices that fail it.  :func:`expm` gives the Monte Carlo oracle its
factor transition e^{B dt}.  The products are dense and sized for the n <= 8
systems this package works with; they enforce the residual contract of the
callers rather than chasing large-scale performance.

One rule keeps every request path cheap: it calls no scipy.linalg routine
that wakes scipy's thread pool.  SciPy ships its own OpenBLAS, apart from
numpy's, and some of its routines wake that copy's worker thread, which then
spins on another core for a while after the call.  In a probe that read the
CPU time of every helper thread over 20 calls and a 0.5 s tail, each in a
fresh process on a 2-core host, ``scipy.linalg.expm`` (2 x 2 to 8 x 8) took
about 8 ms a call and used 200 ms of helper CPU, and ``solve_triangular``
(2 x 2, 3 right-hand sides) 8 ms and 210 ms; :func:`expm` took 40-90 us and
``np.linalg.solve`` 20 us, with no helper CPU.  :func:`inverse` (LAPACK
getrf/getri through scipy) used none at any size up to 64 x 64.
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

    Applying it is a small matrix product.  LAPACK getrf/getri keep to the module's rule:
    in its probe they never woke scipy's pool, at any size up to 64 x 64.
    """
    return scipy.linalg.lapack.dgetri(*scipy.linalg.lapack.dgetrf(M)[:2])[0]


# Higham (2005), Table 2.3: the degree-m diagonal Pade approximant of e^A is
# accurate to double precision when ||A||_1 <= theta_m.  Each entry is
# (theta_m, the approximant's coefficients b_0..b_m).
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0,
                               56.0, 1.0)),
    9: (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                              30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    13: (5.371920351148152e0, (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                               1187353796428800.0, 129060195264000.0, 10559470521600.0,
                               670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
                               960960.0, 16380.0, 182.0, 1.0)),
}


def expm(M: np.ndarray) -> np.ndarray:
    """The matrix exponential e^M of a real square matrix, by scaling and squaring.

    Higham, "The scaling and squaring method for the matrix exponential revisited",
    SIAM J. Matrix Anal. Appl. 26(4), 2005, Algorithm 2.3: the least Pade degree m in
    {3, 5, 7, 9} whose theta_m bounds ||M||_1, else degree 13 on M / 2^s with s the least
    that brings the norm under theta_13, then s squarings.  The approximant
    (V - U)^-1 (V + U) takes numpy products and one numpy solve, so no call wakes
    scipy's pool.  A 1 x 1 matrix gives ``np.exp(M)``, bit for bit as
    ``scipy.linalg.expm`` does.
    """
    M = np.asarray(M, dtype=float)
    if M.shape == (1, 1):
        return np.exp(M)
    norm = float(np.abs(M).sum(axis=0).max())
    eye = np.eye(M.shape[0])
    degree = next((d for d in (3, 5, 7, 9) if norm <= _PADE[d][0]), 13)
    theta, b = _PADE[degree]
    squarings = 0
    if norm > theta:
        squarings = int(np.ceil(np.log2(norm / theta)))
        M = M / 2.0 ** squarings
    M2 = M @ M
    if degree < 13:
        powers = [eye, M2]
        while len(powers) <= degree // 2:
            powers.append(powers[-1] @ M2)
        U = M @ sum(b[2 * k + 1] * P for k, P in enumerate(powers))
        V = sum(b[2 * k] * P for k, P in enumerate(powers))
    else:
        M4 = M2 @ M2
        M6 = M4 @ M2
        U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2) + b[7] * M6 + b[5] * M4 + b[3] * M2
                 + b[1] * eye)
        V = M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2) + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * eye
    X = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        X = X @ X
    return X


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
