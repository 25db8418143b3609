"""Model and strategy containers for the linear factor market.

The market has m risky assets and n zero-mean factors:

    dS_i/S_i = (a + A x)_i dt + (Sigma dW)_i        i = 1..m
    dx       = B x dt + Lambda dW

driven by an (m+n)-dimensional Brownian motion W.  ``B`` must be a stability
matrix so the factors admit a stationary distribution.  A linear strategy
holds the fraction ``h + H x`` of wealth in the risky assets, and ``u``
denotes the change in log wealth.

All containers are frozen dataclasses holding read-only numpy arrays; they
can be shared freely across threads.  A model computes its strategy-independent
terms (:class:`PreparedModel`) on first use and keeps them; since the model
cannot change, they never go stale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .linalg import NumericError, check_stability, inverse, lyapunov_operator, refined_failures

__all__ = [
    "FactorModel",
    "Strategy",
    "CriterionParams",
    "ModelValidationError",
    "validate_model",
    "reference_model",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

MODEL_SCHEMA_VERSION = 1


class ModelValidationError(ValueError):
    """Raised with the full list of invariant violations.

    Attributes
    ----------
    violations : list of str
        One entry per violated invariant, naming the offending field and
        dimension where applicable.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _freeze(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def _structural_violations(a, A, B, Sigma, Lambda) -> list[str]:
    """Shape, finiteness, and stability checks (always enforced)."""
    problems = []
    if a.ndim != 1:
        problems.append(f"a must be a vector, got shape {a.shape}")
        return problems
    m = a.shape[0]
    if m < 1:
        problems.append("a must have at least one entry (m >= 1)")
        return problems
    if A.ndim != 2 or A.shape[0] != m:
        problems.append(f"A must have shape (m={m}, n), got {A.shape}")
        return problems
    n = A.shape[1]
    if n < 1:
        problems.append("A must have at least one column (n >= 1)")
        return problems
    if B.shape != (n, n):
        problems.append(f"B must have shape (n={n}, n={n}), got {B.shape}")
    if Sigma.shape != (m, m + n):
        problems.append(f"Sigma must have shape (m={m}, m+n={m+n}), got {Sigma.shape}")
    if Lambda.shape != (n, m + n):
        problems.append(f"Lambda must have shape (n={n}, m+n={m+n}), got {Lambda.shape}")
    for name, arr in (("a", a), ("A", A), ("B", B), ("Sigma", Sigma), ("Lambda", Lambda)):
        if not np.all(np.isfinite(arr)):
            problems.append(f"{name} contains non-finite entries")
    if problems:
        return problems
    report = check_stability(B)
    if not report.is_stable:
        problems.append(
            f"B is not a stability matrix: max eigenvalue real part {report.margin:.6e}"
        )
    return problems


@dataclass(frozen=True)
class FactorModel:
    """Immutable parameter set of the market.

    Attributes
    ----------
    a : ndarray, shape (m,)
        Baseline drift of the asset returns.
    A : ndarray, shape (m, n)
        Loading of the asset drifts on the factors.
    B : ndarray, shape (n, n)
        Factor feedback matrix; must be Hurwitz-stable.
    Sigma : ndarray, shape (m, m+n)
        Diffusion loading of the asset returns on the Brownian driver.
    Lambda : ndarray, shape (n, m+n)
        Diffusion loading of the factors on the same driver.

    Construction enforces shapes, finiteness, and stability of ``B``.  The
    stricter market invariant (positive-definite return diffusion) is
    enforced by :func:`validate_model`, which is the gate used by the CLI and
    the calibration pipeline, and by :func:`~longrun.criterion.optimize`.
    Degenerate diffusions remain valid for
    :func:`~longrun.moments.moments` and the Monte Carlo oracle only.
    """

    a: np.ndarray
    A: np.ndarray
    B: np.ndarray
    Sigma: np.ndarray
    Lambda: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _freeze(self.a))
        object.__setattr__(self, "A", _freeze(self.A))
        object.__setattr__(self, "B", _freeze(self.B))
        object.__setattr__(self, "Sigma", _freeze(self.Sigma))
        object.__setattr__(self, "Lambda", _freeze(self.Lambda))
        problems = _structural_violations(self.a, self.A, self.B, self.Sigma, self.Lambda)
        if problems:
            raise ModelValidationError(problems)

    @property
    def m(self) -> int:
        """Number of risky assets."""
        return self.a.shape[0]

    @property
    def n(self) -> int:
        """Number of factors."""
        return self.B.shape[0]

    @cached_property
    def prepared(self) -> PreparedModel:
        """The strategy-independent terms, built on first use and kept on this model."""
        a, A, B, Sg, Lm, m, n = self.a, self.A, self.B, self.Sigma, self.Lambda, self.m, self.n
        L = lyapunov_operator(B)
        LT, LT_inv, B_norm = L.T, inverse(L).T, float(np.linalg.norm(B))
        C = -(Lm @ Lm.T)
        D = (C.reshape(1, -1) @ LT_inv).reshape(n, n)
        D = 0.5 * (D + D.T)
        bad, residual, bound = refined_failures(LT, LT_inv, D[None], C[None], B_norm)
        if bad[0]:
            raise NumericError(f"Lyapunov residual {residual[0]:.3e} exceeds its bound {bound[0]:.3e}")
        SS = Sg @ Sg.T
        B_inv = inverse(B)
        K = (B_inv @ Lm).T
        # rows: the row-major [U; Omega; Hb]; columns: the growth rate <Omega, diag(1, D)>, <D, U_11>,
        # and [P' Y'] = [c' h'] [[-D B^-T, -B^-1 Lambda], [-Sigma Lambda' B^-T, Sigma]], where
        # c = Omega[1:, 0] + Omega[0, 1:] is the x-coefficient of the drift
        linear = np.zeros((2 * (1 + n) + m, 1 + n, 2 + 2 * n + m))
        U, Om, Hb = linear[1:1 + n, 1:], linear[1 + n:2 + 2 * n], linear[2 + 2 * n:]
        U[..., 1] = D
        Om[0, 0, 0], Om[1:, 1:, 0] = 1.0, D
        Om[1:, 0, 2:] = Om[0, 1:, 2:] = np.hstack([-D @ B_inv.T, -K.T])
        Hb[:, 0, 2:] = np.hstack([-Sg @ K, Sg])
        iu, ju = np.triu_indices(n)
        mirror = np.zeros((n, n), dtype=np.intp)
        mirror[iu, ju] = mirror[ju, iu] = np.arange(iu.size)
        mirror.flags.writeable = False
        return PreparedModel(D=_freeze(D), SS=_freeze(SS), B_inv=_freeze(B_inv), K=_freeze(K),
                             G0=_freeze(Sg.T - K @ A.T), B_norm=B_norm,
                             drift=_freeze(np.column_stack([a, A])), mirror=mirror,
                             linear=_freeze(linear.reshape(-1, linear.shape[-1])),
                             rhs=_freeze(-np.hstack([D, Lm @ Sg.T])),
                             offset=_freeze(0.5 * (LT_inv[:, iu * n + ju] + LT_inv[:, ju * n + iu])),
                             lyapunov=_freeze(LT), lyapunov_inv=_freeze(LT_inv))


@dataclass(frozen=True)
class PreparedModel:
    """What every moment evaluation of one model shares, as read-only arrays.

    Built once per :class:`FactorModel` (see ``FactorModel.prepared``); the
    stability of ``B`` was checked when the model was constructed.

    Attributes
    ----------
    D : ndarray, shape (n, n)
        Stationary factor covariance, solving ``B D + D B' + Lambda Lambda' = 0``.
    SS : ndarray, shape (m, m)
        Return diffusion covariance ``Sigma Sigma'``.
    B_inv, K, G0 : ndarray, shapes (n, n), (m+n, n) and (m+n, m)
        B^-1 (:func:`longrun.linalg.inverse`), and ``K = Lambda' B^-T`` and ``G0 = Sigma' - K A'``,
        the model's terms of the maximizing h (``longrun.criterion._h_solver``).
    drift, linear, rhs, offset, mirror : ndarray
        The moment engine's constants (``longrun.moments._engine``): ``[a A]``, the map from
        ``[U; Omega; Hb]`` to the growth rate, ``<D, H'SS'H>``, P and Y, ``-[D  Lambda Sigma']``, the
        symmetrized columns p <= q of L^-T, and the indices that read those p <= q, row by row,
        into both triangles of an n x n matrix.
    lyapunov, lyapunov_inv : ndarray, shape (n^2, n^2)
        L' and L^-T, L the matrix of the Lyapunov operator (:func:`longrun.linalg.lyapunov_operator`),
        inverted once: D is ``vec(-Lambda Lambda') L^-T``.  With ``B_norm``, the Frobenius norm of
        B, they are what the residual check and its refinement step
        (:func:`longrun.linalg.refined_failures`) apply to D and every S.
    """

    D: np.ndarray
    SS: np.ndarray
    B_inv: np.ndarray
    K: np.ndarray
    G0: np.ndarray
    drift: np.ndarray
    linear: np.ndarray
    rhs: np.ndarray
    offset: np.ndarray
    mirror: np.ndarray
    lyapunov: np.ndarray
    lyapunov_inv: np.ndarray
    B_norm: float


def validate_model(a, A, B, Sigma, Lambda) -> FactorModel:
    """Build a FactorModel enforcing the full market invariants.

    On top of the structural checks this requires ``Sigma Sigma'`` to be
    positive definite (no redundant asset, no risk-free direction hidden in
    the risky block).

    Returns the validated model; raises :class:`ModelValidationError` whose
    ``violations`` collects every failed invariant.
    """
    model = FactorModel(
        a=np.atleast_1d(_numeric("a", a)),
        A=np.atleast_2d(_numeric("A", A)),
        B=np.atleast_2d(_numeric("B", B)),
        Sigma=np.atleast_2d(_numeric("Sigma", Sigma)),
        Lambda=np.atleast_2d(_numeric("Lambda", Lambda)),
    )
    _require_definite_diffusion(model)
    return model


def _numeric(name: str, value) -> np.ndarray:
    # Element by element: float conversion would turn "1" into 1.0 and a
    # boolean into 0.0/1.0, and a mixed list's dtype need not show either.
    try:
        for item in np.asarray(value, dtype=object).ravel():
            if isinstance(item, (str, bool, np.bool_)):
                raise TypeError("found a string" if isinstance(item, str) else "found a boolean")
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelValidationError(
            [f"{name} must be a rectangular array of numbers ({exc})"]
        ) from exc


def _finite_real(value) -> bool:
    """A finite real number, not a boolean nor a string."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and bool(np.isfinite(value)))


def _require_definite_diffusion(model: FactorModel) -> None:
    """Raise unless ``Sigma Sigma'`` is positive definite (from ``Sigma``: no Lyapunov solve)."""
    eigs = np.linalg.eigvalsh(model.Sigma @ model.Sigma.T)
    floor = 1e-12 * max(float(eigs[-1]), 1e-300)
    if eigs[0] <= floor:
        raise ModelValidationError(
            [f"Sigma Sigma' is not positive definite (min eigenvalue {eigs[0]:.3e})"]
        )


@dataclass(frozen=True)
class Strategy:
    """Linear investment rule: hold the fraction ``h + H x`` in risky assets.

    ``h`` is the average allocation, ``H`` tilts it with the factors.
    """

    h: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", _freeze(np.atleast_1d(self.h)))
        object.__setattr__(self, "H", _freeze(np.atleast_2d(self.H)))
        if self.h.ndim != 1:
            raise ModelValidationError([f"h must be a vector, got shape {self.h.shape}"])
        if self.H.shape[0] != self.h.shape[0]:
            raise ModelValidationError(
                [f"H must have shape (m={self.h.shape[0]}, n), got {self.H.shape}"]
            )
        if not (np.all(np.isfinite(self.h)) and np.all(np.isfinite(self.H))):
            raise ModelValidationError(["strategy contains non-finite entries"])


@dataclass(frozen=True)
class CriterionParams:
    """Weights of the investment criterion.

    ``theta >= 0`` penalizes the long-run variance of log wealth;
    ``gamma`` (length n) rewards covariance of log wealth with the factors.
    """

    theta: float
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "gamma", _freeze(np.atleast_1d(self.gamma)))
        if not np.isfinite(self.theta) or self.theta < 0.0:
            raise ModelValidationError([f"theta must be finite and >= 0, got {self.theta}"])
        if self.gamma.ndim != 1:
            raise ModelValidationError([f"gamma must be a vector, got shape {self.gamma.shape}"])
        if not np.all(np.isfinite(self.gamma)):
            raise ModelValidationError(["gamma contains non-finite entries"])


def reference_model() -> FactorModel:
    """Bundled one-asset, one-factor model.

    Calibrated from three decades of monthly US stock index excess returns
    against the short-term interest rate (the worked example shipped with
    this package; see also :func:`longrun.calibration.reference_estimates`).
    Units: time in months, returns in decimals, the factor in percent.
    """
    return FactorModel(
        a=np.array([0.01993]),
        A=np.array([[-0.01177]]),
        B=np.array([[-0.021]]),
        Sigma=np.array([[0.044249, 0.000874]]),
        Lambda=np.array([[0.0, 0.6329]]),
    )


def model_to_dict(model: FactorModel) -> dict:
    """JSON-ready dict (schema v1, row-major nested lists)."""
    return {
        "v": MODEL_SCHEMA_VERSION,
        "m": model.m,
        "n": model.n,
        "a": model.a.tolist(),
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "Sigma": model.Sigma.tolist(),
        "Lambda": model.Lambda.tolist(),
    }


def model_from_dict(doc: dict) -> FactorModel:
    """Inverse of :func:`model_to_dict`; validates the full invariants."""
    if not isinstance(doc, dict):
        raise ModelValidationError(["model document must be a JSON object"])
    version = doc.get("v")
    if version != MODEL_SCHEMA_VERSION:
        raise ModelValidationError([f"unsupported model schema version: {version!r}"])
    missing = [key for key in ("a", "A", "B", "Sigma", "Lambda") if key not in doc]
    if missing:
        raise ModelValidationError([f"missing field: {k}" for k in missing])
    model = validate_model(doc["a"], doc["A"], doc["B"], doc["Sigma"], doc["Lambda"])
    for key in ("m", "n"):
        if key in doc and doc[key] != getattr(model, key):
            raise ModelValidationError(
                [f"declared {key}={doc[key]} does not match arrays ({getattr(model, key)})"]
            )
    return model


def save_model(model: FactorModel, path) -> None:
    """Write schema-v1 JSON (full precision, sorted keys, UTF-8), as ``longrun calibrate`` does."""
    text = json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_model(path) -> FactorModel:
    """Read and validate a schema-v1 model JSON file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelValidationError([f"invalid JSON in {path}: {exc}"]) from exc
    return model_from_dict(doc)
