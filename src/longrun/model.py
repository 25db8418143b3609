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

from .linalg import check_stability, lyapunov_operator, solve_lyapunov_stack

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
        B, Sg, Lm = self.B, self.Sigma, self.Lambda
        lu = lyapunov_operator(B)
        for arr in lu:
            arr.flags.writeable = False
        D = solve_lyapunov_stack(B, lu, -(Lm @ Lm.T)[None])[0]
        return PreparedModel(
            D=_freeze(0.5 * (D + D.T)),
            SS=_freeze(Sg @ Sg.T),
            LS=_freeze(Lm @ Sg.T),
            B_inv=_freeze(np.linalg.inv(B)),
            lyapunov=lu,
        )


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
    LS : ndarray, shape (n, m)
        ``Lambda Sigma'``.
    B_inv : ndarray, shape (n, n)
        Inverse of ``B`` (B is stable, hence invertible).
    lyapunov : tuple
        LU factors of the n^2 x n^2 Lyapunov operator ``I (x) B + B (x) I``
        (:func:`longrun.linalg.lyapunov_operator`).
    """

    D: np.ndarray
    SS: np.ndarray
    LS: np.ndarray
    B_inv: np.ndarray
    lyapunov: tuple


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
    except (TypeError, ValueError) as exc:
        raise ModelValidationError(
            [f"{name} must be a rectangular array of numbers ({exc})"]
        ) from exc


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
