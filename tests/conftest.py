import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from longrun import FactorModel, Strategy, evaluate, reference_model

# pytest puts src/ on its own path (pyproject.toml); the console-script test
# starts a fresh interpreter, which needs it too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def model() -> FactorModel:
    return reference_model()


@pytest.fixture
def hold_only(model) -> Strategy:
    """All funds in the single asset, no factor tilt."""
    return Strategy(h=np.ones(model.m), H=np.zeros((model.m, model.n)))


def scalar_strategy(h: float, H: float) -> Strategy:
    return Strategy(h=np.array([h]), H=np.array([[H]]))


def random_stable_model(rng: np.random.Generator, m: int, n: int) -> FactorModel:
    """Random model with a comfortably Hurwitz factor matrix.

    The feedback matrix is shifted so its largest eigenvalue real part sits
    between -0.05 and -0.55; diffusion rows are generic, which makes the
    asset noise covariance almost surely positive definite.
    """
    raw = rng.normal(scale=0.6, size=(n, n))
    shift = float(np.max(np.linalg.eigvals(raw).real)) + rng.uniform(0.05, 0.55)
    B = raw - shift * np.eye(n)
    return FactorModel(
        a=rng.normal(scale=0.05, size=m),
        A=rng.normal(scale=0.05, size=(m, n)),
        B=B,
        Sigma=rng.normal(scale=0.2, size=(m, m + n)) + np.hstack([np.eye(m) * 0.3, np.zeros((m, n))]),
        Lambda=rng.normal(scale=0.4, size=(n, m + n)),
    )


def degenerate_model(m: int = 2, n: int = 2) -> FactorModel:
    """A seed-4 random model whose second asset is half the first: Sigma Sigma' is singular.

    FactorModel allows it; validate_model and optimize reject it.
    """
    base = random_stable_model(np.random.default_rng(4), m, n)
    Sigma = base.Sigma.copy()
    Sigma[1] = 0.5 * Sigma[0]
    return dataclasses.replace(base, Sigma=Sigma)


def stencil_gradient(model: FactorModel, params, x: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """The 5-point central-difference gradient of W at ``x = (h, vec H)``, from one ``evaluate`` call.

    W is quartic in (h, H), so the stencil has no truncation error: at any
    step (relative to 1 + |x_i|) it is the exact gradient up to rounding.
    """
    m, n = model.m, model.n
    steps = step * (1.0 + np.abs(x))
    E = np.eye(x.size) * steps[:, None]
    X = np.concatenate([x + 2.0 * E, x + E, x - E, x - 2.0 * E])
    p2, p1, m1, m2 = evaluate(model, (X[:, :m], X[:, m:].reshape(-1, m, n)), params).reshape(4, x.size)
    return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * steps)
