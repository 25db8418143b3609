import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from longrun import (
    CriterionParams,
    FactorModel,
    ModelValidationError,
    Strategy,
    load_model,
    model_from_dict,
    model_to_dict,
    reference_estimates,
    reference_model,
    report_from_estimates,
    save_model,
    validate_model,
)
from longrun.cli import main


def test_reference_model_constants(model):
    assert model.m == 1 and model.n == 1
    assert model.a[0] == 0.01993
    assert model.A[0, 0] == -0.01177
    assert model.B[0, 0] == -0.021
    assert_allclose(model.Sigma[0], [0.044249, 0.000874])
    assert_allclose(model.Lambda[0], [0.0, 0.6329])


def test_arrays_are_frozen(model):
    with pytest.raises(ValueError):
        model.B[0, 0] = 1.0
    with pytest.raises(ValueError):
        model.Sigma[0, 0] = 0.0


def test_shape_violations_collected():
    with pytest.raises(ModelValidationError) as exc:
        FactorModel(
            a=np.array([0.1, 0.2]),           # says m = 2
            A=np.array([[0.0]]),              # but A is 1 x 1
            B=np.array([[-0.5]]),
            Sigma=np.array([[0.1, 0.0]]),
            Lambda=np.array([[0.0, 0.2]]),
        )
    assert any("A" in v for v in exc.value.violations)


def test_unstable_feedback_rejected():
    # 1e-13 is inside the stability margin: the Lyapunov solves need B clear of the axis
    for b in (0.5, 1e-13):
        with pytest.raises(ModelValidationError, match="stability"):
            FactorModel(
                a=np.array([0.1]),
                A=np.array([[0.0]]),
                B=np.array([[b]]),
                Sigma=np.array([[0.1, 0.0]]),
                Lambda=np.array([[0.0, 0.2]]),
            )


def test_non_finite_rejected():
    with pytest.raises(ModelValidationError):
        FactorModel(
            a=np.array([np.nan]),
            A=np.array([[0.0]]),
            B=np.array([[-0.5]]),
            Sigma=np.array([[0.1, 0.0]]),
            Lambda=np.array([[0.0, 0.2]]),
        )


def test_validate_model_requires_pd_noise():
    # structurally fine, but the asset has no noise of its own
    with pytest.raises(ModelValidationError, match="positive definite"):
        validate_model([0.1], [[0.0]], [[-0.5]], [[0.0, 0.0]], [[0.0, 0.2]])
    m = validate_model([0.1], [[0.0]], [[-0.5]], [[0.1, 0.0]], [[0.0, 0.2]])
    assert isinstance(m, FactorModel)


def test_constructor_allows_degenerate_noise():
    # the plain constructor only checks structure; a noise-free asset is a
    # legitimate object for simulation edge cases
    m = FactorModel(
        a=np.array([0.1]), A=np.array([[0.0]]), B=np.array([[-0.5]]),
        Sigma=np.zeros((1, 2)), Lambda=np.zeros((1, 2)),
    )
    assert m.m == 1


def test_strategy_validation():
    s = Strategy(h=[1.0, 0.5], H=[[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]])
    assert s.h.shape == (2,) and s.H.shape == (2, 3)
    with pytest.raises(ModelValidationError):
        Strategy(h=[1.0], H=[[1.0], [2.0]])
    with pytest.raises(ModelValidationError):
        Strategy(h=[np.inf], H=[[0.0]])


def test_criterion_params_validation():
    p = CriterionParams(theta=0.0, gamma=[0.0, 0.1])
    assert p.gamma.shape == (2,)
    with pytest.raises(ModelValidationError):
        CriterionParams(theta=-0.1, gamma=[0.0])
    with pytest.raises(ModelValidationError):
        CriterionParams(theta=np.nan, gamma=[0.0])


def test_dict_roundtrip(model):
    doc = model_to_dict(model)
    assert doc["v"] == 1 and doc["m"] == 1 and doc["n"] == 1
    again = model_from_dict(doc)
    for field in ("a", "A", "B", "Sigma", "Lambda"):
        assert_allclose(getattr(again, field), getattr(model, field), rtol=0, atol=0)


def test_json_file_roundtrip(tmp_path, model):
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert np.array_equal(again.Sigma, model.Sigma)
    # full double precision survives the text format
    text = path.read_text()
    assert repr(float(model.Lambda[0, 1])) in text
    awkward = FactorModel(a=np.array([1.0 / 3.0]), A=model.A, B=model.B,
                          Sigma=model.Sigma, Lambda=model.Lambda)
    save_model(awkward, path)
    assert load_model(path).a[0] == awkward.a[0]
    # one byte format: save_model rewrites the calibrated model.json exactly
    cal = tmp_path / "cal"
    assert main(["calibrate", "--from-tables", "--out", str(cal)]) == 0
    save_model(load_model(cal / "model.json"), path)
    assert path.read_bytes() == (cal / "model.json").read_bytes()


def test_from_dict_rejects_bad_documents(model):
    doc = model_to_dict(model)
    bad = dict(doc, v=99)
    with pytest.raises(ModelValidationError, match="schema"):
        model_from_dict(bad)
    bad = dict(doc, m=3)
    with pytest.raises(ModelValidationError):
        model_from_dict(bad)
    bad = {k: v for k, v in doc.items() if k != "B"}
    with pytest.raises(ModelValidationError):
        model_from_dict(bad)


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelValidationError, match="JSON"):
        load_model(path)


def test_validate_collects_multiple_violations():
    with pytest.raises(ModelValidationError) as exc:
        validate_model([np.nan], [[0.0]], [[np.inf]], [[0.0, 0.0]], [[0.0, 0.2]])
    assert len(exc.value.violations) >= 2
    joined = " ".join(exc.value.violations)
    assert "a " in joined and "B " in joined


def test_validate_model_checks_stability_once(monkeypatch, model):
    import longrun.model as model_module

    calls = []
    original = model_module.check_stability
    monkeypatch.setattr(model_module, "check_stability",
                        lambda B: calls.append(1) or original(B))
    validate_model(model.a, model.A, model.B, model.Sigma, model.Lambda)
    assert len(calls) == 1
    model_from_dict(model_to_dict(model))
    assert len(calls) == 2
    report_from_estimates(reference_estimates())    # no rebuilt model, one check
    assert len(calls) == 3
