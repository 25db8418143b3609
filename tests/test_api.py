"""The public API: the exact set of exported names, each documented."""

import subprocess
import sys

import longrun

PUBLIC = [
    "AsymptoticEstimates", "AsymptoticMoments", "CalibrationDataError",
    "CalibrationNumericError", "CalibrationReport", "CriterionParams", "DimensionError",
    "DiscreteEstimates", "FactorModel", "ModelValidationError", "NumericError",
    "OptimizationResult", "OptimizerConfig", "PathStats", "SimConfig", "SimulationError",
    "StabilityReport", "Strategy", "SweepResult", "TimeSeriesData",
    "UnboundedCriterionError", "__version__", "calibrate", "check_stability",
    "estimate_asymptotics", "estimate_discrete", "evaluate", "load_model",
    "model_from_dict", "model_to_dict", "moments", "optimize", "read_timeseries_csv",
    "reference_estimates", "reference_model", "report_from_estimates", "save_model",
    "scalar_moments", "simulate", "simulate_discrete", "stationary_covariance",
    "sweep_gamma", "sweep_theta", "timeseries_to_csv", "to_continuous", "validate_model",
]


def test_public_names_pinned():
    assert sorted(longrun.__all__) == PUBLIC
    assert len(PUBLIC) == 46


def test_public_names_resolve_and_are_documented():
    for name in PUBLIC:
        obj = getattr(longrun, name)
        if name == "__version__":
            continue
        doc = obj.__doc__ or ""
        # a dataclass without a docstring gets its signature as __doc__
        assert doc.strip() and not doc.startswith(f"{name}("), name


def test_import_leaves_out_scipy_signal():
    probe = "import sys, longrun; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_leaves_out_scipy_optimize():
    probe = "import sys, longrun, longrun.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
