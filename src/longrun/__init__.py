"""Long-run moments and strategy optimization for linear-factor asset dynamics.

Asset prices follow dS/S = (a + AX) dt + Sigma dW against a stable
Ornstein-Uhlenbeck factor process dX = BX dt + Lambda dW; a strategy holds
the fraction h + HX of wealth in the risky assets.  This package computes
the closed-form long-run behavior of log wealth (growth rate, variance
rate, wealth-factor covariance), optimizes a risk- and factor-sensitive
criterion over (h, H), validates everything against a Monte Carlo oracle,
and calibrates the model from monthly time series.
"""

from .calibration import (
    CalibrationDataError,
    CalibrationNumericError,
    CalibrationReport,
    DiscreteEstimates,
    TimeSeriesData,
    calibrate,
    estimate_discrete,
    read_timeseries_csv,
    reference_estimates,
    report_from_estimates,
    timeseries_to_csv,
    to_continuous,
)
from .criterion import (
    OptimizationResult,
    OptimizerConfig,
    SweepResult,
    UnboundedCriterionError,
    evaluate,
    optimize,
    sweep_gamma,
    sweep_theta,
)
from .linalg import (
    DimensionError,
    NumericError,
    StabilityReport,
    check_stability,
)
from .mc import (
    AsymptoticEstimates,
    PathStats,
    SimConfig,
    SimulationError,
    estimate_asymptotics,
    simulate,
    simulate_discrete,
)
from .model import (
    CriterionParams,
    FactorModel,
    ModelValidationError,
    Strategy,
    load_model,
    model_from_dict,
    model_to_dict,
    reference_model,
    save_model,
    validate_model,
)
from .moments import (
    AsymptoticMoments,
    moments,
    scalar_moments,
    stationary_covariance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "FactorModel", "Strategy", "CriterionParams", "ModelValidationError",
    "validate_model", "reference_model",
    "model_to_dict", "model_from_dict", "save_model", "load_model",
    # linear algebra
    "DimensionError", "NumericError", "StabilityReport", "check_stability",
    # closed-form moments
    "AsymptoticMoments", "stationary_covariance",
    "moments", "scalar_moments",
    # criterion and optimizer
    "OptimizerConfig", "OptimizationResult", "SweepResult",
    "UnboundedCriterionError", "evaluate", "optimize",
    "sweep_theta", "sweep_gamma",
    # Monte Carlo oracle
    "SimConfig", "PathStats", "AsymptoticEstimates", "SimulationError",
    "simulate", "estimate_asymptotics", "simulate_discrete",
    # calibration
    "TimeSeriesData", "DiscreteEstimates", "CalibrationReport",
    "CalibrationDataError", "CalibrationNumericError",
    "estimate_discrete", "to_continuous", "calibrate", "reference_estimates",
    "report_from_estimates", "read_timeseries_csv",
    "timeseries_to_csv",
]
