"""Equivariant covariance estimation with random-matrix shrinkage.

The package provides four covariance estimators (sample, triangular-group,
diagonal-group, and rotation-equivariant eigenvalue shrinkage), the
Marchenko-Pastur spectral layer those estimators lean on, Stein-loss risk
formulas with a Monte Carlo harness, one-sample mean tests including an
eigenvalue-shrunk variant, and a seeded experiment runner behind a CLI.

Each submodule, and each public name, is loaded on first use: importing the
package loads no NumPy, so the command can size NumPy's BLAS pool before
NumPy starts it.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": ("AsymmetricInputError", "ConfigError", "CovshrinkError", "CsvFormatError",
               "DecompositionError", "EigenvalueTieError", "NotPositiveDefiniteError",
               "NumericError", "ShrinkageSingularityError"),
    "matrix_core": ("cholesky", "schur_pivots", "spectral_decompose"),
    "estimators": ("CovarianceEstimate", "ShrinkageTable", "dp_equivariant", "sample_covariance",
                   "scatter_matrix", "shrinkage_terms", "stein_triangular", "tsai_eigenvalues",
                   "tsai_estimator"),
    "rmt": ("MPModel", "boundary_stieltjes", "identity_hilbert", "mp_cdf", "mp_density",
            "mp_stieltjes"),
    "loss_risk": ("RiskEstimate", "elog_chisq", "min_risk", "monte_carlo_risk", "stein_loss"),
    "hdtest": ("PowerReport", "TestResult", "chisq_pvalue", "decomposite_t2", "hotelling_t2",
               "oracle_t2", "power_simulation"),
    "sim": ("ExperimentConfig", "ExperimentReport", "PopulationModel",
            "eigenvalue_recovery_experiment", "esd_fit_experiment", "make_sigma",
            "risk_comparison_experiment"),
    "io_cli": ("ReportDocument", "read_csv", "run_cli"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "_rng")

__all__ = [*_OWNERS, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNERS:
        return getattr(importlib.import_module(f"{__name__}.{_OWNERS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
