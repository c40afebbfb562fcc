"""Equivariant covariance estimation with random-matrix shrinkage.

The package provides four covariance estimators (sample, triangular-group,
diagonal-group, and rotation-equivariant eigenvalue shrinkage), the
Marchenko-Pastur spectral layer those estimators lean on, Stein-loss risk
formulas with a Monte Carlo harness, one-sample mean tests including an
eigenvalue-shrunk variant, and a seeded experiment runner behind a CLI.
"""

from .errors import (
    AsymmetricInputError,
    ConfigError,
    CovshrinkError,
    CsvFormatError,
    DecompositionError,
    EigenvalueTieError,
    NotPositiveDefiniteError,
    NumericError,
    ShrinkageSingularityError,
)
from .matrix_core import (
    cholesky,
    schur_pivots,
    spectral_decompose,
)
from .estimators import (
    CovarianceEstimate,
    ShrinkageTable,
    dp_equivariant,
    sample_covariance,
    scatter_matrix,
    shrinkage_terms,
    stein_triangular,
    tsai_eigenvalues,
    tsai_estimator,
)
from .rmt import (
    MPModel,
    boundary_stieltjes,
    identity_hilbert,
    mp_cdf,
    mp_density,
    mp_stieltjes,
)
from .loss_risk import (
    RiskEstimate,
    elog_chisq,
    min_risk,
    monte_carlo_risk,
    stein_loss,
)
from .hdtest import (
    PowerReport,
    TestResult,
    chisq_pvalue,
    decomposite_t2,
    hotelling_t2,
    oracle_t2,
    power_simulation,
)
from .sim import (
    ExperimentConfig,
    ExperimentReport,
    PopulationModel,
    eigenvalue_recovery_experiment,
    esd_fit_experiment,
    make_sigma,
    risk_comparison_experiment,
)
from .io_cli import ReportDocument, read_csv, run_cli

__version__ = "0.1.0"

__all__ = [
    "AsymmetricInputError",
    "ConfigError",
    "CovshrinkError",
    "CsvFormatError",
    "DecompositionError",
    "EigenvalueTieError",
    "NotPositiveDefiniteError",
    "NumericError",
    "ShrinkageSingularityError",
    "cholesky",
    "schur_pivots",
    "spectral_decompose",
    "CovarianceEstimate",
    "ShrinkageTable",
    "dp_equivariant",
    "sample_covariance",
    "scatter_matrix",
    "shrinkage_terms",
    "stein_triangular",
    "tsai_eigenvalues",
    "tsai_estimator",
    "MPModel",
    "boundary_stieltjes",
    "identity_hilbert",
    "mp_cdf",
    "mp_density",
    "mp_stieltjes",
    "RiskEstimate",
    "elog_chisq",
    "min_risk",
    "monte_carlo_risk",
    "stein_loss",
    "PowerReport",
    "TestResult",
    "chisq_pvalue",
    "decomposite_t2",
    "hotelling_t2",
    "oracle_t2",
    "power_simulation",
    "ExperimentConfig",
    "ExperimentReport",
    "PopulationModel",
    "eigenvalue_recovery_experiment",
    "esd_fit_experiment",
    "make_sigma",
    "risk_comparison_experiment",
    "ReportDocument",
    "read_csv",
    "run_cli",
    "__version__",
]
