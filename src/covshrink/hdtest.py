"""One-sample mean tests and their power under local alternatives.

Three statistics share the form n xbar' M^-1 xbar and differ in M: the
sample covariance (classical test), the spectrally shrunk estimate
(decomposite test), or the true covariance (oracle, for calibration).
P-values always use the chi-square limit with p degrees of freedom; no
finite-sample F calibration is attempted.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import check_failures, run_replicates
from .errors import CovshrinkError, NotPositiveDefiniteError
from .estimators import as_data_matrix, sample_covariance, tsai_eigenvalues
from .matrix_core import cholesky, spectral_decompose

RATES = ("hdim", "classical")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    dof: int
    pvalue: float
    method: str
    n: int
    p: int

    def __post_init__(self):
        if self.statistic < 0.0:
            raise ValueError("test statistic cannot be negative")
        if not 0.0 <= self.pvalue <= 1.0:
            raise ValueError("p-value outside [0, 1]")


def _mahalanobis_sq(xbar: np.ndarray, matrix: np.ndarray) -> float:
    """xbar' matrix^-1 xbar through a Cholesky solve; raises on singular input."""
    from scipy.linalg import solve_triangular  # on first use, not at import

    t = cholesky(matrix)
    w = solve_triangular(t, xbar, lower=True)
    return float(w @ w)


def _require_nonsingular(s: np.ndarray, eigenvalues: np.ndarray) -> None:
    """Refuse the centered S when its smallest eigenvalue is rounding noise.

    On exactly collinear data rounding can leave the smallest eigenvalue
    slightly positive instead of zero.  Eigenvalues are computed to about
    eps * ||S||, so anything at or below p * eps times the largest diagonal
    entry of S is treated as zero.
    """
    p = s.shape[0]
    floor = p * np.finfo(float).eps * float(np.max(np.diag(s)))
    smallest = float(np.min(eigenvalues))
    if smallest <= floor:
        raise NotPositiveDefiniteError(
            f"centered covariance is singular: smallest eigenvalue {smallest:.3e} "
            f"is at or below {floor:.3e}", index=p)


def chisq_pvalue(statistic: float, p: int, noncentrality: float = 0.0) -> float:
    """Upper-tail probability of (non)central chi-square with p dof.

    Central case via the regularized upper incomplete gamma, which keeps its
    relative accuracy deep in the tail.  Noncentral case as 1 - chndtr, which
    is accurate to about 2e-15 absolute (not relative: tail values below that
    round to 0) and has no ceiling on the noncentrality.
    """
    from scipy.special import chndtr, gammaincc

    if statistic < 0.0:
        raise ValueError(f"statistic must be nonnegative, got {statistic}")
    if noncentrality < 0.0:
        raise ValueError("noncentrality must be nonnegative")
    if noncentrality == 0.0:
        return float(gammaincc(p / 2.0, statistic / 2.0))
    return min(max(1.0 - float(chndtr(statistic, p, noncentrality)), 0.0), 1.0)


def hotelling_t2(x) -> TestResult:
    """Classical one-sample statistic n xbar' S^-1 xbar with the centered S."""
    a = as_data_matrix(x)
    n, p = a.shape
    if n < p + 1:
        raise ValueError(f"need n >= p + 1 for an invertible centered covariance, got n={n}, p={p}")
    xbar = a.mean(axis=0)
    s = sample_covariance(a, mode="centered_n_minus_1").matrix
    _require_nonsingular(s, np.linalg.eigvalsh(s))
    stat = n * _mahalanobis_sq(xbar, s)
    return TestResult(stat, p, chisq_pvalue(stat, p), "hotelling", n, p)


def decomposite_t2(x) -> TestResult:
    """Shrinkage test n sum_i (u_i' xbar)^2 / psi_i in the spectral basis of S.

    S is the centered covariance; its effective sample count n - 1 feeds the
    eigenvalue shrinker.  Equals the classical statistic whenever psi = l
    (p = 1, or n >> p).
    """
    a = as_data_matrix(x)
    n, p = a.shape
    if n < p + 1:
        raise ValueError(f"need n >= p + 1 for an invertible centered covariance, got n={n}, p={p}")
    xbar = a.mean(axis=0)
    s = sample_covariance(a, mode="centered_n_minus_1").matrix
    dec = spectral_decompose(s)
    _require_nonsingular(s, dec.eigenvalues)
    table = tsai_eigenvalues(dec.eigenvalues, n - 1)
    proj = dec.eigenvectors.T @ xbar
    stat = n * float(np.sum(proj * proj / table.shrunk_eigenvalues))
    return TestResult(stat, p, chisq_pvalue(stat, p), "decomposite", n, p)


def oracle_t2(x, sigma) -> TestResult:
    """Reference statistic n xbar' sigma^-1 xbar with the true covariance.

    Exactly chi-square with p dof under the null, for any n.
    """
    a = as_data_matrix(x)
    n, p = a.shape
    xbar = a.mean(axis=0)
    stat = n * _mahalanobis_sq(xbar, np.asarray(sigma, dtype=float))
    return TestResult(stat, p, chisq_pvalue(stat, p), "oracle", n, p)


# test name -> statistic(x, sigma); only the oracle reads the true covariance
MEAN_TESTS = {
    "hotelling": lambda x, sigma: hotelling_t2(x),
    "decomposite": lambda x, sigma: decomposite_t2(x),
    "oracle": oracle_t2,
}


@dataclass(frozen=True)
class LocalAlternative:
    """Mean-shift alternative mu = n^(-1/2) p^(1/4) delta with its noncentrality."""

    delta: np.ndarray
    n: int
    mu: np.ndarray = field(init=False)
    noncentrality: float

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=float)
        if not np.isfinite(d).all():
            raise ValueError("delta must be finite")
        if self.noncentrality < 0.0:
            raise ValueError("noncentrality cannot be negative")
        p = d.shape[0]
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "mu", d * (p ** 0.25) / math.sqrt(self.n))


def local_alternative(delta, n: int, sigma=None) -> LocalAlternative:
    """Bundle delta with its implied mean and noncentrality delta' sigma^-1 delta."""
    d = np.asarray(delta, dtype=float)
    if sigma is None:
        ncp = float(d @ d)
    else:
        ncp = _mahalanobis_sq(d, np.asarray(sigma, dtype=float))
    return LocalAlternative(delta=d, n=n, noncentrality=ncp)


@dataclass(frozen=True)
class PowerReport:
    """Empirical rejection rate of a mean test at the chi-square critical value."""

    rejection_rate: float
    std_error: float
    replicates: int
    failures: int
    critical_value: float
    alpha: float
    method: str
    rate: str
    n: int
    p: int
    seed: int


def power_simulation(n: int, p: int, sigma, delta, alpha: float = 0.05,
                     replicates: int = 1000, seed: int = 0,
                     method: str = "oracle", rate: str = "hdim",
                     threads: int = 1) -> PowerReport:
    """Monte Carlo rejection rate against the chi-square critical value.

    Parameters
    ----------
    rate : {"hdim", "classical"}
        Scaling of the mean shift.  "hdim" uses mu = n^(-1/2) p^(1/4) delta,
        the growing-dimension scaling; under it the oracle statistic is
        noncentral chi-square with noncentrality sqrt(p) delta' sigma^-1
        delta.  "classical" drops the p^(1/4) factor, giving noncentrality
        exactly delta' sigma^-1 delta.
    method : {"hotelling", "decomposite", "oracle"}
        A key of MEAN_TESTS.

    Failed replicates (singular shrinkage) are recorded; more than 1 percent
    failures aborts, as in the risk runner.
    """
    from scipy.special import chdtri

    if method not in MEAN_TESTS:
        raise ValueError(f"unknown method {method!r}, expected one of {tuple(MEAN_TESTS)}")
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")
    if rate not in RATES:
        raise ValueError(f"unknown rate {rate!r}, expected one of {RATES}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    sig = np.asarray(sigma, dtype=float)
    d = np.asarray(delta, dtype=float)
    if d.shape != (p,):
        raise ValueError(f"delta must have length p={p}, got shape {d.shape}")
    chol_sig = cholesky(sig)
    scale = p ** 0.25 if rate == "hdim" else 1.0
    mu = d * scale / math.sqrt(n)
    crit = float(chdtri(p, alpha))
    statistic = MEAN_TESTS[method]

    def score(r: int, x: np.ndarray):
        try:
            return bool(statistic(x, sig).statistic > crit)
        except CovshrinkError:
            return None

    outcomes = run_replicates(score, seed, chol_sig, n, replicates, threads, mean=mu)
    failures = check_failures(outcomes, method, n, p)
    ok = [o for o in outcomes if o is not None]
    m = len(ok)
    rate_hat = sum(ok) / m
    se = math.sqrt(rate_hat * (1.0 - rate_hat) / m)
    return PowerReport(
        rejection_rate=rate_hat,
        std_error=se,
        replicates=m,
        failures=failures,
        critical_value=crit,
        alpha=alpha,
        method=method,
        rate=rate,
        n=n,
        p=p,
        seed=seed,
    )
