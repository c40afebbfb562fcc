"""Stein loss, closed-form minimum risks, and Monte Carlo risk estimation.

The three equivariant classes admit exact minimum risks built from
E[log chi2_k]; the Monte Carlo runner exists to confirm an implementation
against those closed forms and to measure estimators that lack one.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import digamma

from ._rng import aggregate, check_failures, run_replicates
from .errors import CovshrinkError
from .estimators import ESTIMATORS
from .matrix_core import cholesky, schur_pivots

# risk kind -> divisors d_i(n, p, i) of the best estimator in that class
RISK_DIVISORS = {
    "ml": lambda n, p, i: np.full(p, float(n)),
    "stein": lambda n, p, i: (n + p - 2 * i + 1).astype(float),
    "dp": lambda n, p, i: (n - i + 1).astype(float),
}
RISK_KINDS = tuple(RISK_DIVISORS)


def stein_loss(phi, sigma) -> float:
    """Entropy loss tr(sigma^-1 phi) - logdet(sigma^-1 phi) - p.

    Nonnegative, zero exactly at phi = sigma.  Computed from triangular
    solves of the two Cholesky factors; determinants never materialize, so
    p in the hundreds is safe.
    """
    a = np.asarray(phi, dtype=float)
    b = np.asarray(sigma, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _stein_loss(cholesky(a), cholesky(b))


def _stein_loss(t_phi: np.ndarray, t_sig: np.ndarray) -> float:
    """Stein loss from the lower Cholesky factors of phi and sigma."""
    # sigma^-1 phi = (t_sig^-T t_sig^-1)(t_phi t_phi^T); trace is the squared
    # Frobenius norm of t_sig^-1 t_phi
    w = solve_triangular(t_sig, t_phi, lower=True)
    trace = float(np.sum(w * w))
    logdet = 2.0 * float(np.sum(np.log(np.diag(t_phi))) - np.sum(np.log(np.diag(t_sig))))
    return trace - logdet - t_phi.shape[0]


def elog_chisq(k) -> float:
    """E[log chi2_k] = log 2 + digamma(k / 2) for k >= 1."""
    kv = np.asarray(k, dtype=float)
    if np.any(kv < 1):
        raise ValueError(f"degrees of freedom must be >= 1, got {k}")
    out = np.log(2.0) + digamma(kv / 2.0)
    return float(out) if np.ndim(k) == 0 else out


def min_risk(kind: str, n: int, p: int) -> float:
    """Minimum Stein-loss risk of the best estimator in each equivariance class.

    kind "ml":    sum_i log n - E[log chi2_{n-i+1}]        (scaled scatter)
    kind "stein": sum_i log(n+p-2i+1) - E[log chi2_{n-i+1}] (triangular class)
    kind "dp":    sum_i log(n-i+1) - E[log chi2_{n-i+1}]    (pivot class)
    """
    if not 1 <= p <= n:
        raise ValueError(f"need n >= p >= 1, got n={n}, p={p}")
    if kind not in RISK_DIVISORS:
        raise ValueError(f"unknown risk kind {kind!r}, expected one of {RISK_KINDS}")
    i = np.arange(1, p + 1)
    d = RISK_DIVISORS[kind](n, p, i)
    return float(np.sum(np.log(d) - elog_chisq(n - i + 1)))


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo mean Stein loss with its standard error."""

    mean_loss: float
    std_error: float
    replicates: int
    method: str
    n: int
    p: int
    seed: int
    failures: int = 0

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("risk estimates need at least 2 completed replicates")
        if self.std_error < 0.0:
            raise ValueError("standard error cannot be negative")


def replicate_losses(method: str, sigma, n: int, replicates: int, seed: int,
                     threads: int = 1) -> tuple[list[float | None], np.ndarray]:
    """Per-replicate Stein losses for a mean-zero Gaussian population.

    Returns (losses, target); a failed replicate is recorded as None.  The
    pivot estimator is scored against the Schur pivot diagonal of sigma, its
    own target; every other method is scored against sigma itself.  The
    target is validated and factored once, not per replicate.  Each
    replicate's data are mean zero, so every estimator runs uncentered.
    """
    if method not in ESTIMATORS:
        raise ValueError(f"unknown method {method!r}, expected one of {tuple(ESTIMATORS)}")
    estimate = ESTIMATORS[method]
    sig = np.asarray(sigma, dtype=float)
    chol_sig = cholesky(sig)
    if method == "dp_equivariant":
        target = np.diag(schur_pivots(sig))
        chol_target = cholesky(target)
    else:
        target, chol_target = sig, chol_sig

    def score(r: int, x: np.ndarray):
        try:
            return _stein_loss(cholesky(estimate(x, False).matrix), chol_target)
        except CovshrinkError:
            return None

    return run_replicates(score, seed, chol_sig, n, replicates, threads), target


def monte_carlo_risk(method: str, sigma, n: int, replicates: int, seed: int,
                     threads: int = 1) -> RiskEstimate:
    """Mean and standard error of the Stein loss over Wishart-data replicates.

    Deterministic given ``seed`` regardless of ``threads``.  Individual
    replicate failures (singular shrinkage and the like) are tolerated up to
    1 percent of the run; beyond that the whole estimate aborts, since a
    mean over a heavily censored sample is not the risk.
    """
    if replicates < 100:
        raise ValueError(f"need at least 100 replicates for reporting, got {replicates}")
    p = np.asarray(sigma).shape[0]
    if n < p:
        raise ValueError(f"sample count {n} below dimension {p}")
    losses, _ = replicate_losses(method, sigma, n, replicates, seed, threads=threads)
    failures = check_failures(losses, method, n, p)
    agg = aggregate(losses)
    return RiskEstimate(
        mean_loss=agg["mean"],
        std_error=agg["se"],
        replicates=agg["count"],
        method=method,
        n=n,
        p=p,
        seed=seed,
        failures=int(failures),
    )
