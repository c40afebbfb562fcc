"""Stein loss, closed-form minimum risks, and Monte Carlo risk estimation.

The three equivariant classes admit exact minimum risks built from
E[log chi2_k]; the Monte Carlo runner exists to confirm an implementation
against those closed forms and to measure estimators that lack one.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import digamma

from ._rng import check_failures, run_replicates
from .errors import CovshrinkError
from .matrix_core import cholesky, schur_pivots
from .estimators import (
    dp_equivariant,
    sample_covariance,
    scatter_matrix,
    stein_triangular,
    tsai_estimator,
)

RISK_KINDS = ("ml", "stein", "dp")
MC_METHODS = ("sample", "stein_triangular", "dp_equivariant", "tsai")


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
    i = np.arange(1, p + 1)
    elog = elog_chisq(n - i + 1)
    if kind == "ml":
        d = np.full(p, float(n))
    elif kind == "stein":
        d = (n + p - 2 * i + 1).astype(float)
    elif kind == "dp":
        d = (n - i + 1).astype(float)
    else:
        raise ValueError(f"unknown risk kind {kind!r}, expected one of {RISK_KINDS}")
    return float(np.sum(np.log(d) - elog))


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


def _estimate_for(method: str, x: np.ndarray):
    if method == "sample":
        return sample_covariance(x, mode="uncentered_n")
    if method == "stein_triangular":
        return stein_triangular(scatter_matrix(x, centered=False))
    if method == "dp_equivariant":
        return dp_equivariant(scatter_matrix(x, centered=False))
    if method == "tsai":
        s = sample_covariance(x, mode="uncentered_n")
        return tsai_estimator(s, n=x.shape[0])
    raise ValueError(f"unknown method {method!r}, expected one of {MC_METHODS}")


def replicate_losses(method: str, sigma, n: int, replicates: int, seed: int,
                     threads: int = 1) -> tuple[list[float | None], np.ndarray]:
    """Per-replicate Stein losses for a mean-zero Gaussian population.

    Returns (losses, target); a failed replicate is recorded as None.  The
    pivot estimator is scored against the Schur pivot diagonal of sigma, its
    own target; every other method is scored against sigma itself.  The
    target is validated and factored once, not per replicate.
    """
    sig = np.asarray(sigma, dtype=float)
    chol_sig = cholesky(sig)
    if method == "dp_equivariant":
        target = np.diag(schur_pivots(sig))
        chol_target = cholesky(target)
    else:
        target, chol_target = sig, chol_sig

    def score(r: int, x: np.ndarray):
        try:
            return _stein_loss(cholesky(_estimate_for(method, x).matrix), chol_target)
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
    ok = np.array([v for v in losses if v is not None], dtype=float)
    mean = float(ok.mean())
    se = float(ok.std(ddof=1) / np.sqrt(ok.size))
    return RiskEstimate(
        mean_loss=mean,
        std_error=se,
        replicates=int(ok.size),
        method=method,
        n=n,
        p=p,
        seed=seed,
        failures=int(failures),
    )
