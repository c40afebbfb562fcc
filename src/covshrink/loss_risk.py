"""Stein loss, closed-form minimum risks, and Monte Carlo risk estimation.

The three equivariant classes admit exact minimum risks built from
E[log chi2_k]; the Monte Carlo runner exists to confirm an implementation
against those closed forms and to measure estimators that lack one.
"""

from dataclasses import dataclass

import numpy as np

from ._rng import aggregate, check_failures, run_chunks
from .estimators import CLASS_DIVISORS, STACKED_ESTIMATORS, scatter_stack
from .matrix_core import cholesky, cholesky_stack

RISK_KINDS = tuple(CLASS_DIVISORS)


def stein_loss(phi, sigma) -> float:
    """Entropy loss tr(sigma^-1 phi) - logdet(sigma^-1 phi) - p.

    Nonnegative, zero exactly at phi = sigma.  Computed from the two
    Cholesky factors and the inverse of sigma's; determinants never
    materialize, so p in the hundreds is safe.
    """
    a = np.asarray(phi, dtype=float)
    b = np.asarray(sigma, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    t_phi, t_sig = cholesky(a), cholesky(b)
    return float(_stein_losses(t_phi[None], t_sig, _inverse_factor(t_sig))[0])


def _inverse_factor(t_sig: np.ndarray) -> np.ndarray:
    """t_sig^-1 for a lower Cholesky factor; lower triangular, as the exact inverse is."""
    return np.tril(np.linalg.inv(t_sig))


def _stein_losses(t_phi: np.ndarray, t_sig: np.ndarray, inv_sig: np.ndarray) -> np.ndarray:
    """Stein losses of a (k, p, p) stack of lower factors against one sigma factor.

    ``inv_sig`` is ``_inverse_factor(t_sig)``, computed once per sigma.
    May overwrite t_phi, which keeps the peak memory at one stack of factors.
    """
    p = t_phi.shape[1]
    logdet = 2.0 * (np.sum(np.log(np.diagonal(t_phi, axis1=1, axis2=2)), axis=1)
                    - np.sum(np.log(np.diag(t_sig))))
    # sigma^-1 phi = (t_sig^-T t_sig^-1)(t_phi t_phi^T); trace is the squared
    # Frobenius norm of t_sig^-1 t_phi, one matrix product per factor.  A
    # diagonal inverse scales the rows instead: each entry of the product
    # then has exactly one nonzero term, so the scaling is the same bits.
    scale = np.diag(inv_sig)
    if np.count_nonzero(inv_sig) > np.count_nonzero(scale):
        w = inv_sig @ t_phi
    else:
        w = np.multiply(t_phi, scale[:, None], out=t_phi)
    w *= w
    return np.sum(w, axis=(1, 2)) - logdet - p


def elog_chisq(k) -> float:
    """E[log chi2_k] = log 2 + digamma(k / 2) for k >= 1, elementwise.

    The recurrence digamma(x) = digamma(x + 1) - 1/x (DLMF 5.5.2) lifts x to
    16 or more, where the asymptotic series (DLMF 5.11.2)
    digamma(x) = log x - 1/(2x) - sum_k B_2k / (2k x^2k), taken through
    x^-10, is accurate to rounding: the first omitted term is below 1e-16.
    """
    kv = np.asarray(k, dtype=float)
    if np.any(kv < 1):
        raise ValueError(f"degrees of freedom must be >= 1, got {k}")
    x = kv / 2.0
    # m steps of the recurrence, their terms summed smallest first
    m = np.maximum(np.ceil(16.0 - x), 0.0)
    lifted = np.zeros_like(x)
    for j in range(int(m.max(initial=0.0)) - 1, -1, -1):
        lifted -= np.where(j < m, 1.0 / (x + j), 0.0)
    x = x + m
    r = 1.0 / (x * x)
    series = r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r / 132))))
    out = np.log(2.0) + (np.log(x) - 0.5 / x - series + lifted)
    return float(out) if np.ndim(k) == 0 else out


def min_risk(kind: str, n: int, p: int) -> float:
    """Minimum Stein-loss risk of the best estimator in each equivariance class.

    kind "ml":    sum_i log n - E[log chi2_{n-i+1}]        (scaled scatter)
    kind "stein": sum_i log(n+p-2i+1) - E[log chi2_{n-i+1}] (triangular class)
    kind "dp":    sum_i log(n-i+1) - E[log chi2_{n-i+1}]    (pivot class)
    """
    if not 1 <= p <= n:
        raise ValueError(f"need n >= p >= 1, got n={n}, p={p}")
    if kind not in CLASS_DIVISORS:
        raise ValueError(f"unknown risk kind {kind!r}, expected one of {RISK_KINDS}")
    d = CLASS_DIVISORS[kind](n, p)
    return float(np.sum(np.log(d) - elog_chisq(n - np.arange(1, p + 1) + 1)))


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


def _target(method: str, sig: np.ndarray, chol_sig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(target, its Cholesky factor): sigma itself for every method but the pivot
    estimator, whose target is the Schur pivot diagonal diag(t^2), t the diagonal
    of sigma's factor; its factor is diag(t) bit for bit, as sqrt(fl(t^2)) = t."""
    if method == "dp_equivariant":
        t = np.diag(np.diag(chol_sig))
        return t * t, t
    return sig, chol_sig


def replicate_losses(methods, sigma, n: int, replicates: int, seed: int,
                     threads: int = 1) -> dict:
    """Per-replicate Stein losses of several methods on the same replicate draws.

    Returns {method: (losses, target)} for a mean-zero Gaussian population;
    a failed replicate is recorded as None.  The pivot estimator is scored
    against the Schur pivot diagonal of sigma, its own target; every other
    method against sigma itself.  Targets are validated and factored once,
    not per replicate, and every estimator runs uncentered.

    Each method makes its own pass over the replicates, and replicate r of
    every pass is drawn from ``replicate_rng(seed, r)``, so all methods see
    the same data.  Every method is scored by its STACKED_ESTIMATORS kernel
    a chunk at a time, and its losses are the same bits as the per-replicate
    estimator's.
    """
    if isinstance(methods, str):
        raise TypeError(f"methods must be a sequence of tags, got the string {methods!r}")
    methods = tuple(methods)
    for method in methods:
        if method not in STACKED_ESTIMATORS:
            raise ValueError(
                f"unknown method {method!r}, expected one of {tuple(STACKED_ESTIMATORS)}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"duplicate method tags in {list(methods)}")
    if not methods:
        return {}
    sig = np.asarray(sigma, dtype=float)
    chol_sig = cholesky(sig)
    out = {}
    for method in methods:
        target, t_target = _target(method, sig, chol_sig)
        inv_target = _inverse_factor(t_target)
        estimate = STACKED_ESTIMATORS[method]

        def score_chunk(start: int, x: np.ndarray) -> list:
            est, est_errors = estimate(scatter_stack(x), n)
            t_phi, errors = cholesky_stack(est)
            losses = _stein_losses(t_phi, t_target, inv_target)
            return [None if e1 is not None or e2 is not None else float(loss)
                    for loss, e1, e2 in zip(losses, est_errors, errors)]

        out[method] = (run_chunks(score_chunk, seed, chol_sig, n, replicates, threads), target)
    return out


def monte_carlo_risks(methods, sigma, n: int, replicates: int, seed: int,
                      threads: int = 1) -> dict:
    """{method: RiskEstimate}, every method scored on the same replicate draws.

    Mean and standard error of the Stein loss over Wishart-data replicates,
    deterministic given ``seed`` regardless of ``threads``.  Individual
    replicate failures (singular shrinkage and the like) are tolerated up to
    1 percent of the run; beyond that the whole call aborts, since a mean
    over a heavily censored sample is not the risk.
    """
    if replicates < 100:
        raise ValueError(f"need at least 100 replicates for reporting, got {replicates}")
    p = np.asarray(sigma).shape[0]
    if n < p:
        raise ValueError(f"sample count {n} below dimension {p}")
    out = {}
    for method, (losses, _) in replicate_losses(methods, sigma, n, replicates, seed,
                                              threads=threads).items():
        failures = check_failures(losses, method, n, p)
        agg = aggregate(losses)
        out[method] = RiskEstimate(
            mean_loss=agg["mean"],
            std_error=agg["se"],
            replicates=agg["count"],
            method=method,
            n=n,
            p=p,
            seed=seed,
            failures=int(failures),
        )
    return out


def monte_carlo_risk(method: str, sigma, n: int, replicates: int, seed: int,
                     threads: int = 1) -> RiskEstimate:
    """Mean and standard error of one method's Stein loss; see ``monte_carlo_risks``."""
    return monte_carlo_risks((method,), sigma, n, replicates, seed, threads)[method]
