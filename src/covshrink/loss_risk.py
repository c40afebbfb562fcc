"""Stein loss, closed-form minimum risks, and Monte Carlo risk estimation.

The three equivariant classes admit exact minimum risks built from
E[log chi2_k]; the Monte Carlo runner exists to confirm an implementation
against those closed forms and to measure estimators that lack one.
"""

from dataclasses import dataclass, field

import numpy as np

from ._rng import aggregate, check_failures, run_chunks
from .estimators import CLASS_DIVISORS, STACKED_ESTIMATORS, _target, scatter_stack
from .matrix_core import cholesky, first_refusals

RISK_KINDS = tuple(CLASS_DIVISORS)


def stein_loss(phi, sigma) -> float:
    """Entropy loss tr(sigma^-1 phi) - logdet(sigma^-1 phi) - p.

    Nonnegative, zero exactly at phi = sigma.  Computed from the two
    Cholesky factors and the inverse of sigma's; determinants never
    materialize, so p in the hundreds is safe.
    """
    t_phi, t_sig = cholesky(phi), cholesky(sigma)
    if t_phi.shape != t_sig.shape:
        raise ValueError(f"dimension mismatch: {t_phi.shape} vs {t_sig.shape}")
    logdet = 2.0 * np.sum(np.log(np.diag(t_phi)))
    return float(_stein_losses(t_phi[None], logdet, t_sig, _inverse_factor(t_sig))[0])


def _inverse_factor(t_sig: np.ndarray) -> np.ndarray:
    """t_sig^-1 for a lower Cholesky factor; lower triangular, as the exact inverse is."""
    return np.tril(np.linalg.inv(t_sig))


def _stein_losses(f: np.ndarray, logdet_phi, t_sig: np.ndarray,
                  inv_sig: np.ndarray) -> np.ndarray:
    """Stein losses of k estimates phi_j = f_j f_j' against one sigma factor.

    f is a (k, p, p) stack of factors, any with f_j f_j' = phi_j, or a
    (k, p) stack of diagonals of diagonal factors, and ``logdet_phi`` each
    log det phi_j.  ``inv_sig`` is ``_inverse_factor(t_sig)``, computed once
    per sigma.  May overwrite f, which keeps the peak memory at one stack of
    factors.
    """
    p = f.shape[1]
    logdet = logdet_phi - 2.0 * np.sum(np.log(np.diag(t_sig)))
    if f.ndim == 2:
        # tr(sigma^-1 diag(f)^2) = sum_i f_i^2 |column i of t_sig^-1|^2: p terms, not p^2.
        # A row sum, not a matrix-vector product, whose rounding would follow k.
        w = np.multiply(f, f, out=f)
        w *= np.sum(inv_sig * inv_sig, axis=0)
        return np.sum(w, axis=1) - logdet - p
    # sigma^-1 phi = (t_sig^-T t_sig^-1)(f f^T); its trace is the squared
    # Frobenius norm of t_sig^-1 f, one matrix product per factor.  A
    # diagonal inverse scales the rows instead: each entry of the product
    # then has exactly one nonzero term, so the scaling is the same bits.
    scale = np.diag(inv_sig)
    if np.count_nonzero(inv_sig) > np.count_nonzero(scale):
        w = inv_sig @ f
    else:
        w = np.multiply(f, scale[:, None], out=f)
    w *= w
    return np.sum(w, axis=(1, 2)) - logdet - p


def _digamma_minus_log(x: np.ndarray) -> np.ndarray:
    """digamma(x) - log(x) for x >= 1/2, elementwise, without forming either term.

    The recurrence digamma(x) = digamma(x + 1) - 1/x (DLMF 5.5.2) lifts x
    by m steps to y = x + m >= 16, where the asymptotic series (DLMF 5.11.2)
    digamma(y) = log y - 1/(2y) - sum_k B_2k / (2k y^2k), taken through
    y^-10, is accurate to rounding: the first omitted term is below 1e-16.
    The lift's log(y) - log(x) is log1p(m / x), zero for x >= 16.  So at
    large x the result, about -1/(2x), keeps its relative precision, which
    subtracting log(x) from digamma(x) would lose to cancellation.
    """
    # m steps of the recurrence, their terms summed smallest first
    m = np.maximum(np.ceil(16.0 - x), 0.0)
    lifted = np.zeros_like(x)
    for j in range(int(m.max(initial=0.0)) - 1, -1, -1):
        lifted -= np.where(j < m, 1.0 / (x + j), 0.0)
    y = x + m
    r = 1.0 / (y * y)
    series = r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r / 132))))
    return np.log1p(m / x) - 0.5 / y - series + lifted


def elog_chisq(k) -> float:
    """E[log chi2_k] = log 2 + digamma(k / 2) = log k + (digamma(k/2) - log(k/2)) for k >= 1.

    Elementwise; the bracket is ``_digamma_minus_log``.
    """
    kv = np.asarray(k, dtype=float)
    if np.any(kv < 1):
        raise ValueError(f"degrees of freedom must be >= 1, got {k}")
    out = np.log(kv) + _digamma_minus_log(kv / 2.0)
    return float(out) if np.ndim(k) == 0 else out


def min_risk(kind: str, n: int, p: int) -> float:
    """Minimum Stein-loss risk of the best estimator in each equivariance class.

    kind "ml":    sum_i log n - E[log chi2_{n-i+1}]        (scaled scatter)
    kind "stein": sum_i log(n+p-2i+1) - E[log chi2_{n-i+1}] (triangular class)
    kind "dp":    sum_i log(n-i+1) - E[log chi2_{n-i+1}]    (pivot class)

    Both terms are near log n and differ by about p/n, so each summand is
    taken as log1p((d_i - k_i) / k_i) - (digamma(k_i/2) - log(k_i/2)),
    k_i = n - i + 1: two nonnegative parts, neither of which cancels.
    """
    if not 1 <= p <= n:
        raise ValueError(f"need n >= p >= 1, got n={n}, p={p}")
    if kind not in CLASS_DIVISORS:
        raise ValueError(f"unknown risk kind {kind!r}, expected one of {RISK_KINDS}")
    k = n - np.arange(1, p + 1) + 1
    d = CLASS_DIVISORS[kind](n, p)
    return float(np.sum(np.log1p((d - k) / k) - _digamma_minus_log(k / 2.0)))


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo mean Stein loss with its standard error.

    ``failure_classes`` counts the failed replicates by the class name of
    their refusal.
    """

    mean_loss: float
    std_error: float
    replicates: int
    method: str
    n: int
    p: int
    seed: int
    failures: int = 0
    failure_classes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("risk estimates need at least 2 completed replicates")
        if self.std_error < 0.0:
            raise ValueError("standard error cannot be negative")


def replicate_losses(methods, sigma, n: int, replicates: int, seed: int,
                     threads: int | None = None) -> dict:
    """Per-replicate Stein losses of several methods on the same replicate draws.

    Returns {method: (losses, target, refusals)} for a mean-zero Gaussian
    population; a failed replicate is recorded as None, and ``refusals``
    counts the failures by the class name of their refusal.  The pivot
    estimator is scored against the Schur pivot diagonal of sigma, its own
    target; every other method against sigma itself.  Targets are validated
    and factored once, not per replicate, and every estimator runs uncentered.

    Each method makes its own pass over the replicates, and replicate r of
    every pass is drawn from ``replicate_rng(seed, r)``, so all methods see
    the same data.  Every method is scored by its STACKED_ESTIMATORS kernel
    a chunk at a time, from the factor F (F F' = phi) and log det phi the
    kernel already holds: T / sqrt(n) for ``sample``, T diag(d^-1/2) for
    ``stein_triangular`` and diag(t_ii / sqrt(d_i)) for ``dp_equivariant``,
    T the scatter's Cholesky factor, and U diag(sqrt(psi)) for ``tsai``.  No
    estimate is formed or factored again, so a loss differs from
    ``stein_loss`` of the per-replicate estimate by rounding alone, within
    4 kappa(L) eps (|loss| + p), L sigma's factor; and an estimate built
    from a valid factor is never refused.  ``threads`` sizes each pass's
    replicate loop; None, the default, chooses it from the size of one
    replicate's draw (``_rng.replicate_threads``), and no loss depends on
    it.
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

        def score_chunk(start: int, x: np.ndarray) -> tuple[list, list]:
            scatters, errors = scatter_stack(x)
            (f, logdet), est_errors = estimate(scatters, n, factored=True)
            losses = _stein_losses(f, logdet, t_target, inv_target)
            return losses.tolist(), first_refusals(errors, est_errors)

        losses, refusals = run_chunks(score_chunk, seed, chol_sig, n, replicates, threads)
        out[method] = (losses, target, refusals)
    return out


def monte_carlo_risks(methods, sigma, n: int, replicates: int, seed: int,
                      threads: int | None = None) -> dict:
    """{method: RiskEstimate}, every method scored on the same replicate draws.

    Mean and standard error of the Stein loss over Wishart-data replicates,
    deterministic given ``seed`` regardless of ``threads`` (None, the
    default, chooses the count as ``replicate_losses`` does).  Individual
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
    for method, (losses, _, refusals) in replicate_losses(methods, sigma, n, replicates, seed,
                                                        threads=threads).items():
        failures = check_failures(refusals, replicates, method, n, p)
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
            failure_classes=refusals,
        )
    return out


def monte_carlo_risk(method: str, sigma, n: int, replicates: int, seed: int,
                     threads: int | None = None) -> RiskEstimate:
    """Mean and standard error of one method's Stein loss; see ``monte_carlo_risks``."""
    return monte_carlo_risks((method,), sigma, n, replicates, seed, threads)[method]
