"""One-sample mean tests and their power under local alternatives.

Three statistics share the form n xbar' M^-1 xbar and differ in M: the
sample covariance (classical test), the spectrally shrunk estimate
(decomposite test), or the true covariance (oracle, for calibration).
P-values always use the chi-square limit with p degrees of freedom; no
finite-sample F calibration is attempted.

Each statistic is written once, as a kernel over a (k, n, p) stack of
samples that returns the k statistics and each one's refusal: the
CovshrinkError that sample earns, or None.  The public tests are the k = 1
case through ``mean_test``, which raises the refusal and adds the p-value.
``MEAN_TESTS`` maps each name to its kernel, which ``power_simulation``
hands a chunk of replicates at a time.  A slice whose mean or statistic
overflows is refused, so the kernels keep numpy's overflow and
invalid-value warnings quiet.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import check_failures, run_chunks
from .errors import NotPositiveDefiniteError, NumericError
from .estimators import as_data_matrix, centered_stack, shrunk_spectra
from .matrix_core import (cholesky, cholesky_stack, eigh_stack, first_refusals, unit_exponents,
                          unrefused)

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


def _mahalanobis_sq(t: np.ndarray, xbar: np.ndarray) -> np.ndarray:
    """xbar_j' (t_j t_j')^-1 xbar_j for (k, p, p) lower factors and (k, p) vectors."""
    w = np.linalg.solve(t, xbar[..., None])
    return (w.transpose(0, 2, 1) @ w)[:, 0, 0]


def _centered(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Sample means (k, p), centered covariances (k, p, p) and ``centered_stack``'s refusals."""
    n, p = x.shape[1:]
    if n < p + 1:
        raise ValueError(f"need n >= p + 1 for an invertible centered covariance, got n={n}, p={p}")
    xbar, scatters, errors = centered_stack(x)
    return xbar, scatters / (n - 1), errors


def _refuse_singular(s: np.ndarray, eigenvalues: np.ndarray, errors: list) -> None:
    """Refuse each centered S whose smallest eigenvalue is rounding noise.

    On exactly collinear data rounding can leave the smallest eigenvalue
    slightly positive instead of zero.  Eigenvalues are computed to about
    eps * ||S||, so anything at or below p * eps times the largest diagonal
    entry of S is treated as zero.  Writes the refusal into ``errors`` for
    each matrix not refused already.
    """
    p = s.shape[1]
    floors = p * np.finfo(float).eps * np.diagonal(s, axis1=1, axis2=2).max(axis=1)
    smallest = eigenvalues.min(axis=1)
    for j in np.flatnonzero(smallest <= floors).tolist():
        if errors[j] is None:
            errors[j] = NotPositiveDefiniteError(
                f"centered covariance is singular: smallest eigenvalue {smallest[j]:.3e} "
                f"is at or below {floors[j]:.3e}", index=p)


def chisq_pvalue(statistic: float, p: int) -> float:
    """Upper-tail probability of central chi-square with p dof.

    This is the regularized upper incomplete gamma Q(p/2, y) at
    y = statistic / 2, which for integer p is a finite sum of positive terms
    (DLMF 8.4): e^-y sum_{k < p/2} y^k / k! for even p, and
    erfc(sqrt y) + e^-y sum_{k=1}^{(p-1)/2} y^(k-1/2) / Gamma(k + 1/2) for
    odd p.  No term cancels another, so the sum keeps its relative accuracy
    deep in the tail: each term is exact to about eps * y.
    """
    if statistic < 0.0:
        raise ValueError(f"statistic must be nonnegative, got {statistic}")
    if p < 1 or p != int(p):
        raise ValueError(f"degrees of freedom must be a positive integer, got {p}")
    if statistic == 0.0:
        return 1.0
    y = statistic / 2.0
    if y == math.inf:
        return 0.0
    log_y = math.log(y)
    half = int(p) // 2
    if p % 2:
        terms = [math.erfc(math.sqrt(y))]
        terms += [math.exp(-y + (k - 0.5) * log_y - math.lgamma(k + 0.5))
                  for k in range(1, half + 1)]
    else:
        terms = [math.exp(-y + k * log_y - math.lgamma(k + 1)) for k in range(half)]
    # the rounded terms can sum past 1 when y is tiny
    return min(math.fsum(terms), 1.0)


@np.errstate(over="ignore", invalid="ignore")
def _hotelling(x: np.ndarray, t=None) -> tuple[np.ndarray, list]:
    """Kernel of the classical test n xbar' S^-1 xbar over a (k, n, p) stack; t is unused.

    The statistic ignores the scale of each coordinate, so S is judged
    singular on the correlation scale D^-1/2 S D^-1/2, D = diag(S), where a
    column with zero variance gets a zero row: one whose S_ii is zero, as
    ``centered_stack`` makes it for a column whose values are all equal.
    """
    xbar, s, errors = _centered(x)
    diag = np.diagonal(s, axis1=1, axis2=2)
    scale = np.divide(1.0, np.sqrt(diag), out=np.zeros_like(diag), where=diag > 0.0)
    r = s * scale[:, :, None] * scale[:, None, :]
    _refuse_singular(r, np.linalg.eigvalsh(r), errors)
    chol, chol_errors = cholesky_stack(s)
    return x.shape[1] * _mahalanobis_sq(chol, xbar), first_refusals(errors, chol_errors)


@np.errstate(over="ignore", invalid="ignore")
def _decomposite(x: np.ndarray, t=None) -> tuple[np.ndarray, list]:
    """Kernel of the shrinkage test n sum_i (u_i' xbar)^2 / psi_i over a (k, n, p) stack.

    t is unused.  S is judged singular on the scale the shrinker reads, its own.
    """
    n = x.shape[1]
    xbar, s, errors = _centered(x)
    w, v, _ = eigh_stack(s)  # s is finite, so eigh_stack refuses none of it
    _refuse_singular(s, w, errors)
    psi, _ = shrunk_spectra(w, n - 1, errors)
    # squared projections, so the eigenvector signs need no canonical choice
    proj = (v.transpose(0, 2, 1) @ xbar[..., None])[..., 0]
    return n * np.sum(proj * proj / psi, axis=1), errors


@np.errstate(over="ignore", invalid="ignore")
def _oracle(x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, list]:
    """Kernel of the oracle test n xbar' sigma^-1 xbar over a (k, n, p) stack.

    t is sigma's lower Cholesky factor, factored once by the caller.  A
    slice whose statistic is NaN (a sample mean that overflowed) is refused
    with NumericError, since NaN would otherwise read as "not rejected".
    """
    k, n, p = x.shape
    stats = n * _mahalanobis_sq(np.broadcast_to(t, (k, p, p)), x.mean(axis=1))
    errors = [None] * k
    for j in np.flatnonzero(np.isnan(stats)).tolist():
        errors[j] = NumericError("oracle statistic is NaN: the sample mean overflowed")
    return stats, errors


# test name -> its kernel(x, t), t = cholesky(sigma); entry j of the statistics
# is mean_test(name, x[j], t).statistic bit for bit, and its refusal is the
# CovshrinkError that test raises, or None; S, exactly symmetric, is factored unchecked
MEAN_TESTS = {"hotelling": _hotelling, "decomposite": _decomposite, "oracle": _oracle}


def mean_test(name: str, x, t=None) -> TestResult:
    """Test ``name`` on an (n, p) sample, its kernel's k = 1 case; t = cholesky(sigma) or None.

    x is taken times 2**-e, e = ``unit_exponents``: of each column for
    hotelling, which ignores each column's scale, and of all of x for
    decomposite, which ignores x's.  The oracle's sigma is on x's scale, so
    its x is not scaled.
    """
    a = as_data_matrix(x)
    n, p = a.shape
    if name != "oracle":
        a = np.ldexp(a, -unit_exponents(a, axis=0 if name == "hotelling" else None))
    stat = float(unrefused(*MEAN_TESTS[name](a[None], t))[0])
    return TestResult(stat, p, chisq_pvalue(stat, p), name, n, p)


def hotelling_t2(x) -> TestResult:
    """Classical one-sample statistic n xbar' S^-1 xbar with the centered S."""
    return mean_test("hotelling", x)


def decomposite_t2(x) -> TestResult:
    """Shrinkage test n sum_i (u_i' xbar)^2 / psi_i in the spectral basis of S.

    S is the centered covariance; its effective sample count n - 1 feeds the
    eigenvalue shrinker.  Equals the classical statistic whenever psi = l
    (p = 1, or n >> p).
    """
    return mean_test("decomposite", x)


def oracle_t2(x, sigma) -> TestResult:
    """Reference statistic n xbar' sigma^-1 xbar with the true covariance.

    Exactly chi-square with p dof under the null, for any n.
    """
    return mean_test("oracle", x, cholesky(sigma))


@dataclass(frozen=True)
class PowerReport:
    """Empirical rejection rate of a mean test at the chi-square critical value.

    ``failure_classes`` counts the failed replicates by the class name of
    their refusal.
    """

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
    failure_classes: dict = field(default_factory=dict)


def power_simulation(n: int, p: int, sigma, delta, alpha: float = 0.05,
                     replicates: int = 1000, seed: int = 0,
                     method: str = "oracle", rate: str = "hdim",
                     threads: int | None = None) -> PowerReport:
    """Monte Carlo rejection rate against the chi-square critical value.

    The critical value is the least double c with chisq_pvalue(c, p) <=
    alpha, found by doubling a bracket and then bisecting it down to two
    adjacent doubles: at most about 120 evaluations of the sum.  For alpha
    up to 1/2 it is exact to about 1e-14 relative; above that, 1 - alpha is
    resolved only to the sum's absolute rounding near 1.  Sigma is factored
    once, and the factor both draws the replicates and feeds the kernel.
    Replicate r is ``gaussian_rows(replicate_rng(seed, r), cholesky(sigma),
    n) + mu``: the loop draws N(0, sigma) rows, and each chunk is shifted by
    mu in place before its kernel scores it.

    Parameters
    ----------
    rate : {"hdim", "classical"}
        Scaling of the mean shift.  "hdim" uses mu = n^(-1/2) p^(1/4) delta,
        the growing-dimension scaling; under it the oracle statistic is
        noncentral chi-square with noncentrality sqrt(p) delta' sigma^-1
        delta.  "classical" drops the p^(1/4) factor, giving noncentrality
        exactly delta' sigma^-1 delta.
    method : {"hotelling", "decomposite", "oracle"}
        A key of MEAN_TESTS, whose kernel scores the replicates a chunk at
        a time.

    threads : int or None
        Thread count of the replicate loop; None, the default, chooses it
        from the size of one replicate's draw (``_rng.replicate_threads``).
        No result depends on it.

    Failed replicates (singular shrinkage) are recorded and counted by
    refusal class; more than 1 percent failures aborts, as in the risk
    runner.
    """
    if method not in MEAN_TESTS:
        raise ValueError(f"unknown method {method!r}, expected one of {tuple(MEAN_TESTS)}")
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")
    if rate not in RATES:
        raise ValueError(f"unknown rate {rate!r}, expected one of {RATES}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    d = np.asarray(delta, dtype=float)
    if d.shape != (p,):
        raise ValueError(f"delta must have length p={p}, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("delta must be finite")
    chol_sig = cholesky(sigma)
    if chol_sig.shape != (p, p):
        raise ValueError(f"sigma must be {p} x {p} for p={p}, got shape {chol_sig.shape}")
    scale = p ** 0.25 if rate == "hdim" else 1.0
    mu = d * scale / math.sqrt(n)
    # chisq_pvalue(lo) > alpha >= chisq_pvalue(crit) throughout
    lo, crit = 0.0, float(p)
    while chisq_pvalue(crit, p) > alpha:
        lo, crit = crit, 2.0 * crit
    while math.nextafter(lo, math.inf) < crit:
        mid = 0.5 * (lo + crit)
        if chisq_pvalue(mid, p) > alpha:
            lo = mid
        else:
            crit = mid
    kernel = MEAN_TESTS[method]

    def score_chunk(start: int, x: np.ndarray) -> tuple[list, list]:
        x += mu
        stats, errors = kernel(x, chol_sig)
        return [stat > crit for stat in stats.tolist()], errors

    outcomes, refusals = run_chunks(score_chunk, seed, chol_sig, n, replicates, threads)
    failures = check_failures(refusals, replicates, method, n, p)
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
        failure_classes=refusals,
    )
