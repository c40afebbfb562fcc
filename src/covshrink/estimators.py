"""The four covariance estimators.

sample_covariance     plain S under either divisor convention
stein_triangular      T D^-1 T' from the Cholesky factor of the scatter
dp_equivariant        pivot diagonal over n-i+1, estimates the pivot target
tsai_estimator        rotation-equivariant eigenvalue shrinkage U psi(L) U'

The eigenvalue shrinker is the numerical heart of the package:

    psi_i = n l_i / d_i,   d_i = n - p + 1 - l_i * sum_{j != i} 1/(l_j - l_i)

with l descending.  The gap sum makes d_i wildly unstable when eigenvalues
nearly collide, so denominators at or below the guard are a hard error and
``shrinkage_terms`` exposes the raw unguarded arithmetic for diagnostics.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenvalueTieError,
    NotPositiveDefiniteError,
    ShrinkageSingularityError,
)
from .matrix_core import (
    TIE_GAP,
    SpectralDecomp,
    cholesky,
    cholesky_stack,
    schur_pivots,
    spectral_decompose,
)

DENOM_GUARD = 1e-10  # relative to n

MODE_UNCENTERED = "uncentered_n"
MODE_CENTERED = "centered_n_minus_1"


def as_data_matrix(x) -> np.ndarray:
    """Validate an (n, p) observation matrix: n >= 2, p >= 1, finite entries."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"data must be a 2-D array of observations, got ndim={a.ndim}")
    n, p = a.shape
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    if p < 1:
        raise ValueError("need at least one variable")
    if not np.isfinite(a).all():
        raise ValueError("data contains non-finite entries")
    return a


@dataclass(frozen=True)
class ScatterMatrix:
    """Cross-product matrix A with its sample count and centering flag.

    ``dof`` is the Wishart degrees of freedom: n for raw cross products,
    n - 1 once the sample mean has been subtracted.
    """

    matrix: np.ndarray
    n: int
    centered: bool

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @property
    def dof(self) -> int:
        return self.n - 1 if self.centered else self.n


def scatter_matrix(x, centered: bool = False) -> ScatterMatrix:
    """Sum of outer products of the rows, optionally after mean subtraction."""
    a = as_data_matrix(x)
    if centered:
        a = a - a.mean(axis=0)
    return ScatterMatrix(matrix=a.T @ a, n=a.shape[0], centered=centered)


@dataclass(frozen=True)
class ShrinkageTable:
    """Paired sample and shrunk eigenvalues with the shrinkage denominators."""

    sample_eigenvalues: np.ndarray
    shrunk_eigenvalues: np.ndarray
    denominators: np.ndarray

    def __post_init__(self):
        p = self.sample_eigenvalues.shape[0]
        if self.shrunk_eigenvalues.shape[0] != p or self.denominators.shape[0] != p:
            raise ValueError("shrinkage table vectors must share one length")

    @property
    def p(self) -> int:
        return self.sample_eigenvalues.shape[0]


@dataclass(frozen=True)
class CovarianceEstimate:
    """A p x p estimate tagged with the producing method.

    ``divisor`` records what the raw scatter was divided by: a scalar for the
    sample estimator, the per-coordinate divisor vector for the triangular
    and pivot estimators, the effective sample count for the shrinker.
    ``target`` is "sigma" except for the pivot estimator, which estimates the
    Schur pivot diagonal of sigma in its own coordinates ("sigma_star").
    """

    matrix: np.ndarray
    method: str
    n: int
    p: int
    divisor: object
    shrinkage: ShrinkageTable | None = None
    target: str = "sigma"


def sample_covariance(x, mode: str = MODE_CENTERED) -> CovarianceEstimate:
    """Sample covariance under the stated divisor convention.

    mode "uncentered_n": S = (1/n) sum x_i x_i', the mean-zero maximum
    likelihood estimator.  mode "centered_n_minus_1": subtract the sample
    mean and divide by n - 1, the unbiased estimator.

    Never fails on finite input; a rank-deficient S is left for consumers
    that actually need to invert it.
    """
    a = as_data_matrix(x)
    n, p = a.shape
    if mode == MODE_UNCENTERED:
        s = a.T @ a / n
        divisor = n
    elif mode == MODE_CENTERED:
        ac = a - a.mean(axis=0)
        s = ac.T @ ac / (n - 1)
        divisor = n - 1
    else:
        raise ValueError(f"unknown mode {mode!r}, expected {MODE_UNCENTERED!r} or {MODE_CENTERED!r}")
    return CovarianceEstimate(matrix=(s + s.T) / 2.0, method="sample", n=n, p=p, divisor=divisor)


def stein_triangular(a: ScatterMatrix) -> CovarianceEstimate:
    """Triangular-group equivariant estimator T diag(1/d) T' with d_i = m + p - 2i + 1.

    T is the Cholesky factor of the scatter and m its degrees of freedom.
    """
    p = a.p
    m = a.dof
    if m < p:
        raise ValueError(f"need degrees of freedom >= dimension, got {m} < {p}")
    t = cholesky(a.matrix)
    i = np.arange(1, p + 1)
    d = m + p - 2 * i + 1
    est = (t / d) @ t.T
    return CovarianceEstimate(
        matrix=(est + est.T) / 2.0,
        method="stein_triangular",
        n=a.n,
        p=p,
        divisor=d.tolist(),
    )


def dp_equivariant(a: ScatterMatrix) -> CovarianceEstimate:
    """Diagonal-group equivariant estimator diag(pivot_i / (m - i + 1)).

    Estimates the Schur pivot diagonal of sigma (the target in the
    successively transformed coordinates), not sigma itself.
    """
    p = a.p
    m = a.dof
    if m < p:
        raise ValueError(f"need degrees of freedom >= dimension, got {m} < {p}")
    pivots = schur_pivots(a.matrix)
    i = np.arange(1, p + 1)
    d = m - i + 1
    return CovarianceEstimate(
        matrix=np.diag(pivots / d),
        method="dp_equivariant",
        n=a.n,
        p=p,
        divisor=d.tolist(),
        target="sigma_star",
    )


def require_distinct_descending(lv: np.ndarray) -> None:
    """Reject eigenvalues that are not strictly descending or that tie within TIE_GAP."""
    if lv.shape[0] < 2:
        return
    gaps = lv[:-1] - lv[1:]
    if np.min(gaps) <= 0.0:
        raise ValueError("eigenvalues must be strictly descending")
    if np.min(gaps) < TIE_GAP:
        raise EigenvalueTieError(f"minimum eigenvalue gap {np.min(gaps):.3e} below {TIE_GAP:.0e}")


def gap_sums(lv: np.ndarray) -> np.ndarray:
    """The vector of gap sums sum_{j != i} 1/(l_j - l_i), one per eigenvalue."""
    diff = lv[None, :] - lv[:, None]  # diff[i, j] = l_j - l_i
    np.fill_diagonal(diff, np.inf)
    return (1.0 / diff).sum(axis=1)


def shrinkage_terms(l, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw shrinkage arithmetic without the positivity guard.

    Returns (psi, d) with d_i = n - p + 1 - l_i * sum_{j != i} 1/(l_j - l_i)
    and psi_i = n l_i / d_i.  Denominators can be arbitrarily small or
    negative for clustered eigenvalues; use tsai_eigenvalues for the guarded
    contract.  Intended for experiments that need to observe the breakdown.
    """
    lv = np.asarray(l, dtype=float)
    p = lv.shape[0]
    d = (n - p + 1) - lv * gap_sums(lv)
    return n * lv / d, d


def tsai_eigenvalues(l, n: int) -> ShrinkageTable:
    """Shrink sample eigenvalues toward their population counterparts.

    Parameters
    ----------
    l : array_like
        Strictly descending positive sample eigenvalues, length p <= n.
    n : int
        Sample count behind those eigenvalues (use the effective count n - 1
        when the covariance was centered).

    Returns
    -------
    ShrinkageTable
        psi_i = n l_i / (n - p + 1 - l_i sum_{j != i} 1/(l_j - l_i)) with the
        denominators retained for inspection.

    Raises
    ------
    EigenvalueTieError
        When two eigenvalues coincide within 1e-12.
    ShrinkageSingularityError
        When some denominator is at or below 1e-10 * n.  This signals
        clustered eigenvalues; the shrinkage value would be a negative or
        essentially infinite variance.
    """
    lv = np.asarray(l, dtype=float)
    if lv.ndim != 1 or lv.shape[0] < 1:
        raise ValueError("eigenvalues must form a nonempty vector")
    p = lv.shape[0]
    if n < p:
        raise ValueError(f"sample count {n} below dimension {p}")
    if lv[-1] <= 0.0:
        raise ValueError("eigenvalues must be positive")
    require_distinct_descending(lv)
    psi, d = shrinkage_terms(lv, n)
    guard = DENOM_GUARD * n
    bad = np.nonzero(d <= guard)[0]
    if bad.size:
        i = int(bad[0]) + 1
        raise ShrinkageSingularityError(
            f"shrinkage denominator {d[bad[0]]:.6e} at index {i} of {p} "
            f"is at or below the guard {guard:.1e}; eigenvalues too clustered",
            index=i,
        )
    return ShrinkageTable(sample_eigenvalues=lv, shrunk_eigenvalues=psi, denominators=d)


def tsai_estimator(s, n: int | None = None) -> CovarianceEstimate:
    """Rotation-equivariant estimator U diag(psi) U' from a sample covariance.

    Parameters
    ----------
    s : CovarianceEstimate or (p, p) array_like
        Sample covariance with distinct positive eigenvalues.
    n : int, optional
        Effective sample count for the shrinkage.  Defaults to the divisor
        recorded on ``s`` (n for the uncentered convention, n - 1 for the
        centered one); required when ``s`` is a bare matrix.
    """
    if isinstance(s, CovarianceEstimate):
        matrix = s.matrix
        n_obs = s.n
        if n is None:
            n = int(s.divisor)
    else:
        matrix = np.asarray(s, dtype=float)
        n_obs = n
        if n is None:
            raise ValueError("n is required when s is a bare matrix")
    dec: SpectralDecomp = spectral_decompose(matrix)
    if dec.eigenvalues[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {dec.eigenvalues[-1]:.6e} is not positive",
            index=dec.dim,
        )
    table = tsai_eigenvalues(dec.eigenvalues, n)
    u = dec.eigenvectors
    est = (u * table.shrunk_eigenvalues) @ u.T
    return CovarianceEstimate(
        matrix=(est + est.T) / 2.0,
        method="tsai",
        n=int(n_obs),
        p=dec.dim,
        divisor=int(n),
        shrinkage=table,
    )


def _mode(centered: bool) -> str:
    return MODE_CENTERED if centered else MODE_UNCENTERED


# method tag -> estimator(x, centered) on an (n, p) data matrix; centered
# subtracts the sample mean and counts n - 1 degrees of freedom, else n
ESTIMATORS = {
    "sample": lambda x, centered: sample_covariance(x, mode=_mode(centered)),
    "stein_triangular": lambda x, centered: stein_triangular(scatter_matrix(x, centered=centered)),
    "dp_equivariant": lambda x, centered: dp_equivariant(scatter_matrix(x, centered=centered)),
    "tsai": lambda x, centered: tsai_estimator(sample_covariance(x, mode=_mode(centered))),
}


class ScatterStack:
    """Uncentered scatters x_j' x_j of a (k, n, p) stack of mean-zero samples.

    Slice j of ``matrix`` is bit for bit ``scatter_matrix(x[j]).matrix``.
    """

    def __init__(self, x: np.ndarray):
        _, self.n, self.p = x.shape
        if self.n < 2:
            raise ValueError(f"need at least 2 observations, got {self.n}")
        if not np.isfinite(x).all():
            raise ValueError("data contains non-finite entries")
        self.matrix = x.transpose(0, 2, 1) @ x

    def require_dof(self) -> None:
        if self.n < self.p:
            raise ValueError(f"need degrees of freedom >= dimension, got {self.n} < {self.p}")


def _stacked_sample(a: ScatterStack) -> tuple[np.ndarray, list]:
    s = a.matrix / a.n
    return (s + s.swapaxes(1, 2)) / 2.0, [None] * len(s)


def _stacked_triangular(a: ScatterStack) -> tuple[np.ndarray, list]:
    a.require_dof()
    t, errors = cholesky_stack(a.matrix)
    d = a.n + a.p - 2 * np.arange(1, a.p + 1) + 1
    est = (t / d) @ t.swapaxes(1, 2)
    return (est + est.swapaxes(1, 2)) / 2.0, errors


def _stacked_pivot(a: ScatterStack) -> tuple[np.ndarray, list]:
    a.require_dof()
    t, errors = cholesky_stack(a.matrix)
    d = a.n - np.arange(1, a.p + 1) + 1
    est = np.zeros(t.shape)
    idx = np.arange(a.p)
    est[:, idx, idx] = np.diagonal(t, axis1=1, axis2=2) ** 2 / d
    return est, errors


# method tag -> (estimate matrices, per-matrix refusals) for a whole
# ScatterStack; slice j equals ESTIMATORS[tag](x[j], False).matrix bit for
# bit, and its refusal is the CovshrinkError that estimator raises, or None.
# Tags missing here are scored one replicate at a time.
STACKED_ESTIMATORS = {
    "sample": _stacked_sample,
    "stein_triangular": _stacked_triangular,
    "dp_equivariant": _stacked_pivot,
}
