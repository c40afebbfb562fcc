"""The four covariance estimators.

sample_covariance     plain S under either divisor convention
stein_triangular      T D^-1 T' from the Cholesky factor of the scatter
dp_equivariant        pivot diagonal over n-i+1, estimates the pivot target
tsai_estimator        rotation-equivariant eigenvalue shrinkage U psi(L) U'

The first three start from the data's scatter x'x and take (x, centered):
centered subtracts the sample mean and counts n - 1 degrees of freedom,
otherwise the scatter has n.  The shrinker starts from a covariance S.

The eigenvalue shrinker is the numerical heart of the package:

    psi_i = n l_i / d_i,   d_i = n - p + 1 - l_i * sum_{j != i} 1/(l_j - l_i)

with l descending.  The gap sum makes d_i wildly unstable when eigenvalues
nearly collide, so denominators at or below the guard are a hard error and
``shrinkage_terms`` exposes the raw unguarded arithmetic for diagnostics.

Each estimator's arithmetic is written once, as a kernel over a (k, p, p)
stack of scatters and their degrees of freedom.  A kernel returns the k
estimates and each one's refusal: the CovshrinkError that estimate earns,
or None.  The public functions are the k = 1 case and raise that refusal;
``STACKED_ESTIMATORS`` hands the kernels to the Monte Carlo loops, which
score every estimator a chunk of replicates at a time.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    CovshrinkError,
    EigenvalueTieError,
    NotPositiveDefiniteError,
    NumericError,
    ShrinkageSingularityError,
)
from .matrix_core import (TIE_GAP, cholesky_stack, eigh_stack, square_matrix, symmetric_part,
                          tie_gap, unrefused)

DENOM_GUARD = 1e-10  # relative to n

# equivariance class -> divisors d_1 .. d_p of its best estimator from a
# scatter with m degrees of freedom; integers, so reports list them exactly
CLASS_DIVISORS = {
    "ml": lambda m, p: np.full(p, m),
    "stein": lambda m, p: m + p - 2 * np.arange(1, p + 1) + 1,
    "dp": lambda m, p: m - np.arange(1, p + 1) + 1,
}


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
    """Sum of outer products of the rows, optionally after mean subtraction.

    Finite data whose mean or cross products overflow is refused with
    NumericError, and numpy prints no warning for it.
    """
    a = as_data_matrix(x)
    if centered:
        with np.errstate(over="ignore", invalid="ignore"):
            a = a - a.mean(axis=0)
    return ScatterMatrix(matrix=unrefused(*scatter_stack(a[None]))[0], n=a.shape[0],
                         centered=centered)


def scatter_stack(x: np.ndarray) -> tuple[np.ndarray, list]:
    """Uncentered scatters x_j' x_j of a (k, n, p) stack of samples, and each one's refusal.

    A scatter that is not finite, because the data's cross products exceed
    the float64 range, is refused with NumericError and replaced by the
    identity, a placeholder.  ``scatter_matrix`` is the k = 1 case.
    """
    if x.shape[1] < 2:
        raise ValueError(f"need at least 2 observations, got {x.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        a = x.transpose(0, 2, 1) @ x
    bad = ~np.isfinite(a).all(axis=(1, 2))
    a[bad] = np.eye(a.shape[1])
    return a, [NumericError("the scatter matrix overflowed: the data's cross products exceed "
                            "the float64 range") if b else None for b in bad.tolist()]


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


def _require_dof(dof: int, p: int) -> None:
    if dof < p:
        raise ValueError(f"need degrees of freedom >= dimension, got {dof} < {p}")


def _sample(a: np.ndarray, dof: int) -> tuple[np.ndarray, list]:
    """Kernel of the sample estimator: each scatter over dof, symmetrized; never refuses."""
    return symmetric_part(a / dof), [None] * len(a)


def _triangular(a: np.ndarray, dof: int) -> tuple[np.ndarray, list]:
    """Kernel of the triangular estimator T diag(1/d) T', T the Cholesky factor."""
    p = a.shape[1]
    _require_dof(dof, p)
    t, errors = cholesky_stack(a)
    return symmetric_part((t / CLASS_DIVISORS["stein"](dof, p)) @ t.swapaxes(1, 2)), errors


def _pivot(a: np.ndarray, dof: int) -> tuple[np.ndarray, list]:
    """Kernel of the pivot estimator diag(pivot_i / d_i), the pivots t_ii^2."""
    p = a.shape[1]
    _require_dof(dof, p)
    t, errors = cholesky_stack(a)
    est = np.zeros(t.shape)
    idx = np.arange(p)
    est[:, idx, idx] = np.diagonal(t, axis1=1, axis2=2) ** 2 / CLASS_DIVISORS["dp"](dof, p)
    return est, errors


def _declined(l: np.ndarray, d: np.ndarray, n: int) -> np.ndarray:
    """Which descending spectra l (k, p), with denominators d, the shrinker's guard turns down.

    Those with a non-positive l_p, a neighbour gap below TIE_GAP or some d_i
    at or below DENOM_GUARD * n; all of them when n < p, a usage error.
    """
    bad = (l[:, -1] <= 0.0) | (np.diff(l, axis=1) > -TIE_GAP).any(axis=1)
    return bad | (d <= DENOM_GUARD * n).any(axis=1) | (n < l.shape[1])


def shrunk_spectra(w: np.ndarray, n: int, errors: list) -> tuple[np.ndarray, np.ndarray]:
    """psi and the denominators d of each descending spectrum of a (k, p) stack.

    ``errors`` holds each spectrum's refusal so far; each other spectrum the
    guard turns down gets the refusal ``tsai_eigenvalues`` raises for it,
    called for those alone, so its messages stay in one place.  A refused
    spectrum gets psi = 1, a finite placeholder.
    """
    psi, d = shrinkage_terms(w, n)
    for j in np.flatnonzero(_declined(w, d, n) & [e is None for e in errors]).tolist():
        try:
            tsai_eigenvalues(w[j], n)
        except CovshrinkError as exc:
            errors[j] = exc
    psi[[e is not None for e in errors]] = 1.0
    return psi, d


def _tsai(s: np.ndarray, n: int) -> tuple:
    """Kernel of the shrinker U diag(psi) U' over a (k, p, p) stack of covariances.

    Returns the estimates, each refusal, and the spectra w, psi and d.
    """
    w, u, errors = eigh_stack(s)
    psi, d = shrunk_spectra(w, n, errors)
    return symmetric_part((u * psi[:, None, :]) @ u.swapaxes(1, 2)), errors, w, psi, d


def sample_covariance(x, centered: bool = True) -> CovarianceEstimate:
    """Sample covariance of an (n, p) data matrix: its scatter over the degrees of freedom.

    centered subtracts the sample mean and divides by n - 1, the unbiased
    estimator; uncentered, S = (1/n) sum x_i x_i', the mean-zero maximum
    likelihood estimator.

    Never fails on finite input whose scatter is finite; a rank-deficient S
    is left for consumers that actually need to invert it.
    """
    sc = scatter_matrix(x, centered)
    return CovarianceEstimate(matrix=unrefused(*_sample(sc.matrix[None], sc.dof))[0],
                              method="sample", n=sc.n, p=sc.p, divisor=sc.dof)


def stein_triangular(x, centered: bool = True) -> CovarianceEstimate:
    """Triangular-group equivariant estimator T diag(1/d) T' with d_i = m + p - 2i + 1.

    T is the Cholesky factor of the data's scatter and m its degrees of
    freedom.
    """
    sc = scatter_matrix(x, centered)
    return CovarianceEstimate(matrix=unrefused(*_triangular(sc.matrix[None], sc.dof))[0],
                              method="stein_triangular", n=sc.n, p=sc.p,
                              divisor=CLASS_DIVISORS["stein"](sc.dof, sc.p).tolist())


def dp_equivariant(x, centered: bool = True) -> CovarianceEstimate:
    """Diagonal-group equivariant estimator diag(pivot_i / (m - i + 1)).

    The pivots are those of the data's scatter, m its degrees of freedom.
    Estimates the Schur pivot diagonal of sigma (the target in the
    successively transformed coordinates), not sigma itself.
    """
    sc = scatter_matrix(x, centered)
    return CovarianceEstimate(matrix=unrefused(*_pivot(sc.matrix[None], sc.dof))[0],
                              method="dp_equivariant", n=sc.n, p=sc.p,
                              divisor=CLASS_DIVISORS["dp"](sc.dof, sc.p).tolist(),
                              target="sigma_star")


@np.errstate(divide="ignore", invalid="ignore")  # a tie divides by zero
def shrinkage_terms(l, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw shrinkage arithmetic without the positivity guard, along the last axis of l.

    Returns (psi, d) with d_i = n - p + 1 - l_i * sum_{j != i} 1/(l_j - l_i)
    and psi_i = n l_i / d_i.  Denominators can be arbitrarily small or
    negative for clustered eigenvalues, not finite for tied ones; use
    tsai_eigenvalues for the guarded contract, and this to observe the breakdown.
    """
    lv = np.asarray(l, dtype=float)
    p = lv.shape[-1]
    diff = lv[..., None, :] - lv[..., :, None]  # diff[..., i, j] = l_j - l_i
    diff[..., range(p), range(p)] = np.inf
    d = (n - p + 1) - lv * (1.0 / diff).sum(axis=-1)
    return n * lv / d, d


def tsai_eigenvalues(l, n: int) -> ShrinkageTable:
    """Shrink sample eigenvalues toward their population counterparts.

    Parameters
    ----------
    l : array_like
        Descending positive sample eigenvalues, length p <= n.
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
    NotPositiveDefiniteError
        When the smallest eigenvalue l_p is not positive; ``index`` is p.
    ValueError
        When p > n, or l is not descending.
    EigenvalueTieError
        When two neighbouring eigenvalues are equal or within 1e-12.
    ShrinkageSingularityError
        When some denominator is at or below 1e-10 * n.  This signals
        clustered eigenvalues; the shrinkage value would be a negative or
        essentially infinite variance.
    """
    lv = np.asarray(l, dtype=float)
    if lv.ndim != 1 or lv.shape[0] < 1:
        raise ValueError("eigenvalues must form a nonempty vector")
    p = lv.shape[0]
    if lv[-1] <= 0.0:
        raise NotPositiveDefiniteError(f"smallest eigenvalue {lv[-1]:.6e} is not positive",
                                       index=p)
    if n < p:
        raise ValueError(f"sample count {n} below dimension {p}")
    gap = tie_gap(lv)
    if gap is not None:
        if gap < 0.0:
            raise ValueError("eigenvalues must be in descending order")
        raise EigenvalueTieError(f"minimum eigenvalue gap {gap:.3e} below {TIE_GAP:.0e}")
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
    est, errors, w, psi, d = _tsai(square_matrix(matrix)[None], n)
    return CovarianceEstimate(
        matrix=unrefused(est, errors)[0],
        method="tsai",
        n=int(n_obs),
        p=matrix.shape[0],
        divisor=int(n),
        shrinkage=ShrinkageTable(w[0], psi[0], d[0]),
    )


# method tag -> estimator(x, centered) on an (n, p) data matrix; centered
# subtracts the sample mean and counts n - 1 degrees of freedom, else n
ESTIMATORS = {
    "sample": sample_covariance,
    "stein_triangular": stein_triangular,
    "dp_equivariant": dp_equivariant,
    "tsai": lambda x, centered: tsai_estimator(sample_covariance(x, centered)),
}


# method tag -> its kernel(scatters, dof); for a (k, n, p) stack x, slice j of
# kernel(scatter_stack(x)[0], n) is ESTIMATORS[tag](x[j], False).matrix bit for
# bit, and its refusal is the CovshrinkError that estimator raises, or None
STACKED_ESTIMATORS = {
    "sample": _sample,
    "stein_triangular": _triangular,
    "dp_equivariant": _pivot,
    "tsai": lambda a, dof: _tsai(_sample(a, dof)[0], dof)[:2],
}
