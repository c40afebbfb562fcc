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
score every estimator a chunk of replicates at a time, and ``centered_stack``
centers a stack once for the estimators and the mean tests alike.
``FACTOR_ESTIMATORS`` holds each estimator's kernel over a stack of the
scatters' Cholesky factors instead, for the risk loop, which draws those
factors: in place of each estimate it returns a factor F with F F' the
estimate in exact arithmetic (the pivot kernel's diagonal F as its (k, p)
diagonal), and the estimate's log determinant, taken from the factorization
it already holds: all a Stein loss reads, with no estimate formed and
factored again.
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
from .matrix_core import (TIE_GAP, cholesky_stack, eigh_stack, finite_slices, first_refusals,
                          square_matrix, symmetric_matrix, symmetric_part, tie_gap,
                          unit_exponents, unrefused)

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


def scatter_matrix(x, centered: bool = False) -> np.ndarray:
    """The (p, p) sum of outer products of the rows, after mean subtraction when centered.

    Finite data whose mean or cross products overflow is refused with
    NumericError, and numpy prints no warning for it.
    """
    a = as_data_matrix(x)[None]
    return unrefused(*(centered_stack(a)[1:] if centered else scatter_stack(a)))[0]


def scatter_stack(x: np.ndarray) -> tuple[np.ndarray, list]:
    """Uncentered scatters x_j' x_j of a (k, n, p) stack of samples, and each one's refusal.

    A scatter that is not finite, because the data's cross products exceed
    the float64 range, is refused with NumericError and replaced by the
    identity, a placeholder.  NumPy computes x' x as a symmetric rank-k
    update and copies one triangle to the other, so each scatter is exactly
    symmetric.
    """
    if x.shape[1] < 2:
        raise ValueError(f"need at least 2 observations, got {x.shape[1]}")
    return _cross_products(x)


def _cross_products(x: np.ndarray) -> tuple[np.ndarray, list]:
    """x_j' x_j of each slice of a (k, m, p) stack, refused as in ``scatter_stack``."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = x.transpose(0, 2, 1) @ x
    return finite_slices(a, NumericError, "the scatter matrix overflowed: the data's cross "
                                          "products exceed the float64 range")


def centered_stack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Sample means (k, p) and centered scatters (k, p, p) of a (k, n, p) stack, and each refusal.

    A slice whose mean, centered data or scatter overflowed has a scatter
    that is not finite, which ``scatter_stack`` refuses.  A column whose
    entries are all equal, with a finite mean, gets its first entry as its
    mean and an exactly zero scatter row and column: its computed mean can
    be off by ulps, and the scatter of that rounding is noise.  Only columns
    whose scatter diagonal is at most n**3 spacing(|mean|)**2, the most such
    noise can reach, are checked.
    """
    n = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        xbar = x.mean(axis=1)
        a, errors = scatter_stack(x - xbar[:, None, :])
        diag = np.diagonal(a, axis1=1, axis2=2)
        k, j = np.nonzero(diag <= n**3 * np.spacing(xbar) ** 2)
    if len(k):
        first = x[k, 0, j]
        equal = (x[k, :, j] == first[:, None]).all(axis=1) & np.isfinite(xbar[k, j])
        k, j = k[equal], j[equal]
        xbar[k, j] = first[equal]
        a[k, j, :] = 0.0
        a[k, :, j] = 0.0
    return xbar, a, errors


@dataclass(frozen=True)
class ShrinkageTable:
    """Paired sample and shrunk eigenvalues with the shrinkage denominators."""

    sample_eigenvalues: np.ndarray
    shrunk_eigenvalues: np.ndarray
    denominators: np.ndarray


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


def _factors(a: np.ndarray, dof: int) -> tuple[np.ndarray, list]:
    """Cholesky factors of a (k, p, p) stack of scatters with dof >= p, and each refusal."""
    if dof < a.shape[1]:
        raise ValueError(f"need degrees of freedom >= dimension, got {dof} < {a.shape[1]}")
    return cholesky_stack(a)


def _sample(a: np.ndarray, dof: int) -> tuple:
    """Kernel of the sample estimator: each scatter over dof, left exactly symmetric; never refuses."""
    return a / dof, [None] * len(a)


def _triangular(a: np.ndarray, dof: int) -> tuple:
    """Kernel of the triangular estimator T diag(1/d) T', T the Cholesky factor."""
    t, errors = _factors(a, dof)
    d = CLASS_DIVISORS["stein"](dof, a.shape[1])
    return symmetric_part((t / d) @ t.swapaxes(1, 2)), errors


def _pivot(a: np.ndarray, dof: int) -> tuple:
    """Kernel of the pivot estimator diag(pivot_i / d_i), the pivots t_ii^2."""
    t, errors = _factors(a, dof)
    d = CLASS_DIVISORS["dp"](dof, a.shape[1])
    out = np.zeros(t.shape)
    idx = np.arange(a.shape[1])
    out[:, idx, idx] = np.diagonal(t, axis1=1, axis2=2) ** 2 / d
    return out, errors


def _factor_with_log_det(f: np.ndarray) -> tuple:
    """Lower factors F (k, p, p) and log det F F', summed from their diagonals."""
    return f, 2.0 * np.sum(np.log(np.diagonal(f, axis1=1, axis2=2)), axis=1)


def _sample_from_factor(t: np.ndarray, dof: int) -> tuple:
    """The sample estimator's factor T / sqrt(dof), T the scatter's Cholesky factor."""
    return _factor_with_log_det(t / np.sqrt(dof)), [None] * len(t)


def _triangular_from_factor(t: np.ndarray, dof: int) -> tuple:
    """The triangular estimator's factor T diag(d^-1/2)."""
    d = CLASS_DIVISORS["stein"](dof, t.shape[1])
    return _factor_with_log_det(t / np.sqrt(d)), [None] * len(t)


def _pivot_from_factor(t: np.ndarray, dof: int) -> tuple:
    """The pivot estimator's factor diag(t_ii / sqrt(d_i)), as that (k, p) diagonal."""
    f = np.diagonal(t, axis1=1, axis2=2) / np.sqrt(CLASS_DIVISORS["dp"](dof, t.shape[1]))
    return (f, 2.0 * np.sum(np.log(f), axis=1)), [None] * len(t)


def _tsai_from_factor(t: np.ndarray, dof: int) -> tuple:
    """The shrinker's factor U diag(sqrt(psi)) of S = T T' / dof, formed exactly symmetric.

    A scatter T T' that overflows is refused as ``scatter_stack`` refuses it.
    """
    a, errors = _cross_products(t.swapaxes(1, 2))
    value, est_errors = _tsai(a / dof, dof, factored=True)[:2]
    return value, first_refusals(errors, est_errors)


def _target(method: str, chol_sig: np.ndarray) -> np.ndarray:
    """Cholesky factor of estimator ``method``'s target, for sigma with factor chol_sig:
    chol_sig for every kernel but ``_pivot``, whose target is the Schur pivot diagonal
    diag(t^2), t the diagonal of chol_sig; its factor is diag(t) bit for bit, as
    sqrt(fl(t^2)) = t."""
    if STACKED_ESTIMATORS[method] is not _pivot:
        return chol_sig
    return np.diag(np.diag(chol_sig))


def _declined(l: np.ndarray, d: np.ndarray, n: int) -> np.ndarray:
    """Which descending spectra l (k, p), with denominators d, the shrinker's guard turns down.

    Those with a non-positive l_p, a tie (``tie_gap`` below TIE_GAP), or
    some d_i not finite or at or below DENOM_GUARD * n; all of them when
    n < p, a usage error.
    """
    bad = (l[:, -1] <= 0.0) | (tie_gap(l) < TIE_GAP) | (n < l.shape[1])
    return bad | (~np.isfinite(d) | (d <= DENOM_GUARD * n)).any(axis=1)


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


def _tsai(s: np.ndarray, n: int, factored: bool = False) -> tuple:
    """Kernel of the shrinker U diag(psi) U' over a (k, p, p) stack of covariances.

    Returns the estimates, each refusal, and the spectra w, psi and d.
    Factored, F = U diag(sqrt(psi)) and log det = sum log psi; a spectrum
    the guard accepts has every psi positive.
    """
    w, u, errors = eigh_stack(s)
    psi, d = shrunk_spectra(w, n, errors)
    if factored:
        value = (u * np.sqrt(psi)[:, None, :], np.sum(np.log(psi), axis=1))
    else:
        value = symmetric_part((u * psi[:, None, :]) @ u.swapaxes(1, 2))
    return value, errors, w, psi, d


def _scaled_back(e, est: np.ndarray, *spectra: np.ndarray) -> list:
    """The estimate and its spectra times 2**e; NumericError when they leave the float64 range.

    They have left it where an entry overflows, or where a diagonal entry of
    the estimate that was not 0 rounds to 0.
    """
    with np.errstate(over="ignore"):
        out = [np.ldexp(a, e) for a in (est, *spectra)]
    if not all(np.isfinite(a).all() for a in out):
        raise NumericError("the estimate overflowed: its entries exceed the float64 range")
    if ((np.diagonal(out[0]) == 0) & (np.diagonal(est) != 0)).any():
        raise NumericError("the estimate underflowed: its entries are below the float64 range")
    return out


def _from_data(method: str, x, centered: bool, divisors: str | None = None) -> CovarianceEstimate:
    """Estimator ``method`` on an (n, p) sample, the k = 1 case of its STACKED_ESTIMATORS kernel.

    Each column j is taken times 2**-e_j, e = ``unit_exponents(x, axis=0)``,
    and the estimate times 2**(e_i + e_j), which every kernel allows.
    ``divisors`` names the CLASS_DIVISORS entry the report lists; the
    degrees of freedom when None.
    """
    a = as_data_matrix(x)
    n, p = a.shape
    e = unit_exponents(a, axis=0)
    dof = n - 1 if centered else n
    kernel = STACKED_ESTIMATORS[method]
    est = unrefused(*kernel(scatter_matrix(np.ldexp(a, -e), centered)[None], dof))
    return CovarianceEstimate(
        matrix=_scaled_back(e[:, None] + e, est[0])[0], method=method, n=n, p=p,
        divisor=dof if divisors is None else CLASS_DIVISORS[divisors](dof, p).tolist(),
        target="sigma_star" if kernel is _pivot else "sigma")


def sample_covariance(x, centered: bool = True) -> CovarianceEstimate:
    """Sample covariance of an (n, p) data matrix: its scatter over the degrees of freedom.

    centered subtracts the sample mean and divides by n - 1, the unbiased
    estimator; uncentered, S = (1/n) sum x_i x_i', the mean-zero maximum
    likelihood estimator.

    Never fails on finite input whose S is finite; a rank-deficient S is
    left for consumers that actually need to invert it.
    """
    return _from_data("sample", x, centered)


def stein_triangular(x, centered: bool = True) -> CovarianceEstimate:
    """Triangular-group equivariant estimator T diag(1/d) T' with d_i = m + p - 2i + 1.

    T is the Cholesky factor of the data's scatter and m its degrees of
    freedom.
    """
    return _from_data("stein_triangular", x, centered, "stein")


def dp_equivariant(x, centered: bool = True) -> CovarianceEstimate:
    """Diagonal-group equivariant estimator diag(pivot_i / (m - i + 1)).

    The pivots are those of the data's scatter, m its degrees of freedom.
    Estimates the Schur pivot diagonal of sigma (the target in the
    successively transformed coordinates), not sigma itself.
    """
    return _from_data("dp_equivariant", x, centered, "dp")


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a tie divides by zero
def shrinkage_terms(l, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw shrinkage arithmetic without the positivity guard, along the last axis of l.

    Returns (psi, d) with d_i = n - p + 1 - l_i * sum_{j != i} 1/(l_j - l_i)
    and psi_i = n l_i / d_i.  Denominators can be arbitrarily small or
    negative for clustered eigenvalues, not finite for tied or tiny ones; use
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
        When two neighbouring eigenvalues are within 1e-12 of the largest.
    NumericError
        When some denominator is not finite: the gaps' reciprocals overflow.
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
    if gap < 0.0:
        raise ValueError("eigenvalues must be in descending order")
    if gap < TIE_GAP:
        raise EigenvalueTieError(f"minimum relative eigenvalue gap {gap:.3e} below {TIE_GAP:.0e}")
    psi, d = shrinkage_terms(lv, n)
    if not np.isfinite(d).all():
        raise NumericError("the shrinkage denominators are not finite: the reciprocals of the "
                           "eigenvalue gaps overflow")
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
        centered one); required when ``s`` is a bare matrix or records one
        divisor per coordinate, as stein_triangular and dp_equivariant do.

    S is taken times 2**-e, e = ``unit_exponents(S)``, and the estimate and
    spectra times 2**e; one beyond the float64 range is refused with
    NumericError.
    """
    n_obs = n
    if isinstance(s, CovarianceEstimate):
        if n is None and np.ndim(s.divisor):
            raise ValueError(f"a {s.method} estimate has one divisor per coordinate; pass n=")
        s, n_obs, n = s.matrix, s.n, int(s.divisor) if n is None else n
    elif n is None:
        raise ValueError("n is required when s is a bare matrix")
    m = square_matrix(s)
    e = unit_exponents(m)
    est, errors, w, psi, d = _tsai(symmetric_matrix(np.ldexp(m, -e))[None], n)
    est, w, psi = _scaled_back(e, unrefused(est, errors)[0], w[0], psi[0])
    return CovarianceEstimate(matrix=est, method="tsai", n=int(n_obs), p=m.shape[0],
                              divisor=int(n), shrinkage=ShrinkageTable(w, psi, d[0]))


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
# bit, and its refusal is the CovshrinkError that estimator raises, or None;
# where the scatter overflows, the estimator alone scales it into range.  The
# scatters are trusted to be exactly symmetric, and so are the estimates
STACKED_ESTIMATORS = {
    "sample": _sample,
    "stein_triangular": _triangular,
    "dp_equivariant": _pivot,
    "tsai": lambda a, dof: _tsai(_sample(a, dof)[0], dof)[:2],
}

# method tag -> its kernel(t, dof) over a (k, p, p) stack t of the scatters'
# lower Cholesky factors, with positive diagonals: ((F, log det F F'),
# refusals), F F' the estimate in exact arithmetic, F a (k, p, p) stack, or
# for the pivot estimator the (k, p) diagonals.  Only the shrinker forms the
# scatter, and only it refuses
FACTOR_ESTIMATORS = {
    "sample": _sample_from_factor,
    "stein_triangular": _triangular_from_factor,
    "dp_equivariant": _pivot_from_factor,
    "tsai": _tsai_from_factor,
}
