"""Symmetric-matrix primitives with fixed ordering and sign conventions.

All downstream shrinkage and risk formulas index eigenvalues in descending
order and assume a deterministic eigenvector sign, so those conventions are
enforced here once and nowhere else.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import (
    AsymmetricInputError,
    DecompositionError,
    NotPositiveDefiniteError,
)

SYM_RTOL = 1e-12
TIE_GAP = 1e-12
SIGN_EPS = 1e-12


def _as_symmetric(m) -> np.ndarray:
    """Validate shape and symmetry, return the symmetrized copy (M + M.T)/2.

    Asymmetry up to SYM_RTOL relative to the largest entry is treated as
    accumulation noise and repaired; anything larger is an error.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise AsymmetricInputError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise AsymmetricInputError("matrix has non-finite entries")
    scale = np.abs(a).max()
    gap = np.abs(a - a.T).max()
    if gap > SYM_RTOL * max(scale, 1.0):
        raise AsymmetricInputError(
            f"asymmetry {gap:.3e} exceeds tolerance {SYM_RTOL:.0e} relative to scale {scale:.3e}"
        )
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues in descending order with sign-canonical eigenvectors.

    ``eigenvalues[i]`` pairs with column ``eigenvectors[:, i]``.  ``tied`` is
    set when some eigenvalue gap is below TIE_GAP; gap-dividing consumers
    (the eigenvalue shrinker) must treat that as a hard error, everything
    else can ignore it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    tied: bool

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.T


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first component of magnitude > SIGN_EPS is >= 0."""
    v = vectors.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.nonzero(np.abs(col) > SIGN_EPS)[0]
        if nz.size and col[nz[0]] < 0:
            v[:, j] = -col
    return v


def spectral_decompose(m) -> SpectralDecomp:
    """Full symmetric eigendecomposition in descending eigenvalue order.

    Parameters
    ----------
    m : (p, p) array_like
        Symmetric matrix.  Positive definiteness is not required here; the
        decomposition is also used to diagnose indefinite inputs.

    Returns
    -------
    SpectralDecomp
        Descending eigenvalues, orthonormal sign-canonical eigenvectors, and
        a tie flag for gaps below 1e-12.
    """
    a = _as_symmetric(m)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"eigenvalue iteration failed for {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc
    # eigh returns ascending; stable reversal keeps solver order within ties
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = _canonical_signs(v[:, order])
    tied = bool(w.size > 1 and np.min(w[:-1] - w[1:]) < TIE_GAP)
    return SpectralDecomp(eigenvalues=w, eigenvectors=v, tied=tied)


def cholesky(m) -> np.ndarray:
    """Lower-triangular T with T @ T.T = m and strictly positive diagonal.

    Raises NotPositiveDefiniteError naming the 1-based failing minor when m
    is not positive definite.
    """
    a = _as_symmetric(m)
    t, info = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"leading minor of order {info} is not positive definite", index=int(info)
        )
    if info < 0:
        raise DecompositionError(f"illegal value in argument {-info} of dpotrf")
    return t


def schur_pivots(m) -> np.ndarray:
    """Pivot sequence of the successive leading-entry Schur reduction.

    Step k records the current (0,0) entry and replaces the matrix by the
    Schur complement of that entry.  For positive definite input the pivots
    are exactly the squared diagonal of the Cholesky factor, which is how
    they are computed; their product is det(m).  Raises
    NotPositiveDefiniteError naming the 1-based first non-positive pivot.
    """
    return np.diag(cholesky(m)) ** 2
