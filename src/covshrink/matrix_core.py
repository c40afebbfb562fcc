"""Symmetric-matrix primitives with fixed ordering and sign conventions.

All downstream shrinkage and risk formulas index eigenvalues in descending
order and assume a deterministic eigenvector sign, so those conventions are
enforced here once and nowhere else.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricInputError,
    DecompositionError,
    NotPositiveDefiniteError,
)

SYM_RTOL = 1e-12
TIE_GAP = 1e-12
SIGN_EPS = 1e-12


def _symmetrize(a: np.ndarray) -> tuple[np.ndarray, list]:
    """Symmetrized copies (M + M.T)/2 of a (k, p, p) stack, and each matrix's refusal.

    ``errors[j]`` is the AsymmetricInputError that matrix j earns (non-finite
    entries, or asymmetry above SYM_RTOL relative to its largest entry, which
    is more than accumulation noise), or None.  A refused matrix's copy is the
    identity, a placeholder that keeps stacked arithmetic on the copies finite.
    """
    at = a.swapaxes(1, 2)
    with np.errstate(invalid="ignore"):  # inf - inf in a matrix refused anyway
        finite = np.isfinite(a).all(axis=(1, 2)).tolist()
        scale = np.abs(a).max(axis=(1, 2)).tolist()
        diff = a - at
        gap = np.abs(diff, out=diff).max(axis=(1, 2)).tolist()
    errors = [None] * a.shape[0]
    for j, (ok, s, g) in enumerate(zip(finite, scale, gap)):
        if not ok:
            errors[j] = AsymmetricInputError("matrix has non-finite entries")
        elif g > SYM_RTOL * max(s, 1.0):
            errors[j] = AsymmetricInputError(
                f"asymmetry {g:.3e} exceeds tolerance {SYM_RTOL:.0e} relative to scale {s:.3e}")
    sym = np.add(a, at, out=diff)  # reuse the buffer of the differences
    sym /= 2.0
    sym[[e is not None for e in errors]] = np.eye(a.shape[1])
    return sym, errors


def square_matrix(m) -> np.ndarray:
    """m as a float (p, p) array; AsymmetricInputError for any other shape."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise AsymmetricInputError(f"expected a square matrix, got shape {a.shape}")
    return a


def _square_stack(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise AsymmetricInputError(f"expected a stack of square matrices, got shape {a.shape}")
    return a


def tie_gap(values: np.ndarray):
    """The smallest neighbour gap of a descending vector when it is below TIE_GAP, else None.

    This is the one tie test.  A gap at or below zero, where the vector is
    not strictly descending, counts as a tie too.
    """
    if values.shape[0] < 2:
        return None
    gap = np.min(values[:-1] - values[1:])
    return gap if gap < TIE_GAP else None


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


def eigh_stack(m) -> tuple[np.ndarray, np.ndarray, list]:
    """Descending eigenvalues and their eigenvectors for a (k, p, p) stack, and each refusal.

    ``w[j, i]`` pairs with column ``v[j, :, i]``.  ``errors[j]`` is the
    AsymmetricInputError that matrix j earns, or None; a refused matrix is
    decomposed as the identity, a placeholder.  One stacked ``eigh`` covers
    the stack, so an eigenvalue iteration that fails raises
    DecompositionError for all of it.
    """
    sym, errors = _symmetrize(_square_stack(m))
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"eigenvalue iteration failed for {sym.shape[1]}x{sym.shape[2]} matrix"
        ) from exc
    # eigh returns ascending; stable reversal keeps solver order within ties
    order = np.argsort(-w, axis=1, kind="stable")
    j = np.arange(len(w))[:, None]
    return w[j, order], v[j[:, None], np.arange(w.shape[1])[:, None], order[:, None, :]], errors


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
    w, v, errors = eigh_stack(square_matrix(m)[None])
    if errors[0] is not None:
        raise errors[0]
    return SpectralDecomp(eigenvalues=w[0], eigenvectors=_canonical_signs(v[0]),
                          tied=tie_gap(w[0]) is not None)


def _first_failing_minor(a: np.ndarray) -> int:
    """Order of the first leading minor that Cholesky refuses in a refused matrix a.

    This is LAPACK's ``info``.  A leading block is refused exactly when one
    of its own leading minors is, so bisection over the blocks finds the
    first in log2(p) factorizations.
    """
    ok, bad = 0, a.shape[0]
    while bad - ok > 1:
        mid = (ok + bad) // 2
        try:
            np.linalg.cholesky(a[:mid, :mid])
            ok = mid
        except np.linalg.LinAlgError:
            bad = mid
    return bad


def cholesky_stack(m) -> tuple[np.ndarray, list]:
    """Lower Cholesky factors of a (k, p, p) stack, and each matrix's refusal.

    ``errors[j]`` is the error ``cholesky`` raises for matrix j, or None;
    a refused matrix gets the identity as a placeholder factor so stacked
    arithmetic on the factors stays finite.  One stacked ``cholesky`` covers
    the stack; only when it refuses is each matrix factored alone, to find
    which ones failed and at which leading minor.
    """
    sym, errors = _symmetrize(_square_stack(m))
    p = sym.shape[1]
    try:
        return np.linalg.cholesky(sym), errors
    except np.linalg.LinAlgError:
        pass  # some matrix is refused: factor each alone to find which, and where
    t = np.empty_like(sym)
    for j in range(len(sym)):
        try:
            t[j] = np.linalg.cholesky(sym[j])
        except np.linalg.LinAlgError:
            index = _first_failing_minor(sym[j])
            errors[j] = NotPositiveDefiniteError(
                f"leading minor of order {index} is not positive definite", index=index)
            t[j] = np.eye(p)
    return t, errors


def cholesky(m) -> np.ndarray:
    """Lower-triangular T with T @ T.T = m and strictly positive diagonal.

    Raises NotPositiveDefiniteError naming the 1-based failing minor when m
    is not positive definite.
    """
    t, errors = cholesky_stack(square_matrix(m)[None])
    if errors[0] is not None:
        raise errors[0]
    return t[0]


def schur_pivots(m) -> np.ndarray:
    """Pivot sequence of the successive leading-entry Schur reduction.

    Step k records the current (0,0) entry and replaces the matrix by the
    Schur complement of that entry.  For positive definite input the pivots
    are exactly the squared diagonal of the Cholesky factor, which is how
    they are computed; their product is det(m).  Raises
    NotPositiveDefiniteError naming the 1-based first non-positive pivot.
    """
    return np.diag(cholesky(m)) ** 2
