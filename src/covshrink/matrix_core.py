"""Symmetric-matrix primitives, with eigenvalues in descending order.

The eigenvector signs are LAPACK's, and the order within exactly tied
eigenvalues is unspecified; the shrinker refuses a tied spectrum.  A matrix
from outside the package is validated once, where it enters: ``cholesky``,
``spectral_decompose`` and ``tsai_estimator`` pass it through
``symmetric_matrix``.  ``cholesky_stack``, ``eigh_stack`` and
``eigvalsh_stack`` trust the exactly symmetric stacks the package builds;
the first two refuse only a slice that is not finite.  ``eigvalsh_stack``
calls LAPACK through ``ctypes``, in the library NumPy's linalg calls, so
that other threads run while it works: NumPy's own ``eigvalsh`` holds the
interpreter lock.  Every routine called in that library, LAPACK's or
OpenBLAS's own, is found by one lookup, ``_routine``, under the spellings
of ``_SPELLINGS``.
"""

import ctypes

import numpy as np

from .errors import (
    AsymmetricInputError,
    DecompositionError,
    NotPositiveDefiniteError,
)

SYM_RTOL = 1e-12
TIE_GAP = 1e-12  # relative to the spectrum's largest magnitude

# A routine's spellings in the builds of OpenBLAS, each with the integer width
# its name tells: NumPy's wheels (scipy-openblas, 64-bit and 32-bit integers),
# a 64-bit OpenBLAS, then the plain name, which may take either width
_SPELLINGS = (("scipy_{}64_", np.int64), ("scipy_{}", np.int32), ("{}64_", np.int64), ("{}", None))


def _routine(name: str):
    """(function, integer dtype or None) of the first spelling of ``name`` in NumPy's library.

    The library is the one NumPy's linalg calls, through ``_umath_linalg``;
    looking a symbol up in it also searches the BLAS and LAPACK it links, so
    the routine found is that of the one library NumPy actually uses.  The
    dtype is None for the plain spelling, whose width the name does not
    tell.  None where the library has no spelling of ``name``.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for spelling, int_type in _SPELLINGS:
        fn = getattr(lib, spelling.format(name), None)
        if fn is not None:
            return fn, int_type
    return None


def _one_blas_thread() -> None:
    """Run the BLAS and LAPACK that NumPy's linalg calls on one thread from now on.

    OpenBLAS splits a product or a factorization across its pool, and the
    split changes the order of the sums, so at p >= 200 the last bits of a
    result depend on the pool's size, which defaults to the core count.  On
    one thread they depend on the arguments alone.  The setter is found by
    ``_routine``; it takes a C int, whatever width its spelling tells.  A
    BLAS with no spelling of it (MKL, Accelerate, a reference BLAS) is left
    as it is.  The command sets OPENBLAS_NUM_THREADS=1 before NumPy loads,
    so OpenBLAS starts no worker thread; this call shrinks the pool a NumPy
    loaded before then has already started.
    """
    setter, _ = _routine("openblas_set_num_threads") or (None, None)
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)


def symmetric_part(a: np.ndarray) -> np.ndarray:
    """(M + M.T)/2 of each matrix M of a (k, p, p) stack.

    Summed in halves, M/2 + M.T/2: the same bits outside the subnormal range,
    and finite wherever M is.
    """
    half = a * 0.5
    return half + half.swapaxes(1, 2)


def unrefused(values, errors: list):
    """A kernel's k values when none was refused, else the first refusal raised."""
    for error in errors:
        if error is not None:
            raise error
    return values


def first_refusals(*errors: list) -> list:
    """Each item's first refusal across several kernels' refusal lists, or None."""
    return [next((e for e in row if e is not None), None) for row in zip(*errors)]


def square_matrix(m) -> np.ndarray:
    """m as a float (p, p) array; AsymmetricInputError for any other shape."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise AsymmetricInputError(f"expected a square matrix, got shape {a.shape}")
    return a


def symmetric_matrix(m) -> np.ndarray:
    """The symmetric part of a square matrix from outside the package, where it is checked.

    AsymmetricInputError for a non-square or non-finite m, or for asymmetry above
    SYM_RTOL relative to its largest entry, which is more than accumulation noise.
    """
    a = unrefused(*finite_slices(square_matrix(m)[None]))[0]
    scale = float(np.abs(a).max())
    with np.errstate(over="ignore"):  # a difference past the float64 range is refused
        gap = float(np.abs(a - a.T).max())
    if gap > SYM_RTOL * scale:
        raise AsymmetricInputError(
            f"asymmetry {gap:.3e} exceeds tolerance {SYM_RTOL:.0e} relative to scale {scale:.3e}")
    return symmetric_part(a[None])[0]


def unit_exponents(a: np.ndarray, axis: int | None = None):
    """The powers e of two that bring max|a|, over a or along ``axis``, into [1/2, 1).

    All 0 unless some such max lies outside [2**-257, 2**256), where a sum of
    products of a's entries could overflow or go subnormal; so ordinary data
    is never scaled, and keeps its bits.  A max that is 0 or not finite gets 0.
    Every estimator and test is equivariant under these scalings: the
    package's one rule for taking data to unit size and back.
    """
    e = np.frexp(np.abs(a).max(axis=axis))[1]
    return e * bool((np.abs(e) > 256).any())


def finite_slices(a: np.ndarray, error=AsymmetricInputError,
                  message: str = "matrix has non-finite entries") -> tuple[np.ndarray, list]:
    """A (k, p, p) stack whose non-finite slices become the identity, and each one's refusal.

    The refusal is ``error(message)``, or None for a finite slice.  The
    identity is a placeholder that keeps stacked arithmetic finite, in a
    copy of a made only when some slice is refused.
    """
    bad = ~np.isfinite(a).all(axis=(1, 2))
    if not bad.any():
        return a, [None] * len(a)
    a = np.where(bad[:, None, None], np.eye(a.shape[1]), a)
    return a, [error(message) if b else None for b in bad.tolist()]


def tie_gap(values: np.ndarray) -> np.ndarray:
    """Smallest neighbour gap of each descending vector (last axis) over its largest magnitude.

    Scale-free, and inf for a single value.  A vector is tied where it is
    below TIE_GAP, and not strictly descending where it is at or below zero.
    """
    scale = np.maximum(np.abs(values).max(axis=-1), np.finfo(float).tiny)
    return np.min(values[..., :-1] - values[..., 1:], axis=-1, initial=np.inf) / scale


def eigh_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Descending eigenvalues and their eigenvectors for a (k, p, p) float stack, and each refusal.

    The stack is trusted to be symmetric, as every stack the package builds
    is, and LAPACK reads its lower triangle alone.  ``w[j, i]`` pairs with
    column ``v[j, :, i]``.  ``errors[j]`` is ``finite_slices``' refusal of
    matrix j, which is then decomposed as the identity, or None.  One
    stacked ``eigh`` covers the stack, so an eigenvalue iteration that fails
    raises DecompositionError for all of it.
    """
    m, errors = finite_slices(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"eigenvalue iteration failed for {m.shape[1]}x{m.shape[2]} matrix"
        ) from exc
    # eigh returns ascending.  A reversed view of v has a negative stride, on
    # which the products that read it leave the BLAS path and change their bits.
    return w[:, ::-1], np.ascontiguousarray(v[..., ::-1]), errors


def eigvalsh_stack(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a (k, p, p) stack: ``np.linalg.eigvalsh(m)``, bit for bit.

    The stack is trusted to be symmetric, as in ``eigh_stack``.  Each matrix
    goes to the LAPACK dsyevd that NumPy's ``eigvalsh`` calls, with the same
    arguments: jobz N, uplo L, and the workspace its query returns, so the
    bits are the same.  Called through ``ctypes``, it lets go of the
    interpreter lock, which NumPy's holds.  The workspace is queried and the
    arguments built once per stack.  Where ``_routine`` finds no dsyevd, or
    only the plain spelling, whose integer width is unknown, or LAPACK
    returns a nonzero ``info``, NumPy's ``eigvalsh`` does the work, and
    raises as it does.
    """
    dsyevd, int_type = _routine("dsyevd_") or (None, None)
    a = np.array(m, dtype=float, order="C")  # dsyevd overwrites its matrix
    if int_type is None or a.ndim != 3 or a.shape[1] != a.shape[2]:
        return np.linalg.eigvalsh(m)  # which refuses a stack of non-square matrices
    # eleven pointers, then the lengths of the two character arguments
    dsyevd.argtypes = [ctypes.c_void_p] * 11 + [ctypes.c_size_t] * 2
    dsyevd.restype = None
    k, p = a.shape[:2]
    w = np.empty((k, p))
    ints = np.array([p, -1, -1, 0], dtype=int_type)  # n (and lda), lwork, liwork, info
    n_at, lwork_at, liwork_at, info_at = (ints.ctypes.data + i * ints.itemsize for i in range(4))
    chars = np.frombuffer(b"NL", dtype=np.uint8)  # jobz, uplo
    work, iwork = np.empty(1), np.empty(1, dtype=int_type)
    a_at, w_at = a.ctypes.data, w.ctypes.data
    # the workspace query: lwork = liwork = -1 puts the lengths in work[0], iwork[0]
    args = [chars.ctypes.data, chars.ctypes.data + 1, n_at, a_at, n_at, w_at,
            work.ctypes.data, lwork_at, iwork.ctypes.data, liwork_at, info_at, 1, 1]
    dsyevd(*args)
    if ints[3] != 0:
        return np.linalg.eigvalsh(m)
    ints[1:3] = int(work[0]), iwork[0]  # NumPy truncates the queried length as well
    work, iwork = np.empty(ints[1]), np.empty(ints[2], dtype=int_type)
    args[6], args[8] = work.ctypes.data, iwork.ctypes.data
    for j in range(k):
        args[3], args[5] = a_at + j * a.strides[0], w_at + j * w.strides[0]
        dsyevd(*args)
        if ints[3] != 0:
            return np.linalg.eigvalsh(m)
    return w


def spectral_decompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues w and orthonormal eigenvectors v of a symmetric (p, p) matrix.

    The k = 1 case of ``eigh_stack`` for a matrix from outside the package,
    which ``symmetric_matrix`` checks; ``w[i]`` pairs with column ``v[:, i]``.
    Positive definiteness is not required.
    """
    w, v, _ = eigh_stack(symmetric_matrix(m)[None])
    return w[0], v[0]


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


def cholesky_stack(m: np.ndarray) -> tuple[np.ndarray, list]:
    """Lower Cholesky factors of a (k, p, p) float stack, and each matrix's refusal.

    The stack is trusted to be symmetric, as in ``eigh_stack``.
    ``errors[j]`` is the error ``cholesky`` raises for matrix j, or None; a
    refused matrix gets the identity as a placeholder factor so stacked
    arithmetic on the factors stays finite.  One stacked ``cholesky`` covers
    the stack; only when it refuses is each matrix factored alone, to find
    which ones failed and at which leading minor.
    """
    m, errors = finite_slices(m)
    try:
        return np.linalg.cholesky(m), errors
    except np.linalg.LinAlgError:
        pass  # some matrix is refused: factor each alone to find which, and where
    t = np.empty_like(m)
    for j in range(len(m)):
        try:
            t[j] = np.linalg.cholesky(m[j])
        except np.linalg.LinAlgError:
            index = _first_failing_minor(m[j])
            errors[j] = NotPositiveDefiniteError(
                f"leading minor of order {index} is not positive definite", index=index)
            t[j] = np.eye(m.shape[1])
    return t, errors


def cholesky(m) -> np.ndarray:
    """Lower-triangular T with T @ T.T = m and strictly positive diagonal.

    Raises NotPositiveDefiniteError naming the 1-based failing minor when m
    is not positive definite.
    """
    return unrefused(*cholesky_stack(symmetric_matrix(m)[None]))[0]


def schur_pivots(m) -> np.ndarray:
    """Pivot sequence of the successive leading-entry Schur reduction.

    Step k records the current (0,0) entry and replaces the matrix by the
    Schur complement of that entry.  For positive definite input the pivots
    are exactly the squared diagonal of the Cholesky factor, which is how
    they are computed; their product is det(m).  Raises
    NotPositiveDefiniteError naming the 1-based first non-positive pivot.
    """
    return np.diag(cholesky(m)) ** 2
