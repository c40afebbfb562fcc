import pytest

from covshrink.matrix_core import _one_blas_thread


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the suite on the covshrink command's one-thread BLAS pool.

    At p >= 200 the last bits of a product or a factorization depend on the
    pool's size, so the library code under test computes the command's bits
    only on the command's pool.  The recovery golden was recorded on it.
    """
    _one_blas_thread()
