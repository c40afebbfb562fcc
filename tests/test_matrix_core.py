import numpy as np
import pytest
from numpy.testing import assert_allclose

from covshrink import (
    AsymmetricInputError,
    NotPositiveDefiniteError,
    cholesky,
    schur_pivots,
    spectral_decompose,
)
from covshrink.matrix_core import _canonical_signs, cholesky_stack, eigh_stack

RT2 = np.sqrt(2.0)


def random_spd(rng, p):
    g = rng.standard_normal((p, p))
    return g @ g.T + p * np.eye(p)


class TestSpectralDecompose:
    def test_identity(self):
        dec = spectral_decompose(np.eye(3))
        assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
        assert_allclose(dec.eigenvectors, np.eye(3))
        assert dec.tied

    def test_already_diagonal(self):
        dec = spectral_decompose(np.diag([3.0, 1.0]))
        assert_allclose(dec.eigenvalues, [3.0, 1.0])
        assert_allclose(dec.eigenvectors, np.eye(2))
        assert not dec.tied

    def test_two_by_two_hand_solution(self):
        # char poly of [[2,1],[1,2]] gives 3 and 1 with (1,1) and (1,-1) directions
        dec = spectral_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-14)
        assert_allclose(dec.eigenvectors[:, 0], [1 / RT2, 1 / RT2], atol=1e-14)
        assert_allclose(dec.eigenvectors[:, 1], [1 / RT2, -1 / RT2], atol=1e-14)

    def test_reconstruction_500_draws(self):
        rng = np.random.default_rng(1234)
        for _ in range(500):
            p = int(rng.integers(1, 21))
            m = random_spd(rng, p)
            dec = spectral_decompose(m)
            err = np.abs(dec.reconstruct() - m).max()
            assert err < 1e-8 * dec.eigenvalues[0]
            assert np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(p)).max() < 1e-10
            assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_sign_canonicalization(self):
        rng = np.random.default_rng(7)
        m = random_spd(rng, 6)
        dec = spectral_decompose(m)
        # rebuild from arbitrarily flipped eigenvectors; canonical signs must return
        flips = np.array([1, -1, -1, 1, -1, 1.0])
        rebuilt = (dec.eigenvectors * flips * dec.eigenvalues) @ (dec.eigenvectors * flips).T
        dec2 = spectral_decompose(rebuilt)
        assert_allclose(dec2.eigenvectors, dec.eigenvectors, atol=1e-9)

    def test_first_components_nonnegative(self):
        rng = np.random.default_rng(99)
        dec = spectral_decompose(random_spd(rng, 12))
        for j in range(12):
            col = dec.eigenvectors[:, j]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead >= 0

    def test_asymmetry_rejected(self):
        m = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(AsymmetricInputError):
            spectral_decompose(m)

    def test_tiny_asymmetry_repaired(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        dec = spectral_decompose(m)
        assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-12)


class TestCholesky:
    def test_identity(self):
        assert_allclose(cholesky(np.eye(2)), np.eye(2))

    def test_diagonal_roots(self):
        assert_allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_hand_factor(self):
        t = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert_allclose(t, [[2.0, 0.0], [1.0, 2.0]])

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        m = random_spd(rng, 9)
        t = cholesky(m)
        assert np.abs(t @ t.T - m).max() < 1e-10 * np.abs(m).max()
        assert np.all(np.triu(t, 1) == 0.0)
        assert np.all(np.diag(t) > 0)

    def test_failing_index_reported(self):
        # second leading minor is negative
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(m)
        assert exc.value.index == 2
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(-np.eye(3))
        assert exc.value.index == 1


def indefinite(p, order, seed):
    """Symmetric L D L' whose leading minors are positive definite below ``order`` only."""
    rng = np.random.default_rng(seed)
    l = np.tril(rng.standard_normal((p, p)), -1) + np.diag(rng.uniform(1.0, 2.0, p))
    d = np.ones(p)
    d[order - 1] = -0.5
    m = (l * d) @ l.T
    return (m + m.T) / 2.0


def lapack_info(m):
    # scipy's LAPACK is the reference for the failing minor, not a dependency of src/
    from scipy.linalg import lapack

    return lapack.dpotrf(m, lower=1)[1]


REFUSAL_CASES = [(p, order) for p in (3, 10, 50) for order in (1, p // 2 + 1, p)]


class TestCholeskyRefusalIndex:
    @pytest.mark.parametrize("p,order", REFUSAL_CASES)
    def test_index_is_lapack_info(self, p, order):
        m = indefinite(p, order, seed=p + order)
        assert lapack_info(m) == order
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(m)
        assert exc.value.index == order
        assert str(exc.value) == f"leading minor of order {order} is not positive definite"

    @pytest.mark.parametrize("p", (3, 10, 50))
    def test_stacked_index_is_lapack_info(self, p):
        rng = np.random.default_rng(p)
        good = random_spd(rng, p)
        nonfinite = good.copy()
        nonfinite[-1, 0] = np.inf
        asymmetric = good.copy()
        asymmetric[0, -1] += 1e-3 * np.abs(good).max()
        bad = [indefinite(p, order, seed=p + order) for order in (1, p // 2 + 1, p)]
        stack = np.stack([good, bad[0], nonfinite, bad[1], asymmetric, bad[2], good])
        t, errors = cholesky_stack(stack)
        assert [type(e) for e in errors] == [
            type(None), NotPositiveDefiniteError, AsymmetricInputError,
            NotPositiveDefiniteError, AsymmetricInputError, NotPositiveDefiniteError,
            type(None)]
        assert [errors[j].index for j in (1, 3, 5)] == [lapack_info(m) for m in bad]
        for j in (0, 6):
            assert np.array_equal(t[j], cholesky(good))
        for j in range(1, 6):
            assert np.array_equal(t[j], np.eye(p))


class TestEighStack:
    @pytest.mark.parametrize("p", (3, 10))
    def test_refusals_and_slices_match_spectral_decompose(self, p):
        rng = np.random.default_rng(40 + p)
        stack = np.stack([random_spd(rng, p) for _ in range(6)])
        stack[1, -1, 0] = np.nan
        stack[4, 0, -1] += 1e-3 * np.abs(stack[4]).max()
        w, v, errors = eigh_stack(stack)
        assert [j for j, e in enumerate(errors) if e is not None] == [1, 4]
        for j in range(6):
            if errors[j] is not None:
                with pytest.raises(AsymmetricInputError) as exc:
                    spectral_decompose(stack[j])
                assert type(errors[j]) is type(exc.value)
                assert str(errors[j]) == str(exc.value)
                assert np.array_equal(w[j], np.ones(p))
            else:
                dec = spectral_decompose(stack[j])
                assert np.array_equal(w[j], dec.eigenvalues)
                assert np.array_equal(_canonical_signs(v[j]), dec.eigenvectors)


class TestSuccessiveDiagonalize:
    def test_diagonal_passthrough(self):
        d = np.array([5.0, 2.0, 0.5])
        assert_allclose(schur_pivots(np.diag(d)), d)

    def test_hand_schur(self):
        assert_allclose(schur_pivots(np.array([[4.0, 2.0], [2.0, 3.0]])), [4.0, 2.0])

    def test_hand_schur_with_det(self):
        pivots = schur_pivots(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert_allclose(pivots, [4.0, 4.0])
        assert_allclose(np.prod(pivots), 16.0)

    def test_pivot_failure_index(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            schur_pivots(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.index == 2

    def test_pivot_product_is_determinant(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = random_spd(rng, int(rng.integers(1, 12)))
            assert_allclose(np.prod(schur_pivots(m)), np.linalg.det(m), rtol=1e-8)


def aligned_trace_excess(gamma, l, h):
    """tr(Dg^-1 H Dl H') - tr(Dg^-1 Dl); nonnegative when gamma, l are descending."""
    conj = (h * l) @ h.T
    return float(np.sum(np.diag(conj) / gamma) - np.sum(l / gamma))


def test_von_neumann_alignment():
    # random orthogonal conjugation never beats the aligned diagonal pairing
    rng = np.random.default_rng(2024)
    worst = np.inf
    for _ in range(1000):
        p = int(rng.integers(2, 9))
        gamma = np.sort(rng.uniform(0.1, 5.0, p))[::-1]
        l = np.sort(rng.uniform(0.1, 5.0, p))[::-1]
        h, _ = np.linalg.qr(rng.standard_normal((p, p)))
        worst = min(worst, aligned_trace_excess(gamma, l, h))
    assert worst >= -1e-10
