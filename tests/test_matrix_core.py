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
from covshrink import _rng, estimators, hdtest, loss_risk, matrix_core
from covshrink.matrix_core import (cholesky_stack, eigh_stack, first_refusals, symmetric_matrix,
                                   symmetric_part, unit_exponents, unrefused)

RT2 = np.sqrt(2.0)


def random_spd(rng, p):
    g = rng.standard_normal((p, p))
    return g @ g.T + p * np.eye(p)


class TestSpectralDecompose:
    def test_identity(self):
        w, v = spectral_decompose(np.eye(3))
        assert_allclose(w, [1.0, 1.0, 1.0])
        assert_allclose(v.T @ v, np.eye(3), atol=1e-15)

    def test_already_diagonal(self):
        w, v = spectral_decompose(np.diag([3.0, 1.0]))
        assert_allclose(w, [3.0, 1.0])
        assert_allclose(np.abs(v), np.eye(2))

    def test_two_by_two_hand_solution(self):
        # char poly of [[2,1],[1,2]] gives 3 and 1 with (1,1) and (1,-1) directions,
        # each up to its sign
        w, v = spectral_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(w, [3.0, 1.0], atol=1e-14)
        assert_allclose(v[:, 0] * np.sign(v[0, 0]), [1 / RT2, 1 / RT2], atol=1e-14)
        assert_allclose(v[:, 1] * np.sign(v[0, 1]), [1 / RT2, -1 / RT2], atol=1e-14)

    def test_reconstruction_500_draws(self):
        rng = np.random.default_rng(1234)
        for _ in range(500):
            p = int(rng.integers(1, 21))
            m = random_spd(rng, p)
            w, v = spectral_decompose(m)
            err = np.abs((v * w) @ v.T - m).max()
            assert err < 1e-8 * w[0]
            assert np.abs(v.T @ v - np.eye(p)).max() < 1e-10
            assert np.all(np.diff(w) <= 0)

    def test_asymmetry_rejected(self):
        m = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(AsymmetricInputError):
            spectral_decompose(m)

    def test_tiny_asymmetry_repaired(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        w, _ = spectral_decompose(m)
        assert_allclose(w, [3.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("k", [-600, -40, 0, 40, 600])
def test_the_asymmetry_tolerance_is_relative_at_every_scale(k):
    # a gap of 0.5 against the largest entry 4 is refused, and 1e-14 relative
    # repaired, whatever the power of two the matrix is taken times
    with pytest.raises(AsymmetricInputError, match="^asymmetry "):
        symmetric_matrix(np.ldexp([[4.0, 1.0], [0.5, 4.0]], k))
    m = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
    assert np.array_equal(symmetric_matrix(np.ldexp(m, k)), np.ldexp(symmetric_matrix(m), k))


def test_unit_exponents_scale_only_past_two_to_the_256():
    # each max|a| into [1/2, 1), all or none: none while every max lies in
    # [2**-257, 2**256); a max of 0 or inf gets 0
    a = np.array([[3.0, -2.0 ** -300, 0.0], [-5.0, 2.0 ** -301, 0.0]])
    assert unit_exponents(a) == 0 and not unit_exponents(a, axis=1).any()
    assert unit_exponents(a, axis=0).tolist() == [3, -299, 0]
    assert unit_exponents(np.ldexp(a, 300)) == 303
    assert unit_exponents(np.array([2.0 ** 255, 2.0 ** -257])) == 0
    assert unit_exponents(np.array([2.0 ** 256])) == 257
    assert unit_exponents(np.array([2.0 ** -258])) == -257
    assert unit_exponents(np.array([np.inf, 2.0 ** -600])) == 0


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
        stack = np.stack([good, bad[0], nonfinite, bad[1], bad[2], good])
        t, errors = cholesky_stack(stack)
        assert [type(e) for e in errors] == [
            type(None), NotPositiveDefiniteError, AsymmetricInputError,
            NotPositiveDefiniteError, NotPositiveDefiniteError, type(None)]
        assert [errors[j].index for j in (1, 3, 4)] == [lapack_info(m) for m in bad]
        for j in (0, 5):
            assert np.array_equal(t[j], cholesky(good))
        for j in range(1, 5):
            assert np.array_equal(t[j], np.eye(p))
        # the stack is trusted to be symmetric; a matrix from outside is checked by cholesky
        with pytest.raises(AsymmetricInputError, match="^asymmetry "):
            cholesky(asymmetric)


class TestEighStack:
    @pytest.mark.parametrize("p", (3, 10))
    def test_refusals_and_slices_match_spectral_decompose(self, p):
        rng = np.random.default_rng(40 + p)
        stack = np.stack([random_spd(rng, p) for _ in range(6)])
        stack[1, -1, 0] = np.nan
        w, v, errors = eigh_stack(stack)
        assert [j for j, e in enumerate(errors) if e is not None] == [1]
        # the stack is trusted to be symmetric; a matrix from outside is checked by
        # spectral_decompose
        asymmetric = stack[4].copy()
        asymmetric[0, -1] += 1e-3 * np.abs(asymmetric).max()
        with pytest.raises(AsymmetricInputError, match="^asymmetry "):
            spectral_decompose(asymmetric)
        for j in range(6):
            if errors[j] is not None:
                with pytest.raises(AsymmetricInputError) as exc:
                    spectral_decompose(stack[j])
                assert type(errors[j]) is type(exc.value)
                assert str(errors[j]) == str(exc.value)
                assert np.array_equal(w[j], np.ones(p))
            else:
                w_j, v_j = spectral_decompose(stack[j])
                assert np.array_equal(w[j], w_j)
                assert np.array_equal(v[j], v_j)

    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("p", [1, 2, 10, 50])
    def test_is_numpys_eigh_reversed_bit_for_bit(self, p, k):
        g = np.random.default_rng(p + k).standard_normal((k, p, p))
        m = g + g.swapaxes(1, 2)
        want_w, want_v = np.linalg.eigh(m)
        w, v, errors = eigh_stack(m)
        assert errors == [None] * k
        assert w.tobytes() == want_w[:, ::-1].tobytes()
        assert v.tobytes() == want_v[..., ::-1].tobytes()
        # the products that read v take the BLAS path only on a contiguous array
        assert v.flags.c_contiguous


class TestEigvalshStack:
    @pytest.mark.parametrize("lapack", [True, False], ids=["lapack", "fallback"])
    @pytest.mark.parametrize("k", [1, 3, 65])
    @pytest.mark.parametrize("p", [1, 2, 10, 50, 400])
    def test_equals_numpy_bit_for_bit(self, monkeypatch, lapack, k, p):
        g = np.random.default_rng(p + k).standard_normal((k, p, p))
        m = g + g.swapaxes(1, 2)
        del g
        want = np.linalg.eigvalsh(m)
        if lapack:
            # NumPy's own eigvalsh must not run on the LAPACK path
            monkeypatch.setattr(np.linalg, "eigvalsh", None)
        else:
            monkeypatch.setattr(matrix_core, "_dsyevd", lambda: None)
        got = matrix_core.eigvalsh_stack(m)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(m, m.swapaxes(1, 2))  # the input is left as it was

    def test_numpys_openblas_wheel_takes_the_lapack_path(self):
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        if lapack["name"] != "scipy-openblas":
            pytest.skip(f"NumPy links {lapack['name']}, not its scipy-openblas wheel")
        assert matrix_core._dsyevd() is not None

    def test_a_lapack_failure_falls_back_to_numpy_and_raises_as_it_does(self):
        m = np.stack([np.eye(3), np.eye(3)])
        m[1, 1, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.eigvalsh(m)
        with pytest.raises(np.linalg.LinAlgError) as got:
            matrix_core.eigvalsh_stack(m)
        assert str(got.value) == str(want.value)
        # a stack of non-square matrices never reaches LAPACK
        with pytest.raises(np.linalg.LinAlgError, match="must be square"):
            matrix_core.eigvalsh_stack(np.ones((2, 3, 4)))


class TestKernelRules:
    def test_symmetric_part_is_the_half_sum_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for p in (1, 4, 30):
            m = rng.standard_normal((5, p, p)) * 10.0 ** rng.integers(-150, 150, (5, 1, 1))
            want = (m + m.swapaxes(1, 2)) / 2
            assert symmetric_part(m).tobytes() == want.tobytes()

    def test_symmetric_part_stays_finite_near_the_float64_limit(self):
        m = np.array([[[1.7e308, 1.6e308], [1.5e308, 1.7e308]]])
        with np.errstate(over="raise"):
            sym = symmetric_part(m)
        assert sym.tolist() == [[[1.7e308, 1.55e308], [1.55e308, 1.7e308]]]

    def test_the_first_refusal_wins(self):
        a, b, c = (NotPositiveDefiniteError("a"), AsymmetricInputError("b"),
                   NotPositiveDefiniteError("c"))
        assert first_refusals([None, a, None, None], [b, c, None, c]) == [b, a, None, c]
        values = np.arange(3.0)
        assert unrefused(values, [None] * 3) is values
        with pytest.raises(AsymmetricInputError, match="^b$"):
            unrefused(values, [None, b, a])


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


# the shapes of the replicate loops' chunks, (n, p, replicates per chunk), and p = 1
TRUSTED_SIZES = [(50, 10, 65), (400, 5, 16), (20, 4, 100), (100, 50, 6), (1600, 400, 1),
                 (30, 1, 40)]
POPULATIONS = {
    "identity": lambda p: np.eye(p),
    "ar1": lambda p: 0.5 ** np.abs(np.subtract.outer(np.arange(p), np.arange(p))),
    "spiked": lambda p: np.diag(np.r_[50.0, 20.0, 5.0, np.ones(p)][:p]),
}


def exactly_symmetric(m):
    return np.ascontiguousarray(m).tobytes() == np.ascontiguousarray(m.swapaxes(1, 2)).tobytes()


@pytest.mark.parametrize("population", list(POPULATIONS))
@pytest.mark.parametrize("n,p,k", TRUSTED_SIZES)
def test_every_stack_the_package_factors_is_exactly_symmetric(monkeypatch, n, p, k, population):
    # cholesky_stack and eigh_stack trust their stacks: each must equal its own
    # transpose bit for bit, and each slice not refused must be finite.  AR(1)
    # draws take draw_chunk's full matrix product, the diagonal ones a scaling.
    handed = []

    def spy(factorization):
        def recorded(m):
            handed.append(np.array(m))
            return factorization(m)
        return recorded

    for module in (estimators, hdtest, loss_risk):
        for name in ("cholesky_stack", "eigh_stack"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(getattr(matrix_core, name)))
    sigma = POPULATIONS[population](p)
    chol = cholesky(sigma)
    x = _rng.draw_chunk(11, chol, n, 0, k)
    scatters, errors = estimators.scatter_stack(x)
    built = [(scatters, errors), estimators.centered_stack(x)[1:], hdtest._centered(x)[1:]]
    built += [kernel(scatters, n)
              for kernel in (estimators._sample, estimators._triangular, estimators._pivot)]
    estimators._tsai(scatters / n, n)
    for kernel in hdtest.MEAN_TESTS.values():
        kernel(x, chol)
    loss_risk.replicate_losses(tuple(estimators.FACTOR_ESTIMATORS), sigma, n, k, 11)
    # three kernels and two mean tests factor a stack each, and replicate_losses
    # only the shrinker's covariances: it draws each scatter's factor, so the
    # class estimators factor nothing, and no estimate is factored again
    assert len(handed) == 6
    for stack, refusals in built:
        assert exactly_symmetric(stack)
        assert np.isfinite(stack[[e is None for e in refusals]]).all()
    for stack in handed:
        assert exactly_symmetric(stack) and np.isfinite(stack).all()
