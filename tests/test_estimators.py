import numpy as np
import pytest
from numpy.testing import assert_allclose

from covshrink import (
    EigenvalueTieError,
    ShrinkageSingularityError,
    dp_equivariant,
    sample_covariance,
    scatter_matrix,
    shrinkage_terms,
    spectral_decompose,
    stein_triangular,
    tsai_eigenvalues,
    tsai_estimator,
)
from covshrink import estimators
from covshrink.estimators import (
    MODE_CENTERED,
    MODE_UNCENTERED,
    STACKED_ESTIMATORS,
    as_data_matrix,
    scatter_stack,
)


def random_spd(rng, p):
    g = rng.standard_normal((p, p))
    return g @ g.T + p * np.eye(p)


class TestSampleCovariance:
    def test_centered_two_points(self):
        est = sample_covariance(np.array([[1.0], [3.0]]), mode=MODE_CENTERED)
        assert_allclose(est.matrix, [[2.0]])
        assert est.divisor == 1
        assert est.n == 2

    def test_uncentered_two_points(self):
        est = sample_covariance(np.array([[1.0], [-1.0]]), mode=MODE_UNCENTERED)
        assert_allclose(est.matrix, [[1.0]])
        assert est.divisor == 2

    def test_constant_rows_give_zero(self):
        est = sample_covariance(np.ones((5, 3)), mode=MODE_CENTERED)
        assert_allclose(est.matrix, np.zeros((3, 3)))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 6))
        xc = x - x.mean(axis=0)
        assert_allclose(sample_covariance(x, mode=MODE_CENTERED).matrix, xc.T @ xc / 39)
        assert_allclose(sample_covariance(x, mode=MODE_UNCENTERED).matrix, x.T @ x / 40)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones((3, 2)), mode="bessel")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            as_data_matrix(np.ones((1, 3)))
        with pytest.raises(ValueError):
            as_data_matrix(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            as_data_matrix(np.ones(4))


class TestScatterMatrix:
    def test_dof_convention(self):
        x = np.random.default_rng(0).standard_normal((10, 2))
        assert scatter_matrix(x, centered=True).dof == 9
        assert scatter_matrix(x, centered=False).dof == 10

    def test_scatter_is_n_times_uncentered_cov(self):
        x = np.random.default_rng(1).standard_normal((12, 3))
        sc = scatter_matrix(x, centered=False)
        est = sample_covariance(x, mode=MODE_UNCENTERED)
        assert_allclose(sc.matrix, 12 * est.matrix)


class TestSteinTriangular:
    def test_diagonal_hand_case(self):
        # scatter diag(8,3) from n=4 uncentered rows: divisors n+p-2i+1 = (5,3)
        x = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, np.sqrt(3)], [0.0, 0.0]])
        est = stein_triangular(scatter_matrix(x))
        assert_allclose(est.matrix, np.diag([8 / 5, 1.0]))
        assert est.method == "stein_triangular"
        assert est.divisor == [5, 3]

    def test_univariate_reduces_to_ml(self):
        x = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        est = stein_triangular(scatter_matrix(x))
        assert_allclose(est.matrix, [[10.0 / 4.0]])

    def test_divisors_n10_p3(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((10, 3))
        t = np.linalg.cholesky(x.T @ x)
        expected = (t / np.array([12.0, 10.0, 8.0])) @ t.T
        assert_allclose(stein_triangular(scatter_matrix(x)).matrix, expected, rtol=1e-12)

    def test_centered_loses_one_dof(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((10, 3))
        xc = x - x.mean(axis=0)
        t = np.linalg.cholesky(xc.T @ xc)
        expected = (t / np.array([11.0, 9.0, 7.0])) @ t.T
        assert_allclose(
            stein_triangular(scatter_matrix(x, centered=True)).matrix, expected, rtol=1e-12
        )

    def test_dof_below_dimension_rejected(self):
        x = np.random.default_rng(13).standard_normal((3, 3))
        with pytest.raises(ValueError):
            stein_triangular(scatter_matrix(x, centered=True))


class TestDpEquivariant:
    def test_diagonal_hand_case(self):
        # pivots (8,3) with n=4: divisors n-i+1 = (4,3)
        x = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, np.sqrt(3)], [0.0, 0.0]])
        est = dp_equivariant(scatter_matrix(x))
        assert_allclose(est.matrix, np.diag([2.0, 1.0]))
        assert est.target == "sigma_star"
        assert est.divisor == [4, 3]

    def test_univariate_reduces_to_ml(self):
        est = dp_equivariant(scatter_matrix(np.array([[3.0], [1.0]])))
        assert_allclose(est.matrix, [[5.0]])

    def test_estimate_is_diagonal(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((15, 4))
        m = dp_equivariant(scatter_matrix(x)).matrix
        assert_allclose(m, np.diag(np.diag(m)))


class TestTsaiEigenvalues:
    def test_univariate_identity_map(self):
        psi, d = shrinkage_terms(np.array([2.5]), n=7)
        assert_allclose(d, [7.0])
        assert_allclose(psi, [2.5])

    def test_two_eigenvalue_hand_case(self):
        table = tsai_eigenvalues(np.array([3.0, 1.0]), n=4)
        assert_allclose(table.shrunk_eigenvalues, [8.0 / 3.0, 1.6])
        assert_allclose(table.denominators, [4.5, 2.5])
        assert_allclose(table.sample_eigenvalues, [3.0, 1.0])

    def test_large_n_denominators(self):
        # n=1000: gap sums are -1/2 and +1/2, so d = (999 + 1.5, 999 - 0.5)
        l = np.array([3.0, 1.0])
        psi, d = shrinkage_terms(l, n=1000)
        assert_allclose(d, [1000.5, 998.5])
        assert_allclose(psi, [3000.0 / 1000.5, 1000.0 / 998.5])
        # the map is already close to the identity at this aspect ratio
        assert np.max(np.abs(psi / l - 1.0)) < 2 * 2 / 1000

    def test_scale_equivariance(self):
        l = np.array([8.0, 5.0, 3.0, 2.0, 1.0, 0.5])
        psi = tsai_eigenvalues(l, n=40).shrunk_eigenvalues
        scaled = tsai_eigenvalues(3.5 * l, n=40).shrunk_eigenvalues
        assert_allclose(scaled, 3.5 * psi, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            tsai_eigenvalues(np.array([1.0, 3.0]), n=10)  # not descending
        with pytest.raises(ValueError):
            tsai_eigenvalues(np.array([3.0, -1.0]), n=10)
        with pytest.raises(ValueError):
            tsai_eigenvalues(np.array([3.0, 1.0]), n=1)  # n < p
        with pytest.raises(EigenvalueTieError):
            tsai_eigenvalues(np.array([1.0 + 1e-13, 1.0]), n=10)
        # an exact tie is a tie too, not an ordering error
        with pytest.raises(EigenvalueTieError, match=r"gap 0\.000e\+00 below 1e-12"):
            tsai_eigenvalues(np.array([2.0, 1.0, 1.0]), n=10)

    def test_singularity_reported_with_index(self):
        # near-tied pair drives the second denominator far negative
        with pytest.raises(ShrinkageSingularityError) as exc:
            tsai_eigenvalues(np.array([1.0 + 1e-6, 1.0]), n=10)
        assert exc.value.index == 2

    def test_fixed_spectrum_approaches_identity_map(self):
        l = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        devs = []
        for n in (500, 5000):
            psi = tsai_eigenvalues(l, n=n).shrunk_eigenvalues
            devs.append(np.max(np.abs(psi / l - 1.0)))
            assert devs[-1] < 2 * len(l) / n
        assert devs[1] < devs[0]


class TestShrunkSpectra:
    def test_shrinkage_terms_of_a_stack_equal_each_row_bit_for_bit(self):
        rng = np.random.default_rng(31)
        spectra = -np.sort(-rng.uniform(0.2, 5.0, (2, 3, 7)), axis=-1)
        psi, d = shrinkage_terms(spectra, 30)
        for row in np.ndindex(2, 3):
            one_psi, one_d = shrinkage_terms(spectra[row], 30)
            assert psi[row].tobytes() == one_psi.tobytes()
            assert d[row].tobytes() == one_d.tobytes()

    def test_an_exactly_tied_spectrum_is_refused_alone(self):
        # slice 1 is a scatter with two equal eigenvalues, an exact tie
        x = np.random.default_rng(32).standard_normal((4, 20, 3))
        scatter = scatter_stack(x)
        scatter[1] = 20.0 * np.diag([3.0, 2.0, 2.0])
        est, errors = STACKED_ESTIMATORS["tsai"](scatter, 20)
        assert type(errors[1]) is EigenvalueTieError
        assert str(errors[1]) == "minimum eigenvalue gap 0.000e+00 below 1e-12"
        for j in (0, 2, 3):
            assert errors[j] is None
            assert np.array_equal(est[j], tsai_estimator(scatter[j] / 20, n=20).matrix)

    def test_tsai_eigenvalues_runs_only_for_the_spectra_the_guard_turns_down(self, monkeypatch):
        # at n = 8, p = 4 the guard turns down some spectra and accepts most
        calls = []

        def counted(l, n):
            calls.append(l)
            return tsai_eigenvalues(l, n)

        monkeypatch.setattr(estimators, "tsai_eigenvalues", counted)
        x = np.random.default_rng(33).standard_normal((200, 8, 4))
        _, errors = STACKED_ESTIMATORS["tsai"](scatter_stack(x), 8)
        refused = sum(e is not None for e in errors)
        assert 0 < refused < 200
        assert len(calls) == refused


class TestTsaiEstimator:
    def test_two_by_two_hand_case(self):
        # eigenvalues (3,1) at n=4 map to (8/3, 8/5); eigenvectors unchanged
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        est = tsai_estimator(s, n=4)
        hi, lo = 8.0 / 3.0, 1.6
        expected = np.array(
            [[(hi + lo) / 2, (hi - lo) / 2], [(hi - lo) / 2, (hi + lo) / 2]]
        )
        assert_allclose(est.matrix, expected, rtol=1e-12)
        assert est.method == "tsai"
        assert_allclose(est.shrinkage.denominators, [4.5, 2.5])

    def test_accepts_sample_estimate_with_default_n(self):
        est = tsai_estimator(sample_covariance(np.array([[1.0], [3.0]])))
        assert_allclose(est.matrix, [[2.0]])
        assert est.n == 2
        assert est.divisor == 1

    def test_bare_matrix_requires_n(self):
        with pytest.raises(ValueError):
            tsai_estimator(np.eye(2) + 0.1)

    def test_univariate_passthrough(self):
        est = tsai_estimator(np.array([[3.7]]), n=9)
        assert_allclose(est.matrix, [[3.7]])

    def test_diagonal_input_stays_diagonal(self):
        s = np.diag([4.0, 2.0, 1.0])
        est = tsai_estimator(s, n=30)
        m = est.matrix
        assert_allclose(m, np.diag(np.diag(m)), atol=1e-14)
        expected = tsai_eigenvalues(np.array([4.0, 2.0, 1.0]), n=30).shrunk_eigenvalues
        assert_allclose(np.diag(m), expected)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(77)
        s = random_spd(rng, 5)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        n = 60
        lhs = tsai_estimator(q @ s @ q.T, n=n).matrix
        rhs = q @ tsai_estimator(s, n=n).matrix @ q.T
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_frobenius_distance_equals_eigenvalue_distance(self):
        # shared eigenbasis makes ||est - s||_F computable from spectra alone
        rng = np.random.default_rng(78)
        s = random_spd(rng, 4)
        est = tsai_estimator(s, n=50)
        l = spectral_decompose(s).eigenvalues
        psi = est.shrinkage.shrunk_eigenvalues
        assert_allclose(
            np.linalg.norm(est.matrix - s, "fro"), np.linalg.norm(psi - l), rtol=1e-9
        )


def test_ordering_preserved_on_wishart_draws():
    # the map can reorder only when a denominator nearly blows up; count and report
    rng = np.random.default_rng(909)
    attempts = successes = reordered = 0
    while attempts < 1000:
        attempts += 1
        p = int(rng.integers(2, 13))
        n = int(rng.integers(4 * p, 10 * p))
        x = rng.standard_normal((n, p))
        s = sample_covariance(x, mode=MODE_UNCENTERED)
        try:
            est = tsai_estimator(s)
        except ShrinkageSingularityError:
            continue
        successes += 1
        if np.any(np.diff(est.shrinkage.shrunk_eigenvalues) > 0):
            reordered += 1
    print(f"ordering check: {successes}/{attempts} mapped, {reordered} reordered")
    assert successes > 300
