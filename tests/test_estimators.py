import inspect

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covshrink import (
    CovshrinkError,
    EigenvalueTieError,
    NotPositiveDefiniteError,
    NumericError,
    ShrinkageSingularityError,
    dp_equivariant,
    sample_covariance,
    scatter_matrix,
    shrinkage_terms,
    stein_triangular,
    tsai_eigenvalues,
    tsai_estimator,
)
from covshrink import estimators
from covshrink.estimators import (
    ESTIMATORS,
    as_data_matrix,
    centered_stack,
    scatter_stack,
)


def stacked_tsai(a, dof):
    """The shrinker's estimates of a (k, p, p) stack of scatters over dof, and each refusal.

    Formed from ``_tsai``'s spectra as ``tsai_estimator`` forms its one.
    """
    _, u, psi, _, errors = estimators._tsai(a / dof, dof)
    return estimators.symmetric_part((u * psi[:, None, :]) @ u.swapaxes(1, 2)), errors


def random_spd(rng, p):
    g = rng.standard_normal((p, p))
    return g @ g.T + p * np.eye(p)


class TestSampleCovariance:
    def test_centered_two_points(self):
        est = sample_covariance(np.array([[1.0], [3.0]]), centered=True)
        assert_allclose(est.matrix, [[2.0]])
        assert est.divisor == 1
        assert est.n == 2

    def test_uncentered_two_points(self):
        est = sample_covariance(np.array([[1.0], [-1.0]]), centered=False)
        assert_allclose(est.matrix, [[1.0]])
        assert est.divisor == 2

    def test_constant_rows_give_zero(self):
        est = sample_covariance(np.ones((5, 3)), centered=True)
        assert_allclose(est.matrix, np.zeros((3, 3)))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 6))
        xc = x - x.mean(axis=0)
        assert_allclose(sample_covariance(x, centered=True).matrix, xc.T @ xc / 39)
        assert_allclose(sample_covariance(x, centered=False).matrix, x.T @ x / 40)

    def test_one_calling_convention(self):
        # each data estimator is its own table entry and takes (x, centered=True) alone
        for tag, estimator in [("sample", sample_covariance),
                               ("stein_triangular", stein_triangular),
                               ("dp_equivariant", dp_equivariant)]:
            assert ESTIMATORS[tag] is estimator
            params = inspect.signature(estimator).parameters
            assert list(params) == ["x", "centered"]
            assert params["centered"].default is True
            with pytest.raises(TypeError):
                estimator(np.ones((3, 2)), convention="centered_n_minus_1")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            as_data_matrix(np.ones((1, 3)))
        with pytest.raises(ValueError):
            as_data_matrix(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            as_data_matrix(np.ones(4))


class TestScatterMatrix:
    def test_dof_convention(self):
        # the centered scatter is S times n - 1, the uncentered one S times n
        x = np.random.default_rng(0).standard_normal((10, 2))
        assert_allclose(scatter_matrix(x, centered=True), 9 * sample_covariance(x, True).matrix)
        assert_allclose(scatter_matrix(x, centered=False), 10 * sample_covariance(x, False).matrix)

    def test_scatter_is_n_times_uncentered_cov(self):
        x = np.random.default_rng(1).standard_normal((12, 3))
        sc = scatter_matrix(x, centered=False)
        est = sample_covariance(x, centered=False)
        assert sc.shape == (3, 3)
        assert_allclose(sc, 12 * est.matrix)


class TestSteinTriangular:
    def test_diagonal_hand_case(self):
        # scatter diag(8,3) from n=4 uncentered rows: divisors n+p-2i+1 = (5,3)
        x = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, np.sqrt(3)], [0.0, 0.0]])
        est = stein_triangular(x, centered=False)
        assert_allclose(est.matrix, np.diag([8 / 5, 1.0]))
        assert est.method == "stein_triangular"
        assert est.divisor == [5, 3]

    def test_univariate_reduces_to_ml(self):
        x = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        est = stein_triangular(x, centered=False)
        assert_allclose(est.matrix, [[10.0 / 4.0]])

    def test_divisors_n10_p3(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((10, 3))
        t = np.linalg.cholesky(x.T @ x)
        expected = (t / np.array([12.0, 10.0, 8.0])) @ t.T
        assert_allclose(stein_triangular(x, centered=False).matrix, expected, rtol=1e-12)

    def test_centered_loses_one_dof(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((10, 3))
        xc = x - x.mean(axis=0)
        t = np.linalg.cholesky(xc.T @ xc)
        expected = (t / np.array([11.0, 9.0, 7.0])) @ t.T
        assert_allclose(
            stein_triangular(x).matrix, expected, rtol=1e-12
        )

    def test_dof_below_dimension_rejected(self):
        x = np.random.default_rng(13).standard_normal((3, 3))
        with pytest.raises(ValueError):
            stein_triangular(x)


class TestDpEquivariant:
    def test_diagonal_hand_case(self):
        # pivots (8,3) with n=4: divisors n-i+1 = (4,3)
        x = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, np.sqrt(3)], [0.0, 0.0]])
        est = dp_equivariant(x, centered=False)
        assert_allclose(est.matrix, np.diag([2.0, 1.0]))
        assert est.target == "sigma_star"
        assert est.divisor == [4, 3]

    def test_univariate_reduces_to_ml(self):
        est = dp_equivariant(np.array([[3.0], [1.0]]), centered=False)
        assert_allclose(est.matrix, [[5.0]])

    def test_estimate_is_diagonal(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((15, 4))
        m = dp_equivariant(x, centered=False).matrix
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
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"smallest eigenvalue -1\.000000e\+00 is not positive") as exc:
            tsai_eigenvalues(np.array([3.0, -1.0]), n=10)
        assert exc.value.index == 2
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


def guard_crossing(l, n):
    """The two spectra, l[-2] moved toward l[-1], between which the guard starts to refuse.

    Bisection on the relative gap between the two smallest eigenvalues finds
    the adjacent doubles at which min d crosses DENOM_GUARD * n, so the
    smallest d of each spectrum lies within rounding of the guard.
    """
    def cluster(gap):
        return np.r_[l[:-2], l[-1] * (1.0 + gap), l[-1]]

    def refused(gap):
        return bool((shrinkage_terms(cluster(gap), n)[1] <= estimators.DENOM_GUARD * n).any())

    lo, hi = 0.0, 1.0  # refused at an exact tie, accepted at l[-2] = 2 l[-1]
    assert refused(lo) and not refused(hi)
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if refused(mid) else (lo, mid)
    return np.array([cluster(lo), cluster(hi)])


def guard_cases():
    """(n, a (k, p) stack of descending spectra) probing every rule of the shrinker's guard."""
    rng = np.random.default_rng(26)
    for p in (1, 2, 3, 5, 10, 30):
        for n in sorted({p, p + 1, 2 * p, 10 * p}):
            spread = rng.choice([0.05, 0.5, 2.0], (24, 1))
            l = -np.sort(-rng.lognormal(0.0, spread, (24, p)), axis=1)
            rows = [l]
            rows.append(l[:4] * 1e-310)  # subnormal: some d are not finite, or l_p is 0
            last = l[4:8].copy()
            last[:, -1] = [0.0, -0.0, -last[2, -1], -1e300]  # l_p <= 0
            rows.append(last)
            if p > 1:
                i = rng.integers(0, p - 1, 12)
                ties = l[8:20].copy()
                j = np.arange(12)
                # exact ties, then neighbours 1e-13 apart, then 2e-12 apart, relative
                ties[j, i + 1] = ties[j, i] * np.repeat([1.0, 1.0 - 1e-13, 1.0 - 2e-12], 4)
                rows.append(ties)
                # small eigenvalues 5e-13 of the largest apart: tied, though each
                # gap is wide next to its own eigenvalues and leaves d moderate
                rows.append(np.r_[1.0, 5e-13 * np.arange(p - 1, 0, -1)][None])
                if n > p:
                    rows.append(guard_crossing(4.0 ** -np.arange(p), n))
            yield n, np.concatenate(rows)


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
        scatter, _ = scatter_stack(x)
        scatter[1] = 20.0 * np.diag([3.0, 2.0, 2.0])
        est, errors = stacked_tsai(scatter, 20)
        assert type(errors[1]) is EigenvalueTieError
        assert str(errors[1]) == "minimum relative eigenvalue gap 0.000e+00 below 1e-12"
        for j in (0, 2, 3):
            assert errors[j] is None
            assert np.array_equal(est[j], tsai_estimator(scatter[j] / 20, n=20).matrix)

    def test_the_guard_turns_down_exactly_the_spectra_tsai_eigenvalues_refuses(self):
        # _declined and tsai_eigenvalues write the same rules twice: a row flagged
        # without a refusal would keep its unguarded psi
        counts = np.zeros(2, dtype=int)
        for n, l in guard_cases():
            want = []
            for row in l:
                try:
                    want.append((tsai_eigenvalues(row, n), None))
                except CovshrinkError as exc:
                    want.append((None, exc))
            flagged = estimators._declined(l, shrinkage_terms(l, n)[1], n)
            assert flagged.tolist() == [exc is not None for _, exc in want]
            errors = [None] * len(l)
            psi, _ = estimators.shrunk_spectra(l, n, errors)
            for j, (table, exc) in enumerate(want):
                if exc is None:
                    assert errors[j] is None
                    assert psi[j].tobytes() == table.shrunk_eigenvalues.tobytes()
                else:
                    assert (type(errors[j]), str(errors[j])) == (type(exc), str(exc))
            counts += np.bincount(flagged, minlength=2)
        assert counts.min() > 100  # both verdicts are well represented

    def test_tsai_eigenvalues_runs_only_for_the_spectra_the_guard_turns_down(self, monkeypatch):
        # at n = 8, p = 4 the guard turns down some spectra and accepts most
        calls = []

        def counted(l, n):
            calls.append(l)
            return tsai_eigenvalues(l, n)

        monkeypatch.setattr(estimators, "tsai_eigenvalues", counted)
        x = np.random.default_rng(33).standard_normal((200, 8, 4))
        _, errors = stacked_tsai(scatter_stack(x)[0], 8)
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

    @pytest.mark.parametrize("estimator", [stein_triangular, dp_equivariant])
    def test_estimate_with_a_divisor_per_coordinate_requires_n(self, estimator):
        s = estimator(np.random.default_rng(3).standard_normal((20, 3)))
        with pytest.raises(ValueError, match=f"a {s.method} estimate has one divisor per "
                                             "coordinate; pass n="):
            tsai_estimator(s)
        assert tsai_estimator(s, n=19).n == 20

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
        l = np.linalg.eigvalsh(s)[::-1]
        psi = est.shrinkage.shrunk_eigenvalues
        assert_allclose(
            np.linalg.norm(est.matrix - s, "fro"), np.linalg.norm(psi - l), rtol=1e-9
        )


# the README's sample: spikes 3, 2 over three unit variances
README_X = np.random.default_rng(0).standard_normal((200, 5)) @ np.diag([3, 2, 1, 1, 1]) ** 0.5


@pytest.mark.parametrize("k", [-40, -20, 20, 60])
@pytest.mark.parametrize("centered", [True, False])
@pytest.mark.parametrize("tag", list(ESTIMATORS))
def test_power_of_two_scaling_scales_every_estimate_exactly(tag, centered, k):
    # x 2**k gives S 2**2k, and each estimate and spectrum that many times the
    # unit-scale bits; the denominators do not move
    unit = ESTIMATORS[tag](README_X, centered)
    scaled = ESTIMATORS[tag](np.ldexp(README_X, k), centered)
    assert np.array_equal(scaled.matrix, np.ldexp(unit.matrix, 2 * k))
    if tag == "tsai":
        assert np.array_equal(scaled.shrinkage.sample_eigenvalues,
                              np.ldexp(unit.shrinkage.sample_eigenvalues, 2 * k))
        assert np.array_equal(scaled.shrinkage.shrunk_eigenvalues,
                              np.ldexp(unit.shrinkage.shrunk_eigenvalues, 2 * k))
        assert np.array_equal(scaled.shrinkage.denominators, unit.shrinkage.denominators)


@pytest.mark.parametrize("k", [[300, 0, -300], [400, 0, 0], [-400] * 3])
@pytest.mark.parametrize("centered", [True, False])
@pytest.mark.parametrize("tag", ["sample", "stein_triangular", "dp_equivariant"])
def test_column_powers_of_two_scale_the_data_estimates_exactly(tag, centered, k):
    # column j times 2**k_j gives entry (i, j) of each estimate 2**(k_i + k_j)
    # times the unit-scale bits, including columns past 2**256 either way
    x, k = README_X[:, :3], np.array(k)
    unit = ESTIMATORS[tag](x, centered).matrix
    scaled = ESTIMATORS[tag](np.ldexp(x, k), centered).matrix
    assert np.array_equal(scaled, np.ldexp(unit, k[:, None] + k))


@pytest.mark.parametrize("k", [-600, -300, 300, 600])
def test_one_power_of_two_scales_the_shrinker_exactly(k):
    # S times 2**k, also past 2**256 either way: the estimate and both spectra
    # are 2**k times the unit-scale bits, and the denominators do not move
    s = sample_covariance(README_X)
    unit, scaled = tsai_estimator(s), tsai_estimator(np.ldexp(s.matrix, k), n=s.divisor)
    assert np.array_equal(scaled.matrix, np.ldexp(unit.matrix, k))
    for field in ("sample_eigenvalues", "shrunk_eigenvalues"):
        assert np.array_equal(getattr(scaled.shrinkage, field),
                              np.ldexp(getattr(unit.shrinkage, field), k))
    assert np.array_equal(scaled.shrinkage.denominators, unit.shrinkage.denominators)


class TestFloatRange:
    @pytest.mark.parametrize("centered", [True, False])
    @pytest.mark.parametrize("tag", list(ESTIMATORS))
    def test_an_underflowing_estimate_is_refused(self, tag, centered):
        # full-rank data near 1e-200 has S near 1e-400, which rounds to 0
        x = np.random.default_rng(5).standard_normal((8, 3)) * 1e-200
        with pytest.raises(NumericError, match="^the estimate underflowed: its entries are below"):
            ESTIMATORS[tag](x, centered)

    @pytest.mark.parametrize("scale", [1.0, 1e-155])
    def test_a_constant_column_is_not_refused_as_underflowed(self, scale):
        # a power of two, so its mean is exact and its centered variance 0 at
        # every scale: the underflow check, which compares each diagonal entry
        # before and after scaling back, passes it
        x = np.random.default_rng(5).standard_normal((8, 3)) * scale
        x[:, 1] = 2.0 ** -700
        est = sample_covariance(x).matrix
        assert est[1, 1] == 0.0 and (est[[0, 2], [0, 2]] > 0).all()

    @pytest.mark.parametrize("scale", [1.0, 1e-155])
    def test_a_constant_column_whose_mean_rounds_has_a_zero_row(self, scale):
        # the mean of seven 0.1s is off by an ulp; centered on it, the column
        # would leave S_11 near 2e-34 at unit scale, which underflows at 1e-155
        x = np.random.default_rng(5).standard_normal((7, 3)) * scale
        x[:, 1] = 0.1 * scale
        xbar, scatter, _ = centered_stack(x[None])
        assert xbar[0, 1] == x[0, 1]
        assert not scatter[0, 1].any() and not scatter[0, :, 1].any()
        est = sample_covariance(x).matrix
        assert not est[1].any() and not est[:, 1].any() and (est[[0, 2], [0, 2]] > 0).all()

    @pytest.mark.parametrize("centered", [True, False])
    @pytest.mark.parametrize("tag", list(ESTIMATORS))
    def test_an_overflowing_estimate_is_refused(self, tag, centered):
        # S = 2.25e308 under both conventions; S = 1.125e308 from 1.5e154 / 0
        # is kept (test_io_cli's float-edge CSV calls)
        with pytest.raises(NumericError, match="the estimate overflowed"):
            ESTIMATORS[tag](np.array([[1.5e154], [-1.5e154]]), centered)

    def test_the_tie_guard_is_relative(self):
        # well separated at any scale; tied within 1e-12 of the largest at any scale
        for scale in (1e-20, 1.0, 1e20):
            table = tsai_eigenvalues(np.array([2.0, 1.0]) * scale, n=10)
            assert np.array_equal(table.denominators, tsai_eigenvalues([2.0, 1.0], 10).denominators)
            with pytest.raises(EigenvalueTieError, match="relative eigenvalue gap 5"):
                tsai_eigenvalues(np.array([2.0, 2.0 - 1e-12]) * scale, n=10)

    def test_denominators_that_are_not_finite_are_refused(self):
        # subnormal eigenvalues: the reciprocals of their gaps overflow
        l = np.array([3e-310, 1e-310])
        psi, d = shrinkage_terms(l, 10)
        assert not np.isfinite(d).all()
        with pytest.raises(NumericError, match="denominators are not finite"):
            tsai_eigenvalues(l, 10)
        scatter = np.stack([np.diag([3.0, 1.0]), np.diag(l)])
        est, errors = stacked_tsai(scatter, 10)
        assert errors[0] is None and type(errors[1]) is NumericError
        assert np.isfinite(est).all()


def test_ordering_preserved_on_wishart_draws():
    # the map can reorder only when a denominator nearly blows up; count and report
    rng = np.random.default_rng(909)
    attempts = successes = reordered = 0
    while attempts < 1000:
        attempts += 1
        p = int(rng.integers(2, 13))
        n = int(rng.integers(4 * p, 10 * p))
        x = rng.standard_normal((n, p))
        s = sample_covariance(x, centered=False)
        try:
            est = tsai_estimator(s)
        except ShrinkageSingularityError:
            continue
        successes += 1
        if np.any(np.diff(est.shrinkage.shrunk_eigenvalues) > 0):
            reordered += 1
    print(f"ordering check: {successes}/{attempts} mapped, {reordered} reordered")
    assert successes > 300
