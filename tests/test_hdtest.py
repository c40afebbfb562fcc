import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2, ncf, ncx2

import covshrink
from covshrink import (
    CovshrinkError,
    NotPositiveDefiniteError,
    NumericError,
    PowerReport,
    chisq_pvalue,
    decomposite_t2,
    hotelling_t2,
    oracle_t2,
    power_simulation,
    sample_covariance,
    tsai_eigenvalues,
)
from covshrink import _rng, hdtest
from covshrink._rng import bartlett_factor, draw_chunk, gaussian_rows, replicate_rng
from covshrink.estimators import centered_stack
from covshrink.hdtest import MEAN_TESTS, mean_test
from covshrink.matrix_core import cholesky


def random_spd(rng, p):
    g = rng.standard_normal((p, p))
    return g @ g.T + p * np.eye(p)


def ar1(p, rho):
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def kernel_on_samples(test, x, t):
    """MEAN_TESTS[test] on a (k, n, p) stack of samples, centered as mean_test centers one."""
    n = x.shape[1]
    if test == "oracle":
        with np.errstate(over="ignore"):
            xbar, s, errors = x.mean(axis=1), None, [None] * len(x)
    else:
        xbar, scatter, errors = centered_stack(x)
        s = scatter / (n - 1)
    return MEAN_TESTS[test](n, xbar, s, errors, t)


def statistic_or_refusal(test, x, sigma):
    """(statistic, None) of the mean test on one sample, or (None, its refusal)."""
    try:
        return mean_test(test, x, cholesky(sigma)).statistic, None
    except CovshrinkError as exc:
        return None, exc


class TestStackedKernels:
    @pytest.mark.parametrize("test", list(MEAN_TESTS))
    @pytest.mark.parametrize("sigma", [np.eye(4), ar1(4, 0.6)], ids=["identity", "ar1"])
    def test_slices_equal_the_public_test_bit_for_bit(self, test, sigma):
        # n=8, p=4 makes the shrinker refuse some slices; slice 5 is collinear
        x = draw_chunk(11, cholesky(sigma), 0, 40, 8)[0] + 0.3
        x[5, :, 3] = x[5, :, 2]
        stats, errors = kernel_on_samples(test, x, cholesky(sigma))
        assert len(stats) == len(errors) == 40
        classes = set()
        for j in range(40):
            statistic, error = statistic_or_refusal(test, x[j], sigma)
            if error is None:
                assert errors[j] is None
                assert stats[j] == statistic
            else:
                assert type(errors[j]) is type(error)
                assert str(errors[j]) == str(error)
                classes.add(type(error).__name__)
        expected = {"hotelling": {"NotPositiveDefiniteError"},
                    "decomposite": {"NotPositiveDefiniteError", "ShrinkageSingularityError"},
                    "oracle": set()}
        assert classes == expected[test]

    @pytest.mark.parametrize("sigma", [np.eye(5), ar1(5, 0.6)], ids=["identity", "ar1"])
    def test_statistics_equal_the_per_sample_formulas_bit_for_bit(self, sigma):
        # each statistic written out from the public pieces, one sample at a time
        n = 40
        x = draw_chunk(12, cholesky(sigma), 0, 60, n)[0] + 0.2
        stats = {test: kernel_on_samples(test, x, cholesky(sigma)) for test in MEAN_TESTS}
        for j in range(60):
            xbar = x[j].mean(axis=0)
            s = sample_covariance(x[j], centered=True).matrix
            w = np.linalg.solve(cholesky(s), xbar)
            assert stats["hotelling"][0][j] == n * float(w @ w)
            w = np.linalg.solve(cholesky(sigma), xbar)
            assert stats["oracle"][0][j] == n * float(w @ w)
            if stats["decomposite"][1][j] is None:
                l, u = np.linalg.eigh(s)
                psi = tsai_eigenvalues(l[::-1], n - 1).shrunk_eigenvalues
                proj = np.ascontiguousarray(u[:, ::-1]).T @ xbar
                assert stats["decomposite"][0][j] == n * float(np.sum(proj * proj / psi))

    @pytest.mark.parametrize("test", list(MEAN_TESTS))
    def test_an_overflowing_slice_is_refused_alone(self, test):
        # slice 2's sample mean overflows; the other slices keep their bits
        t = cholesky(ar1(3, 0.5))
        x = draw_chunk(13, t, 0, 6, 30)[0] + 0.2
        want_stats, want_errors = kernel_on_samples(test, np.delete(x, 2, axis=0), t)
        x[2] = 1e308
        stats, errors = kernel_on_samples(test, x, t)
        assert type(errors[2]) is NumericError
        assert errors[:2] + errors[3:] == want_errors
        assert np.delete(stats, 2).tobytes() == want_stats.tobytes()

    def test_oracle_and_power_refuse_an_indefinite_sigma(self):
        sigma = np.diag([1.0, -1.0, 2.0])
        x = draw_chunk(3, np.eye(3), 0, 1, 10)[0][0]
        message = "leading minor of order 2 is not positive definite"
        with pytest.raises(NotPositiveDefiniteError, match=message):
            oracle_t2(x, sigma)
        with pytest.raises(NotPositiveDefiniteError, match=message):
            power_simulation(10, 3, sigma, np.zeros(3), replicates=4, method="oracle")


class TestChisqPvalue:
    def test_zero_statistic(self):
        assert chisq_pvalue(0.0, 3) == 1.0

    def test_two_dof_closed_form(self):
        # survival of chi2_2 is exp(-x/2)
        for x in (0.5, 2.0, 5.99146454710798):
            assert_allclose(chisq_pvalue(x, 2), math.exp(-x / 2), rtol=1e-12)

    def test_central_matches_scipy(self):
        for p in (1, 2, 5, 20):
            for x in (0.3, 2.0, 9.0, 40.0):
                assert_allclose(chisq_pvalue(x, p), chi2.sf(x, p), rtol=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            chisq_pvalue(-1.0, 3)
        for p in (0, 2.5):
            with pytest.raises(ValueError, match="positive integer"):
                chisq_pvalue(1.0, p)

    def test_finite_sum_matches_scipy_into_the_far_tail(self):
        # relative accuracy wherever scipy's Q is a normal double
        for p in [*range(1, 61), 100, 399, 400, 999, 1000]:
            xs = np.geomspace(1e-6 * p, 8 * p, 60)
            ref = chi2.sf(xs, p)
            keep = ref >= np.finfo(float).tiny
            got = [chisq_pvalue(float(x), p) for x in xs[keep]]
            assert_allclose(got, ref[keep], rtol=1e-12, atol=0, err_msg=f"p={p}")

    def test_edges(self):
        for p in (1, 2, 7, 400):
            assert chisq_pvalue(0.0, p) == 1.0
            assert chisq_pvalue(1e6 * p, p) == 0.0
            assert chisq_pvalue(math.inf, p) == 0.0
        for x in (1e-9, 0.3, 5.0, 80.0, 1400.0):
            assert_allclose(chisq_pvalue(x, 1), math.erfc(math.sqrt(x / 2)), rtol=1e-15)
            assert_allclose(chisq_pvalue(x, 2), math.exp(-x / 2), rtol=1e-15)


class TestHotelling:
    def test_univariate_hand_value(self):
        # xbar=2, s2=2, n=2: T2 = 2 * 4 / 2 = 4
        res = hotelling_t2(np.array([[1.0], [3.0]]))
        assert_allclose(res.statistic, 4.0)
        assert res.dof == 1
        assert res.method == "hotelling"

    def test_antisymmetric_rows_give_zero(self):
        x = np.array([[1.0, 2.0], [-1.0, -2.0], [2.0, -1.0], [-2.0, 1.0]])
        assert_allclose(hotelling_t2(x).statistic, 0.0, atol=1e-20)

    def test_affine_invariance(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((20, 4))
        base = hotelling_t2(x).statistic
        g = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        assert_allclose(hotelling_t2(x @ g.T).statistic, base, rtol=1e-9)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            hotelling_t2(np.random.default_rng(0).standard_normal((4, 4)))


class TestDecomposite:
    def test_univariate_equals_hotelling(self):
        x = np.array([[1.0], [3.0]])
        assert_allclose(decomposite_t2(x).statistic, hotelling_t2(x).statistic)

    def test_zero_mean_rows_give_zero(self):
        # mean exactly zero but spectrum distinct, so the shrinker stays happy
        x = np.array([[3.0, 1.0], [-3.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        assert_allclose(decomposite_t2(x).statistic, 0.0, atol=1e-20)

    def test_spectral_route_matches_inverse_route(self):
        # second derivation: invert U diag(psi) U' directly and form the
        # quadratic form; both must agree to floating precision
        rng = np.random.default_rng(15)
        x = rng.standard_normal((40, 3)) + 0.3
        n = x.shape[0]
        res = decomposite_t2(x)
        s = sample_covariance(x, centered=True)
        l, u = np.linalg.eigh(s.matrix)
        psi = tsai_eigenvalues(l[::-1], n - 1).shrunk_eigenvalues
        inv = (u[:, ::-1] / psi) @ u[:, ::-1].T
        xbar = x.mean(axis=0)
        assert_allclose(res.statistic, n * xbar @ inv @ xbar, rtol=1e-10)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((25, 4)) + 0.2
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert_allclose(decomposite_t2(x @ q.T).statistic, decomposite_t2(x).statistic, rtol=1e-9)

    def test_pvalue_consistent_with_statistic(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((30, 3))
        res = decomposite_t2(x)
        assert_allclose(res.pvalue, chisq_pvalue(res.statistic, 3), rtol=1e-12)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            decomposite_t2(np.random.default_rng(1).standard_normal((3, 3)))

    @pytest.mark.parametrize("k", [-40, -20, 20, 60])
    def test_power_of_two_scaling_leaves_the_statistic_bit_for_bit(self, k):
        # the README's sample; its relative eigenvalue gaps do not change with units
        x = np.random.default_rng(0).standard_normal((200, 5)) @ np.diag([3, 2, 1, 1, 1]) ** 0.5
        assert decomposite_t2(np.ldexp(x, k)).statistic == decomposite_t2(x).statistic


@pytest.mark.parametrize("test", [hotelling_t2, decomposite_t2])
def test_the_scale_free_tests_take_any_power_of_two_bit_for_bit(test):
    # mean_test brings max|x| into [1/2, 1) by a power of two where the scatter
    # on the data's own scale could overflow (k = 520, 1000) or go subnormal
    # (k = -520, -1000), so the statistic at x * 2**k is that at x
    x = np.random.default_rng(0).standard_normal((200, 5)) @ np.diag([3, 2, 1, 1, 1]) ** 0.5
    want = test(x).statistic
    for k in (-1000, -520, -40, 40, 520, 1000):
        assert test(np.ldexp(x, k)).statistic == want, k


def test_hotelling_takes_each_columns_power_of_two():
    # T^2 ignores each column's scale, and mean_test scales each hotelling
    # column by its own power of two where one could overflow or go subnormal,
    # so such samples give one statistic, bit for bit.  It is the unscaled
    # sample's up to the solve's pivoting, which column scales change: at
    # most 6.5e-15 relative over 200 seeds of this and the sweep's 8 x 3 sample
    x = np.random.default_rng(0).standard_normal((200, 5)) @ np.diag([3, 2, 1, 1, 1]) ** 0.5
    stats = {hotelling_t2(np.ldexp(x, np.array(k))).statistic
             for k in ([1000, 0, -1000, 3, 0], [520, -520, 0, 0, 40], [-300, 0, 0, 0, 0])}
    assert len(stats) == 1
    assert_allclose(stats.pop(), hotelling_t2(x).statistic, rtol=1e-14)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("test", [hotelling_t2, decomposite_t2])
def test_collinear_data_is_refused(test, seed):
    # column 4 copies column 3, so the centered S is exactly singular; rounding
    # leaves its smallest eigenvalue or last pivot at +-1e-16 relative
    x = np.random.default_rng(seed).standard_normal((20, 4))
    x[:, 3] = x[:, 2]
    with pytest.raises(NotPositiveDefiniteError):
        test(x)


@pytest.mark.parametrize("value", [0.0, 0.1, -3.7])
@pytest.mark.parametrize("test", [hotelling_t2, decomposite_t2])
def test_a_constant_column_is_refused(test, value):
    # a constant column has zero variance, and its S_ii is exactly 0: at 0.1
    # or -3.7 too, whose computed mean is off by the sum's rounding
    x = np.random.default_rng(4).standard_normal((20, 3))
    x[:, 1] = value
    with pytest.raises(NotPositiveDefiniteError, match="centered covariance is singular"):
        test(x)


class TestHotellingScale:
    def test_statistic_ignores_a_huge_coordinate_scale(self):
        x = np.random.default_rng(5).standard_normal((50, 3))
        base = hotelling_t2(x).statistic
        for scale in (1e8, 1e16, 1e150):
            assert_allclose(hotelling_t2(x * [scale, 1.0, 1.0]).statistic, base, rtol=1e-9)

    def test_power_completes_on_a_population_spiked_at_1e16(self):
        rep = power_simulation(50, 3, np.diag([1e16, 1.0, 1.0]), np.zeros(3), replicates=100,
                               seed=0, method="hotelling")
        assert (rep.failures, rep.replicates) == (0, 100)


class TestOracle:
    def test_identity_population_reduces_to_norm(self):
        x = np.array([[1.0, 0.0], [3.0, 2.0]])
        xbar = x.mean(axis=0)
        assert_allclose(oracle_t2(x, np.eye(2)).statistic, 2 * xbar @ xbar)

    def test_exact_null_quantile(self):
        # 95th percentile of the statistic against the chi-square quantile
        rng = np.random.default_rng(18)
        p, n, reps = 5, 50, 20000
        target = chi2.ppf(0.95, p)
        stats = np.empty(reps)
        for r in range(reps):
            x = rng.standard_normal((n, p))
            stats[r] = oracle_t2(x, np.eye(p)).statistic
        q = np.quantile(stats, 0.95)
        assert abs(q - target) / target < 0.02

    def test_pvalues_uniform_under_null(self):
        rng = np.random.default_rng(19)
        p, n, reps = 4, 30, 4000
        pv = np.empty(reps)
        for r in range(reps):
            x = rng.standard_normal((n, p))
            pv[r] = oracle_t2(x, np.eye(p)).pvalue
        grid = np.sort(pv)
        i = np.arange(1, reps + 1)
        ks = max(np.abs(grid - i / reps).max(), np.abs(grid - (i - 1) / reps).max())
        assert ks < 0.03


class TestPowerSimulation:
    def test_size_under_null(self):
        rep = power_simulation(
            n=40, p=3, sigma=np.eye(3), delta=np.zeros(3),
            replicates=2000, seed=21, method="oracle",
        )
        assert abs(rep.rejection_rate - 0.05) < 3 * max(rep.std_error, 1e-3)

    def test_classical_rate_matches_noncentral_prediction(self):
        # mu = delta/sqrt(n) gives an exactly noncentral oracle statistic
        p, delta = 4, np.array([2.0, 0.0, 0.0, 0.0])
        rep = power_simulation(
            n=60, p=p, sigma=np.eye(p), delta=delta,
            replicates=3000, seed=22, method="oracle", rate="classical",
        )
        predicted = ncx2.sf(chi2.ppf(0.95, p), p, 4.0)
        assert abs(rep.rejection_rate - predicted) < 3 * rep.std_error

    def test_hdim_rate_matches_noncentral_prediction(self):
        # mu = p^(1/4) delta/sqrt(n) boosts the noncentrality by sqrt(p)
        p, delta = 4, np.array([2.0, 0.0, 0.0, 0.0])
        rep = power_simulation(
            n=60, p=p, sigma=np.eye(p), delta=delta,
            replicates=3000, seed=23, method="oracle", rate="hdim",
        )
        predicted = ncx2.sf(chi2.ppf(0.95, p), p, 4.0 * math.sqrt(p))
        assert abs(rep.rejection_rate - predicted) < 3 * rep.std_error

    def test_power_monotone_in_shift(self):
        p = 3
        rates = []
        for t in (0.0, 1.5, 3.0):
            rep = power_simulation(
                n=50, p=p, sigma=np.eye(p), delta=t * np.eye(p)[0],
                replicates=1500, seed=24, method="oracle",
            )
            rates.append(rep.rejection_rate)
        assert rates[0] < rates[1] < rates[2]

    def test_decomposite_runs_and_reports(self):
        rep = power_simulation(
            n=80, p=2, sigma=np.eye(2), delta=np.array([1.0, 0.0]),
            replicates=400, seed=25, method="decomposite",
        )
        assert 0.0 <= rep.rejection_rate <= 1.0
        assert rep.replicates + rep.failures == 400

    def test_thread_determinism(self):
        a = power_simulation(n=30, p=2, sigma=np.eye(2), delta=np.zeros(2),
                             replicates=300, seed=26, threads=1)
        b = power_simulation(n=30, p=2, sigma=np.eye(2), delta=np.zeros(2),
                             replicates=300, seed=26, threads=4)
        assert a.rejection_rate == b.rejection_rate

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("test", list(MEAN_TESTS))
    def test_equals_a_loop_over_the_public_test(self, test, threads):
        # replicate r is one row z L' from its generator, whose mean z L' / sqrt(n)
        # is shifted by mu, then, but for the oracle, the factor F = L T drawn next,
        # with S = F F' / (n - 1), scored one at a time by the public test's k = 1
        # kernel.  At n=40 the shrinker refuses 2 of 400, within the 1 % limit
        n, p, sigma = 40, 4, ar1(4, 0.5)
        t = cholesky(sigma)
        delta = np.array([1.0, 0.5, 0.0, 0.0])
        rep = power_simulation(n, p, sigma, delta, replicates=400, seed=1, method=test,
                               threads=threads)
        mu = delta * p ** 0.25 / math.sqrt(n)
        rejections, classes = [], {}
        for r in range(400):
            rng = replicate_rng(1, r)
            xbar = gaussian_rows(rng, t, 1)[0] / math.sqrt(n)
            f = None if test == "oracle" else bartlett_factor(rng, t, n - 1)
            s = None if f is None else (f / math.sqrt(n - 1)) @ (f / math.sqrt(n - 1)).T
            stats, errors = MEAN_TESTS[test](n, (xbar + mu)[None], None if s is None else s[None],
                                             [None], t)
            if errors[0] is None:
                rejections.append(stats[0] > rep.critical_value)
            else:
                classes[type(errors[0]).__name__] = classes.get(type(errors[0]).__name__, 0) + 1
        assert rep.rejection_rate == sum(rejections) / len(rejections)
        assert rep.replicates == len(rejections)
        assert rep.failures == 400 - len(rejections) == sum(classes.values())
        assert rep.failure_classes == classes
        if test == "decomposite":
            assert classes == {"ShrinkageSingularityError": 2}

    def test_nan_oracle_statistic_is_a_numeric_failure(self, monkeypatch):
        # the mean's sum overflows to inf and the solve turns it into NaN; such
        # a replicate is refused, not counted as "not rejected"
        with pytest.raises(NumericError, match="NaN"):
            oracle_t2(np.full((30, 2), 1e308), np.eye(2))
        draw = _rng.draw_chunk

        def overflow_first(*args):
            x, factors = draw(*args)
            if args[2] == 0:
                x[0, 0, 0] = np.inf  # replicate 0's mean overflowed
            return x, factors

        monkeypatch.setattr(_rng, "draw_chunk", overflow_first)
        rep = power_simulation(30, 2, np.eye(2), np.zeros(2), replicates=400, seed=3)
        assert (rep.failures, rep.replicates) == (1, 399)
        assert rep.failure_classes == {"NumericError": 1}

    @pytest.mark.parametrize("test", ["hotelling", "decomposite"])
    def test_an_overflowing_mean_or_covariance_is_a_numeric_failure(self, monkeypatch, test):
        # replicate 0's mean overflows and replicate 1's S does; each is refused alone
        args = (100, 2, np.eye(2), np.zeros(2))
        want = power_simulation(*args, replicates=400, seed=3, method=test)
        draw = _rng.draw_chunk

        def overflow_two(*args):
            x, factors = draw(*args)
            if args[2] == 0:
                x[0, 0, 0] = np.inf
                factors[1] *= 1e200
            return x, factors

        monkeypatch.setattr(_rng, "draw_chunk", overflow_two)
        rep = power_simulation(*args, replicates=400, seed=3, method=test)
        assert rep.failures == want.failures + 2
        assert rep.failure_classes == {**want.failure_classes, "NumericError": 2}

    @pytest.mark.parametrize("test", ["hotelling", "decomposite", "oracle"])
    @pytest.mark.parametrize("sigma", [np.eye(2), [[1.0, 2.0], [2.0, 5.0]]],
                             ids=["identity", "dense"])
    def test_an_infinite_mean_is_refused_by_every_test(self, sigma, test):
        # the product 1.7e308 * 2**(1/4) overflows before its division by sqrt(30),
        # so every mean's first entry is inf.  With the dense sigma, whose factor
        # [[1, 0], [2, 1]] the solve pivots, the oracle's statistic is inf, not
        # NaN, and would read as a rejection: the mean itself must be refused
        with pytest.raises(NumericError, match="200 of 200 replicates failed") as info:
            power_simulation(30, 2, sigma, [1.7e308, 0.0], replicates=200, seed=3, method=test)
        assert str(info.value).endswith("refusals: NumericError 200")

    @pytest.mark.parametrize("size", [3, 1])
    def test_sigma_of_other_size_than_p_is_refused_before_any_draw(self, monkeypatch, size):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a chunk")

        monkeypatch.setattr(_rng, "draw_chunk", no_draw)
        message = rf"sigma must be 2 x 2 for p=2, got shape \({size}, {size}\)"
        with pytest.raises(ValueError, match=message):
            power_simulation(5, 2, np.eye(size), [0, 0])

    @pytest.mark.parametrize("test", ["hotelling", "decomposite"])
    def test_too_few_samples_for_s_are_refused_before_any_draw(self, monkeypatch, test):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a chunk")

        monkeypatch.setattr(_rng, "draw_chunk", no_draw)
        message = "need n >= p [+] 1 for an invertible centered covariance, got n=4, p=4"
        with pytest.raises(ValueError, match=message):
            power_simulation(4, 4, np.eye(4), np.zeros(4), method=test)
        with pytest.raises(ValueError, match=message):
            mean_test(test, np.random.default_rng(0).standard_normal((4, 4)))

    def test_refusals_above_the_limit_abort(self):
        # n=18 aborts: 6 of 400 refused, two past the 4 allowed
        with pytest.raises(NumericError, match="6 of 400 replicates failed"):
            power_simulation(18, 4, ar1(4, 0.5), np.array([1.0, 0.5, 0.0, 0.0]),
                             replicates=400, seed=1, method="decomposite")

    # (method, n, p, delta, sigma); n = p + 1 is the fewest samples hotelling takes
    EXACT_CASES = [
        ("oracle", 100, 5, [2.0, 0.0, 0.0, 0.0, 0.0], np.eye(5)),
        ("oracle", 40, 3, [1.0, -1.0, 0.5], ar1(3, 0.5)),
        ("oracle", 2, 4, [1.0, 1.0, 0.0, 0.0], np.diag([4.0, 1.0, 0.25, 1.0])),
        ("hotelling", 60, 4, [1.5, 0.0, 0.0, 0.0], ar1(4, 0.5)),
        ("hotelling", 5, 4, [2.0, 1.0, 0.0, 0.0], ar1(4, 0.5)),
        ("hotelling", 30, 6, [1.0, 0.0, -1.0, 0.0, 0.5, 0.0],
         random_spd(np.random.default_rng(8), 6)),
    ]

    @pytest.mark.parametrize("rate", ["hdim", "classical"])
    @pytest.mark.parametrize("case", range(len(EXACT_CASES)))
    def test_rejection_rate_matches_the_exact_power(self, case, rate):
        # the oracle statistic is noncentral chi2_p(lam) and (n - p) / (p (n - 1)) T^2 is
        # noncentral F(p, n - p; lam), lam = n mu' sigma^-1 mu, for Gaussian data at any n.
        # |z| <= 4 over these 12 runs: a false alarm on either in about 1 of 1300 runs
        method, n, p, delta, sigma = self.EXACT_CASES[case]
        rep = power_simulation(n, p, sigma, delta, replicates=2000, seed=500 + case,
                               method=method, rate=rate)
        mu = np.asarray(delta) * (p ** 0.25 if rate == "hdim" else 1.0) / math.sqrt(n)
        lam = n * float(mu @ np.linalg.solve(sigma, mu))
        crit = rep.critical_value
        if method == "oracle":
            exact = ncx2.sf(crit, p, lam)
        else:
            exact = ncf.sf(crit * (n - p) / (p * (n - 1)), p, n - p, lam)
        z = (rep.rejection_rate - exact) / math.sqrt(exact * (1.0 - exact) / rep.replicates)
        assert abs(z) <= 4.0, f"rate {rep.rejection_rate:.4f} against exact {exact:.4f}"

    def test_report_without_failure_classes_still_loads(self):
        rep = power_simulation(n=30, p=2, sigma=np.eye(2), delta=np.zeros(2),
                               replicates=50, seed=5)
        old = {k: v for k, v in asdict(rep).items() if k != "failure_classes"}
        assert PowerReport(**old) == rep
        assert rep.failure_classes == {}

    def test_critical_value_is_the_chi_square_quantile(self):
        for p in (1, 2, 5, 10):
            for alpha in (0.01, 0.05, 0.1):
                rep = power_simulation(n=30, p=p, sigma=np.eye(p), delta=np.zeros(p),
                                       alpha=alpha, replicates=5, seed=27)
                assert_allclose(rep.critical_value, chi2.ppf(1.0 - alpha, p), rtol=1e-12)

    def test_critical_value_matches_scipy_isf(self):
        for p in [*range(1, 61), 100, 399, 400, 999, 1000]:
            # fewer levels at large p, where each call factors a p x p sigma
            for alpha in np.geomspace(1e-6, 0.5, 12 if p <= 100 else 4):
                rep = power_simulation(n=2, p=p, sigma=np.eye(p), delta=np.zeros(p),
                                       alpha=float(alpha), replicates=1)
                assert_allclose(rep.critical_value, chi2.isf(alpha, p), rtol=1e-13, atol=0,
                                err_msg=f"p={p}, alpha={alpha}")

    def test_critical_value_is_the_least_double_at_or_below_alpha(self, monkeypatch):
        calls = []

        def counted(statistic, p):
            calls.append(statistic)
            return chisq_pvalue(statistic, p)

        monkeypatch.setattr(hdtest, "chisq_pvalue", counted)
        for p in [*range(1, 61), 100, 399, 400, 999, 1000]:
            for alpha in (1e-9, 1e-4, 0.05, 0.5):
                calls.clear()
                crit = power_simulation(n=2, p=p, sigma=np.eye(p), delta=np.zeros(p),
                                        alpha=alpha, replicates=1).critical_value
                assert len(calls) <= 128, f"p={p}, alpha={alpha}"
                assert (chisq_pvalue(crit, p) <= alpha
                        < chisq_pvalue(math.nextafter(crit, 0.0), p)), f"p={p}, alpha={alpha}"
        # above 1/2 the tail sum's rounding near 1 would set the critical value
        for alpha in (0.9, 0.9999, 1.0 - 1e-9):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1/2\], got"):
                power_simulation(n=2, p=3, sigma=np.eye(3), delta=np.zeros(3), alpha=alpha)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            power_simulation(n=30, p=2, sigma=np.eye(2), delta=np.zeros(2), method="bartlett")
        with pytest.raises(ValueError):
            power_simulation(n=30, p=2, sigma=np.eye(2), delta=np.zeros(2), rate="sqrt")
        with pytest.raises(ValueError):
            power_simulation(n=30, p=2, sigma=np.eye(2), delta=np.zeros(2), alpha=1.5)
        with pytest.raises(ValueError):
            power_simulation(n=30, p=2, sigma=np.eye(2), delta=np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            power_simulation(n=30, p=2, sigma=np.eye(2), delta=np.array([np.nan, 0.0]))
        with pytest.raises(ValueError, match="at least 2 observations"):
            power_simulation(n=1, p=1, sigma=np.eye(1), delta=np.zeros(1), method="oracle")

    def test_replicate_count_below_one_is_refused(self):
        for replicates in (0, -3):
            with pytest.raises(ValueError, match="at least 1 replicate"):
                power_simulation(n=30, p=2, sigma=np.eye(2), delta=np.zeros(2),
                                 replicates=replicates)


def test_import_does_not_load_scipy_stats():
    src = str(Path(covshrink.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import sys, covshrink; "
            "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# Runs each argv through run_cli in one fresh interpreter and prints, as JSON,
# the scipy modules loaded after the import and after each call.
SCIPY_PROBE = """
import contextlib, io, json, sys
from covshrink.io_cli import run_cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(argv)
    steps.append([code, loaded()])
print(json.dumps(steps))
"""


def test_no_command_loads_any_scipy_module(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("1,2,0.5\n3,5,1\n4,4,-2\n2,7,3\n0,1,1\n6,2,2\n")
    argvs = [
        ["estimate", "--input", str(data), "--method", "sample"],
        ["estimate", "--input", str(data), "--method", "tsai"],
        ["mp", "--c", "0.25", "--points", "5"],
        ["simulate", "--experiment", "esd", "--n", "40", "--p", "8", "--replicates", "2"],
        ["estimate", "--input", str(data), "--method", "stein"],
        ["simulate", "--experiment", "recovery", "--n", "40", "--p", "8", "--replicates", "2"],
        ["risk", "--n", "20", "--p", "3", "--monte-carlo", "--replicates", "100"],
        ["risk", "--n", "20", "--p", "3", "--closed-form"],
        ["ttest", "--input", str(data), "--method", "hotelling"],
        ["ttest", "--input", str(data), "--method", "decomposite"],
        ["power", "--n", "20", "--p", "2", "--delta", "1,0", "--replicates", "50"],
        ["simulate", "--experiment", "risk", "--n", "20", "--p", "3", "--replicates", "5"],
    ]
    src = str(Path(covshrink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(argvs)],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                         check=True, timeout=120)
    # digamma, the chi-square tail and its quantile are closed forms on math
    assert json.loads(out.stdout) == [[None, []]] + [[0, []]] * len(argvs)
