import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covshrink import (
    AsymmetricInputError,
    CovshrinkError,
    EigenvalueTieError,
    NotPositiveDefiniteError,
    NumericError,
    ShrinkageSingularityError,
    elog_chisq,
    min_risk,
    monte_carlo_risk,
    stein_loss,
)
from covshrink import _rng
from covshrink._rng import aggregate, bartlett_factor, check_failures, replicate_rng
from covshrink.estimators import (
    CLASS_DIVISORS,
    ESTIMATORS,
    FACTOR_ESTIMATORS,
    _pivot,
    _sample,
    _target,
    _triangular,
    _tsai,
    scatter_matrix,
    scatter_stack,
    tsai_estimator,
)
from covshrink.loss_risk import _inverse_factor, _stein_losses, loss_tail, replicate_losses
from covshrink.matrix_core import (cholesky, cholesky_stack, schur_pivots, symmetric_part,
                                   unrefused)

EULER_GAMMA = 0.5772156649015329


def random_spd(rng, p):
    g = rng.standard_normal((p, p))
    return g @ g.T + p * np.eye(p)


class TestSteinLoss:
    def test_zero_at_truth(self):
        rng = np.random.default_rng(1)
        for p in (1, 3, 8):
            s = random_spd(rng, p)
            assert abs(stein_loss(s, s)) < 1e-12

    def test_scalar_hand_value(self):
        # phi=2, sigma=1: 2 - log 2 - 1
        assert_allclose(stein_loss([[2.0]], [[1.0]]), 1.0 - np.log(2.0))

    def test_scaled_identity(self):
        # phi = 2 sigma in p dims: p (1 - log 2)
        p = 4
        assert_allclose(stein_loss(2 * np.eye(p), np.eye(p)), p * (2 - np.log(2.0) - 1))

    def test_diagonal_hand_value(self):
        loss = stein_loss(np.diag([2.0, 1.0]), np.eye(2))
        assert_allclose(loss, 1.0 - np.log(2.0))

    def test_positive_away_from_truth(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = int(rng.integers(1, 7))
            phi, sigma = random_spd(rng, p), random_spd(rng, p)
            loss = stein_loss(phi, sigma)
            assert loss > 0 or np.abs(phi - sigma).max() < 1e-10

    def test_invariance_under_congruence(self):
        # loss(G phi G', G sigma G') = loss(phi, sigma) for invertible G
        rng = np.random.default_rng(3)
        p = 5
        phi, sigma = random_spd(rng, p), random_spd(rng, p)
        base = stein_loss(phi, sigma)
        for _ in range(10):
            g = rng.standard_normal((p, p)) + 3 * np.eye(p)
            assert_allclose(stein_loss(g @ phi @ g.T, g @ sigma @ g.T), base, rtol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            stein_loss(np.eye(2), np.eye(3))

    def test_degenerate_estimate_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            stein_loss(np.zeros((2, 2)), np.eye(2))


class TestElogChisq:
    def test_two_dof_is_minus_euler_gamma(self):
        # E[log chi2_2] = log 2 - gamma
        assert_allclose(elog_chisq(2), np.log(2.0) - EULER_GAMMA, rtol=1e-12)

    def test_four_dof(self):
        # digamma(2) = 1 - gamma
        assert_allclose(elog_chisq(4), np.log(2.0) + 1.0 - EULER_GAMMA, rtol=1e-12)

    def test_monotone_in_dof(self):
        vals = elog_chisq(np.arange(1, 101))
        assert np.all(np.diff(vals) > 0)

    def test_below_log_k(self):
        # Jensen: E[log] < log E
        for k in (1, 2, 5, 30, 200):
            assert elog_chisq(k) < np.log(k)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(10)
        n = 10_000_000
        for k in (3, 12):
            draws = np.log(rng.chisquare(k, n))
            se = draws.std(ddof=1) / np.sqrt(n)
            assert abs(draws.mean() - elog_chisq(k)) < 3 * se

    def test_domain(self):
        with pytest.raises(ValueError):
            elog_chisq(0)

    def test_matches_scipy_digamma(self):
        # scipy is the reference here only; the package computes digamma itself
        from scipy.special import digamma

        k = np.arange(1, 200_001)
        assert_allclose(elog_chisq(k), np.log(2.0) + digamma(k / 2.0), rtol=1e-14, atol=0)
        assert type(elog_chisq(7)) is float


class TestMinRisk:
    def test_univariate_all_kinds_coincide(self):
        # p=1: every divisor is n, so the class minima agree
        for n in (2, 10, 50):
            ml = min_risk("ml", n, 1)
            assert_allclose(min_risk("stein", n, 1), ml)
            assert_allclose(min_risk("dp", n, 1), ml)
            assert_allclose(ml, np.log(n) - elog_chisq(n))

    def test_smallest_case_is_euler_gamma(self):
        # n=2, p=1: log 2 - E[log chi2_2] = gamma
        assert_allclose(min_risk("ml", 2, 1), EULER_GAMMA, rtol=1e-12)

    def test_ordering_for_p_at_least_2(self):
        for n, p in ((10, 3), (50, 10), (100, 99)):
            dp = min_risk("dp", n, p)
            st = min_risk("stein", n, p)
            ml = min_risk("ml", n, p)
            assert dp < st < ml

    def test_hand_value_n10_p3(self):
        i = np.arange(1, 4)
        expected = float(np.sum(np.log([12.0, 10.0, 8.0]) - elog_chisq(10 - i + 1)))
        assert_allclose(min_risk("stein", 10, 3), expected, rtol=1e-12)

    @pytest.mark.parametrize("n", [50, 10 ** 6, 10 ** 9, 10 ** 12])
    @pytest.mark.parametrize("kind", ["ml", "stein", "dp"])
    def test_matches_a_50_digit_reference_at_any_n(self, kind, n):
        # each summand log d_i - E[log chi2_{n-i+1}] is about p/n, a difference
        # of two numbers near log n; the bound is 9 eps relative to the sum
        mpmath = pytest.importorskip("mpmath")
        p = 10
        with mpmath.workdps(50):
            ref = mpmath.fsum(
                mpmath.log({"ml": n, "stein": n + p - 2 * i + 1, "dp": n - i + 1}[kind])
                - mpmath.log(2) - mpmath.digamma(mpmath.mpf(n - i + 1) / 2)
                for i in range(1, p + 1))
            err = abs((mpmath.mpf(min_risk(kind, n, p)) - ref) / ref)
        assert err <= 2e-15

    def test_domain_and_kind(self):
        with pytest.raises(ValueError):
            min_risk("ml", 3, 4)
        with pytest.raises(ValueError):
            min_risk("mle", 10, 2)


class TestMonteCarloRisk:
    def test_matches_closed_forms(self):
        # each equivariant estimator attains its class minimum; 3 SE bands
        n, p, reps = 20, 4, 2000
        sigma = np.eye(p)
        for method, kind in (
            ("sample", "ml"),
            ("stein_triangular", "stein"),
            ("dp_equivariant", "dp"),
        ):
            est = monte_carlo_risk(method, sigma, n=n, replicates=reps, seed=515)
            assert abs(est.mean_loss - min_risk(kind, n, p)) < 3 * est.std_error
            assert est.failures == 0

    def test_population_invariance(self):
        # equivariant risks cannot depend on sigma; identity vs a full matrix
        rng = np.random.default_rng(8)
        sigma = random_spd(rng, 3)
        a = monte_carlo_risk("stein_triangular", np.eye(3), n=15, replicates=1500, seed=99)
        b = monte_carlo_risk("stein_triangular", sigma, n=15, replicates=1500, seed=99)
        assert_allclose(a.mean_loss, b.mean_loss, rtol=1e-9)

    def test_seed_determinism(self):
        a = monte_carlo_risk("sample", np.eye(2), n=10, replicates=200, seed=7)
        b = monte_carlo_risk("sample", np.eye(2), n=10, replicates=200, seed=7)
        assert a.mean_loss == b.mean_loss
        assert a.std_error == b.std_error

    def test_thread_count_does_not_change_result(self):
        a = monte_carlo_risk("sample", np.eye(3), n=12, replicates=300, seed=11, threads=1)
        b = monte_carlo_risk("sample", np.eye(3), n=12, replicates=300, seed=11, threads=4)
        assert a.mean_loss == b.mean_loss

    def test_seed_changes_result(self):
        a = monte_carlo_risk("sample", np.eye(2), n=10, replicates=200, seed=1)
        b = monte_carlo_risk("sample", np.eye(2), n=10, replicates=200, seed=2)
        assert a.mean_loss != b.mean_loss

    def test_failure_fraction_aborts(self):
        # clustered sample spectra at c=1/2 break the shrinker almost surely
        with pytest.raises(NumericError):
            monte_carlo_risk("tsai", np.eye(30), n=60, replicates=100, seed=3)

    def test_failure_fraction_boundary(self):
        # exactly 1 % failed is tolerated, one more failure is not
        assert check_failures({"NumericError": 2}, 200, "sample", n=10, p=2) == 2
        with pytest.raises(NumericError, match="3 of 200 replicates failed"):
            check_failures({"NumericError": 3}, 200, "sample", n=10, p=2)
        assert check_failures({}, 200, "sample", n=10, p=2) == 0

    def test_abort_message_names_the_refusal_classes(self):
        with pytest.raises(NumericError) as exc:
            check_failures({"ShrinkageSingularityError": 2, "EigenvalueTieError": 1}, 200, "tsai",
                           n=10, p=2)
        assert str(exc.value) == (
            "3 of 200 replicates failed for method 'tsai' at n=10, p=2; above the 1% tolerance; "
            "refusals: EigenvalueTieError 1, ShrinkageSingularityError 2")

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            monte_carlo_risk("sample", np.eye(2), n=10, replicates=50, seed=1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            monte_carlo_risk("oas", np.eye(2), n=10, replicates=200, seed=1)

    def test_mean_and_se_are_the_aggregate_of_the_losses(self):
        sigma = np.array([[4.0, 2.0], [2.0, 5.0]])
        est = monte_carlo_risk("stein_triangular", sigma, n=10, replicates=150, seed=4)
        losses, _ = replicate_losses(["stein_triangular"], sigma, n=10, replicates=150,
                                     seed=4)["stein_triangular"]
        agg = aggregate(losses)
        assert (est.mean_loss, est.std_error, est.replicates) == (
            agg["mean"], agg["se"], agg["count"])


def own_target(method, sigma):
    """The target replicate_losses scores ``method`` against: sigma, or for the
    pivot estimator the Schur pivot diagonal of sigma."""
    return np.diag(schur_pivots(sigma)) if method == "dp_equivariant" else sigma


def reference_scatter(sigma, n, seed, r):
    """Replicate r's scatter (L T)(L T)', from its reference factor; exactly symmetric."""
    f = bartlett_factor(replicate_rng(seed, r), cholesky(sigma), n)
    return f @ f.T


def stacked_tsai(a, dof):
    """The shrinker's estimates of a (k, p, p) stack of scatters over dof, and each refusal.

    Formed from ``_tsai``'s spectra as ``tsai_estimator`` forms its one.
    """
    _, u, psi, _, errors = _tsai(a / dof, dof)
    return symmetric_part((u * psi[:, None, :]) @ u.swapaxes(1, 2)), errors


# method tag -> its kernel(scatters, dof) over a (k, p, p) stack of scatters
KERNELS = {"sample": _sample, "stein_triangular": _triangular, "dp_equivariant": _pivot,
           "tsai": stacked_tsai}


def reference_estimate(method, sigma, n, seed, r):
    """Replicate r's estimate, formed by ``method``'s kernel from its reference scatter."""
    return unrefused(*KERNELS[method](reference_scatter(sigma, n, seed, r)[None], n))[0]


class TestReplicateLosses:
    @staticmethod
    def assert_scored_against_target(method):
        # each returned loss is stein_loss of that replicate's estimate against
        # the method's own target, to rounding (see the stacked engine's bound),
        # and not against the other candidate
        sigma = np.array([[4.0, 2.0], [2.0, 5.0]])
        target = own_target(method, sigma)
        other = np.diag(schur_pivots(sigma)) if target is sigma else sigma
        bound = 4.0 * np.linalg.cond(cholesky(sigma)) * np.finfo(float).eps
        losses, _ = replicate_losses([method], sigma, n=10, replicates=4, seed=3)[method]
        for r, loss in enumerate(losses):
            phi = reference_estimate(method, sigma, 10, 3, r)
            expected = stein_loss(phi, target)
            assert abs(loss - expected) <= bound * (abs(expected) + 2), r
            assert abs(loss - stein_loss(phi, other)) > 1e-3, r
        return target

    def test_pivot_method_scored_against_pivot_diagonal(self):
        target = self.assert_scored_against_target("dp_equivariant")
        assert_allclose(target, np.diag([4.0, 4.0]))

    def test_other_methods_scored_against_sigma(self):
        target = self.assert_scored_against_target("sample")
        assert_allclose(target, np.array([[4.0, 2.0], [2.0, 5.0]]))

    def test_losses_equal_public_stein_loss(self):
        # the per-replicate loss reuses the target's factor and the drawn scatter
        # factor; it is the public stein_loss of the pivot estimate built from the
        # scatter by the public schur_pivots, to the stacked engine's rounding bound
        sigma = np.array([[4.0, 2.0], [2.0, 5.0]])
        losses, _ = replicate_losses(["dp_equivariant"], sigma, n=10, replicates=4,
                                     seed=3)["dp_equivariant"]
        target = own_target("dp_equivariant", sigma)
        bound = 4.0 * np.linalg.cond(cholesky(sigma)) * np.finfo(float).eps
        for r, loss in enumerate(losses):
            pivots = schur_pivots(reference_scatter(sigma, 10, 3, r))
            expected = stein_loss(np.diag(pivots / CLASS_DIVISORS["dp"](10, 2)), target)
            assert abs(loss - expected) <= bound * (abs(expected) + 2), r

    @pytest.mark.parametrize("sigma", [
        np.eye(6), np.diag([20.0, 10.0, 5.0, 1.0, 1.0, 1.0]),
        0.5 ** np.abs(np.subtract.outer(np.arange(8), np.arange(8))),
        0.99 ** np.abs(np.subtract.outer(np.arange(8), np.arange(8))),
        random_spd(np.random.default_rng(50), 50),
    ], ids=["identity", "spiked", "ar1-0.5", "ar1-0.99", "spd50"])
    def test_pivot_target_is_the_schur_pivot_diagonal_bit_for_bit(self, sigma):
        f = _target("dp_equivariant", cholesky(sigma))
        expected = np.diag(schur_pivots(sigma))
        assert np.array_equal(f * f, expected)
        assert np.array_equal(f, cholesky(expected))

    def test_fewer_observations_than_dimensions_refused_before_any_replicate(self, monkeypatch):
        monkeypatch.setattr(_rng, "replicate_rng", None)  # a draw would fail on it
        with pytest.raises(ValueError, match="sample count 4 below dimension 5"):
            replicate_losses(["sample"], np.eye(5), n=4, replicates=10, seed=0)

    def test_unknown_method_refused_before_any_replicate(self):
        with pytest.raises(ValueError, match="unknown method 'oas'"):
            replicate_losses(["sample", "oas"], np.eye(2), n=10, replicates=0, seed=0)

    def test_failures_recorded_as_none(self):
        losses, _ = replicate_losses(["tsai"], np.eye(20), n=40, replicates=20, seed=5)["tsai"]
        assert any(v is None for v in losses)
        assert len(losses) == 20

    def test_a_bare_string_is_not_a_method_list(self):
        with pytest.raises(TypeError, match="sequence of tags"):
            replicate_losses("sample", np.eye(2), n=10, replicates=2, seed=0)


def ar1(p, rho):
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


STACKED_TAGS = ("sample", "stein_triangular", "dp_equivariant", "tsai")


class TestStackedEngine:
    @pytest.mark.parametrize("sigma", [np.eye(10), ar1(10, 0.7)], ids=["identity", "ar1"])
    def test_stacked_losses_equal_per_replicate_losses(self, sigma):
        # n=50, p=10: 65 replicates per chunk, so 300 replicates span five chunks.
        # Each loss comes from the kernel's own factor of the drawn scatter
        # factor L T, where the reference forms the scatter (L T)(L T)', the
        # estimate from it, and stein_loss factors that estimate again, so the
        # two agree to rounding: within the equivariance oracle's 4 kappa(L) eps
        # (|loss| + p), L sigma's factor.  Measured over seeds 7 to 9: at most
        # 0.40 of that for the three class estimators.  The reference for tsai
        # also forms U diag(psi) U', whose factor's rounding grows with the
        # estimate's own condition kappa(phi), so its bound carries that factor
        # too: measured, at most 0.46 of it.  They refuse the same replicates.
        n, reps, seed = 50, 300, 7
        out = replicate_losses(STACKED_TAGS, sigma, n, reps, seed)
        chol = cholesky(sigma)
        bound = 4.0 * np.linalg.cond(chol) * np.finfo(float).eps
        for tag in STACKED_TAGS:
            losses, _ = out[tag]
            target = own_target(tag, sigma)
            for r in range(reps):
                try:
                    phi = reference_estimate(tag, sigma, n, seed, r)
                    expected = stein_loss(phi, target)
                except CovshrinkError:
                    expected = None
                assert (losses[r] is None) == (expected is None)
                if expected is not None:
                    scale = np.linalg.cond(phi) if tag == "tsai" else 1.0
                    assert abs(losses[r] - expected) <= bound * scale * (abs(expected) + 10), r

    def test_losses_do_not_depend_on_chunk_size(self, monkeypatch):
        # n=12, p=6: 455 replicates a chunk by default, so 150 in one chunk; then
        # 1, 7 or 64 a chunk.  Losses and refusals alike
        sigma = ar1(6, 0.5)
        default = replicate_losses(STACKED_TAGS, sigma, 12, 150, 2)
        for step in (1, 7, 64):
            monkeypatch.setattr(_rng, "CHUNK_BYTES", 8 * 12 * 6 * step)
            assert _rng.chunk_replicates(12, 6) == step
            assert replicate_losses(STACKED_TAGS, sigma, 12, 150, 2) == default
        assert any(v is None for v in default["tsai"][0])

    def test_three_methods_on_two_threads_equal_one_thread(self, monkeypatch):
        monkeypatch.setattr(_rng, "CHUNK_BYTES", 8 * 30 * 5 * 9)  # nine replicates a chunk
        tags = ("sample", "stein_triangular", "dp_equivariant")
        one = replicate_losses(tags, ar1(5, 0.6), 30, 200, 13, threads=1)
        assert replicate_losses(tags, ar1(5, 0.6), 30, 200, 13, threads=2) == one

    def test_each_method_scored_alone_or_together_alike(self):
        sigma = ar1(4, 0.3)
        tags = STACKED_TAGS[::-1]
        together = replicate_losses(tags, sigma, 9, 120, 6, threads=2)
        for tag in tags:
            alone, _ = replicate_losses([tag], sigma, 9, 120, 6)[tag]
            assert together[tag][0] == alone

    def test_stacked_cholesky_refuses_as_cholesky_does(self):
        good = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        indefinite = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 3.0], [0.0, 3.0, 1.0]])
        nonfinite = good.copy()
        nonfinite[2, 1] = np.nan
        stack = np.stack([good, indefinite, nonfinite, good])
        t, errors = cholesky_stack(stack)
        assert errors[0] is None and errors[3] is None
        assert np.array_equal(t[0], cholesky(good))
        for m, err, kind in ((indefinite, errors[1], NotPositiveDefiniteError),
                             (nonfinite, errors[2], AsymmetricInputError)):
            with pytest.raises(kind) as single:
                cholesky(m)
            assert type(err) is kind
            assert str(err) == str(single.value)
            assert getattr(err, "index", None) == getattr(single.value, "index", None)
        assert errors[1].index == 3
        for j in (1, 2):
            assert np.array_equal(t[j], np.eye(3))
        # the stack is trusted to be symmetric; a matrix from outside is checked by cholesky
        asymmetric = good.copy()
        asymmetric[0, 2] = 1e-3
        with pytest.raises(AsymmetricInputError, match="^asymmetry "):
            cholesky(asymmetric)

    @pytest.mark.parametrize("sigma", [ar1(50, 0.5), ar1(50, 0.99),
                                       np.diag(np.r_[50.0, 20.0, 5.0, np.ones(47)])],
                             ids=["ar1-0.5", "ar1-0.99", "spiked"])
    def test_losses_match_a_triangular_solve_to_the_factor_condition(self, sigma):
        # The trace term is summed from t_sig^-1 t_phi, a product with the
        # inverse factor, where the reference solves triangular systems; the
        # two differ by the forward error of either, of order
        # kappa(t_sig) * eps relative to the trace.  Measured: at most 0.46
        # of that (kappa 3, 92 and 7.1 here), so the bound is 2.
        from scipy.linalg import solve_triangular

        n, k, p = 100, 40, sigma.shape[0]
        t_sig = cholesky(sigma)
        bound = 2.0 * np.linalg.cond(t_sig) * np.finfo(float).eps
        x = _rng.draw_chunk(4, t_sig, n, 0, k)
        for tag in ("sample", "stein_triangular", "tsai"):
            est, est_errors = KERNELS[tag](scatter_stack(x)[0], n)
            t_phi, errors = cholesky_stack(est)
            logdet = 2.0 * np.sum(np.log(np.diagonal(t_phi, axis1=1, axis2=2)), axis=1)
            losses = _stein_losses(t_phi.copy(), logdet, t_sig, _inverse_factor(t_sig))
            for j in range(k):
                if est_errors[j] is not None or errors[j] is not None:
                    continue
                w = solve_triangular(t_sig, t_phi[j], lower=True)
                trace = np.sum(w * w)
                logdet = 2.0 * np.sum(np.log(np.diag(t_phi[j])) - np.log(np.diag(t_sig)))
                assert abs(losses[j] - (trace - logdet - p)) <= bound * trace
                assert losses[j] == stein_loss(est[j], sigma)

    @pytest.mark.parametrize("sigma", [ar1(8, 0.9),
                                       np.diag([9.0, 4.0, 1.0, 1.0, 0.5, 0.25, 1.0, 2.0])],
                             ids=["ar1", "diagonal"])
    def test_diagonal_factors_score_as_their_dense_form(self, sigma):
        # A (k, p) stack of diagonals sums p terms f_i^2 |column i of t_sig^-1|^2, where
        # the dense diag(f) sums the p^2 entries of (t_sig^-1 diag(f))^2; the two differ
        # by rounding alone, bounded as the stacked losses are, by 4 kappa(L) eps
        # (|loss| + p).  Measured over seeds 0 to 19: at most 0.08 of that.
        k, p = 40, sigma.shape[0]
        t_sig = cholesky(sigma)
        inv_sig = _inverse_factor(t_sig)
        f = np.exp(np.random.default_rng(3).standard_normal((k, p)) / 2)
        logdet = 2.0 * np.sum(np.log(f), axis=1)
        dense = np.zeros((k, p, p))
        dense[:, np.arange(p), np.arange(p)] = f
        want = _stein_losses(dense, logdet, t_sig, inv_sig)
        got = _stein_losses(f.copy(), logdet, t_sig, inv_sig)
        bound = 4.0 * np.linalg.cond(t_sig) * np.finfo(float).eps
        assert np.all(np.abs(got - want) <= bound * (np.abs(want) + p))
        assert np.all(want > 0.0)

    @pytest.mark.parametrize("sigma", [
        ar1(10, 0.5), ar1(10, 0.95), np.diag(np.r_[50.0, 20.0, 5.0, np.ones(7)]),
    ], ids=["ar1-0.5", "ar1-0.95", "spiked"])
    def test_triangular_equivariance_oracle(self, sigma):
        # With X = Z L', sigma = L L', the three estimators' Stein losses against
        # their own targets depend on Z alone (James & Stein 1961; Dey &
        # Srinivasan 1985), so each replicate's loss is the identity
        # population's up to rounding, which L's condition amplifies.
        # Measured: |difference| <= 1.54 kappa(L) eps (|loss| + p) over seeds 7
        # and 8 (kappa 2.8, 18 and 7.1 here), so the bound is 4.
        n, p, reps, seed = 50, 10, 2000, 7
        tags = ("sample", "stein_triangular", "dp_equivariant")
        bound = 4.0 * np.linalg.cond(cholesky(sigma)) * np.finfo(float).eps
        at_identity = replicate_losses(tags, np.eye(p), n, reps, seed)
        at_sigma = replicate_losses(tags, sigma, n, reps, seed)
        for tag in tags:
            base, losses = np.array(at_identity[tag][0]), np.array(at_sigma[tag][0])
            assert np.all(np.abs(losses - base) <= bound * (np.abs(base) + p)), tag

    def test_every_estimator_has_a_stacked_kernel(self):
        assert list(FACTOR_ESTIMATORS) == list(ESTIMATORS)

    def test_stacked_estimators_refuse_as_the_estimators_do(self):
        # replicate 1 has an all-zero column, so its scatter is singular at index 2
        x = np.random.default_rng(5).standard_normal((3, 8, 3))
        x[1, :, 1] = 0.0
        scatter, _ = scatter_stack(x)
        assert np.array_equal(scatter[1], scatter_matrix(x[1]))
        for tag in STACKED_TAGS[1:]:
            est, errors = KERNELS[tag](scatter, 8)
            with pytest.raises(NotPositiveDefiniteError) as single:
                ESTIMATORS[tag](x[1], False)
            assert (str(errors[1]), errors[1].index) == (str(single.value), single.value.index)
            for j in (0, 2):
                assert errors[j] is None
                assert np.array_equal(est[j], ESTIMATORS[tag](x[j], False).matrix)

    @pytest.mark.parametrize("n, p", [(50, 10), (60, 4), (200, 20), (100, 50)])
    def test_stacked_tsai_equals_tsai_estimator(self, n, p):
        x = np.random.default_rng(n + p).standard_normal((40, n, p))
        est, errors = stacked_tsai(scatter_stack(x)[0], n)
        for j in range(40):
            try:
                single = ESTIMATORS["tsai"](x[j], False).matrix
            except ShrinkageSingularityError as exc:
                assert (type(errors[j]), str(errors[j])) == (type(exc), str(exc))
            else:
                assert errors[j] is None
                assert np.array_equal(est[j], single)

    def test_stacked_tsai_refuses_as_tsai_estimator_does(self):
        # scatters at n = 10: a spectrum tied within TIE_GAP, a clustered
        # pair that breaches the shrinkage guard, and a singular one
        q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))
        spectra = ([3.0, 2.0, 2.0 - 1e-13], [3.0, 2.0 + 1e-6, 2.0], [3.0, 2.0, 0.0],
                   [3.0, 2.0, 1.0])
        scatter = np.stack([10.0 * np.diag(l) for l in spectra])
        scatter[3] = q @ scatter[3] @ q.T
        est, errors = stacked_tsai(scatter, 10)
        for j, kind in enumerate((EigenvalueTieError, ShrinkageSingularityError,
                                  NotPositiveDefiniteError)):
            with pytest.raises(kind) as single:
                tsai_estimator(scatter[j] / 10, n=10)
            assert type(errors[j]) is kind
            assert str(errors[j]) == str(single.value)
            assert getattr(errors[j], "index", None) == getattr(single.value, "index", None)
        assert errors[3] is None
        assert np.array_equal(est[3], tsai_estimator(scatter[3] / 10, n=10).matrix)
        assert np.isfinite(est).all()


class TestScatterOverflow:
    def test_only_the_shrinker_refuses_a_scatter_past_the_float64_range(self):
        # sigma = diag(5e306, 1): the class estimators score the drawn factor and
        # never form the scatter; tsai forms it, and 5e306 chi2_20 overflows
        # where chi2_20 > 36, in about 1.6 % of replicates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = replicate_losses(STACKED_TAGS, np.diag([5e306, 1.0]), 20, 400, 5)
        for tag in STACKED_TAGS[:3]:
            assert out[tag][1] == {} and None not in out[tag][0]
        assert out["tsai"][1].get("NumericError", 0) > 0

    def test_the_shrinker_refuses_it_as_scatter_stack_does(self):
        t = np.array([[[1e155, 0.0], [0.0, 1.0]], [[2.0, 0.0], [1.0, 1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (f, logdet), errors = FACTOR_ESTIMATORS["tsai"](t, 20)
            with pytest.raises(NumericError) as single:
                unrefused(*scatter_stack(t.swapaxes(1, 2)[:1]))
        assert type(errors[0]) is NumericError and str(errors[0]) == str(single.value)
        assert errors[1] is None and np.isfinite(f).all() and np.isfinite(logdet).all()


class TestLossTail:
    def test_median_max_and_share_of_the_completed_losses(self):
        assert loss_tail([1.0, None, 3.0, 2.0, 6.0]) == {
            "median_loss": 2.5, "max_loss": 6.0, "max_share": 0.5}
        assert loss_tail([None]) == {"median_loss": None, "max_loss": None, "max_share": None}

    def test_risk_estimates_carry_the_tail_of_their_losses(self):
        sigma = ar1(3, 0.4)
        est = monte_carlo_risk("stein_triangular", sigma, n=10, replicates=150, seed=4)
        losses, _ = replicate_losses(["stein_triangular"], sigma, n=10, replicates=150,
                                     seed=4)["stein_triangular"]
        assert (est.median_loss, est.max_loss, est.max_share) == tuple(loss_tail(losses).values())
        assert 1 / 150 < est.max_share < 1


# the exact moments are checked to |z| <= LOSS_Z at LOSS_REPLICATES replicates
# per cell: 18 z's, so a false alarm has probability about 18 * 6.3e-5 = 1.1e-3
LOSS_Z = 4.0
LOSS_REPLICATES = 20_000
CLASS_KINDS = {"sample": "ml", "stein_triangular": "stein", "dp_equivariant": "dp"}


class TestClassLossMoments:
    """Each class method's losses against the exact mean and variance of its Stein loss.

    At the identity, L = T T' with T Bartlett's factor, and each class loss
    is a sum over columns j of independent terms (chi2_{k_j} + chi2_{o_j}) /
    d_j - log chi2_{k_j} + log d_j - 1, k_j = n - j + 1, d_j the class
    divisor and o_j the number of entries of column j below the diagonal
    that reach tr phi: p - j for ml and stein, 0 for dp.  With Var log
    chi2_k = psi'(k/2) and Cov(chi2_k, log chi2_k) = 2, Var L = sum_j
    [2 (k_j + o_j) / d_j^2 + psi'(k_j / 2) - 4 / d_j], and the mean is
    ``min_risk``.  By equivariance the same holds at every sigma.
    """

    @pytest.mark.parametrize("n, sigma", [
        (50, np.eye(10)), (20, ar1(10, 0.6)), (200, np.diag(np.r_[20.0, 10.0, 5.0, np.ones(47)])),
    ], ids=["50x10-identity", "20x10-ar1", "200x50-spiked"])
    def test_mean_and_variance_match_the_closed_forms(self, n, sigma):
        from scipy.special import polygamma

        p, reps = sigma.shape[0], LOSS_REPLICATES
        out = replicate_losses(tuple(CLASS_KINDS), sigma, n, reps, 11)
        j = np.arange(1, p + 1)
        k = n - j + 1
        for method, kind in CLASS_KINDS.items():
            d = CLASS_DIVISORS[kind](n, p)
            o = 0 if kind == "dp" else p - j
            var = float(np.sum(2.0 * (k + o) / d ** 2 + polygamma(1, k / 2.0) - 4.0 / d))
            losses = np.array(out[method][0])
            z_mean = (losses.mean() - min_risk(kind, n, p)) / np.sqrt(var / reps)
            c = losses - losses.mean()
            s2 = float(c @ c) / (reps - 1)
            # the standard error of a sample variance, from the fourth central moment
            z_var = (s2 - var) / np.sqrt((np.mean(c ** 4) - s2 ** 2) / reps)
            assert abs(z_mean) <= LOSS_Z and abs(z_var) <= LOSS_Z, (method, z_mean, z_var)
