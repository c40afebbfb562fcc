import numpy as np
import pytest
from numpy.testing import assert_allclose

from covshrink import (
    ConfigError,
    ExperimentConfig,
    PopulationModel,
    eigenvalue_recovery_experiment,
    esd_fit_experiment,
    make_sigma,
    risk_comparison_experiment,
)
from covshrink._rng import gaussian_rows, replicate_rng
from covshrink.estimators import shrinkage_terms
from covshrink.matrix_core import cholesky
from covshrink.rmt import MPModel, mp_cdf
from covshrink.sim import EXPERIMENTS, aggregate


def identity_config(p, n, replicates, seed, **kw):
    return ExperimentConfig(
        model=PopulationModel(variant="identity", p=p),
        n=n,
        replicates=replicates,
        seed=seed,
        **kw,
    )


class TestPopulationModel:
    def test_identity(self):
        assert_allclose(make_sigma(PopulationModel(variant="identity", p=3)), np.eye(3))

    def test_ar1_zero_rho_is_identity(self):
        assert_allclose(make_sigma(PopulationModel(variant="ar1", p=4, rho=0.0)), np.eye(4))

    def test_ar1_two_by_two_spectrum(self):
        sigma = make_sigma(PopulationModel(variant="ar1", p=2, rho=0.5))
        assert_allclose(sigma, [[1.0, 0.5], [0.5, 1.0]])
        assert_allclose(np.linalg.eigvalsh(sigma), [0.5, 1.5])

    def test_ar1_spectrum_bounds(self):
        # eigenvalues stay in [(1-r)/(1+r), (1+r)/(1-r)] for every p
        for rho in (0.3, -0.6, 0.9):
            sigma = make_sigma(PopulationModel(variant="ar1", p=25, rho=rho))
            ev = np.linalg.eigvalsh(sigma)
            r = abs(rho)
            assert ev.min() > (1 - r) / (1 + r) - 1e-12
            assert ev.max() < (1 + r) / (1 - r) + 1e-12

    def test_spiked(self):
        sigma = make_sigma(PopulationModel(variant="spiked", p=4, spikes=(5.0, 2.0)))
        assert_allclose(sigma, np.diag([5.0, 2.0, 1.0, 1.0]))

    def test_explicit_copies(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        model = PopulationModel(variant="explicit", p=2, matrix=m)
        out = make_sigma(model)
        out[0, 0] = 99.0
        assert make_sigma(model)[0, 0] == 2.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            PopulationModel(variant="wishart", p=2)
        with pytest.raises(ConfigError):
            PopulationModel(variant="identity", p=0)
        with pytest.raises(ConfigError):
            PopulationModel(variant="spiked", p=2, spikes=())
        with pytest.raises(ConfigError):
            PopulationModel(variant="spiked", p=2, spikes=(0.5,))
        with pytest.raises(ConfigError):
            PopulationModel(variant="spiked", p=1, spikes=(2.0, 3.0))
        with pytest.raises(ConfigError):
            PopulationModel(variant="ar1", p=2, rho=1.0)
        with pytest.raises(ConfigError):
            PopulationModel(variant="explicit", p=2, matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_explicit_matrix_that_cholesky_refuses_is_refused(self):
        # rank 2 in three dimensions: its smallest computed eigenvalue can
        # round to a positive value, but the sampler's Cholesky factor fails
        a = np.array([[1.8, 1.32], [0.36, -1.21], [0.0, 0.66]])
        with pytest.raises(ConfigError, match="explicit matrix is not positive definite"):
            PopulationModel(variant="explicit", p=3, matrix=a @ a.T)

    @pytest.mark.parametrize("spike", [float("nan"), float("inf")])
    def test_non_finite_spike_named(self, spike):
        with pytest.raises(ConfigError, match=f"spike value {spike!r} is not finite"):
            PopulationModel(variant="spiked", p=3, spikes=(2.0, spike))

    def test_noninteger_dimension_rejected(self):
        with pytest.raises(ConfigError):
            PopulationModel(variant="identity", p=1600 * 0.999)
        with pytest.raises(ConfigError):
            PopulationModel(variant="identity", p=True)


class TestSampleGaussian:
    def test_shape_and_determinism(self):
        x = gaussian_rows(replicate_rng(42, 0), cholesky(np.eye(3)), 20)
        assert x.shape == (20, 3)
        assert np.array_equal(x, gaussian_rows(replicate_rng(42, 0), cholesky(np.eye(3)), 20))
        assert not np.array_equal(x, gaussian_rows(replicate_rng(43, 0), cholesky(np.eye(3)), 20))

    def test_law_of_large_numbers_identity(self):
        x = gaussian_rows(replicate_rng(7, 0), cholesky(np.eye(1)), 1_000_000)
        assert abs(x.var() - 1.0) < 0.01
        assert abs(x.mean()) < 0.01

    def test_law_of_large_numbers_correlated(self):
        sigma = np.array([[4.0, 1.0], [1.0, 1.0]])
        x = gaussian_rows(replicate_rng(8, 0), cholesky(sigma), 100_000)
        s = x.T @ x / x.shape[0]
        assert np.abs(s - sigma).max() < 0.05 * 4


class TestExperimentConfig:
    def test_concentration_guard(self):
        with pytest.raises(ConfigError):
            identity_config(p=10, n=10, replicates=3, seed=0)
        with pytest.raises(ConfigError):
            identity_config(p=10, n=9, replicates=3, seed=0)

    def test_integer_guards(self):
        with pytest.raises(ConfigError):
            identity_config(p=10, n=20.5, replicates=3, seed=0)
        with pytest.raises(ConfigError):
            identity_config(p=10, n=20, replicates=0, seed=0)

    def test_to_dict_round_trips_the_setup(self):
        cfg = identity_config(p=3, n=12, replicates=5, seed=9, methods=("sample",))
        d = cfg.to_dict()
        assert d["n"] == 12 and d["p"] == 3 and d["seed"] == 9
        assert d["model"] == {"variant": "identity", "p": 3}
        assert d["methods"] == ["sample"]


class TestAggregate:
    def test_basic(self):
        out = aggregate([1.0, 2.0, 3.0])
        assert_allclose(out["mean"], 2.0)
        assert_allclose(out["se"], np.std([1, 2, 3], ddof=1) / np.sqrt(3))
        assert out["count"] == 3

    def test_none_values_dropped(self):
        out = aggregate([1.0, None, 3.0])
        assert_allclose(out["mean"], 2.0)
        assert out["count"] == 2

    def test_all_none(self):
        assert aggregate([None, None]) == {"mean": None, "se": None, "count": 0}


class TestRecoveryExperiment:
    def test_univariate_spectra_coincide(self):
        # p=1: the shrinkage map is the identity, so both errors match
        rep = eigenvalue_recovery_experiment(identity_config(p=1, n=50, replicates=8, seed=3))
        for row in rep.rows:
            assert_allclose(row["shrunk_mae"], row["sample_mae"], rtol=1e-12)
        assert rep.failures == 0

    def test_small_concentration_recovers_spectrum(self):
        # c = 0.001: raw and shrunk spectra both sit close to the population
        rep = eigenvalue_recovery_experiment(identity_config(p=5, n=5000, replicates=3, seed=4))
        assert rep.metrics["sample_mae"]["mean"] < 0.1
        assert rep.metrics["shrunk_mae_raw"]["mean"] < 0.1

    def test_breaches_recorded_not_fatal(self):
        # c = 1/2 with a tied population spectrum breaks the gap sums hard
        rep = eigenvalue_recovery_experiment(identity_config(p=30, n=60, replicates=6, seed=5))
        assert rep.failures > 0
        assert rep.metrics["failure_rate"] > 0
        for row in rep.rows:
            if row["shrunk_mae"] is None:
                assert row["denominator_breaches"] > 0 or row["min_denominator"] <= 0
                assert row["shrunk_mae_raw"] is not None

    def test_aggregates_recomputable_from_rows(self):
        rep = eigenvalue_recovery_experiment(identity_config(p=4, n=80, replicates=10, seed=6))
        maes = [row["sample_mae"] for row in rep.rows]
        assert_allclose(rep.metrics["sample_mae"]["mean"], np.mean(maes), rtol=1e-12)

    def test_keep_rows_flag(self):
        rep = eigenvalue_recovery_experiment(
            identity_config(p=2, n=30, replicates=3, seed=7, keep_rows=False)
        )
        assert rep.rows is None
        assert rep.metrics["sample_mae"]["count"] == 3

    def test_thread_determinism(self):
        config = identity_config(p=3, n=40, replicates=12, seed=8,
                                 methods=("sample", "stein_triangular", "dp_equivariant"))
        for experiment in (eigenvalue_recovery_experiment, esd_fit_experiment,
                           risk_comparison_experiment):
            a = experiment(config)
            b = experiment(config, threads=4)
            assert a.rows == b.rows, experiment.__name__


@pytest.mark.parametrize("model", [PopulationModel(variant="spiked", p=6, spikes=(9.0, 4.0)),
                                   PopulationModel(variant="ar1", p=6, rho=0.4)],
                         ids=["spiked", "ar1"])
def test_recovery_rows_equal_a_per_replicate_computation(model):
    # 300 replicates at n=60, p=6 span several chunks
    config = ExperimentConfig(model=model, n=60, replicates=300, seed=3)
    rows = eigenvalue_recovery_experiment(config).rows
    sigma = make_sigma(model)
    gamma = np.linalg.eigvalsh(sigma)[::-1]
    for r, row in enumerate(rows):
        x = gaussian_rows(replicate_rng(3, r), cholesky(sigma), 60)
        l = np.linalg.eigvalsh(x.T @ x / 60)[::-1]
        psi, d = shrinkage_terms(l, 60)
        assert row["replicate"] == r
        assert row["sample_mae"] == float(np.mean(np.abs(l - gamma)))
        assert row["shrunk_mae_raw"] == float(np.mean(np.abs(psi - gamma)))
        assert row["min_denominator"] == float(d.min())


def test_esd_rows_equal_a_per_replicate_computation():
    rows = esd_fit_experiment(identity_config(p=20, n=80, replicates=200, seed=3)).rows
    i = np.arange(1, 21)
    for r, row in enumerate(rows):
        x = gaussian_rows(replicate_rng(3, r), np.eye(20), 80)
        f = mp_cdf(np.sort(np.linalg.eigvalsh(x.T @ x / 80)), MPModel(0.25))
        assert row == {"replicate": r,
                       "ks": float(np.max(np.maximum(np.abs(f - i / 20),
                                                     np.abs(f - (i - 1) / 20))))}


class TestEsdExperiment:
    def test_identity_only(self):
        cfg = ExperimentConfig(
            model=PopulationModel(variant="ar1", p=10, rho=0.5), n=40, replicates=2, seed=0
        )
        with pytest.raises(ConfigError):
            esd_fit_experiment(cfg)

    def test_ks_drops_with_dimension(self):
        small = esd_fit_experiment(identity_config(p=10, n=40, replicates=3, seed=11))
        large = esd_fit_experiment(identity_config(p=80, n=320, replicates=3, seed=11))
        assert large.metrics["ks"]["mean"] < small.metrics["ks"]["mean"]
        assert_allclose(small.metrics["concentration"], 0.25)

    def test_moderate_dimension_fit(self):
        rep = esd_fit_experiment(identity_config(p=40, n=160, replicates=3, seed=12))
        assert rep.metrics["ks"]["mean"] < 0.15


class TestRiskExperiment:
    def test_default_methods_and_closed_forms(self):
        rep = risk_comparison_experiment(identity_config(p=2, n=12, replicates=120, seed=13))
        mc = rep.metrics["monte_carlo"]
        assert set(mc) == {"sample", "stein_triangular", "dp_equivariant", "tsai"}
        cf = rep.metrics["closed_form"]
        assert cf["dp"] < cf["stein"] < cf["ml"]

    def test_equivariant_means_near_closed_forms(self):
        rep = risk_comparison_experiment(
            identity_config(p=3, n=25, replicates=600, seed=14,
                            methods=("sample", "stein_triangular", "dp_equivariant"))
        )
        mc = rep.metrics["monte_carlo"]
        cf = rep.metrics["closed_form"]
        for method, kind in (("sample", "ml"), ("stein_triangular", "stein"),
                             ("dp_equivariant", "dp")):
            band = 3 * mc[method]["se"]
            assert abs(mc[method]["mean"] - cf[kind]) < band

    def test_univariate_methods_coincide(self):
        # p=1: all four estimators are a/d with d in {n, n, n, n}, so risks agree
        rep = risk_comparison_experiment(identity_config(p=1, n=15, replicates=400, seed=15))
        mc = rep.metrics["monte_carlo"]
        means = [mc[m]["mean"] for m in mc]
        assert max(means) - min(means) < 1e-12

    def test_rows_hold_per_replicate_losses(self):
        rep = risk_comparison_experiment(
            identity_config(p=2, n=10, replicates=150, seed=16, methods=("sample",))
        )
        losses = [row["losses"]["sample"] for row in rep.rows]
        assert len(losses) == 150
        assert_allclose(rep.metrics["monte_carlo"]["sample"]["mean"], np.mean(losses), rtol=1e-12)


def test_experiment_registry():
    assert set(EXPERIMENTS) == {"recovery", "esd", "risk"}
    assert EXPERIMENTS["recovery"] is eigenvalue_recovery_experiment
