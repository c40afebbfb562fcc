"""Population models and the desk-scale experiments.

Three experiments probe the estimator claims at sizes a laptop can check:

eigenvalue_recovery_experiment
    How close the shrunk spectrum psi gets to the true population
    eigenvalues, against the raw sample spectrum as the baseline.  Records
    denominator breaches of the shrinkage formula per replicate instead of
    dying on them, because the breach rate is itself a finding.
esd_fit_experiment
    Kolmogorov-Smirnov distance between the empirical spectral CDF and the
    Marchenko-Pastur CDF at c = p/n for the identity population.
risk_comparison_experiment
    Monte Carlo Stein-loss risks of all four estimators next to the three
    closed-form minima.

Each takes ``threads``, the thread count of its replicate loop; None, the
default, chooses it from n p (``_rng.replicate_threads``).  No result
depends on it.  A replicate of the recovery and esd experiments is n rows of
N(0, sigma) (rows = n in ``_rng.run_chunks``); the risk experiment's are
``replicate_losses``' scatter factors.
"""

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from ._rng import aggregate, check_failures, run_chunks
from .errors import ConfigError, NotPositiveDefiniteError, NumericError
from .estimators import DENOM_GUARD, ESTIMATORS, _declined, scatter_stack, shrinkage_terms
from .loss_risk import RISK_KINDS, loss_tail, min_risk, replicate_losses
from .matrix_core import cholesky, eigvalsh_stack, unit_exponents, unrefused
from .rmt import MPModel, mp_cdf

VARIANTS = ("identity", "spiked", "ar1", "explicit")


@dataclass(frozen=True)
class PopulationModel:
    """A population covariance: identity, spiked, AR(1), or an explicit matrix.

    Spike values sit in the leading diagonal positions above a base of ones.
    The AR(1) entries are rho^|i-j|, whose spectrum stays inside
    [(1-|rho|)/(1+|rho|), (1+|rho|)/(1-|rho|)] for every p, keeping the
    bounded-spectrum assumption the estimators lean on.
    """

    variant: str
    p: int
    spikes: tuple = ()
    rho: float = 0.0
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown population variant {self.variant!r}")
        if not isinstance(self.p, (int, np.integer)) or isinstance(self.p, bool) or self.p < 1:
            raise ConfigError(f"dimension must be a positive integer, got {self.p!r}")
        if self.variant == "spiked":
            if not self.spikes:
                raise ConfigError("spiked model needs at least one spike value")
            if len(self.spikes) > self.p:
                raise ConfigError("more spikes than dimensions")
            for value in self.spikes:
                if not math.isfinite(value):
                    raise ConfigError(f"spike value {value!r} is not finite")
            if min(self.spikes) < 1.0:
                raise ConfigError("spike values must be >= 1")
        if self.variant == "ar1" and not abs(self.rho) < 1.0:
            raise ConfigError(f"ar1 correlation must satisfy |rho| < 1, got {self.rho}")
        if self.variant == "explicit":
            if self.matrix is None:
                raise ConfigError("explicit model needs a matrix")
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (self.p, self.p):
                raise ConfigError(f"explicit matrix shape {m.shape} does not match p={self.p}")
            try:
                cholesky(m)
            except NotPositiveDefiniteError:
                raise ConfigError("explicit matrix is not positive definite") from None
            object.__setattr__(self, "matrix", m)

    def to_dict(self) -> dict:
        out = {"variant": self.variant, "p": int(self.p)}
        if self.variant == "spiked":
            out["spikes"] = [float(v) for v in self.spikes]
        if self.variant == "ar1":
            out["rho"] = float(self.rho)
        if self.variant == "explicit":
            out["matrix"] = np.asarray(self.matrix).tolist()
        return out


def make_sigma(model: PopulationModel) -> np.ndarray:
    """Materialize the population covariance matrix."""
    p = model.p
    if model.variant == "identity":
        return np.eye(p)
    if model.variant == "spiked":
        d = np.ones(p)
        d[: len(model.spikes)] = model.spikes
        return np.diag(d)
    if model.variant == "ar1":
        idx = np.arange(p)
        return model.rho ** np.abs(idx[:, None] - idx[None, :])
    return np.array(model.matrix, dtype=float, copy=True)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment settings; n > p keeps every covariance invertible."""

    model: PopulationModel
    n: int
    replicates: int
    seed: int
    methods: tuple = ()
    keep_rows: bool = True

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ConfigError(f"sample count must be an integer, got {self.n!r}")
        if self.n <= self.model.p:
            raise ConfigError(
                f"need n > p (concentration below 1), got n={self.n}, p={self.model.p}"
            )
        if not isinstance(self.replicates, (int, np.integer)) or self.replicates < 1:
            raise ConfigError(f"replicates must be a positive integer, got {self.replicates!r}")

    @property
    def p(self) -> int:
        return self.model.p

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "n": int(self.n),
            "p": int(self.p),
            "replicates": int(self.replicates),
            "seed": int(self.seed),
            "methods": list(self.methods),
        }


@dataclass(frozen=True)
class ExperimentReport:
    """Config echo, aggregated metrics, optional per-replicate rows."""

    config: dict
    metrics: dict
    rows: list | None
    failures: int
    wall_clock: float

    def to_dict(self) -> dict:
        # shallow, unlike dataclasses.asdict, which deep-copies every row
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _report(config: ExperimentConfig, metrics: dict, rows: list, failures: int,
            start: float) -> ExperimentReport:
    """Report of a run that began at ``time.perf_counter() == start``."""
    return ExperimentReport(config=config.to_dict(), metrics=metrics,
                            rows=rows if config.keep_rows else None,
                            failures=failures, wall_clock=time.perf_counter() - start)


def eigenvalue_recovery_experiment(config: ExperimentConfig,
                                   threads: int | None = None) -> ExperimentReport:
    """Compare shrunk and raw spectra against the true population eigenvalues.

    Per replicate: draw mean-zero Gaussian data, form the uncentered S, and
    record the mean absolute errors (1/p) sum |psi_i - gamma_i| and
    (1/p) sum |l_i - gamma_i| against the descending eigenvalues of sigma.

    A replicate whose spectrum the shrinker's guard turns down is a failure:
    its ``shrunk_mae`` is withheld from the headline aggregate (the guarded
    estimator would have refused to produce psi) but kept under
    ``shrunk_mae_raw`` so the breakdown is still visible in the report.
    ``rel_frobenius`` is the relative Frobenius distance between the shrunk
    estimate and S, which in the shared eigenbasis is |psi - l| / |l|, taken
    on l and psi times 2**-``unit_exponents`` of each l so no square
    overflows.  A replicate whose scatter overflows aborts the run with
    NumericError.
    """
    start = time.perf_counter()
    sigma = make_sigma(config.model)
    gamma = np.linalg.eigvalsh(sigma)[::-1]
    chol_sig = cholesky(sigma)
    n = config.n

    def score_chunk(first: int, x: np.ndarray, _) -> tuple[list, list]:
        spectra = eigvalsh_stack(unrefused(*scatter_stack(x)) / n)[:, ::-1]
        scale = np.ldexp(1.0, -unit_exponents(spectra, axis=1)).tolist()
        psi, d = shrinkage_terms(spectra, n)
        accepted = (~_declined(spectra, d, n)).tolist()
        sample_mae = np.mean(np.abs(spectra - gamma), axis=1).tolist()
        raw_mae = np.mean(np.abs(psi - gamma), axis=1).tolist()
        breaches = np.count_nonzero(d <= DENOM_GUARD * n, axis=1).tolist()
        min_d = d.min(axis=1).tolist()
        return [{
            "replicate": first + j,
            "sample_mae": sample_mae[j],
            "shrunk_mae": raw_mae[j] if ok else None,
            "shrunk_mae_raw": raw_mae[j],
            "denominator_breaches": breaches[j],
            "min_denominator": min_d[j],
            "rel_frobenius": float(np.linalg.norm(s * (psi[j] - l)) / np.linalg.norm(s * l))
                             if ok else None,
        } for j, (l, ok, s) in enumerate(zip(spectra, accepted, scale))], [None] * len(x)

    rows, _ = run_chunks(score_chunk, config.seed, chol_sig, n, config.replicates, threads,
                         rows=n)
    failures = sum(1 for row in rows if row["shrunk_mae"] is None)
    metrics = {
        "sample_mae": aggregate(row["sample_mae"] for row in rows),
        "shrunk_mae": aggregate(row["shrunk_mae"] for row in rows),
        "shrunk_mae_raw": aggregate(row["shrunk_mae_raw"] for row in rows),
        "rel_frobenius": aggregate(row["rel_frobenius"] for row in rows),
        "failure_rate": failures / config.replicates,
    }
    return _report(config, metrics, rows, failures, start)


def esd_fit_experiment(config: ExperimentConfig, threads: int | None = None) -> ExperimentReport:
    """Kolmogorov-Smirnov fit of the sample spectrum to the MP law at c = p/n."""
    if config.model.variant != "identity":
        raise ConfigError("the spectral-fit experiment is defined for the identity population")
    start = time.perf_counter()
    n, p = config.n, config.p
    model = MPModel(p / n)
    i = np.arange(1, p + 1)

    def score_chunk(first: int, x: np.ndarray, _) -> tuple[list, list]:
        # eigvalsh_stack returns each spectrum ascending, the order the KS distance reads
        f = mp_cdf(eigvalsh_stack(unrefused(*scatter_stack(x)) / n), model)
        ks = np.max(np.maximum(np.abs(f - i / p), np.abs(f - (i - 1) / p)), axis=1).tolist()
        return [{"replicate": first + j, "ks": v} for j, v in enumerate(ks)], [None] * len(ks)

    rows, _ = run_chunks(score_chunk, config.seed, np.eye(p), n, config.replicates, threads,
                         rows=n)
    metrics = {"ks": aggregate(row["ks"] for row in rows), "concentration": p / n}
    return _report(config, metrics, rows, 0, start)


def risk_comparison_experiment(config: ExperimentConfig,
                               threads: int | None = None) -> ExperimentReport:
    """Monte Carlo risks for the chosen estimators plus the closed-form minima.

    Every method is scored on the same replicate draws.  The pivot
    estimator is scored against its own target (the Schur pivot diagonal of
    sigma); everything else against sigma.  Each method's entry carries
    the losses' tail (``loss_tail``) beside their mean.  Replicate failures
    are recorded; a method above the risk runner's 1 percent tolerance
    reports a null mean, se and tail with the tolerance message under
    ``error``, and the other methods keep their results.
    """
    start = time.perf_counter()
    methods = tuple(config.methods) or tuple(ESTIMATORS)
    sigma = make_sigma(config.model)
    n, p = config.n, config.p
    losses = replicate_losses(methods, sigma, n, config.replicates, config.seed, threads=threads)
    per_method = {}
    total_failures = 0
    for method in methods:
        values, refusals = losses[method]
        failures = sum(refusals.values())
        total_failures += failures
        try:
            check_failures(refusals, len(values), method, n, p)
        except NumericError as exc:
            # a censored mean is not the risk; keep the other methods' results
            per_method[method] = {"mean": None, "se": None, "count": len(values) - failures,
                                  "failures": failures, "failure_classes": refusals,
                                  **loss_tail([]), "error": str(exc)}
        else:
            per_method[method] = {**aggregate(values), "failures": failures,
                                  "failure_classes": refusals, **loss_tail(values)}
    rows = [
        {"replicate": r, "losses": {m: losses[m][0][r] for m in methods}}
        for r in range(config.replicates)
    ]
    metrics = {
        "monte_carlo": per_method,
        "closed_form": {kind: min_risk(kind, n, p) for kind in RISK_KINDS},
    }
    return _report(config, metrics, rows, total_failures, start)


EXPERIMENTS = {
    "recovery": eigenvalue_recovery_experiment,
    "esd": esd_fit_experiment,
    "risk": risk_comparison_experiment,
}
