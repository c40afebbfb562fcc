"""The benchmark's workloads, their generated inputs, and the output checks.

Every check compares a report against a reference computed here with NumPy
and SciPy directly, never through covshrink, so a defect in the package
cannot agree with itself.  A failed check raises CheckError; callers count
it as a failed invocation.  Tolerances are fixed below with their reasons
and are not loosened to make a run pass.
"""

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import digamma
from scipy.stats import chi2, ncf, ncx2

# Monte Carlo means must lie within this many of their own standard errors
# of the closed form.  Six keeps a false alarm below 1e-5 per check even for
# the 20-replicate means, whose standard error is itself estimated.
MC_Z = 6.0
# Quantities computed the same way here and in the package, on
# well-conditioned inputs, agree to rounding; 1e-9 relative leaves room for
# a different BLAS summation order.
REL_TOL = 1e-9
# The MP CDF is integrated to 1e-8 and the package refuses errors above
# 1e-6, so 1e-6 is the accuracy it promises.
MP_CDF_TOL = 1e-6
# Mean KS distance of the p=400 ESD from the MP law.  Fluctuations are
# O(1/p) (a scratch run at seed 7 gave 0.0073); 0.02 is eight eigenvalues'
# worth of CDF mass.
KS_BOUND = 0.02
# The shrinker's documented guard: a denominator at or below 1e-10 * n is a breach.
DENOM_GUARD = 1e-10

CSV_ROWS = 10_000
CSV_SPIKES = (8.0, 4.0, 2.0)
CSV_COLS = 20


class CheckError(Exception):
    """An invocation's output disagrees with its reference."""


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the check its output must pass.

    ``check`` takes the stdout text and returns the report's replicate
    counts as (attempted, failed); (0, 0) for calls without replicates.
    """

    label: str
    argv: tuple
    threads: int
    check: Callable[[str], tuple]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable  # (seed, workdir) -> list[Invocation]
    same_results: tuple = ()  # labels whose reports' results must be identical


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(value, ref, what: str, rel: float = REL_TOL) -> None:
    v = np.asarray(value, dtype=float)
    r = np.asarray(ref, dtype=float)
    _require(v.shape == r.shape, f"{what}: shape {v.shape} != reference {r.shape}")
    scale = max(float(np.max(np.abs(r))), 1e-300) if r.size else 1.0
    err = float(np.max(np.abs(v - r))) if r.size else 0.0
    _require(err <= rel * scale, f"{what}: max error {err:.3e} above {rel:.0e} x {scale:.3e}")


def _results(text: str) -> dict:
    try:
        return json.loads(text)["results"]
    except (ValueError, KeyError) as exc:
        raise CheckError(f"output is not a report document: {exc}") from None


# ---- references -----------------------------------------------------------

def ref_min_risk(kind: str, n: int, p: int) -> float:
    """Closed-form minimum Stein risk: sum_i log d_i - log 2 - digamma((n-i+1)/2)."""
    i = np.arange(1, p + 1)
    d = {"ml": np.full(p, float(n)), "stein": n + p - 2.0 * i + 1, "dp": n - i + 1.0}[kind]
    return float(np.sum(np.log(d) - math.log(2.0) - digamma((n - i + 1) / 2.0)))


def ref_mp_cdf(x, c: float) -> np.ndarray:
    """Marchenko-Pastur CDF from the antiderivative of sqrt((x-a)(b-x))/x.

    The antiderivative's two arcsines are written as atan2 of numerator and
    sqrt(1 - u^2), which stays exact at the support edges where arcsin of a
    rounded +-1 would lose half the digits.
    """
    a, b = (1 - math.sqrt(c)) ** 2, (1 + math.sqrt(c)) ** 2
    xv = np.clip(np.asarray(x, dtype=float), a, b)
    root = np.sqrt(np.maximum((xv - a) * (b - xv), 0.0))
    mid, geo = (a + b) / 2, math.sqrt(a * b)
    g = (root + mid * np.arctan2(2 * xv - a - b, 2 * root)
         - geo * np.arctan2((a + b) * xv - 2 * a * b, 2 * geo * root))
    return (g + (mid - geo) * math.pi / 2) / (2 * math.pi * c)


def ref_replicate_rows(seed: int, index: int, n: int, p: int) -> np.ndarray:
    """Replicate ``index``'s identity-population data under the README's blake2b contract."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode("ascii"), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little")).standard_normal((n, p))


def ref_shrinkage(l_desc: np.ndarray, m: int) -> tuple:
    """(psi, d) of the eigenvalue shrinker for descending eigenvalues and count m."""
    p = l_desc.shape[0]
    gap_sum = np.array([np.sum(1.0 / np.delete(l_desc - li, i)) for i, li in enumerate(l_desc)])
    d = m - p + 1 - l_desc * gap_sum
    return m * l_desc / d, d


# ---- mc_small -------------------------------------------------------------

def check_mc_risk(text: str) -> tuple:
    res = _results(text)["monte_carlo"]
    doc = json.loads(text)["config"]
    n, p, reps = doc["n"], doc["p"], doc["replicates"]
    kinds = {"sample": "ml", "stein_triangular": "stein", "dp_equivariant": "dp"}
    _require(set(res) == set(kinds), f"methods {sorted(res)} != {sorted(kinds)}")
    failed = 0
    for method, kind in kinds.items():
        r = res[method]
        _require(r["replicates"] + r["failures"] == reps, f"{method}: replicate count mismatch")
        z = abs(r["mean_loss"] - ref_min_risk(kind, n, p)) / r["std_error"]
        _require(z <= MC_Z, f"{method}: mean {r['mean_loss']:.6f} is {z:.1f} SE from closed form")
        failed += r["failures"]
    return reps * len(kinds), failed


def check_power(text: str) -> tuple:
    """Decomposite power against the noncentral chi-square limit.

    The statistic is asymptotically chi2_p(ncp).  At finite n the classical
    statistic's exact power (noncentral F) differs from that limit; that gap
    is allowed on top of MC_Z sampling errors of the limit's own rate.
    """
    res = _results(text)
    cfg = json.loads(text)["config"]
    n, p, alpha = cfg["n"], cfg["p"], cfg["alpha"]
    _require(cfg["rate"] == "classical" and cfg["model"] == "identity", "unexpected power config")
    ncp = float(np.dot(cfg["delta"], cfg["delta"]))
    crit = chi2.ppf(1 - alpha, p)
    _close(res["critical_value"], crit, "critical value")
    limit = float(ncx2.sf(crit, p, ncp))
    finite_gap = abs(float(ncf.sf(crit * (n - p) / (p * (n - 1)), p, n - p, ncp)) - limit)
    se = math.sqrt(limit * (1 - limit) / res["replicates"])
    err = abs(res["rejection_rate"] - limit)
    _require(err <= MC_Z * se + finite_gap,
             f"power {res['rejection_rate']:.4f} vs limit {limit:.4f}: off by {err:.4f}")
    _require(res["replicates"] + res["failures"] == cfg["replicates"], "replicate count mismatch")
    return cfg["replicates"], res["failures"]


def build_mc_small(seed: int, workdir) -> list:
    s = str(seed)
    risk = ("risk", "--n", "50", "--p", "10", "--monte-carlo")
    return [
        Invocation("risk_t1", ("--seed", s, "--threads", "1") + risk, 1, check_mc_risk),
        Invocation("risk_t2", ("--seed", s, "--threads", "2") + risk, 2, check_mc_risk),
        Invocation("power", ("--seed", s, "power", "--n", "400", "--p", "5",
                             "--delta", "2,0,0,0,0", "--rate", "classical",
                             "--method", "decomposite", "--replicates", "4000"), 1, check_power),
    ]


# ---- spectral_large -------------------------------------------------------

def check_esd(text: str) -> tuple:
    res = _results(text)
    cfg = res["config"]
    n, p, seed = cfg["n"], cfg["p"], cfg["seed"]
    rows = res["rows"]
    _require(len(rows) == cfg["replicates"], "esd: one row per replicate expected")
    _require(res["metrics"]["ks"]["mean"] < KS_BOUND,
             f"esd: mean KS {res['metrics']['ks']['mean']:.4f} not below {KS_BOUND}")
    x = ref_replicate_rows(seed, 0, n, p)
    l = np.sort(np.linalg.eigvalsh(x.T @ x / n))
    f = ref_mp_cdf(l, p / n)
    i = np.arange(1, p + 1)
    ks = float(np.max(np.maximum(np.abs(f - i / p), np.abs(f - (i - 1) / p))))
    _require(abs(rows[0]["ks"] - ks) <= MP_CDF_TOL,
             f"esd: replicate 0 KS {rows[0]['ks']} != reference {ks}")
    return cfg["replicates"], res["failures"]


def check_recovery(text: str) -> tuple:
    res = _results(text)
    cfg = res["config"]
    n, p, seed = cfg["n"], cfg["p"], cfg["seed"]
    rows = res["rows"]
    _require(len(rows) == cfg["replicates"], "recovery: one row per replicate expected")
    refused = sum(1 for r in rows if r["shrunk_mae"] is None)
    _require(res["failures"] == refused, "recovery: failures disagree with the rows")
    x = ref_replicate_rows(seed, 0, n, p)
    l = np.linalg.eigvalsh(x.T @ x / n)[::-1]
    _, d = ref_shrinkage(l, n)
    _close(rows[0]["sample_mae"], np.mean(np.abs(l - 1.0)), "recovery: replicate 0 sample MAE")
    _require(rows[0]["denominator_breaches"] == int(np.count_nonzero(d <= DENOM_GUARD * n)),
             "recovery: replicate 0 breach count")
    return cfg["replicates"], res["failures"]


def check_sim_risk(text: str) -> tuple:
    res = _results(text)
    cfg = res["config"]
    n, p, reps = cfg["n"], cfg["p"], cfg["replicates"]
    kinds = {"sample": "ml", "stein_triangular": "stein", "dp_equivariant": "dp"}
    for kind in ("ml", "stein", "dp"):
        _close(res["metrics"]["closed_form"][kind], ref_min_risk(kind, n, p),
               f"closed form {kind}")
    mc = res["metrics"]["monte_carlo"]
    _require(set(mc) == set(kinds), f"methods {sorted(mc)} != {sorted(kinds)}")
    for method, kind in kinds.items():
        z = abs(mc[method]["mean"] - ref_min_risk(kind, n, p)) / mc[method]["se"]
        _require(z <= MC_Z, f"{method}: mean is {z:.1f} SE from the closed form")
    return reps * len(kinds), res["failures"]


def build_spectral_large(seed: int, workdir) -> list:
    s = str(seed)
    size = ("--n", "1600", "--p", "400")
    return [
        Invocation("esd", ("--seed", s, "simulate", "--experiment", "esd") + size
                   + ("--replicates", "30"), 1, check_esd),
        Invocation("recovery", ("--seed", s, "simulate", "--experiment", "recovery") + size
                   + ("--replicates", "30"), 1, check_recovery),
        Invocation("risk", ("--seed", s, "simulate", "--experiment", "risk") + size
                   + ("--replicates", "20", "--methods", "sample,stein_triangular,dp_equivariant"),
                   1, check_sim_risk),
    ]


# ---- oneshot --------------------------------------------------------------

def oneshot_data(seed: int) -> np.ndarray:
    """10000 x 20 draws from a population with variances 8, 4, 2, then 1."""
    scale = np.sqrt(np.r_[CSV_SPIKES, np.ones(CSV_COLS - len(CSV_SPIKES))])
    return np.random.default_rng(seed).standard_normal((CSV_ROWS, CSV_COLS)) * scale


def csv_text(data: np.ndarray) -> str:
    """Shortest round-trip decimal for every value, so parsing recovers ``data`` exactly."""
    return "".join(",".join(map(repr, row)) + "\n" for row in data.tolist())


def _check_estimate(method: str, data: np.ndarray):
    n, p = data.shape
    m = n - 1
    centered = data - data.mean(axis=0)
    scatter = centered.T @ centered
    i = np.arange(1, p + 1)

    def check(text: str) -> tuple:
        res = _results(text)
        _require((res["n"], res["p"]) == (n, p), "estimate: wrong dimensions")
        got = np.array(res["matrix"]["data"]).reshape(p, p)
        if method == "sample":
            _close(got, scatter / m, "sample covariance")
        elif method in ("stein", "dp"):
            t = np.linalg.cholesky(scatter)
            if method == "stein":
                _close(got, (t / (m + p - 2 * i + 1)) @ t.T, "triangular estimate")
            else:
                _close(got, np.diag(np.diag(t) ** 2 / (m - i + 1)), "pivot estimate")
        else:
            l, u = np.linalg.eigh(scatter / m)
            l, u = l[::-1], u[:, ::-1]
            psi, d = ref_shrinkage(l, m)
            _close(res["shrinkage"]["shrunk_eigenvalues"], psi, "shrunk eigenvalues")
            _close(res["shrinkage"]["denominators"], d, "shrinkage denominators")
            _close(got, (u * psi) @ u.T, "shrinkage estimate")
        return 0, 0

    return check


def _check_ttest(method: str, data: np.ndarray):
    n, p = data.shape
    xbar = data.mean(axis=0)
    s = np.cov(data, rowvar=False)
    if method == "hotelling":
        stat = n * float(xbar @ np.linalg.solve(s, xbar))
    else:
        l, u = np.linalg.eigh(s)
        psi, _ = ref_shrinkage(l[::-1], n - 1)
        stat = n * float(np.sum((u[:, ::-1].T @ xbar) ** 2 / psi))

    def check(text: str) -> tuple:
        res = _results(text)
        _close(res["statistic"], stat, f"{method} statistic")
        _close(res["pvalue"], chi2.sf(stat, p), f"{method} p-value")
        return 0, 0

    return check


def check_closed_form(text: str) -> tuple:
    res = _results(text)["closed_form"]
    for kind in ("ml", "stein", "dp"):
        _close(res[kind], ref_min_risk(kind, 50, 10), f"closed-form {kind}")
    return 0, 0


def check_mp_grid(text: str) -> tuple:
    rows = list(csv.DictReader(io.StringIO(text)))
    _require(len(rows) == 101, f"mp: {len(rows)} grid rows, expected 101")
    x = np.array([float(r["x"]) for r in rows])
    cdf = np.array([float(r["cdf"]) for r in rows])
    density = np.array([float(r["density"]) for r in rows])
    _close(x[[0, -1]], [(1 - 0.5) ** 2, (1 + 0.5) ** 2], "mp support edges")
    _require(cdf[0] == 0.0 and cdf[-1] == 1.0, "mp: CDF does not run from 0 to 1")
    _require(bool(np.all(np.diff(cdf) >= 0.0)), "mp: CDF is not monotone")
    _require(bool(np.all(density >= 0.0)), "mp: negative density")
    err = float(np.max(np.abs(cdf - ref_mp_cdf(x, 0.25))))
    _require(err <= MP_CDF_TOL, f"mp: CDF off the closed form by {err:.2e}")
    return 0, 0


def build_oneshot(seed: int, workdir) -> list:
    data = oneshot_data(seed)
    path = workdir / f"oneshot-{seed}.csv"
    path.write_text(csv_text(data))
    s = str(seed)
    calls = [Invocation(f"estimate_{m}", ("--seed", s, "estimate", "--input", str(path),
                                          "--method", m), 1, _check_estimate(m, data))
             for m in ("sample", "stein", "dp", "tsai")]
    calls += [Invocation(f"ttest_{m}", ("--seed", s, "ttest", "--input", str(path),
                                        "--method", m), 1, _check_ttest(m, data))
              for m in ("hotelling", "decomposite")]
    calls.append(Invocation("risk_closed_form", ("--seed", s, "risk", "--n", "50", "--p", "10",
                                                 "--closed-form"), 1, check_closed_form))
    calls.append(Invocation("mp", ("--seed", s, "mp", "--c", "0.25", "--points", "101"),
                            1, check_mp_grid))
    return calls


WORKLOADS = {
    w.name: w for w in (
        Workload("mc_small",
                 "p=10 Monte Carlo loops (risk 10k x3 at 1 and 2 threads, power 4000): "
                 "per-replicate Python overhead dominates",
                 build_mc_small, same_results=("risk_t1", "risk_t2")),
        Workload("spectral_large",
                 "p=400 n=1600 esd, recovery and risk experiments: LAPACK and O(p^2) "
                 "numerics dominate, per-replicate overhead is negligible",
                 build_spectral_large),
        Workload("oneshot",
                 "eight analyst calls on a 10000x20 CSV with no replicate loop: "
                 "import, CSV parsing and report rendering dominate",
                 build_oneshot),
    )
}
