"""Deterministic per-replicate random number generation and the replicate loop.

Every Monte Carlo replicate seeds its own generator from a stable 64-bit
hash of (master seed, replicate index), so results are bit-identical no
matter how replicates are scheduled across workers.  ``run_replicates`` is
the one loop that draws and scores replicates, ``check_failures`` the one
place the failed-replicate tolerance is enforced, and ``aggregate`` the one
mean and standard error over the replicates that completed.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NumericError

MAX_FAILURE_FRACTION = 0.01


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for replicate ``index`` of an experiment with master ``seed``."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode("ascii"), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def gaussian_rows(rng: np.random.Generator, chol_factor: np.ndarray, n: int,
                  mean=None) -> np.ndarray:
    """n rows of N(mean, L L') from a lower Cholesky factor L."""
    z = rng.standard_normal((n, chol_factor.shape[0]))
    x = z @ chol_factor.T
    if mean is not None:
        x = x + mean
    return x


def run_replicates(score, seed: int, chol_factor: np.ndarray, n: int, replicates: int,
                   threads: int = 1, mean=None) -> list:
    """``score(r, x_r)`` for r = 0 .. replicates - 1, in replicate order.

    x_r is ``gaussian_rows(replicate_rng(seed, r), chol_factor, n, mean)``,
    so every outcome depends on (seed, r) alone, never on ``threads``.
    Errors raised by ``score`` propagate; a scorer that tolerates a failed
    replicate returns None for it instead.
    """
    def one(r: int):
        return score(r, gaussian_rows(replicate_rng(seed, r), chol_factor, n, mean))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, range(replicates)))
    return [one(r) for r in range(replicates)]


def check_failures(outcomes, method: str, n: int, p: int) -> int:
    """Count the failed (None) outcomes; raise NumericError above the tolerance.

    More than MAX_FAILURE_FRACTION failures aborts the run, since a mean
    over a heavily censored sample is not the quantity being estimated.
    """
    total = len(outcomes)
    failures = sum(1 for o in outcomes if o is None)
    if failures > MAX_FAILURE_FRACTION * total:
        raise NumericError(
            f"{failures} of {total} replicates failed for method {method!r} "
            f"at n={n}, p={p}; above the {MAX_FAILURE_FRACTION:.0%} tolerance"
        )
    return failures


def aggregate(values) -> dict:
    """Mean, standard error, and count; None aggregates for empty input."""
    v = np.array([x for x in values if x is not None], dtype=float)
    if v.size == 0:
        return {"mean": None, "se": None, "count": 0}
    se = float(v.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else None
    return {"mean": float(v.mean()), "se": se, "count": int(v.size)}
