"""Deterministic per-replicate random number generation and the replicate loop.

Every Monte Carlo replicate seeds its own generator from a stable 64-bit
hash of (master seed, replicate index), so results are bit-identical no
matter how replicates are scheduled across workers.  ``run_chunks`` is the
one replicate loop: it draws replicates, stacked into chunks of a fixed
byte budget, and hands each chunk whole to a stacked scorer on the calling
thread, with the next chunks drawn ahead on any other threads.
``check_failures`` is the one place the failed-replicate tolerance is
enforced, and ``aggregate`` the one mean and standard error over the
replicates that completed.
"""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np

from .errors import NumericError

MAX_FAILURE_FRACTION = 0.01
# draws per chunk: about 256 KiB of float64, so a chunk adds little to the
# peak memory at any (n, p) while amortizing the per-call overhead at small p
CHUNK_BYTES = 256 * 1024


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for replicate ``index`` of an experiment with master ``seed``."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode("ascii"), digest_size=8).digest()
    # default_rng(seed) for an integer seed, without its argument dispatch
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))


def gaussian_rows(rng: np.random.Generator, chol_factor: np.ndarray, n: int,
                  mean=None) -> np.ndarray:
    """n rows of N(mean, L L') from a lower Cholesky factor L."""
    z = rng.standard_normal((n, chol_factor.shape[0]))
    x = z @ chol_factor.T
    if mean is not None:
        x = x + mean
    return x


def chunk_replicates(n: int, p: int) -> int:
    """Replicates per chunk: as many (n, p) draws as fit in CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // (8 * n * p))


def draw_chunk(seed: int, chol_factor: np.ndarray, n: int, start: int, stop: int,
               mean=None) -> np.ndarray:
    """Replicates start .. stop - 1 stacked as a (stop - start, n, p) array.

    Slice j is bit for bit ``gaussian_rows(replicate_rng(seed, start + j),
    chol_factor, n, mean)``: each replicate keeps its own stream, and the
    stacked product applies the same matrix product to every slice.  A
    diagonal factor scales the columns instead, and the identity is
    skipped: each entry of ``z @ L.T`` then has exactly one nonzero term,
    so the product is that term, bit for bit.
    """
    z = np.empty((stop - start, n, chol_factor.shape[0]))
    for j in range(stop - start):
        replicate_rng(seed, start + j).standard_normal(out=z[j])
    scale = np.diagonal(chol_factor)
    if np.count_nonzero(chol_factor) > np.count_nonzero(scale):
        x = z @ chol_factor.T
    else:
        x = z if (scale == 1.0).all() else np.multiply(z, scale, out=z)
    if mean is not None:
        x += mean
    return x


def run_chunks(score_chunk, seed: int, chol_factor: np.ndarray, n: int, replicates: int,
               threads: int = 1, mean=None) -> list:
    """Concatenated ``score_chunk(start, x)`` over the chunks, in replicate order.

    x is ``draw_chunk(seed, chol_factor, n, start, stop, mean)`` and
    ``score_chunk`` returns one outcome per slice.  The chunk size depends on
    (n, p) alone, so every outcome depends on (seed, r) alone, never on
    ``threads``.  Every chunk is scored on the calling thread, in order;
    above one thread, ``threads - 1`` workers draw the next chunks
    meanwhile.  Errors raised by ``score_chunk`` propagate.
    """
    step = chunk_replicates(n, chol_factor.shape[0])
    starts = range(0, replicates, step)

    def draw(start: int) -> np.ndarray:
        return draw_chunk(seed, chol_factor, n, start, min(start + step, replicates), mean)

    if threads <= 1:
        return [outcome for start in starts for outcome in score_chunk(start, draw(start))]
    from concurrent.futures import ThreadPoolExecutor  # off the import path

    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        # at most threads - 1 chunks wait in memory beyond the one being scored
        pending = deque(pool.submit(draw, start) for start in starts[:threads - 1])
        outcomes = []
        for k, start in enumerate(starts):
            x = pending.popleft().result()
            if k + threads - 1 < len(starts):
                pending.append(pool.submit(draw, starts[k + threads - 1]))
            outcomes.extend(score_chunk(start, x))
        return outcomes


def check_failures(outcomes, method: str, n: int, p: int, refusals=None) -> int:
    """Count the failed (None) outcomes; raise NumericError above the tolerance.

    More than MAX_FAILURE_FRACTION failures aborts the run, since a mean
    over a heavily censored sample is not the quantity being estimated.
    ``refusals``, a {class name: count} histogram of the failures, is
    appended to the message where the caller kept one.
    """
    total = len(outcomes)
    failures = sum(1 for o in outcomes if o is None)
    if failures > MAX_FAILURE_FRACTION * total:
        message = (f"{failures} of {total} replicates failed for method {method!r} "
                   f"at n={n}, p={p}; above the {MAX_FAILURE_FRACTION:.0%} tolerance")
        if refusals:
            message += "; refusals: " + ", ".join(f"{name} {count}"
                                                  for name, count in sorted(refusals.items()))
        raise NumericError(message)
    return failures


def aggregate(values) -> dict:
    """Mean, standard error, and count; None aggregates for empty input."""
    v = np.array([x for x in values if x is not None], dtype=float)
    if v.size == 0:
        return {"mean": None, "se": None, "count": 0}
    se = float(v.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else None
    return {"mean": float(v.mean()), "se": se, "count": int(v.size)}
