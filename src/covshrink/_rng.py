"""Deterministic per-replicate random number generation and the replicate loop.

Every Monte Carlo replicate seeds its own generator from a stable 64-bit
hash of (master seed, replicate index), so results are bit-identical no
matter how replicates are scheduled across workers.  The generator is
NumPy's ``default_rng`` of that hash, bit for bit; the SeedSequence words it
starts from are computed for SEED_BLOCK consecutive indices at once and
cached.

A replicate is one draw from its generator that two numbers describe:
``rows`` rows of N(0, Sigma) (``gaussian_rows``), then, when ``dof`` is not
None, the Cholesky factor of the scatter of ``dof`` such rows
(``bartlett_factor``), whose chi-square diagonal takes one shared gamma
shape at p <= SHARED_SHAPE_MAX_P and one shape per column above it.  A loop
draws what its scorer reads: n rows, a scatter's factor alone (no rows), or
one row for a sample mean and, if the scorer reads it, the centered
scatter's factor.  ``draw_chunk`` stacks a chunk of replicates, and
``run_chunks`` is the one replicate loop: it draws chunks of a fixed byte
budget, hands each whole to a stacked scorer, and counts the refused
replicates by class.  The default thread count
(``replicate_threads``) reads n p, whatever the loop draws.  On more than
one thread, each worker draws and scores whole chunks, and the calling
thread merges the outcomes in replicate order.  ``check_failures`` is the
one place the failed-replicate tolerance is enforced, and ``aggregate`` the
one mean and standard error over the replicates that completed.
"""

from __future__ import annotations

import functools
import hashlib
import os
from collections import Counter, deque

import numpy as np

from .errors import NumericError
from .matrix_core import unit_exponents

MAX_FAILURE_FRACTION = 0.01
# replicates per chunk: as many draws as fit in 256 KiB of float64, counted by
# what one replicate's draw holds (rows p, and p^2 more for a factor), so a
# chunk adds little to the peak memory at any size while amortizing the
# per-call overhead at small p
CHUNK_BYTES = 256 * 1024
# n p, the float64 values in n rows of p (2 MiB), from which the default is two
# threads, on 2 usable CPUs.  The measurements behind it are in README's CLI
# section.
TWO_THREAD_VALUES = 2 ** 18
# the largest p at which a Bartlett factor's diagonal takes one shared gamma
# shape and p(p - 1)/2 more normals (``bartlett_factor``): up to p = 16 that
# draws a factor faster than p per-column shapes, near p = 20 the two tie,
# and from p = 24 it is slower, as tabled in CHANGES.md
SHARED_SHAPE_MAX_P = 16

# replicate indices whose SeedSequence words are computed together
SEED_BLOCK = 64
# cached blocks of words, 2 KiB each: enough for 64 threads each holding a
# chunk that spans three blocks
SEED_BLOCKS_CACHED = 256

# SeedSequence's constants (NEP 19; numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> tuple:
    """(xors, multipliers) of ``count`` successive hashmix steps, as uint32 arrays.

    Step k xors the running constant h_k in, then multiplies by h_{k+1} =
    h_k * mult mod 2**32; the constants never depend on the data.
    """
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=np.uint32)
    return h[:-1], h[1:]


# four pool words, then twelve pair mixes
_POOL_XOR, _POOL_MULT = _hash_constants(_INIT_A, _MULT_A, 16)
# eight uint32 output words
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, xor, mult) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words, its running constants given."""
    v = (value ^ xor) * mult
    return v ^ (v >> 16)


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each e of a uint64 array, as rows.

    A 64-bit entropy is one or two uint32 words and the pool four, so the
    pool words past the entropy hash a zero either way, and no entropy is
    left to mix in once the pool is filled.  Each step is uint32 arithmetic
    on one array across all the entropies.
    """
    pool = np.zeros((4, entropy.size), dtype=np.uint32)
    pool[0], pool[1] = entropy & _MASK32, entropy >> 32
    pool = _hashmix(pool, _POOL_XOR[:4, None], _POOL_MULT[:4, None])
    # mix_entropy: each word's hash is mixed into every other word in turn.
    # Word src does not change while it is mixed into the other three, and
    # each of those takes in only its own hash, so the three mixes are one.
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        steps = slice(4 + 3 * src, 7 + 3 * src)
        h = _hashmix(pool[src], _POOL_XOR[steps, None], _POOL_MULT[steps, None])
        v = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * h
        pool[dst] = v ^ (v >> 16)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR[:, None], _STATE_MULT[:, None])
    # generate_state's uint64 words: consecutive uint32 pairs, low word first
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.lru_cache(maxsize=SEED_BLOCKS_CACHED)
def _block_words(seed_text: str, block: int) -> np.ndarray:
    """(SEED_BLOCK, 4) SeedSequence words of replicates block*SEED_BLOCK onwards, read-only.

    Keyed by the seed's text, which is what the hash reads: seeds that
    compare equal may still print differently (1 and True).
    """
    first = block * SEED_BLOCK
    digests = b"".join(hashlib.blake2b(f"{seed_text}:{index}".encode("ascii"),
                                       digest_size=8).digest()
                       for index in range(first, first + SEED_BLOCK))
    words = _seed_words(np.frombuffer(digests, dtype="<u8").astype(np.uint64))
    words.flags.writeable = False
    return words


@functools.cache
def _precomputed_seed_type() -> type:
    """An ISeedSequence that hands PCG64 words already computed.

    Made at first use: subclassing NumPy's interface at import would load
    numpy.random for commands that draw nothing.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PrecomputedSeed(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 seeds itself from exactly these four uint64 words
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("only PCG64's request, 4 uint64 words, is precomputed")
            return self.words

    return PrecomputedSeed


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for replicate ``index`` of an experiment with master ``seed``.

    Bit for bit ``default_rng(int.from_bytes(blake2b(f"{seed}:{index}",
    digest_size=8), "little"))``.
    """
    block, offset = divmod(index, SEED_BLOCK)
    words = _block_words(f"{seed}", block)[offset]
    return np.random.Generator(np.random.PCG64(_precomputed_seed_type()(words)))


def gaussian_rows(rng: np.random.Generator, chol_factor: np.ndarray, n: int) -> np.ndarray:
    """n rows of N(0, L L') from a lower Cholesky factor L."""
    return rng.standard_normal((n, chol_factor.shape[0])) @ chol_factor.T


def bartlett_factor(rng: np.random.Generator, chol_factor: np.ndarray, n: int) -> np.ndarray:
    """L T, the lower Cholesky factor of the scatter of n >= p rows of N(0, L L'), drawn directly.

    T is Bartlett's factor (Bartlett 1933; Anderson, *An Introduction to
    Multivariate Statistical Analysis*, sec. 7.2): its p(p - 1)/2 entries
    below the diagonal are standard normals, in ``np.tril_indices(p, -1)``
    order, and T_ii = sqrt(chi2_{n-i+1}), i = 1 .. p, all independent, so
    T T' is distributed as the scatter of n N(0, I) rows, and (L T)(L T)'
    as that of n N(0, L L') rows, at p(p - 1)/2 normals and p chi-squares
    where the rows take n p normals, an n p^2 product and a factorization.

    At p <= SHARED_SHAPE_MAX_P one ``standard_normal`` call draws the
    entries below the diagonal and then p(p - 1)/2 more, row i's p - i in
    ``np.triu_indices(p, 1)`` order, and one ``standard_gamma`` call draws
    p variates G_i of the shared shape (n - p + 1)/2; T_ii = sqrt(2 G_i +
    sum_{j>i} Z_ij^2), as chi2_{n-i+1} = chi2_{n-p+1} + chi2_{p-i}.  Above
    it, the entries below the diagonal are drawn first, then T_ii =
    sqrt(2 * standard_gamma((n - i + 1)/2)), one shape per column, which is
    ``Generator.chisquare`` bit for bit.  NumPy checks a shape array on
    every call: at small p that check costs more than the p(p - 1)/2 extra
    normals, at large p less.
    """
    p = chol_factor.shape[0]
    m = p * (p - 1) // 2
    t = np.zeros((p, p))
    if p <= SHARED_SHAPE_MAX_P:
        z = rng.standard_normal(2 * m)
        t[np.tril_indices(p, -1)] = z[:m]
        u = np.zeros((p, p))
        u[np.triu_indices(p, 1)] = z[m:]
        chi2 = 2.0 * rng.standard_gamma((n - p + 1) / 2.0, size=p) + np.sum(u * u, axis=1)
    else:
        t[np.tril_indices(p, -1)] = rng.standard_normal(m)
        chi2 = 2.0 * rng.standard_gamma((n - np.arange(p)) / 2.0)
    t[np.diag_indices(p)] = np.sqrt(chi2)
    return chol_factor @ t


def chunk_replicates(values: int) -> int:
    """Replicates per chunk, at least one: as many ``values``-value draws as fit in CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // (8 * values))


def _diagonal(chol_factor: np.ndarray) -> np.ndarray | None:
    """L's diagonal when L is diagonal, else None.

    A product with a diagonal L scales by that diagonal instead, bit for
    bit: each entry of the product has exactly one nonzero term.
    """
    scale = np.diagonal(chol_factor)
    return None if np.count_nonzero(chol_factor) > np.count_nonzero(scale) else scale


def _rows_times(z: np.ndarray, chol_factor: np.ndarray) -> np.ndarray:
    """z L' for a (k, m, p) stack z of rows.

    A diagonal L scales z's columns in place instead (``_diagonal``), and
    the identity returns z itself.
    """
    scale = _diagonal(chol_factor)
    if scale is None:
        return z @ chol_factor.T
    return z if (scale == 1.0).all() else np.multiply(z, scale, out=z)


@functools.lru_cache(maxsize=8)
def _off_diagonal(p: int, upper: bool) -> np.ndarray:
    """Flat indices of the entries below a (p, p) matrix's diagonal, in ``np.tril_indices``
    order, or above it, in ``np.triu_indices`` order.

    Read-only, and cached per p: at p = 400, making them takes longer
    than placing one factor's normals through them (0.34 against 0.25 ms).
    """
    rows, cols = np.triu_indices(p, 1) if upper else np.tril_indices(p, -1)
    flat = rows * p + cols
    flat.flags.writeable = False
    return flat


def _factors(chol_factor: np.ndarray, normals: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """The (k, p, p) stack L T of Bartlett normals (k, p(p-1)/2, or p(p-1) at a shared
    shape) and gammas (k, p).

    Each slice is formed as ``bartlett_factor`` forms it.  A diagonal L
    scales T's rows instead (``_diagonal``), and the identity returns T
    itself.
    """
    k, p = gammas.shape
    m = p * (p - 1) // 2
    t = np.zeros((k, p * p))
    t[:, _off_diagonal(p, False)] = normals[:, :m]
    gammas *= 2.0
    if p <= SHARED_SHAPE_MAX_P:
        u = np.zeros((k, p * p))
        u[:, _off_diagonal(p, True)] = normals[:, m:]
        u *= u
        gammas += np.sum(u.reshape(k, p, p), axis=2)
    t[:, ::p + 1] = np.sqrt(gammas, out=gammas)  # the diagonal of each p x p slice
    t = t.reshape(k, p, p)
    scale = _diagonal(chol_factor)
    if scale is None:
        return chol_factor @ t
    return t if (scale == 1.0).all() else np.multiply(t, scale[:, None], out=t)


def draw_chunk(seed: int, chol_factor: np.ndarray, start: int, stop: int, rows: int,
               dof: int | None = None) -> tuple:
    """Replicates start .. stop - 1 as (x, t): x a (k, rows, p) stack, t a (k, p, p) one or None.

    For replicate start + j, with rng its ``replicate_rng``, slice j of x
    is bit for bit ``gaussian_rows(rng, chol_factor, rows)``, and, when dof
    is not None, slice j of t is ``bartlett_factor(rng, chol_factor, dof)``
    drawn next from the same generator; t is None otherwise.  Each
    replicate makes one ``standard_normal`` call for its rows and its
    factor's normals, in the references' order, and, with a factor, one
    ``standard_gamma`` call, of the shared shape at p <=
    SHARED_SHAPE_MAX_P; each stacked product applies the same matrix
    product to every slice.  A replicate that draws no normals makes no
    normal call: an empty draw does not advance the stream, but costs about
    a microsecond per replicate.
    """
    k, p = stop - start, chol_factor.shape[0]
    width = rows * p
    if dof is not None:
        shared = p <= SHARED_SHAPE_MAX_P
        width += p * (p - 1) // (1 if shared else 2)
        shape = (dof - p + 1) / 2.0 if shared else (dof - np.arange(p)) / 2.0
        gammas = np.empty((k, p))
    z = np.empty((k, width))
    for j in range(k):
        rng = replicate_rng(seed, start + j)
        if width:
            rng.standard_normal(out=z[j])
        if dof is not None:
            rng.standard_gamma(shape, out=gammas[j])
    # a copy only when a factor's normals follow the rows
    x = np.ascontiguousarray(z[:, :rows * p]).reshape(k, rows, p)
    x = _rows_times(x, chol_factor) if rows else x
    return x, None if dof is None else _factors(chol_factor, z[:, rows * p:], gammas)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def replicate_threads(threads: int | None, n: int, p: int) -> int:
    """Threads of a replicate loop over (n, p) draws: ``threads`` itself unless it is None.

    None gives two when n p, the values in n rows of p, is at least
    TWO_THREAD_VALUES and the process may run on two CPUs; one otherwise.
    It reads n p whatever the loop draws: a loop over a factor or a mean
    still scores kernels of p x p matrices, and at p = 300 and 400 those
    overlap on two threads.  A count below 1 is a ValueError.
    """
    if threads is None:
        return 2 if n * p >= TWO_THREAD_VALUES and _usable_cpus() >= 2 else 1
    if threads < 1:
        raise ValueError(f"need at least 1 thread, got {threads}")
    return threads


def run_chunks(score_chunk, seed: int, chol_factor: np.ndarray, n: int, replicates: int,
               threads: int | None = None, *, rows: int,
               dof: int | None = None) -> tuple[list, dict]:
    """Each replicate's outcome, in replicate order, and the refusals as {class name: count}.

    ``score_chunk(start, x, t)``, (x, t) = ``draw_chunk(seed, chol_factor,
    start, stop, rows, dof)`` the chunk of replicates start .. stop - 1,
    returns a value and a refusal (a CovshrinkError, or None) per
    replicate; a refused replicate's outcome is None.  So replicate r is
    ``rows`` N(0, L L') rows drawn from ``replicate_rng(seed, r)`` and,
    when dof is not None, the Cholesky factor of the scatter of dof such
    rows, drawn next from the same generator.  A scorer that needs other
    data (a sample mean, a shifted one) forms it from its own chunk, which
    no other scorer reads.  A chunk holds ``chunk_replicates`` of the rows
    p values, plus p^2 with a factor, that one replicate draws.  n is the
    sample count the default thread count reads, ``replicate_threads(None,
    n, p)`` when ``threads`` is None.  The chunk size depends on (rows,
    dof, p) alone, so every outcome depends on (seed, r) alone, never on
    ``threads``.  Errors raised by ``score_chunk`` propagate.

    Above one thread, ``threads`` workers each draw and score whole chunks,
    and the calling thread only merges their outcomes and refusals in
    replicate order.  At most ``threads`` chunks are submitted ahead of the
    merge, so once a chunk's scorer raises, at most ``threads - 1`` chunks
    past it are drawn.
    """
    p = chol_factor.shape[0]
    threads = replicate_threads(threads, n, p)
    step = chunk_replicates(rows * p + (p * p if dof is not None else 0))
    starts = range(0, replicates, step)
    outcomes, refusals = [], Counter()

    def scored(start: int) -> tuple:
        stop = min(start + step, replicates)
        return score_chunk(start, *draw_chunk(seed, chol_factor, start, stop, rows, dof))

    def merge(values: list, errors: list) -> None:
        outcomes.extend(None if e is not None else v for v, e in zip(values, errors))
        refusals.update(type(e).__name__ for e in errors if e is not None)

    if threads <= 1:
        for start in starts:
            merge(*scored(start))
    else:
        from concurrent.futures import ThreadPoolExecutor  # off the import path

        with ThreadPoolExecutor(max_workers=threads) as pool:
            pending = deque(pool.submit(scored, start) for start in starts[:threads])
            for k in range(len(starts)):
                done = pending.popleft().result()
                if k + threads < len(starts):
                    pending.append(pool.submit(scored, starts[k + threads]))
                merge(*done)
    return outcomes, dict(sorted(refusals.items()))


def check_failures(refusals: dict, total: int, method: str, n: int, p: int) -> int:
    """Failures in ``run_chunks``' tally of ``total`` replicates; NumericError above the tolerance.

    More than MAX_FAILURE_FRACTION failures aborts the run, since a mean over
    a heavily censored sample is not the quantity being estimated.
    """
    failures = sum(refusals.values())
    if failures > MAX_FAILURE_FRACTION * total:
        raise NumericError(
            f"{failures} of {total} replicates failed for method {method!r} at n={n}, p={p}; "
            f"above the {MAX_FAILURE_FRACTION:.0%} tolerance; refusals: "
            + ", ".join(f"{name} {count}" for name, count in sorted(refusals.items())))
    return failures


def aggregate(values) -> dict:
    """Mean, standard error, and count; None aggregates for empty input.

    Both are taken on the values times 2**-e, e = ``unit_exponents(v)``,
    where no sum or square overflows, and scaled back.
    """
    v = np.array([x for x in values if x is not None], dtype=float)
    if v.size == 0:
        return {"mean": None, "se": None, "count": 0}
    e = int(unit_exponents(v))
    u = np.ldexp(v, -e)
    se = float(np.ldexp(u.std(ddof=1), e) / np.sqrt(v.size)) if v.size > 1 else None
    return {"mean": float(np.ldexp(u.mean(), e)), "se": se, "count": int(v.size)}
