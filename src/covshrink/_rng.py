"""Deterministic per-replicate random number generation and the replicate loop.

Every Monte Carlo replicate seeds its own generator from a stable 64-bit
hash of (master seed, replicate index), so results are bit-identical no
matter how replicates are scheduled across workers.  The generator is
NumPy's ``default_rng`` of that hash, bit for bit; the SeedSequence words it
starts from are computed for SEED_BLOCK consecutive indices at once and
cached.  ``run_chunks`` is the one replicate loop: it draws replicates,
stacked into chunks of a fixed byte budget, hands each chunk whole to a
stacked scorer, and counts the refused replicates by class.  On more than
one thread, a chunk of large draws is drawn and scored on a worker, every
thread at once, and the calling thread merges the outcomes in replicate
order; small draws are scored on the calling thread while the other threads
draw the next chunks ahead.  ``replicate_threads`` chooses the thread count
from the size of one replicate's draw unless the caller gives it.
``check_failures`` is the one place the failed-replicate tolerance is
enforced, and ``aggregate`` the one mean and standard error over the
replicates that completed.
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
# draws per chunk: about 256 KiB of float64, so a chunk adds little to the
# peak memory at any (n, p) while amortizing the per-call overhead at small p
CHUNK_BYTES = 256 * 1024
# float64 values in one replicate's draw (2 MiB) from which a second thread
# pays, and from which every thread draws and scores whole chunks.  On 2
# vCPUs, in alternating fresh calls at one and two threads, `simulate
# --experiment risk` tied at n*p = 160,000 and won from 262,144 on, and `esd`
# tied up to 262,144 and won from 360,000 on.  Below it a draw hands the
# interpreter lock back at every replicate: two threads drawing 50 x 10
# chunks at once ran at 0.98 times the speed of one, and scoring on both
# made `--threads 2 risk --n 50 --p 10 --monte-carlo` slower, 1.20 -> 1.68 s,
# so there the other threads only draw ahead, and at p = 5 and 10 even that
# ties at best.  Seeding in blocks left drawing and scoring there both
# holding the lock most of the time (at two threads CPU time stayed within
# 2 % of wall time): that call took 0.96 s at one thread and 0.97 s at two
# (8 alternating pairs of fresh calls), and the 400 x 5 `power` of 4000
# replicates 0.73 and 0.71 s (14 pairs), inside one call's spread of
# 0.55-0.85 s.
DRAW_AHEAD_VALUES = 2 ** 18

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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def replicate_threads(threads: int | None, n: int, p: int) -> int:
    """Threads of a replicate loop over (n, p) draws: ``threads`` itself unless it is None.

    None gives two, which both draw and score (``run_chunks``), when one
    replicate's draw holds at least DRAW_AHEAD_VALUES float64 values and the
    process may run on two CPUs; one otherwise.
    """
    if threads is not None:
        return threads
    return 2 if n * p >= DRAW_AHEAD_VALUES and _usable_cpus() >= 2 else 1


def run_chunks(score_chunk, seed: int, chol_factor: np.ndarray, n: int, replicates: int,
               threads: int | None = None, mean=None) -> tuple[list, dict]:
    """Each replicate's outcome, in replicate order, and the refusals as {class name: count}.

    ``score_chunk(start, x)``, x = ``draw_chunk(seed, chol_factor, n, start,
    stop, mean)``, returns a value and a refusal (a CovshrinkError, or None)
    per slice; a refused replicate's outcome is None.  The chunk size
    depends on (n, p) alone, so every outcome depends on (seed, r) alone,
    never on ``threads``.  None chooses the count by ``replicate_threads``.
    Errors raised by ``score_chunk`` propagate.

    Above one thread there are two schedules, chosen by the size of one
    replicate's draw.  From n*p = DRAW_AHEAD_VALUES on, ``threads`` workers
    each draw and score whole chunks, and the calling thread only merges
    their outcomes and refusals in replicate order: such a draw, and the
    LAPACK calls that score it, run long without the interpreter lock, so
    the threads overlap.  Below it every chunk is scored on the calling
    thread, in order, while ``threads - 1`` workers draw the next chunks.
    Either way at most ``threads`` chunks are in flight.
    """
    p = chol_factor.shape[0]
    threads = replicate_threads(threads, n, p)
    step = chunk_replicates(n, p)
    starts = range(0, replicates, step)
    outcomes, refusals = [], Counter()

    def draw(start: int) -> np.ndarray:
        return draw_chunk(seed, chol_factor, n, start, min(start + step, replicates), mean)

    def merge(values: list, errors: list) -> None:
        outcomes.extend(None if e is not None else v for v, e in zip(values, errors))
        refusals.update(type(e).__name__ for e in errors if e is not None)

    if threads <= 1:
        for start in starts:
            merge(*score_chunk(start, draw(start)))
    else:
        from concurrent.futures import ThreadPoolExecutor  # off the import path

        scored = n * p >= DRAW_AHEAD_VALUES
        workers = threads if scored else threads - 1
        task = (lambda start: score_chunk(start, draw(start))) if scored else draw
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = deque(pool.submit(task, start) for start in starts[:workers])
            for k, start in enumerate(starts):
                done = pending.popleft().result()
                if k + workers < len(starts):
                    pending.append(pool.submit(task, starts[k + workers]))
                merge(*(done if scored else score_chunk(start, done)))
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
