import hashlib
import sys
import threading
import time

import numpy as np
import pytest

from covshrink import EigenvalueTieError, NumericError, _rng
from covshrink._rng import (
    bartlett_chunk,
    bartlett_factor,
    chunk_replicates,
    draw_chunk,
    gaussian_rows,
    replicate_rng,
    run_chunks,
)
from covshrink.io_cli import run_cli
from covshrink.matrix_core import cholesky


def ar1(p, rho):
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def blake2b_default_rng(seed, index):
    """Replicate ``index``'s generator as the README defines it."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode("ascii"), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def is_blake2b_stream(seed, index):
    """replicate_rng(seed, index) starts in blake2b_default_rng's state and draws its bits."""
    got, want = replicate_rng(seed, index), blake2b_default_rng(seed, index)
    return (got.bit_generator.state == want.bit_generator.state
            and got.standard_normal(50).tobytes() == want.standard_normal(50).tobytes())


# indices either side of the first block boundaries, and one far out, for
# a negative, a zero and a beyond-64-bit master seed
@pytest.mark.parametrize("seed, index", [(7, 3), (2 ** 63, 12345)] + [
    (seed, index) for seed in (-5, 0, 2 ** 70) for index in (0, 63, 64, 65, 127, 128, 10 ** 9)])
def test_replicate_stream_is_default_rng_of_the_blake2b_seed(seed, index):
    assert is_blake2b_stream(seed, index)


class TestBulkSeeding:
    """replicate_rng's SeedSequence words come in blocks of SEED_BLOCK, from a bounded cache."""

    def test_block_words_equal_numpys_seed_sequence(self):
        # the edges of one and two uint32 entropy words, then 1,000 blake2b digests; a NumPy
        # whose SeedSequence mixes differently fails here
        digests = b"".join(hashlib.blake2b(f"3:{i}".encode("ascii"), digest_size=8).digest()
                           for i in range(1000))
        entropy = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
        entropy += np.frombuffer(digests, dtype="<u8").tolist()
        words = _rng._seed_words(np.array(entropy, dtype=np.uint64))
        assert words.shape == (len(entropy), 4) and words.dtype == np.uint64
        for e, row in zip(entropy, words):
            assert np.array_equal(row, np.random.SeedSequence(e).generate_state(4, np.uint64)), e

    def test_an_evicted_block_is_recomputed_to_the_same_stream(self):
        _rng._block_words.cache_clear()
        bound = _rng._block_words.cache_info().maxsize
        for block in range(bound + 1):
            replicate_rng(11, block * _rng.SEED_BLOCK + 5)
        info = _rng._block_words.cache_info()
        assert (info.misses, info.currsize) == (bound + 1, bound)
        assert is_blake2b_stream(11, 0) and is_blake2b_stream(11, _rng.SEED_BLOCK - 1)
        assert _rng._block_words.cache_info().misses == bound + 2

    def test_four_threads_asking_interleaved_indices_get_the_blake2b_streams(self):
        _rng._block_words.cache_clear()
        threads, indices = 4, 1000
        states = [None] * indices
        start = threading.Barrier(threads)

        def ask(first):
            start.wait(timeout=60)
            for r in range(first, indices, threads):
                states[r] = replicate_rng(6, r).bit_generator.state

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            workers = [threading.Thread(target=ask, args=(t,)) for t in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert states == [blake2b_default_rng(6, r).bit_generator.state for r in range(indices)]

    def test_seeds_that_compare_equal_but_print_apart_keep_their_own_streams(self):
        assert is_blake2b_stream(1, 5) and is_blake2b_stream(True, 5)
        assert is_blake2b_stream(1.0, 5) and is_blake2b_stream(np.int64(1), 5)
        assert (replicate_rng(True, 5).bit_generator.state
                != replicate_rng(1, 5).bit_generator.state)

    def test_precomputed_words_serve_only_pcg64s_request(self):
        seed_type = _rng._precomputed_seed_type()
        words = _rng._block_words("0", 0)[0]
        assert not words.flags.writeable
        assert seed_type(words).generate_state(4, np.uint64) is words
        with pytest.raises(ValueError, match="4 uint64 words"):
            seed_type(words).generate_state(8, np.uint32)


class TestChunking:
    def test_chunk_size_follows_the_byte_budget(self):
        assert chunk_replicates(50, 10) == 65
        assert chunk_replicates(1600, 400) == 1
        assert chunk_replicates(10 ** 6, 10 ** 3) == 1

    def test_chunk_slices_equal_single_replicate_draws(self):
        # n=40, p=5: 163 replicates per chunk, so 400 replicates span three chunks
        chol = cholesky(ar1(5, 0.7))
        slices, refusals = run_chunks(lambda start, x: (list(x), [None] * len(x)), 21, chol, 40,
                                      400)
        assert (len(slices), refusals) == (400, {})
        for r, xr in enumerate(slices):
            assert np.array_equal(xr, gaussian_rows(replicate_rng(21, r), chol, 40))

    @pytest.mark.parametrize("sigma", [np.eye(6), np.diag([9.0, 4.0, 2.5, 1.0, 1.0, 1.0]),
                                       ar1(6, 0.5)], ids=["identity", "spiked", "ar1"])
    def test_draw_chunk_slices_equal_gaussian_rows_for_each_factor(self, sigma):
        chol = cholesky(sigma)
        x = draw_chunk(9, chol, 25, 4, 30)
        for j in range(26):
            assert np.array_equal(x[j], gaussian_rows(replicate_rng(9, 4 + j), chol, 25))

    def test_draw_chunk_starts_mid_stream(self):
        chol = cholesky(ar1(3, 0.4))
        x = draw_chunk(5, chol, 12, 7, 10)
        assert x.shape == (3, 12, 3)
        for j in range(3):
            assert np.array_equal(x[j], gaussian_rows(replicate_rng(5, 7 + j), chol, 12))

    def test_bartlett_factor_draws_the_lower_entries_then_the_chi_square_diagonal(self):
        p, n = 4, 9
        t = bartlett_factor(replicate_rng(3, 1), np.eye(p), n)
        rng = replicate_rng(3, 1)
        assert np.array_equal(t[np.tril_indices(p, -1)], rng.standard_normal(p * (p - 1) // 2))
        assert np.array_equal(np.diag(t), np.sqrt([rng.chisquare(n - i) for i in range(p)]))
        assert not np.triu(t, 1).any()

    @pytest.mark.parametrize("sigma", [np.eye(6), np.diag([9.0, 4.0, 2.5, 1.0, 1.0, 1.0]),
                                       ar1(6, 0.5)], ids=["identity", "diagonal", "dense"])
    def test_bartlett_chunk_slices_equal_bartlett_factor_for_each_factor(self, sigma):
        chol = cholesky(sigma)
        t = bartlett_chunk(9, chol, 25, 4, 30)
        assert t.shape == (26, 6, 6)
        for j in range(26):
            assert np.array_equal(t[j], bartlett_factor(replicate_rng(9, 4 + j), chol, 25))

    def test_run_chunks_hands_the_scorer_the_stacker_it_is_given(self):
        # n=40, p=5: 163 replicates per chunk, so 400 replicates span three chunks
        chol = cholesky(ar1(5, 0.7))
        slices, _ = run_chunks(lambda start, t: (list(t), [None] * len(t)), 21, chol, 40, 400,
                               draw=bartlett_chunk)
        for r, tr in enumerate(slices):
            assert np.array_equal(tr, bartlett_factor(replicate_rng(21, r), chol, 40))

    def test_outcomes_do_not_depend_on_chunk_size_or_threads(self, monkeypatch):
        chol = cholesky(ar1(4, 0.3))

        def score_chunk(start, x):
            values = [(start + j, float(np.sum(xj * xj))) for j, xj in enumerate(x)]
            errors = [NumericError() if r % 7 == 0 else EigenvalueTieError() if v > 140 else None
                      for r, v in values]
            return values, errors

        default = run_chunks(score_chunk, 3, chol, 30, 250)
        values, errors = score_chunk(0, draw_chunk(3, chol, 30, 0, 250))
        assert default[0] == [None if e is not None else v for v, e in zip(values, errors)]
        assert list(default[1]) == ["EigenvalueTieError", "NumericError"]
        assert default[1]["NumericError"] == 36
        assert sum(default[1].values()) == sum(e is not None for e in errors)
        for step in (1, 2, 7, 64, 250):
            monkeypatch.setattr(_rng, "CHUNK_BYTES", 8 * 30 * 4 * step)
            assert chunk_replicates(30, 4) == step
            for threads in (1, 3):
                assert run_chunks(score_chunk, 3, chol, 30, 250, threads) == default


class TestReplicateCounts:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_three_method_risk_draws_each_replicate_once_per_method(self, tmp_path, monkeypatch,
                                                                     threads):
        calls = []

        def counted(seed, index):
            calls.append(index)
            return replicate_rng(seed, index)

        monkeypatch.setattr(_rng, "replicate_rng", counted)
        code = run_cli(["--output", str(tmp_path / "r.json"), "--threads", threads, "--seed", "4",
                        "risk", "--n", "20", "--p", "4", "--monte-carlo",
                        "--replicates", "200"])
        assert code == 0
        assert sorted(calls) == sorted(list(range(200)) * 3)


class TestScoringOnEveryThread:
    """Above one thread, every worker draws and scores; the calling thread only merges."""

    @pytest.mark.parametrize("threads", [2, 3])
    def test_outcomes_and_refusals_equal_one_threads(self, monkeypatch, threads):
        # seven replicates a chunk of 20 x 3 draws
        monkeypatch.setattr(_rng, "CHUNK_BYTES", 8 * 20 * 3 * 7)
        chol = cholesky(ar1(3, 0.6))
        caller, worked_on = threading.get_ident(), set()

        def score_chunk(start, x):
            worked_on.add(threading.get_ident())
            values = [float(np.sum(xj * xj)) for xj in x]
            errors = [NumericError() if (start + j) % 5 == 0 else
                      EigenvalueTieError() if v > 75 else None for j, v in enumerate(values)]
            return values, errors

        serial = run_chunks(score_chunk, 4, chol, 20, 100, 1)
        assert serial[1]["NumericError"] == 20 and serial[1]["EigenvalueTieError"] > 0
        worked_on.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            assert run_chunks(score_chunk, 4, chol, 20, 100, threads) == serial
        finally:
            sys.setswitchinterval(interval)
        assert caller not in worked_on and 1 <= len(worked_on) <= threads

    def test_an_error_raised_on_a_worker_propagates(self, monkeypatch):
        def score_chunk(start, x):
            if start > 0:
                raise ValueError(f"chunk at {start}")
            return [0.0] * len(x), [None] * len(x)

        monkeypatch.setattr(_rng, "CHUNK_BYTES", 8 * 5 * 2 * 3)
        with pytest.raises(ValueError, match="chunk at 3"):
            run_chunks(score_chunk, 1, np.eye(2), 5, 12, 2)

    def test_a_chunk_that_finishes_first_is_merged_in_replicate_order(self, monkeypatch):
        # one replicate a chunk; chunk 0's scorer waits until chunk 1's has
        # finished, so the workers finish out of order and the merge must not
        monkeypatch.setattr(_rng, "CHUNK_BYTES", 8 * 5 * 2)
        first_done, finished = threading.Event(), []

        def score_chunk(start, x):
            if start == 0:
                assert first_done.wait(5.0)
            finished.append(start)
            if start == 1:
                first_done.set()
            return [float(start)] * len(x), [NumericError() if start == 1 else None] * len(x)

        out = run_chunks(score_chunk, 1, np.eye(2), 5, 6, 2)
        assert finished[:2] == [1, 0]
        assert out == ([0.0, None, 2.0, 3.0, 4.0, 5.0], {"NumericError": 1})

    def test_no_more_than_threads_chunks_are_drawn_ahead_of_the_merge(self, monkeypatch):
        # one replicate a chunk, 20 chunks; chunk 3's scorer is slow and then
        # raises.  While it sleeps, the other worker may draw only the chunks
        # already submitted, so none past 3 + threads; a loop that submitted
        # every chunk up front would draw nearly all 20
        monkeypatch.setattr(_rng, "CHUNK_BYTES", 8 * 5 * 2)
        threads, drawn = 2, []

        def counted(seed, chol_factor, n, start, stop):
            drawn.append(start)
            return draw_chunk(seed, chol_factor, n, start, stop)

        def score_chunk(start, x):
            if start == 3:
                time.sleep(0.2)
                raise ValueError("chunk at 3")
            return [0.0] * len(x), [None] * len(x)

        before = threading.active_count()
        with pytest.raises(ValueError, match="chunk at 3"):
            run_chunks(score_chunk, 1, np.eye(2), 5, 20, threads, draw=counted)
        assert threading.active_count() == before
        assert 3 in drawn and max(drawn) <= 3 + threads


class TestDefaultThreadCount:
    """threads=None runs two workers exactly when n*p >= 2**18 and 2 CPUs are usable."""

    @staticmethod
    def drawing_threads(monkeypatch, cpus, n, p, threads=None):
        """(outcomes, refusals) of a three-replicate loop, and the threads that drew and scored it."""
        monkeypatch.setattr(_rng, "_usable_cpus", lambda: cpus)
        worked_on, draw = [], _rng.draw_chunk

        def recorded(*args):
            worked_on.append(threading.get_ident())
            return draw(*args)

        def score_chunk(start, x):
            worked_on.append(threading.get_ident())
            return x.sum(axis=(1, 2)).tolist(), [None] * len(x)

        monkeypatch.setattr(_rng, "draw_chunk", recorded)
        out = run_chunks(score_chunk, 12, np.eye(p), n, 3, threads)
        return out, set(worked_on)

    @pytest.mark.parametrize("n, p", [(1023, 256), (2 ** 18 - 1, 1), (1024, 256), (2 ** 18, 1)])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_worker_draws_from_two_mib_on_two_cpus(self, monkeypatch, cpus, n, p):
        # from 2 MiB on, two workers draw and score; the calling thread does neither
        assert chunk_replicates(n, p) == 1
        serial, on = self.drawing_threads(monkeypatch, cpus, n, p, threads=1)
        assert on == {threading.get_ident()}
        default, on = self.drawing_threads(monkeypatch, cpus, n, p)
        ahead = n * p >= 2 ** 18 and cpus >= 2
        assert _rng.replicate_threads(None, n, p) == (2 if ahead else 1)
        assert (threading.get_ident() not in on) == ahead and len(on) <= (2 if ahead else 1)
        assert default == serial and len(serial[0]) == 3

    def test_an_explicit_count_is_kept_above_the_threshold(self, monkeypatch):
        _, on = self.drawing_threads(monkeypatch, 2, 1024, 256, threads=1)
        assert on == {threading.get_ident()}
        assert _rng.replicate_threads(1, 1024, 256) == 1
        assert _rng.replicate_threads(3, 10, 5) == 3

    def test_usable_cpus_falls_back_to_the_machines_count(self, monkeypatch):
        monkeypatch.setattr(_rng.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert _rng._usable_cpus() == 3
        monkeypatch.delattr(_rng.os, "sched_getaffinity")
        monkeypatch.setattr(_rng.os, "cpu_count", lambda: 4)
        assert _rng._usable_cpus() == 4
        monkeypatch.setattr(_rng.os, "cpu_count", lambda: None)
        assert _rng._usable_cpus() == 1
