import hashlib
import threading

import numpy as np
import pytest

from covshrink import _rng
from covshrink._rng import (
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


@pytest.mark.parametrize("seed, index", [(0, 0), (7, 3), (2 ** 63, 12345)])
def test_replicate_stream_is_default_rng_of_the_blake2b_seed(seed, index):
    digest = hashlib.blake2b(f"{seed}:{index}".encode("ascii"), digest_size=8).digest()
    want = np.random.default_rng(int.from_bytes(digest, "little")).standard_normal(50)
    assert replicate_rng(seed, index).standard_normal(50).tobytes() == want.tobytes()


class TestChunking:
    def test_chunk_size_follows_the_byte_budget(self):
        assert chunk_replicates(50, 10) == 65
        assert chunk_replicates(1600, 400) == 1
        assert chunk_replicates(10 ** 6, 10 ** 3) == 1

    @pytest.mark.parametrize("mean", [None, np.array([0.5, -1.0, 2.0, 0.0, 3.0])])
    def test_chunk_slices_equal_single_replicate_draws(self, mean):
        # n=40, p=5: 163 replicates per chunk, so 400 replicates span three chunks
        chol = cholesky(ar1(5, 0.7))
        slices = run_chunks(lambda start, x: list(x), 21, chol, 40, 400, mean=mean)
        assert len(slices) == 400
        for r, xr in enumerate(slices):
            assert np.array_equal(xr, gaussian_rows(replicate_rng(21, r), chol, 40, mean))

    @pytest.mark.parametrize("sigma", [np.eye(6), np.diag([9.0, 4.0, 2.5, 1.0, 1.0, 1.0]),
                                       ar1(6, 0.5)], ids=["identity", "spiked", "ar1"])
    @pytest.mark.parametrize("mean", [None, np.linspace(-1.0, 2.0, 6)])
    def test_draw_chunk_slices_equal_gaussian_rows_for_each_factor(self, sigma, mean):
        chol = cholesky(sigma)
        x = draw_chunk(9, chol, 25, 4, 30, mean)
        for j in range(26):
            assert np.array_equal(x[j], gaussian_rows(replicate_rng(9, 4 + j), chol, 25, mean))

    def test_draw_chunk_starts_mid_stream(self):
        chol = cholesky(ar1(3, 0.4))
        x = draw_chunk(5, chol, 12, 7, 10)
        assert x.shape == (3, 12, 3)
        for j in range(3):
            assert np.array_equal(x[j], gaussian_rows(replicate_rng(5, 7 + j), chol, 12))

    def test_outcomes_do_not_depend_on_chunk_size_or_threads(self, monkeypatch):
        chol = cholesky(ar1(4, 0.3))

        def score_chunk(start, x):
            return [(start + j, float(np.sum(xj * xj))) for j, xj in enumerate(x)]

        default = run_chunks(score_chunk, 3, chol, 30, 250)
        monkeypatch.setattr(_rng, "CHUNK_BYTES", 1)
        assert chunk_replicates(30, 4) == 1
        assert run_chunks(score_chunk, 3, chol, 30, 250) == default
        assert run_chunks(score_chunk, 3, chol, 30, 250, threads=3) == default
        assert [r for r, _ in default] == list(range(250))


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

    def test_draw_ahead_scores_on_the_calling_thread_in_order(self, monkeypatch):
        monkeypatch.setattr(_rng, "CHUNK_BYTES", 8 * 10 * 3 * 7)  # seven replicates a chunk
        chol = cholesky(ar1(3, 0.2))
        seen = []

        def score_chunk(start, x):
            seen.append((start, threading.get_ident()))
            return [float(np.sum(xj)) for xj in x]

        serial = run_chunks(score_chunk, 8, chol, 10, 100)
        assert len(serial) == 100
        seen.clear()
        for threads in (2, 3):
            assert run_chunks(score_chunk, 8, chol, 10, 100, threads) == serial
            assert seen == [(start, threading.get_ident()) for start in range(0, 100, 7)]
            seen.clear()
