"""Tests of the benchmark's own arithmetic, tracing and input generation."""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402


def test_self_time_with_overlapping_and_cross_thread_children():
    # root [0, 10] on thread 1 has children b [1, 4] (thread 1), c [3, 6] on
    # thread 2 overlapping b, and e [8, 12] on thread 2 running past the
    # root's end; b has a grandchild d [2, 3].
    spans = [
        Span(1, 0, "root", 0.0, 10.0, 1, 1, False),
        Span(2, 1, "b", 1.0, 4.0, 1, 1, False),
        Span(3, 1, "c", 3.0, 6.0, 2, 1, False),
        Span(4, 2, "d", 2.0, 3.0, 1, 1, True),
        Span(5, 1, "e", 8.0, 12.0, 2, 1, False),
    ]
    own = tracer.self_times(spans)
    # root: 10 minus the union [1, 6] u [8, 10] of its children, clipped to itself
    assert own == {1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 4.0}
    summary = tracer.summarize(spans + [Span(6, 0, "b", 20.0, 20.5, 1, 2, False)])
    assert summary["b"] == {"calls": 2, "self_s": 2.5, "raised": 0}
    assert summary["d"]["raised"] == 1


def test_covered_length_merges_nested_and_disjoint_intervals():
    assert tracer.covered_length([(1, 5), (2, 3), (4, 7), (9, 10)], 0, 20) == 7
    assert tracer.covered_length([], 0, 1) == 0
    assert tracer.covered_length([(-5, -1), (30, 40)], 0, 20) == 0


def small_invocations(tmp_path):
    """Cheap calls that reach every layer, including a two-thread replicate loop."""
    data = workloads.oneshot_data(5)[:200]
    path = tmp_path / "small.csv"
    path.write_text(workloads.csv_text(data))
    argvs = [
        ("--seed", "5", "--threads", "2", "risk", "--n", "20", "--p", "4", "--monte-carlo",
         "--replicates", "100", "--methods", "sample,stein_triangular,dp_equivariant"),
        # the raw shrinker refuses well over 1 % of replicates here, so this
        # call exits 2 after counting its refusals
        ("--seed", "5", "risk", "--n", "20", "--p", "4", "--monte-carlo",
         "--replicates", "200", "--methods", "tsai"),
        ("--seed", "5", "power", "--n", "30", "--p", "3", "--delta", "1,0,0",
         "--method", "hotelling", "--replicates", "200"),
        ("--seed", "5", "simulate", "--experiment", "recovery", "--n", "40", "--p", "8",
         "--replicates", "5"),
        ("--seed", "5", "estimate", "--input", str(path), "--method", "tsai"),
        ("--seed", "5", "mp", "--c", "0.5", "--points", "5"),
    ]
    return [workloads.Invocation(f"call{k}", argv, 1, lambda text: (0, 0))
            for k, argv in enumerate(argvs)]


def traced_layers(invocations):
    from covshrink import io_cli, loss_risk, matrix_core, sim

    originals = (io_cli.run_cli, matrix_core.cholesky, loss_risk.cholesky,
                 sim.EXPERIMENTS["recovery"])
    t = tracer.Tracer()
    t.install()
    try:
        assert loss_risk.cholesky is not originals[2]
        calls, layers = run.inprocess_pass(workloads.WORKLOADS["oneshot"], invocations, t)
    finally:
        t.uninstall()
    assert (io_cli.run_cli, matrix_core.cholesky, loss_risk.cholesky,
            sim.EXPERIMENTS["recovery"]) == originals
    assert [c["problem"] is None for c in calls] == [True, False, True, True, True, True]
    return layers


def test_calls_repeat_exactly_across_traced_runs(tmp_path):
    invocations = small_invocations(tmp_path)
    first = traced_layers(invocations)
    second = traced_layers(invocations)
    for key in ("calls", "raised"):
        assert {k: v[key] for k, v in first.items()} == {k: v[key] for k, v in second.items()}
    assert first["io_cli.run_cli"]["calls"] == len(invocations)
    assert first["sim.eigenvalue_recovery_experiment"]["calls"] == 1
    # three threaded risk methods at 100 replicates, tsai risk and power at
    # 200, recovery at 5
    assert first["rng.replicate_rng"]["calls"] == 705
    assert first["estimators.tsai_eigenvalues"]["raised"] > 0


def test_worker_thread_spans_hang_under_the_pool_owner(tmp_path):
    from covshrink import io_cli

    t = tracer.Tracer()
    t.install()
    try:
        t.begin_invocation(1)
        code = io_cli.run_cli(["--output", str(tmp_path / "r.json"), "--threads", "2",
                               "risk", "--n", "20", "--p", "4", "--monte-carlo",
                               "--replicates", "100", "--methods", "sample"])
        spans = t.take_spans()
    finally:
        t.uninstall()
    assert code == 0
    by_id = {s.span_id: s for s in spans}
    owner = next(s for s in spans if s.name == "loss_risk.replicate_losses")
    draws = [s for s in spans if s.name == "rng.replicate_rng"]
    assert len(draws) == 100
    assert {by_id[s.parent_id].name for s in draws} == {"loss_risk.replicate_losses"}
    assert all(s.parent_id == owner.span_id for s in draws)
    assert len({s.thread for s in draws} - {owner.thread}) >= 1


def test_oneshot_csv_is_byte_identical_for_a_seed():
    first = workloads.csv_text(workloads.oneshot_data(11))
    assert first == workloads.csv_text(workloads.oneshot_data(11))
    assert first != workloads.csv_text(workloads.oneshot_data(12))
    lines = first.splitlines()
    assert len(lines) == workloads.CSV_ROWS
    assert {len(line.split(",")) for line in lines} == {workloads.CSV_COLS}


@pytest.mark.parametrize("c", [0.1, 0.25, 0.5])
def test_reference_mp_cdf_matches_quadrature_of_the_density(c):
    a, b = (1 - c ** 0.5) ** 2, (1 + c ** 0.5) ** 2
    xs = np.linspace(a, b, 7)
    density = lambda x: np.sqrt(max((x - a) * (b - x), 0.0)) / (2 * np.pi * c * x)  # noqa: E731
    expected = [integrate.quad(density, a, x, epsabs=1e-12)[0] for x in xs]
    assert workloads.ref_mp_cdf(xs, c) == pytest.approx(expected, abs=1e-9)


def test_tail_latency_needs_ten_samples_beyond_it():
    assert run.tail_latency(list(range(10))) == (None, None)
    assert run.tail_latency(list(range(20))) == (9, 50.0)
