import importlib.util
import json
from pathlib import Path

from covshrink import io_cli

SPEC = importlib.util.spec_from_file_location(
    "compare_reports", Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_reports)


def report(**results):
    return json.dumps({"command": ["risk"], "results": results, "seed": 3,
                       "timestamps": {"started": "now"}})


def test_volatile_keys_are_ignored_at_any_depth():
    a = compare_reports.comparable(report(mean=1.5, wall_clock=0.25, rows=[{"wall_clock": 1}]))
    b = compare_reports.comparable(report(mean=1.5, wall_clock=9.0, rows=[{"wall_clock": 2}]))
    assert a == {"results": {"mean": 1.5, "rows": [{}]}, "seed": 3}
    assert compare_reports.differences(a, b) == []


def test_every_other_difference_is_named_by_its_path():
    a = compare_reports.comparable(report(mean=1.5, rows=[1, 2], se=0.1))
    b = compare_reports.comparable(report(mean=1.5000000000000002, rows=[1, 3], n=4))
    assert compare_reports.differences(a, b) == [
        "/results/n: only in B", "/results/se: only in A",
        "/results/mean: 1.5 != 1.5000000000000002", "/results/rows[1]: 2 != 3"]


def test_text_that_is_not_json_is_compared_as_text():
    assert compare_reports.comparable("x,cdf\n0.25,0.0\n") == "x,cdf\n0.25,0.0\n"
    assert compare_reports.differences("a\n", "b\n") == ["/: 'a\\n' != 'b\\n'"]


def test_the_cli_accepts_every_extra_call(tmp_path):
    calls = compare_reports.extra_calls(7, tmp_path)
    assert len({label for label, _ in calls}) == len(calls)
    for label, argv in calls:
        args = io_cli.build_parser().parse_args(argv)
        assert args.seed == 7, label
    edges = {label: io_cli.build_parser().parse_args(argv) for label, argv in calls
             if label.startswith("power_") and "_n_" in label}
    assert {label: (args.method, args.n - args.p) for label, args in edges.items()} == {
        "power_hotelling_n_p_plus_1": ("hotelling", 1),
        "power_oracle_n_below_p_plus_1": ("oracle", -1)}
    assert io_cli.read_csv(str(tmp_path / "extra.csv")).shape == (30, 4)
    # the row-free risk draw on worker threads with a dense population factor
    threaded = io_cli.build_parser().parse_args(dict(calls)["risk_ar1_threads_2"])
    assert (threaded.threads, threaded.model, threaded.monte_carlo) == (2, "ar1:0.6", True)
    assert threaded.methods.split(",") == ["sample", "stein_triangular", "dp_equivariant", "tsai"]
