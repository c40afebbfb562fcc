import importlib.util
import json
from pathlib import Path

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
