import concurrent.futures
import ctypes
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import covshrink
from covshrink import CsvFormatError, _rng, io_cli, min_risk
from covshrink.estimators import ESTIMATORS
from covshrink.hdtest import mean_test
from covshrink.loss_risk import RiskEstimate, loss_tail
from covshrink.io_cli import (
    ReportDocument,
    matrix_payload,
    parse_model,
    read_csv,
    run_cli,
)
from covshrink.matrix_core import _one_blas_thread


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def child_env(**extra):
    """This process's environment plus ``extra``, with covshrink's source on PYTHONPATH."""
    src = str(Path(covshrink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_json(tmp_path, argv):
    """Run the CLI with --output into a temp file and parse the report."""
    out = tmp_path / "report.json"
    code = run_cli(["--output", str(out)] + argv)
    assert code == 0
    return ReportDocument.from_json(out.read_text())


class TestReadCsv:
    def test_rectangular(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,2\n3,4\n")
        assert_allclose(read_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,2\n\n3,4\n\n")
        assert_allclose(read_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_skipped(self, tmp_path):
        path = write(tmp_path, "a.csv", "x,y\n1,2\n3,4\n")
        assert_allclose(read_csv(path, header=True), [[1.0, 2.0], [3.0, 4.0]])

    def test_alternate_delimiter(self, tmp_path):
        path = write(tmp_path, "a.csv", "1;2\n3;4\n")
        assert_allclose(read_csv(path, delimiter=";"), [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_reports_line(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,2\n3\n5,6\n")
        with pytest.raises(CsvFormatError) as exc:
            read_csv(path)
        assert exc.value.line == 2

    def test_bad_cell_reports_line_and_column(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,2\n3,four\n")
        with pytest.raises(CsvFormatError) as exc:
            read_csv(path)
        assert exc.value.line == 2
        assert exc.value.column == 2

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,2\nnan,4\n")
        with pytest.raises(CsvFormatError) as exc:
            read_csv(path)
        assert exc.value.column == 1

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "a.csv", "")
        with pytest.raises(CsvFormatError):
            read_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvFormatError):
            read_csv(str(tmp_path / "nope.csv"))

    def test_field_above_the_csv_modules_limit_is_a_format_error(self, tmp_path):
        path = write(tmp_path, "a.csv", '1,2\n"' + "1" * 200_000 + '",2\n')
        with pytest.raises(CsvFormatError) as exc:
            read_csv(path)
        assert str(exc.value) == f"{path}: line 2: field larger than field limit (131072)"
        assert exc.value.line == 2

    def test_undecodable_byte_is_a_format_error_naming_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(CsvFormatError, match=f"^cannot read {re.escape(str(path))}: "):
            read_csv(str(path))

    def test_values_are_the_bits_of_float_per_cell(self, tmp_path):
        rows = [[" 2.5 ", "1_000", "-0.0"], ["1e-320", "0.1", "-7.25e300"]]
        path = write(tmp_path, "a.csv", "".join(",".join(row) + "\n" for row in rows))
        got = read_csv(path)
        want = np.array([[float(cell) for cell in row] for row in rows])
        assert got.shape == (2, 3)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[0, 2])

    @pytest.mark.parametrize("text, line, column, message", [
        ("1,2\n3,x\n4\n", 2, 2, "non-numeric value 'x' at line 2, column 2"),
        ("1,2\n3\n4,x\n", 2, None, "line 2 has 1 fields, expected 2"),
        ("1,2\n3,4\n5,inf,6\n7,x\n", 3, None, "line 3 has 3 fields, expected 2"),
    ])
    def test_first_malformed_row_or_cell_in_file_order(self, tmp_path, text, line, column,
                                                        message):
        path = write(tmp_path, "a.csv", text)
        with pytest.raises(CsvFormatError) as exc:
            read_csv(path)
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            f"{path}: {message}", line, column)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " -Infinity "])
    def test_non_finite_cell_named_at_its_line_and_column(self, tmp_path, cell):
        path = write(tmp_path, "a.csv", f"1,2\n\n3,{cell}\n")
        with pytest.raises(CsvFormatError) as exc:
            read_csv(path)
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            f"{path}: non-finite value at line 3, column 2", 3, 2)


def oneshot_csv(seed: int) -> str:
    """The benchmark's oneshot input (perfbench/workloads.py): 10000 x 20 draws, repr cells."""
    scale = np.sqrt(np.r_[8.0, 4.0, 2.0, np.ones(17)])
    data = np.random.default_rng(seed).standard_normal((10_000, 20)) * scale
    return "".join(",".join(map(repr, row)) + "\n" for row in data.tolist())


# (text, delimiter, header): each file read_csv must parse as the csv module's path does
CSV_CORPUS = [
    # quoted cells
    ('"1","2"\n3,4\n', ",", False),
    ('"1,5",2\n3,4\n', ",", False),
    ('"1\n",2\n3,4\n', ",", False),
    ('x,"y"\n1,2\n', ",", True),
    ('x,"y\n1,2\n3,4\n', ",", True),
    # blank, whitespace-only and delimiter-only rows
    ("1,2\n\n3,4\n\n", ",", False),
    ("1,2\n   \n3,4\n", ",", False),
    ("1,2\n \t\f\n3,4\n", ",", False),
    ("1,2\n,\n3,4\n", ",", False),
    ("1,2\n , \t\n3,4\n", ",", False),
    ("\n\n1,2\n3,4", ",", False),
    # headers: after blank lines, alone, and blank-only files with a header flag
    ("\n\nx,y\n1,2\n3,4\n", ",", True),
    (" , \n\t\nx,y\n1,2\n", ",", True),
    (",,\n1,2\n3,4\n", ",", True),
    ("\r\n\r\nx,y\r\n1,2\r\n", ",", True),
    ("x,y\n", ",", True),
    ("x,y\n\n\r\n", ",", True),
    ("x,y", ",", True),
    ("\n\n", ",", True),
    ("x;y\n1;2\n", ";", True),
    ("1,2\n3,4\n", ",", True),
    # line endings
    ("1,2\r\n3,4\r\n", ",", False),
    ("1,2\r3,4\r", ",", False),
    ("1,2\r\n3,4\r5,6\n", ",", False),
    ("x\ry\n1,2\n", ",", True),
    ("1,2\n3,4\r", ",", False),
    # whitespace and spellings float() takes that loadtxt may not, or the reverse
    ("\f1,2\n3,4\f\n", ",", False),
    ("1,2\n\f\n3,4\n", ",", False),
    ("\ufeff1,2\n3,4\n", ",", False),
    ("1_000,2\n3,4\n", ",", False),
    ("\u0661,2\n3,\u0663\u0664\n", ",", False),
    ("\xa01,2\n\x853, 4\n", ",", False),
    (" 1 , 2 \n+3,\t-4\t\n", ",", False),
    ("1\x00,2\n", ",", False),
    ("#1,2\n3,4\n", ",", False),
    ("0x10,2\n", ",", False),
    ("1,2\x0b3\n", ",", False),
    ("+1,.5,5.,1E5,-0.0,0.1000000000000000055511151231257827021181583404541015625\n",
     ",", False),
    # non-finite values, overflow, subnormals
    ("1,2\nnan,4\n", ",", False),
    ("1,inf\n", ",", False),
    ("-Infinity,1\n", ",", False),
    ("1e400,2\n", ",", False),
    ("4.9e-324,2.2250738585072009e-308\n1e-310,-5e-324\n", ",", False),
    # a trailing delimiter, ragged rows, bad cells
    ("1,2,\n3,4,\n", ",", False),
    ("1,2\n3\n5,6\n", ",", False),
    ("1,2\n3,four\n", ",", False),
    ("1,2\n3,4,5\n", ",", False),
    # tab, space and ; delimiters
    ("1\t2\n3\t4\n", "\t", False),
    ("1\t 2\n\t\n3 \t4\n", "\t", False),
    ("1 2\n3 4\n", " ", False),
    ("1  2\n3 4\n", " ", False),
    (" 1 2\n", " ", False),
    ("1;2\n3;4\n", ";", False),
    ("1,5;2\n", ";", False),
    # line endings as delimiters, which loadtxt refuses
    ("1\n2\n", "\n", False),
    ("1\r\n2\r\n", "\r", False),
    # one row, one column, one cell, no data
    ("1,2,3\n", ",", False),
    ("1\n2\n3\n", ",", False),
    ("5", ",", False),
    ("", ",", False),
    ("", ",", True),
    ("\n\r\n", ",", False),
    ("   ", ",", False),
    # a quoted cell above the csv module's field limit
    pytest.param('"' + "1" * 200_000 + '"\n', ",", False, id="cell-above-the-field-limit"),
]


def parse_both(path: str, delimiter: str, header: bool) -> tuple:
    """read_csv's outcome and the csv path's, each an array or a CsvFormatError."""
    with open(path, newline="") as fh:
        text = fh.read()
    outcomes = []
    for parse in (lambda: read_csv(path, delimiter, header),
                  lambda: io_cli._parse_csv(path, text, delimiter, header)):
        try:
            outcomes.append(parse())
        except CsvFormatError as exc:
            outcomes.append(exc)
    return tuple(outcomes)


def same_outcome(got, want) -> bool:
    if isinstance(want, CsvFormatError):
        return (isinstance(got, CsvFormatError)
                and (str(got), got.line, got.column) == (str(want), want.line, want.column))
    return (isinstance(got, np.ndarray) and got.dtype == want.dtype
            and got.shape == want.shape and got.tobytes() == want.tobytes())


@pytest.mark.filterwarnings("error")
class TestReadCsvMatchesTheCsvPath:
    @pytest.mark.parametrize("text, delimiter, header", CSV_CORPUS)
    def test_corpus_file(self, tmp_path, capfd, text, delimiter, header):
        path = tmp_path / "a.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        got, want = parse_both(str(path), delimiter, header)
        assert same_outcome(got, want), (got, want)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_of_other_than_one_character_is_refused_before_the_read(self, tmp_path,
                                                                              delimiter):
        # the path names no file: the delimiter is refused before the file is opened
        message = f"delimiter must be exactly one character, got {delimiter!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_csv(str(tmp_path / "absent.csv"), delimiter)

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_oneshot_csv_takes_numpys_reader(self, seed):
        # read_csv returns _loadtxt's array wherever that is not None
        text = oneshot_csv(seed)
        got = io_cli._loadtxt(text, ",", False)
        assert got is not None and got.shape == (10_000, 20)
        assert same_outcome(got, io_cli._parse_csv("oneshot.csv", text, ",", False))

    @pytest.mark.parametrize("text, delimiter, header", [
        ("1,2\r\n3,4\r\n", ",", False),
        ("\n x , y \n\n1,2\n", ",", True),
        ("1\t2\n\n3\t4", "\t", False),
        ("5\n", ";", False),
    ])
    def test_unquoted_files_take_numpys_reader(self, text, delimiter, header):
        assert io_cli._loadtxt(text, delimiter, header) is not None


class TestReportDocument:
    def test_json_round_trip(self):
        doc = ReportDocument(
            schema_version="1",
            command=["mp", "--c", "0.5"],
            config={"c": 0.5},
            results={"table": [1, 2]},
            seed=7,
            timestamps={"started": "t0", "finished": "t1"},
        )
        assert ReportDocument.from_json(doc.to_json()) == doc

    def test_non_finite_values_are_refused(self):
        doc = ReportDocument(schema_version="1", command=[], config={},
                             results={"mean": math.inf}, seed=0, timestamps={})
        with pytest.raises(ValueError, match="not JSON compliant"):
            doc.to_json()

    def test_matrix_payload_row_major(self):
        payload = matrix_payload(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert payload == {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0]}


class TestParseModel:
    def test_variants(self):
        assert parse_model("identity", 3).variant == "identity"
        m = parse_model("ar1:0.5", 4)
        assert (m.variant, m.rho) == ("ar1", 0.5)
        m = parse_model("spiked:5,2", 4)
        assert (m.variant, m.spikes) == ("spiked", (5.0, 2.0))

    def test_bad_specs(self):
        from covshrink import ConfigError

        with pytest.raises(ConfigError):
            parse_model("toeplitz", 3)
        with pytest.raises(ConfigError):
            parse_model("ar1:fast", 3)
        for text in ("identity:0.9", "identity:"):
            with pytest.raises(ConfigError, match="identity takes no parameters"):
                parse_model(text, 3)

    def test_empty_spike_field_is_refused(self):
        from covshrink import ConfigError

        with pytest.raises(ConfigError, match="'spiked:5,,2' has an empty field at position 2"):
            parse_model("spiked:5,,2", 4)


class TestEstimateCommand:
    def test_tsai_on_two_scalars(self, tmp_path):
        # centered convention: S = [[2]], effective count 1, psi = l
        data = write(tmp_path, "d.csv", "1\n3\n")
        doc = run_json(tmp_path, ["estimate", "--input", data])
        assert doc.results["method"] == "tsai"
        assert doc.results["matrix"] == {"rows": 1, "cols": 1, "data": [2.0]}
        assert doc.results["shrinkage"]["shrunk_eigenvalues"] == [2.0]
        assert doc.seed == 0
        assert doc.schema_version == "1"

    def test_sample_uncentered(self, tmp_path):
        data = write(tmp_path, "d.csv", "1\n-1\n")
        doc = run_json(
            tmp_path,
            ["estimate", "--input", data, "--method", "sample", "--n-convention", "uncentered"],
        )
        assert doc.results["matrix"]["data"] == [1.0]
        assert doc.results["divisor"] == 2

    def test_stein_and_dp_run(self, tmp_path):
        rows = "\n".join("%.6f,%.6f" % tuple(r) for r in
                         np.random.default_rng(5).standard_normal((12, 2)))
        data = write(tmp_path, "d.csv", rows + "\n")
        for method in ("stein", "dp"):
            doc = run_json(tmp_path, ["estimate", "--input", data, "--method", method])
            assert doc.results["matrix"]["rows"] == 2
        assert doc.results["target"] == "sigma_star"

    def test_header_flag(self, tmp_path):
        data = write(tmp_path, "d.csv", "value\n1\n3\n")
        doc = run_json(tmp_path, ["estimate", "--input", data, "--header"])
        assert doc.results["matrix"]["data"] == [2.0]

    @pytest.mark.parametrize("centered", [False, True])
    @pytest.mark.parametrize("name", ["sample", "stein_triangular", "dp_equivariant", "tsai"])
    def test_estimator_table_tags_and_cli_aliases(self, tmp_path, name, centered):
        # each table entry produces the tag it is filed under, and the CLI's
        # short spellings reach the same entry
        x = np.random.default_rng(6).standard_normal((15, 3)) * [3.0, 2.0, 1.0]
        est = ESTIMATORS[name](x, centered)
        assert est.method == name
        alias = {"stein_triangular": "stein", "dp_equivariant": "dp"}.get(name, name)
        data = write(tmp_path, "d.csv", "".join(",".join(map(repr, r)) + "\n" for r in x.tolist()))
        convention = "centered" if centered else "uncentered"
        doc = run_json(tmp_path, ["estimate", "--input", data, "--method", alias,
                                  "--n-convention", convention])
        assert doc.results["method"] == name
        assert doc.results["matrix"]["data"] == est.matrix.ravel().tolist()


class TestTtestCommand:
    def test_default_is_decomposite(self, tmp_path):
        rows = "\n".join("%.6f,%.6f" % tuple(r) for r in
                         np.random.default_rng(6).standard_normal((15, 2)) + 0.4)
        data = write(tmp_path, "d.csv", rows + "\n")
        doc = run_json(tmp_path, ["ttest", "--input", data])
        assert doc.results["method"] == "decomposite"
        assert doc.results["statistic"] >= 0
        assert 0.0 <= doc.results["pvalue"] <= 1.0
        assert doc.results["dof"] == 2

    def test_hotelling_univariate_hand_value(self, tmp_path):
        data = write(tmp_path, "d.csv", "1\n3\n")
        doc = run_json(tmp_path, ["ttest", "--input", data, "--method", "hotelling"])
        assert_allclose(doc.results["statistic"], 4.0)


class TestMpCommand:
    def test_default_csv_three_points(self, capsys):
        assert run_cli(["mp", "--c", "0.25", "--points", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,density,cdf"
        table = [list(map(float, ln.split(","))) for ln in lines[1:]]
        xs = [row[0] for row in table]
        assert_allclose(xs, [0.25, 1.25, 2.25])
        assert table[0][1] == 0.0
        assert_allclose(table[1][1], 1.6 / math.pi, rtol=1e-12)
        assert table[2][1] == 0.0
        assert table[0][2] == 0.0
        assert table[2][2] == 1.0

    def test_csv_floats_round_trip_exactly(self, capsys):
        assert run_cli(["mp", "--c", "0.37", "--points", "5"]) == 0
        out1 = capsys.readouterr().out
        assert run_cli(["mp", "--c", "0.37", "--points", "5"]) == 0
        assert capsys.readouterr().out == out1

    def test_json_format(self, tmp_path):
        doc = run_json(tmp_path, ["--format", "json", "mp", "--c", "0.25", "--points", "3"])
        assert_allclose(doc.results["lambda_minus"], 0.25)
        assert_allclose(doc.results["lambda_plus"], 2.25)
        assert len(doc.results["table"]) == 3


class TestRiskCommand:
    def test_closed_form_ordering(self, tmp_path):
        doc = run_json(tmp_path, ["risk", "--n", "10", "--p", "3", "--closed-form"])
        cf = doc.results["closed_form"]
        assert cf["dp"] < cf["stein"] < cf["ml"]
        assert_allclose(cf["ml"], min_risk("ml", 10, 3), rtol=1e-12)

    def test_closed_form_is_the_default(self, tmp_path):
        doc = run_json(tmp_path, ["risk", "--n", "8", "--p", "2"])
        assert "closed_form" in doc.results
        assert "monte_carlo" not in doc.results
        assert doc.config["methods"] == ["sample", "stein_triangular", "dp_equivariant"]

    def test_monte_carlo(self, tmp_path):
        doc = run_json(
            tmp_path,
            ["--seed", "3", "risk", "--n", "8", "--p", "2", "--monte-carlo",
             "--methods", "sample", "--replicates", "150"],
        )
        mc = doc.results["monte_carlo"]["sample"]
        assert list(doc.results["monte_carlo"]) == doc.config["methods"] == ["sample"]
        assert mc["replicates"] == 150
        assert abs(mc["mean_loss"] - min_risk("ml", 8, 2)) < 5 * mc["std_error"]

    def test_failures_are_counted_by_class(self, tmp_path, capsys):
        # at a spike of 5e306 the class estimators, which score the drawn scatter
        # factor, complete every replicate; tsai forms the scatter, and two
        # replicates' overflow, above the 1 % tolerance: risk aborts naming the
        # class, and simulate keeps the three methods that completed
        model = ["--model", "spiked:5e306", "--n", "20", "--p", "2", "--replicates", "100"]
        methods = ["--methods", "sample,stein_triangular,dp_equivariant,tsai"]
        assert run_cli(["risk", "--monte-carlo"] + methods + model) == 2
        assert capsys.readouterr().err == (
            "error: 2 of 100 replicates failed for method 'tsai' at n=20, p=2; "
            "above the 1% tolerance; refusals: NumericError 2\n")
        sim = run_json(tmp_path, ["simulate", "--experiment", "risk", "--drop-rows"] + model)
        mc = sim.results["metrics"]["monte_carlo"]
        assert {m: (e["failures"], e["failure_classes"]) for m, e in mc.items()} == {
            "sample": (0, {}), "stein_triangular": (0, {}), "dp_equivariant": (0, {}),
            "tsai": (2, {"NumericError": 2})}
        assert "error" in mc["tsai"] and sim.results["failures"] == 2

    def test_failures_within_the_tolerance_are_counted_by_class(self, tmp_path):
        # the same spike over 200 replicates: tsai's two overflows are the only
        # ones, at the 1 % tolerance and not above it, so risk completes and both
        # reports count them by class beside the three class methods' zero
        model = ["--model", "spiked:5e306", "--n", "20", "--p", "2", "--replicates", "200"]
        methods = ["--methods", "sample,stein_triangular,dp_equivariant,tsai"]
        risk = run_json(tmp_path, ["risk", "--monte-carlo"] + methods + model)
        sim = run_json(tmp_path, ["simulate", "--experiment", "risk", "--drop-rows"] + model)
        for mc in (risk.results["monte_carlo"], sim.results["metrics"]["monte_carlo"]):
            assert {m: (e["failures"], e["failure_classes"]) for m, e in mc.items()} == {
                "sample": (0, {}), "stein_triangular": (0, {}), "dp_equivariant": (0, {}),
                "tsai": (2, {"NumericError": 2})}
        assert "error" not in sim.results["metrics"]["monte_carlo"]["tsai"]
        assert sim.results["failures"] == 2

    def test_tail_keys_describe_the_losses(self, tmp_path):
        # risk --monte-carlo and simulate --experiment risk report the same tail,
        # that of the per-replicate losses the simulate rows list
        argv = ["--n", "100", "--p", "3", "--replicates", "150", "--methods", "sample,tsai"]
        risk = run_json(tmp_path, ["--seed", "3", "risk", "--monte-carlo"] + argv)
        sim = run_json(tmp_path, ["--seed", "3", "simulate", "--experiment", "risk"] + argv)
        keys = ("median_loss", "max_loss", "max_share")
        for method in ("sample", "tsai"):
            losses = [row["losses"][method] for row in sim.results["rows"]]
            tail = loss_tail(losses)
            assert {k: risk.results["monte_carlo"][method][k] for k in keys} == tail
            assert {k: sim.results["metrics"]["monte_carlo"][method][k] for k in keys} == tail

    def test_a_report_without_tail_keys_still_loads(self, tmp_path):
        doc = run_json(tmp_path, ["--seed", "3", "risk", "--n", "8", "--p", "2", "--monte-carlo",
                                  "--methods", "sample", "--replicates", "150"])
        entry = doc.results["monte_carlo"]["sample"]
        for key in ("median_loss", "max_loss", "max_share"):
            del entry[key]
        assert ReportDocument.from_json(doc.to_json()) == doc
        estimate = RiskEstimate(mean_loss=entry["mean_loss"], std_error=entry["std_error"],
                                replicates=entry["replicates"], method="sample", n=8, p=2,
                                seed=3, failures=entry["failures"])
        assert (estimate.median_loss, estimate.max_loss, estimate.max_share) == (None, None, None)

    def test_a_report_without_failure_classes_still_loads(self, tmp_path):
        doc = run_json(tmp_path, ["--seed", "3", "risk", "--n", "8", "--p", "2", "--monte-carlo",
                                  "--methods", "sample", "--replicates", "150"])
        entry = doc.results["monte_carlo"]["sample"]
        del entry["failure_classes"]
        assert ReportDocument.from_json(doc.to_json()) == doc
        estimate = RiskEstimate(mean_loss=entry["mean_loss"], std_error=entry["std_error"],
                                replicates=entry["replicates"], method="sample", n=8, p=2,
                                seed=3, failures=entry["failures"])
        assert estimate.failure_classes == {}


class TestSimulateCommand:
    def test_recovery_report_shape(self, tmp_path):
        doc = run_json(
            tmp_path,
            ["--seed", "5", "simulate", "--experiment", "recovery",
             "--n", "40", "--p", "4", "--replicates", "6"],
        )
        assert doc.config["experiment"] == "recovery"
        assert len(doc.results["rows"]) == 6
        assert doc.results["metrics"]["sample_mae"]["count"] == 6

    def test_drop_rows(self, tmp_path):
        doc = run_json(
            tmp_path,
            ["simulate", "--experiment", "esd", "--n", "40", "--p", "10",
             "--replicates", "2", "--drop-rows"],
        )
        assert doc.results["rows"] is None


class TestPowerCommand:
    def test_null_rate_near_alpha(self, tmp_path):
        doc = run_json(
            tmp_path,
            ["--seed", "9", "power", "--n", "30", "--p", "2", "--delta", "0,0",
             "--replicates", "800"],
        )
        assert abs(doc.results["rejection_rate"] - 0.05) < 0.03
        assert doc.results["failures"] == 0

    def test_alpha_above_one_half_is_2(self, tmp_path, capsys):
        argv = ["power", "--n", "30", "--p", "2", "--delta", "0,0", "--replicates", "50",
                "--alpha"]
        assert run_cli(argv + ["0.9"]) == 2
        assert "alpha must lie in (0, 1/2], got 0.9" in capsys.readouterr().err
        assert run_json(tmp_path, argv + ["0.5"]).results["alpha"] == 0.5

    def test_delta_length_checked(self, tmp_path, capsys):
        code = run_cli(["power", "--n", "30", "--p", "3", "--delta", "1,0"])
        assert code == 2
        assert "delta" in capsys.readouterr().err

    def test_empty_delta_field_is_2(self, capsys):
        assert run_cli(["power", "--n", "30", "--p", "2", "--delta", "0,,0"]) == 2
        assert "--delta '0,,0' has an empty field at position 2" in capsys.readouterr().err

    def test_oracle_mean_overflow_is_2(self, tmp_path, capsys):
        # the product delta p^(1/4) overflows before its division by sqrt(n), so the
        # shift and every sample mean are infinite, and every replicate is refused
        argv = ["power", "--n", "30", "--p", "2", "--method", "oracle", "--delta"]
        assert run_cli(argv + ["1.7e308,0"]) == 2
        err = capsys.readouterr().err
        assert "1000 of 1000 replicates failed for method 'oracle'" in err
        assert err.endswith("above the 1% tolerance; refusals: NumericError 1000\n")
        assert run_json(tmp_path, argv + ["1e307,0"]).results["rejection_rate"] == 1.0

    @pytest.mark.parametrize("method", ["hotelling", "decomposite", "oracle"])
    def test_overflowing_replicates_are_refusals(self, method, capsys):
        # delta p^(1/4) overflows before its division by sqrt(n), so every sample mean
        # is infinite: each replicate is a NumericError refusal, and the abort message
        # is the only line on stderr
        assert run_cli(["power", "--n", "30", "--p", "2", "--method", method, "--delta",
                        "1.7e308,0", "--replicates", "200"]) == 2
        assert capsys.readouterr().err == (
            f"error: 200 of 200 replicates failed for method {method!r} at n=30, p=2; "
            "above the 1% tolerance; refusals: NumericError 200\n")

    @pytest.mark.parametrize("method", ["hotelling", "decomposite", "oracle"])
    def test_a_statistic_that_overflows_is_a_rejection(self, tmp_path, method):
        # each sample mean, drawn directly, is finite (about 1.8e307), and only the
        # statistic n xbar' M^-1 xbar overflows, to inf: every replicate rejects
        doc = run_json(tmp_path, ["power", "--n", "30", "--p", "2", "--method", method,
                                  "--delta", "1e308,0", "--replicates", "200",
                                  "--rate", "classical"])
        assert doc.results["rejection_rate"] == 1.0
        assert "NumericError" not in doc.results["failure_classes"]

    def test_replicate_count_below_one_is_2(self, capsys):
        for count in ("0", "-2"):
            code = run_cli(["power", "--n", "30", "--p", "2", "--delta", "0,0",
                            "--replicates", count])
            assert code == 2
            assert "at least 1 replicate" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_subcommand(self):
        assert run_cli([]) == 1

    def test_unknown_flag(self):
        assert run_cli(["mp", "--c", "0.5", "--shape", "round"]) == 1

    def test_csv_format_outside_mp(self, tmp_path, capsys):
        data = write(tmp_path, "d.csv", "1\n3\n")
        assert run_cli(["--format", "csv", "estimate", "--input", data]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["risk", "--monte-carlo"],
                                         ["power", "--delta", "0,0,0"],
                                         ["simulate", "--experiment", "esd"]])
    def test_csv_format_is_refused_before_any_replicate(self, capsys, monkeypatch, command):
        def no_draws(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(_rng, "draw_chunk", no_draws)
        argv = ["--format", "csv"] + command + ["--n", "50", "--p", "3", "--replicates", "20000"]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == (
            "usage error: csv output is only available for the mp grid\n")

    @pytest.mark.parametrize("command", [["risk", "--monte-carlo"],
                                         ["power", "--delta", "0,0,0"],
                                         ["simulate", "--experiment", "esd"]])
    def test_replicates_above_the_bound_are_2_before_any_replicate(self, capsys, monkeypatch,
                                                                   command):
        def no_draws(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(_rng, "draw_chunk", no_draws)
        argv = command + ["--n", "50", "--p", "3", "--replicates", str(10**20)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == (
            f"error: need at most 1000000 replicates, got {10**20}\n")

    def test_model_errors_are_2(self, tmp_path, capsys):
        assert run_cli(["mp", "--c", "1.5"]) == 2
        assert run_cli(["estimate", "--input", str(tmp_path / "absent.csv")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["ttest", "--method", "decomposite"],
                                         ["estimate", "--method", "tsai"]])
    def test_exactly_tied_eigenvalues_are_a_tie_refusal(self, tmp_path, capsys, command):
        # the mean is zero and S = 4/3 I: two exactly equal eigenvalues
        data = write(tmp_path, "d.csv", "1,1\n1,-1\n-1,1\n-1,-1\n")
        assert run_cli(command + ["--input", data]) == 2
        assert capsys.readouterr().err == (
            "error: minimum relative eigenvalue gap 0.000e+00 below 1e-12\n")

    def test_singular_ttest_is_2(self, tmp_path, capsys):
        # n = p: the centered covariance cannot be inverted
        data = write(tmp_path, "d.csv", "1,2\n3,4\n")
        assert run_cli(["ttest", "--input", data]) == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_output_is_2(self, tmp_path, capsys):
        out = tmp_path / "absent" / "report.json"
        assert run_cli(["--output", str(out), "risk", "--n", "10", "--p", "2"]) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_model_with_closed_form_is_2(self, capsys):
        assert run_cli(["risk", "--n", "50", "--p", "10", "--closed-form",
                        "--model", "bogus"]) == 2
        assert "unknown population model 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("delimiter", [",,", ""])
    @pytest.mark.parametrize("command", ["estimate", "ttest"])
    def test_delimiter_of_other_than_one_character_is_1(self, tmp_path, capsys, command,
                                                         delimiter):
        data = write(tmp_path, "d.csv", "1,2\n3,4\n5,7\n")
        assert run_cli([command, "--input", data, f"--delimiter={delimiter}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument --delimiter: must be exactly one character, got {delimiter!r}" in err

    @pytest.mark.parametrize("argv", [
        ["risk", "--n", "20", "--p", "4", "--monte-carlo", "--replicates", "100"],
        ["simulate", "--experiment", "risk", "--n", "20", "--p", "4", "--replicates", "5"],
    ])
    def test_duplicate_method_tags_are_2(self, capsys, argv):
        assert run_cli(argv + ["--methods", "sample,tsai,sample"]) == 2
        assert "duplicate method tags in ['sample', 'tsai', 'sample']" in capsys.readouterr().err

    @pytest.mark.parametrize("methods", [",", ""])
    def test_empty_method_list_is_2(self, capsys, methods):
        assert run_cli(["risk", "--n", "20", "--p", "4", "--monte-carlo", "--replicates", "100",
                        "--methods", methods]) == 2
        assert "gives no estimator tag" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["risk", "--n", "20", "--p", "4", "--closed-form"],
        ["simulate", "--experiment", "recovery", "--n", "20", "--p", "4", "--replicates", "3"],
        ["simulate", "--experiment", "esd", "--n", "20", "--p", "4", "--replicates", "3"],
    ])
    def test_unknown_method_tag_is_2_where_no_method_runs(self, capsys, argv):
        assert run_cli(argv + ["--methods", "sample,bogus"]) == 2
        err = capsys.readouterr().err
        assert "--methods 'sample,bogus' gives no estimator tag at position 2 ('bogus')" in err
        assert str(tuple(ESTIMATORS)) in err

    @pytest.mark.parametrize("method", ["sample", "stein", "dp", "tsai"])
    def test_overflowing_scatter_is_2(self, tmp_path, capsys, method):
        # finite cells whose squares overflow: the scatter holds 4e400, S 4e400 / 3
        data = write(tmp_path, "d.csv", "1e200,1\n-1e200,2\n1e200,3\n-1e200,5\n")
        assert run_cli(["estimate", "--input", data, "--method", method]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the estimate overflowed: its entries exceed the float64 range\n"

    def test_non_finite_report_is_2(self, capsys, monkeypatch):
        monkeypatch.setattr(io_cli, "_cmd_mp", lambda args, seed: ({}, {"x": math.inf}))
        assert run_cli(["--format", "json", "mp", "--c", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: Out of range float values are not JSON compliant: inf\n"

    def test_linalg_error_is_2(self, capsys, monkeypatch):
        def singular(args, seed):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(io_cli, "_cmd_mp", singular)
        assert run_cli(["mp", "--c", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: Singular matrix\n"

    @pytest.mark.parametrize("value", [str(2**53 + 1), str(2**63 - 1), str(10**20)])
    @pytest.mark.parametrize("flag", ["--n", "--p"])
    @pytest.mark.parametrize("argv", [
        ["risk", "--closed-form"],
        ["risk", "--monte-carlo", "--replicates", "100"],
        ["simulate", "--experiment", "recovery"],
        ["simulate", "--experiment", "esd"],
        ["simulate", "--experiment", "risk"],
        ["power", "--delta", "0"],
    ])
    def test_sizes_above_2_to_the_53_are_2(self, capsys, argv, flag, value):
        sizes = {"--n": "50", "--p": "1", flag: value}
        assert run_cli(argv + [arg for kv in sizes.items() for arg in kv]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} above 2**53 = {2**53} is not exact in float64, got {value}\n")

    def test_size_of_2_to_the_53_is_accepted(self, tmp_path):
        doc = run_json(tmp_path, ["risk", "--n", str(2**53), "--p", "3", "--closed-form"])
        assert all(math.isfinite(v) for v in doc.results["closed_form"].values())

    @pytest.mark.parametrize("argv", [
        ["simulate", "--experiment", "recovery"],
        ["simulate", "--experiment", "esd"],
    ])
    def test_unallocatable_sample_is_2(self, capsys, argv):
        # one replicate of 2**53 x 3 doubles is 192 PiB, beyond a 57-bit address space,
        # so the allocation fails before any memory is touched
        assert run_cli(argv + ["--n", str(2**53), "--p", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1

    def test_power_draws_no_rows_so_any_n_runs(self, tmp_path):
        # power draws each replicate's mean and scatter factor, p + p^2 values, never
        # its n rows, so n = 2**53 needs no more memory than n = 4
        doc = run_json(tmp_path, ["power", "--delta", "0,0,0", "--n", str(2**53), "--p", "3",
                                  "--replicates", "100"])
        assert doc.results["replicates"] + doc.results["failures"] == 100
        assert 0.0 <= doc.results["rejection_rate"] <= 1.0

    def test_mp_points_above_a_million_are_2(self, capsys):
        # refused before the grid is allocated: this many points would need 8 GB each
        assert run_cli(["mp", "--c", "0.5", "--points", "1000000001"]) == 2
        assert "need 2 to 1000000 grid points, got 1000000001" in capsys.readouterr().err

    def test_threads_above_the_bound_are_2(self, capsys, monkeypatch):
        # refused before any pool exists: this call would start 999 threads
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was constructed")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        assert run_cli(["--threads", "1000", "simulate", "--experiment", "esd", "--n", "1600",
                        "--p", "400", "--replicates", "1000"]) == 2
        assert "need 1 to 64 threads, got 1000" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_are_2(self, capsys, threads):
        assert run_cli(["--threads", threads, "power", "--n", "30", "--p", "2", "--delta", "0,0",
                        "--replicates", "10"]) == 2
        assert f"need 1 to 64 threads, got {threads}" in capsys.readouterr().err

    def test_undecodable_input_is_2_and_names_the_file(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"1,2\n3,\xff\n")
        assert run_cli(["estimate", "--input", str(data)]) == 2
        assert f"error: cannot read {data}: " in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        capsys.readouterr()

    def test_python_dash_m_runs_the_cli(self):
        out = subprocess.run([sys.executable, "-m", "covshrink", "mp", "--c", "0.25",
                              "--points", "5"], env=child_env(),
                             capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout.splitlines()[0] == "x,density,cdf"

    def test_python_dash_m_io_cli_runs_without_warnings(self):
        # runpy warns ("found in sys.modules") when the package's import has
        # already loaded the module it is asked to run; -W error makes that fatal
        out = subprocess.run([sys.executable, "-W", "error", "-m", "covshrink.io_cli", "mp",
                              "--c", "0.5", "--points", "3"], env=child_env(),
                             capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stderr) == (0, "")
        assert len(out.stdout.splitlines()) == 4


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{constant} in the report")

    return json.loads(text, parse_constant=refuse)


_MC = ["--n", "50", "--p", "2", "--replicates", "100"]
# the replicate commands on populations whose spike is near the float64 limit
FLOAT_EDGE_CALLS = {
    "risk-1e307": ["risk", "--monte-carlo", "--model", "spiked:1e307"] + _MC,
    "risk-1e308": ["risk", "--monte-carlo", "--model", "spiked:1e308"] + _MC,
    "hotelling-1e307": ["power", "--delta", "0,0", "--method", "hotelling",
                        "--model", "spiked:1e307"] + _MC,
    "decomposite-1e307": ["power", "--delta", "0,0", "--method", "decomposite",
                          "--model", "spiked:1e307"] + _MC,
    "oracle-1e307": ["power", "--delta", "0,0", "--method", "oracle",
                     "--model", "spiked:1e307"] + _MC,
    "hotelling-1e308": ["power", "--delta", "0,0", "--method", "hotelling",
                        "--model", "spiked:1e308"] + _MC,
    "oracle-1e308": ["power", "--delta", "0,0", "--method", "oracle",
                     "--model", "spiked:1e308"] + _MC,
    "recovery-1e307": ["simulate", "--experiment", "recovery", "--n", "50", "--p", "2",
                       "--model", "spiked:1e307", "--replicates", "5"],
    "recovery-1e308": ["simulate", "--experiment", "recovery", "--n", "50", "--p", "2",
                       "--model", "spiked:1e308", "--replicates", "5"],
    "recovery-1e300": ["simulate", "--experiment", "recovery", "--n", "50", "--p", "3",
                       "--model", "spiked:1e300", "--replicates", "5"],
    "simulate-risk-1e307": ["simulate", "--experiment", "risk", "--n", "50", "--p", "2",
                            "--model", "spiked:1e307", "--replicates", "5"],
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("call", list(FLOAT_EDGE_CALLS))
def test_float_edge_populations_leave_stderr_clean(capsys, call, threads):
    # a finite report on stdout, or exit 2 with one error line; no numpy warning either way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["--threads", threads] + FLOAT_EDGE_CALLS[call])
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err == ""
        strict_json(out)
    else:
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        # a refusal counted by class, NumericError, or the overflow named.  Power's S
        # fits in float64, and decomposite judges it singular on its own scale, where
        # 1e307 and 1 are not both resolved, as ttest does its sample's
        if call == "decomposite-1e307":
            assert err.endswith("refusals: NotPositiveDefiniteError 100\n")
        else:
            assert "NumericError" in err or "overflowed" in err


# the one-column CSV 1.5e154 / 0 has S = 1.125e308 under both conventions,
# finite, though S + S' and the uncentered scatter 2.25e308 are not
FLOAT_EDGE_CSV_CALLS = {
    **{f"estimate-{method}-{convention}": ["estimate", "--method", method,
                                           "--n-convention", convention]
       for method in ("sample", "stein", "dp", "tsai")
       for convention in ("centered", "uncentered")},
    **{f"ttest-{method}": ["ttest", "--method", method] for method in ("hotelling", "decomposite")},
}


@pytest.mark.parametrize("call", list(FLOAT_EDGE_CSV_CALLS))
def test_float_edge_csv_leaves_stderr_clean(tmp_path, capsys, call):
    data = write(tmp_path, "edge.csv", "1.5e154\n0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(FLOAT_EDGE_CSV_CALLS[call] + ["--input", data])
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert (code, err) == (0, "")
    results = strict_json(out)["results"]
    if call.startswith("estimate"):
        assert_allclose(results["matrix"]["data"], [1.125e308], rtol=1e-15)


# every command on extreme finite inputs: CSV cells near the square root of
# the float64 range and beyond it, both ways, and columns of mixed magnitude;
# concentrations at the ends of (0, 1) and past it; huge --n; huge and tiny spikes
SWEEP_SCALES = {"1e155": (1e155,) * 3, "1e-155": (1e-155,) * 3, "1e200": (1e200,) * 3,
                "1e-200": (1e-200,) * 3, "mixed": (1e200, 1.0, 1e-200)}
SWEEP_CALLS = {}
for _scale in SWEEP_SCALES:
    for _method in ("sample", "stein", "dp", "tsai"):
        for _convention in ("centered", "uncentered"):
            SWEEP_CALLS[f"estimate-{_method}-{_convention}-{_scale}"] = (
                ["estimate", "--method", _method, "--n-convention", _convention], _scale)
    for _method in ("hotelling", "decomposite"):
        SWEEP_CALLS[f"ttest-{_method}-{_scale}"] = (["ttest", "--method", _method], _scale)
for _c in ("1e-300", "0.999999999999", "1e300"):
    SWEEP_CALLS[f"mp-{_c}"] = (["--format", "json", "mp", "--c", _c, "--points", "11"], None)
for _n in (10**12, 2**53):
    SWEEP_CALLS[f"closed-form-{_n}"] = (["risk", "--closed-form", "--n", str(_n), "--p", "10"],
                                        None)
for _spike in ("1e300", "1e-300", "1e155"):
    _model = ["--model", f"spiked:{_spike}", "--n", "20", "--p", "2", "--replicates", "100"]
    SWEEP_CALLS[f"risk-{_spike}"] = (["risk", "--monte-carlo"] + _model, None)
    SWEEP_CALLS[f"power-{_spike}"] = (["power", "--delta", "0,0", "--method", "decomposite"]
                                      + _model, None)
    SWEEP_CALLS[f"simulate-{_spike}"] = (["simulate", "--experiment", "risk"] + _model, None)


@pytest.mark.parametrize("call", list(SWEEP_CALLS))
def test_extreme_finite_inputs_give_a_report_or_one_error_line(tmp_path, capsys, call):
    argv, scale = SWEEP_CALLS[call]
    if scale is not None:
        x = np.random.default_rng(5).standard_normal((8, 3)) * SWEEP_SCALES[scale]
        text = "".join(",".join(map(repr, row)) + "\n" for row in x.tolist())
        argv = argv + ["--input", write(tmp_path, "x.csv", text)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(argv)
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err == ""
        strict_json(out)
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("scale", ["1e155", "1e-155", "1e200", "1e-200"])
@pytest.mark.parametrize("method", ["hotelling", "decomposite"])
def test_ttest_at_the_ends_of_the_float64_range(tmp_path, capsys, method, scale):
    # the sweep's samples: each statistic is the unit-scale sample's up to the
    # rounding of the cells, measured at most 1.7e-15 relative
    x = np.random.default_rng(5).standard_normal((8, 3))
    text = "".join(",".join(map(repr, row)) + "\n" for row in (x * SWEEP_SCALES[scale]).tolist())
    code = run_cli(["ttest", "--method", method, "--input", write(tmp_path, "x.csv", text)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert_allclose(strict_json(out)["results"]["statistic"], mean_test(method, x).statistic,
                    rtol=1e-14)


def test_hotelling_takes_columns_of_mixed_magnitude(tmp_path, capsys):
    # the sweep's mixed sample, columns near 1e200, 1 and 1e-200: T^2 is that of
    # the unit-scale columns up to the rounding of the cells, measured 6.6e-16 relative
    x = np.random.default_rng(5).standard_normal((8, 3))
    text = "".join(",".join(map(repr, row)) + "\n"
                   for row in (x * SWEEP_SCALES["mixed"]).tolist())
    code = run_cli(["ttest", "--method", "hotelling", "--input", write(tmp_path, "x.csv", text)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert_allclose(strict_json(out)["results"]["statistic"], mean_test("hotelling", x).statistic,
                    rtol=1e-14)


def sweep_estimate(tmp_path, capsys, method, convention, scale):
    """``estimate`` on the sweep's sample at ``scale``: (exit code, matrix or None, stderr)."""
    x = np.random.default_rng(5).standard_normal((8, 3)) * SWEEP_SCALES[scale]
    text = "".join(",".join(map(repr, row)) + "\n" for row in x.tolist())
    code = run_cli(["estimate", "--method", method, "--n-convention", convention,
                    "--input", write(tmp_path, "x.csv", text)])
    out, err = capsys.readouterr()
    matrix = strict_json(out)["results"]["matrix"]["data"] if code == 0 else None
    return code, matrix, err


@pytest.mark.parametrize("convention", ["centered", "uncentered"])
@pytest.mark.parametrize("method", ["sample", "stein", "dp", "tsai"])
def test_estimate_near_1e_minus_155_is_the_unit_estimate_scaled(tmp_path, capsys, method,
                                                               convention):
    # S near 1e-310 is subnormal, not 0: each estimate is 1e-310 times the
    # unit-scale one up to subnormal rounding, measured at most 1.21e-13 of
    # its largest entry
    code, matrix, err = sweep_estimate(tmp_path, capsys, method, convention, "1e-155")
    assert (code, err) == (0, "")
    x = np.random.default_rng(5).standard_normal((8, 3))
    want = ESTIMATORS[io_cli.METHOD_ALIASES.get(method, method)](x, convention == "centered")
    want = want.matrix.ravel() * 1e-310
    assert_allclose(matrix, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("convention", ["centered", "uncentered"])
@pytest.mark.parametrize("method", ["sample", "stein", "dp", "tsai"])
def test_estimate_near_1e_minus_200_is_refused_as_underflowed(tmp_path, capsys, method,
                                                              convention):
    # S near 1e-400 rounds to 0: not a zero estimate, nor "not positive definite"
    code, _, err = sweep_estimate(tmp_path, capsys, method, convention, "1e-200")
    assert (code, err) == (2, "error: the estimate underflowed: its entries are below the "
                              "float64 range\n")


class TestSeedResolution:
    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COVSHRINK_SEED", "42")
        doc = run_json(tmp_path, ["power", "--n", "20", "--p", "2", "--delta", "0,0",
                                  "--replicates", "100"])
        assert doc.seed == 42

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COVSHRINK_SEED", "42")
        doc = run_json(tmp_path, ["--seed", "7", "power", "--n", "20", "--p", "2",
                                  "--delta", "0,0", "--replicates", "100"])
        assert doc.seed == 7

    def test_bad_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("COVSHRINK_SEED", "lots")
        assert run_cli(["mp", "--c", "0.5", "--points", "3"]) == 2
        capsys.readouterr()


def strip_volatile(doc: ReportDocument) -> dict:
    """Report content minus the argv echo and timing fields."""
    d = doc.to_dict()
    d.pop("command")
    d.pop("timestamps")
    if isinstance(d["results"], dict):
        d["results"].pop("wall_clock", None)
    return d


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, tmp_path):
        argv = ["--seed", "11", "simulate", "--experiment", "recovery",
                "--n", "30", "--p", "3", "--replicates", "5"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli(["--output", str(out1)] + argv) == 0
        assert run_cli(["--output", str(out2)] + argv) == 0
        text1, text2 = out1.read_text(), out2.read_text()
        doc1, doc2 = ReportDocument.from_json(text1), ReportDocument.from_json(text2)
        assert strip_volatile(doc1) == strip_volatile(doc2)

    def test_risk_keeps_the_methods_that_completed(self, tmp_path):
        # tsai refuses 4 of 300 replicates here, above the 1 % tolerance
        argv = ["--seed", "7", "simulate", "--experiment", "risk", "--n", "60", "--p", "4",
                "--replicates", "300"]
        doc = run_json(tmp_path, argv)
        stacked = ("sample", "stein_triangular", "dp_equivariant")
        alone = run_json(tmp_path, argv + ["--methods", ",".join(stacked)])
        mc = doc.results["metrics"]["monte_carlo"]
        assert mc["tsai"] == {
            "mean": None, "se": None, "count": 296, "failures": 4,
            "failure_classes": {"ShrinkageSingularityError": 4},
            "median_loss": None, "max_loss": None, "max_share": None,
            "error": "4 of 300 replicates failed for method 'tsai' at n=60, p=4; "
                     "above the 1% tolerance; refusals: ShrinkageSingularityError 4"}
        assert {m: mc[m] for m in stacked} == alone.results["metrics"]["monte_carlo"]
        assert all("error" not in mc[m] for m in stacked)
        assert doc.results["failures"] == 4
        for row, row_alone in zip(doc.results["rows"], alone.results["rows"]):
            assert {m: row["losses"][m] for m in stacked} == row_alone["losses"]

    def test_thread_count_invisible_in_results(self, tmp_path):
        base = ["--seed", "11", "simulate", "--experiment", "risk",
                "--n", "20", "--p", "3", "--replicates", "120",
                "--methods", "sample,stein_triangular,dp_equivariant"]
        out1 = tmp_path / "t1.json"
        out4 = tmp_path / "t4.json"
        assert run_cli(["--threads", "1", "--output", str(out1)] + base) == 0
        assert run_cli(["--threads", "4", "--output", str(out4)] + base) == 0
        doc1 = ReportDocument.from_json(out1.read_text())
        doc4 = ReportDocument.from_json(out4.read_text())
        assert strip_volatile(doc1) == strip_volatile(doc4)

    def test_blas_pool_size_invisible_in_command_reports(self, tmp_path):
        # at p = 200 a multi-threaded pool changes last bits; the command runs on one thread:
        # main() sizes the pool before NumPy loads, or, where NumPy was loaded first and
        # its pool started, shrinks it
        argv = ["--seed", "3", "simulate", "--experiment", "risk", "--n", "800", "--p", "200",
                "--replicates", "4", "--methods", "sample,stein_triangular,dp_equivariant"]
        docs = []
        for k, (threads, entry) in enumerate([("1", CLI_MAIN), ("2", CLI_MAIN),
                                              ("2", "import numpy; " + CLI_MAIN)]):
            out = tmp_path / f"blas{k}.json"
            subprocess.run([sys.executable, "-c", entry, "--output", str(out)] + argv,
                           env=child_env(OPENBLAS_NUM_THREADS=threads),
                           check=True, timeout=120)
            docs.append(strip_volatile(ReportDocument.from_json(out.read_text())))
        assert docs[0] == docs[1] == docs[2]

    def test_seed_changes_results(self, tmp_path):
        argv = ["simulate", "--experiment", "recovery", "--n", "30", "--p", "3",
                "--replicates", "5"]
        doc1 = run_json(tmp_path, ["--seed", "1"] + argv)
        doc2 = run_json(tmp_path, ["--seed", "2"] + argv)
        assert doc1.results["metrics"] != doc2.results["metrics"]


class TestDefaultThreads:
    # one replicate's draw holds 1024 * 256 = 2**18 values, where the default runs two threads
    ESD = ["--seed", "5", "simulate", "--experiment", "esd", "--n", "1024", "--p", "256",
           "--replicates", "3"]

    def test_default_gives_the_one_thread_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_rng, "_usable_cpus", lambda: 2)
        default = run_json(tmp_path, self.ESD)
        one = run_json(tmp_path, ["--threads", "1"] + self.ESD)
        assert strip_volatile(default) == strip_volatile(one)
        assert default.timestamps["replicate_threads"] == 2
        assert one.timestamps["replicate_threads"] == 1

    @pytest.mark.parametrize("argv, threads", [
        (["risk", "--n", "50", "--p", "10", "--monte-carlo", "--replicates", "100"], 1),
        (["--threads", "3", "risk", "--n", "50", "--p", "10", "--monte-carlo",
          "--replicates", "100"], 3),
        (["power", "--n", "400", "--p", "5", "--delta", "2,0,0,0,0", "--replicates", "50"], 1),
        (["simulate", "--experiment", "recovery", "--n", "40", "--p", "8",
          "--replicates", "5"], 1),
        (["risk", "--n", "50", "--p", "10", "--closed-form"], None),
        (["--format", "json", "mp", "--c", "0.5"], None),
    ], ids=["risk", "risk-t3", "power", "simulate", "closed-form", "mp"])
    def test_reports_carry_the_replicate_loops_thread_count(self, tmp_path, monkeypatch, argv,
                                                            threads):
        monkeypatch.setattr(_rng, "_usable_cpus", lambda: 2)
        doc = run_json(tmp_path, argv)
        assert doc.timestamps.get("replicate_threads") == threads
        assert set(doc.timestamps) - {"replicate_threads"} == {"started", "finished"}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--experiment", "esd"], ["simulate", "--experiment", "recovery"],
        ["simulate", "--experiment", "risk"], ["risk", "--monte-carlo"],
        ["power", "--method", "decomposite", "--delta", ",".join(["0"] * 400)],
        ["power", "--method", "oracle", "--delta", ",".join(["0"] * 400)],
    ], ids=["esd", "recovery", "simulate-risk", "risk", "power", "power-oracle"])
    def test_at_1600_by_400_every_loop_defaults_to_two_threads(self, monkeypatch, argv):
        # n p = 640,000, whether the loop draws rows, a factor or a mean
        monkeypatch.setattr(_rng, "_usable_cpus", lambda: 2)
        args = io_cli.build_parser().parse_args(argv + ["--n", "1600", "--p", "400"])
        assert io_cli._loop_threads(args) == {"replicate_threads": 2}

    @pytest.mark.parametrize("threads", ["0", "-3", "1000"])
    def test_a_count_out_of_range_is_2_before_any_thread_starts(self, capsys, monkeypatch,
                                                                threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was constructed")

        monkeypatch.setattr(_rng, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        assert run_cli(["--threads", threads] + self.ESD) == 2
        assert f"need 1 to 64 threads, got {threads}" in capsys.readouterr().err


class TestOneBlasThread:
    def test_a_blas_without_a_setter_is_left_alone(self, monkeypatch):
        opened = []

        class NoSetters:
            def __init__(self, name):
                opened.append(name)

        monkeypatch.setattr(ctypes, "CDLL", NoSetters)
        assert _one_blas_thread() is None
        assert opened == [np.linalg._umath_linalg.__file__]

    def test_the_first_setter_found_is_called_with_one(self, monkeypatch):
        calls = []

        class PlainOpenBlas:
            def __init__(self, name):
                for symbol in ("openblas_set_num_threads64_", "openblas_set_num_threads"):
                    setattr(self, symbol, lambda n, symbol=symbol: calls.append((symbol, n)))

        monkeypatch.setattr(ctypes, "CDLL", PlainOpenBlas)
        _one_blas_thread()
        assert calls == [("openblas_set_num_threads64_", 1)]


# the console script's body, as `python -c` runs it
CLI_MAIN = "import sys; from covshrink.io_cli import main; sys.exit(main())"
# `python -m covshrink`, as `python -c` runs it
RUN_AS_MODULE = "import runpy; runpy.run_module('covshrink', run_name='__main__', alter_sys=True)"
# prints, once the command has exited, how many threads its process holds
THREADS_AT_EXIT = ("import atexit, os; "
                   "atexit.register(lambda: print(len(os.listdir('/proc/self/task')))); ")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or _rng._usable_cpus() < 2,
                    reason="needs /proc and two usable CPUs, where OpenBLAS would start a worker")
@pytest.mark.parametrize("entry", [CLI_MAIN, RUN_AS_MODULE], ids=["console_script", "module"])
def test_a_command_ends_with_one_thread(tmp_path, entry):
    # NumPy's OpenBLAS starts its worker threads when NumPy loads, unless
    # the environment has sized its pool to one thread by then
    env = {k: v for k, v in child_env().items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    argv = ["--output", str(tmp_path / "mp.json"), "mp", "--c", "0.5", "--points", "5"]
    out = subprocess.run([sys.executable, "-c", THREADS_AT_EXIT + entry] + argv, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout == "1\n"

# Imports covshrink in a fresh interpreter, runs each argv through run_cli,
# and prints, as JSON, the thread-pool and numpy.random modules loaded after
# the import and after each call.
LAZY_MODULE_PROBE = """
import contextlib, io, json, sys
import covshrink
from covshrink.io_cli import run_cli

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "concurrent" or m.startswith("numpy.random"))

steps = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(argv)
    steps.append([code, loaded()])
print(json.dumps(steps))
"""


def test_one_shot_commands_load_no_thread_pool_or_numpy_random(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("1,2,0.5\n3,5,1\n4,4,-2\n2,7,3\n0,1,1\n6,2,2\n")
    argvs = [["estimate", "--input", str(data), "--method", method]
             for method in ("sample", "stein", "dp", "tsai")]
    argvs += [["ttest", "--input", str(data), "--method", method]
              for method in ("hotelling", "decomposite")]
    argvs += [["mp", "--c", "0.25", "--points", "5"],
              ["risk", "--n", "50", "--p", "10", "--closed-form"]]
    out = subprocess.run([sys.executable, "-c", LAZY_MODULE_PROBE, json.dumps(argvs)],
                         env=child_env(), capture_output=True, text=True,
                         check=True, timeout=120)
    assert json.loads(out.stdout) == [[None, []]] + [[0, []]] * len(argvs)
