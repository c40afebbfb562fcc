"""CSV ingestion, JSON report documents, and the command-line surface.

Exit codes: 0 success, 1 usage error (bad flags, unknown subcommand),
2 numeric or model error (singular input, breached guard, bad config), an
unreadable input or unwritable output file, or an array too large to allocate.
Reports are JSON documents with schema_version "1"; the Marchenko-Pastur
grid can also be emitted as CSV for external plotting.  The seed resolves
from --seed, then the COVSHRINK_SEED environment variable, then 0.

NumPy and the library modules are imported inside the functions that use
them, so importing this module loads no NumPy and ``main`` can size NumPy's
BLAS pool before NumPy starts it.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

from .errors import ConfigError, CovshrinkError, CsvFormatError

if TYPE_CHECKING:
    import numpy as np

    from .sim import PopulationModel

SCHEMA_VERSION = "1"
ENV_SEED = "COVSHRINK_SEED"
# estimate --method short names for two estimator tags; the others keep their tag
METHOD_ALIASES = {"stein": "stein_triangular", "dp": "dp_equivariant"}
# mp --points above this is refused before any grid is allocated
_MP_MAX_POINTS = 1_000_000
# --threads outside 1 .. this is refused before any thread starts; each holds a drawn chunk
_MAX_THREADS = 64
# --n and --p above this are refused: the formulas take both into float64
# arithmetic, which represents every integer up to 2**53 and not all above
_MAX_SIZE = 2**53
# --replicates above this is refused before any replicate is drawn: every
# replicate's outcome is held until the run ends, and simulate keeps a report
# row of several hundred bytes for each, so a million rows is about a gigabyte
_MAX_REPLICATES = 1_000_000
# the refusal of a delimiter the csv module does not take
_ONE_CHARACTER = "must be exactly one character, got {!r}"


def read_csv(path: str, delimiter: str = ",", header: bool = False) -> np.ndarray:
    """Parse a rectangular numeric CSV into an (n, p) observation matrix.

    Rows are observations, columns variables.  Errors carry the 1-based
    physical line (and column for a bad cell).  Lines whose every field is
    whitespace are skipped; a file without data rows is an error.  A file
    without quotes goes through NumPy's C reader, and whatever that reader
    refuses goes through the csv module, which alone names the line and column.
    A delimiter that is not exactly one character is refused with ValueError.
    """
    if len(delimiter) != 1:
        raise ValueError(f"delimiter {_ONE_CHARACTER.format(delimiter)}")
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    data = _loadtxt(text, delimiter, header)
    return _parse_csv(path, text, delimiter, header) if data is None else data


def _loadtxt(text: str, delimiter: str, header: bool):
    """``np.loadtxt`` of ``text``, or None where ``_parse_csv`` alone decides.

    loadtxt runs only where the lines and cells are the csv module's: a
    delimiter other than a line ending, no quote character, and no lone CR,
    which ends a csv line but not a line split at LF.  It
    converts each cell with PyOS_string_to_double, the parser float() uses,
    on a subset of the spellings float() accepts, so every value it returns
    has float()'s bits.  A cell it refuses, a ragged row, a non-finite
    value, and a file with no line left for it to read (loadtxt would warn)
    go to ``_parse_csv``, which names the line and column.  The header is
    the first line that is not blank by the csv path's rule.  loadtxt is
    given the list of lines, which takes less memory than a StringIO's four
    bytes per character.
    """
    import numpy as np

    if (delimiter in "\r\n" or '"' in text
            or "\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    lines = text.split("\n")
    if header:
        first = next((i for i, line in enumerate(lines) if line.replace(delimiter, "").strip()),
                     len(lines))
        lines = lines[first + 1:]
    if not any(line.strip("\r") for line in lines):
        return None
    try:
        data = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        return None
    return data if np.isfinite(data).all() else None


def _parse_csv(path: str, text: str, delimiter: str, header: bool) -> np.ndarray:
    """The csv module's parse of ``text``, the file at ``path``: read_csv's reference.

    Raises for the first short or long row, or bad cell, in file order.
    """
    import numpy as np

    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    try:
        numbered = [(i, row) for i, row in enumerate(reader, start=1)
                    if any(c.strip() for c in row)]
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}",
                             line=reader.line_num) from None
    if header and numbered:
        numbered = numbered[1:]
    if not numbered:
        raise CsvFormatError(f"{path}: no data rows")
    width = len(numbered[0][1])
    values = []
    for lineno, row in numbered:
        if len(row) != width:
            raise CsvFormatError(f"{path}: line {lineno} has {len(row)} fields, expected {width}",
                                 line=lineno)
        for j, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: non-numeric value {cell.strip()!r} at line {lineno}, column {j}",
                    line=lineno, column=j) from None
            if not math.isfinite(value):
                raise CsvFormatError(f"{path}: non-finite value at line {lineno}, column {j}",
                                     line=lineno, column=j)
            values.append(value)
    return np.array(values).reshape(len(numbered), width)


@dataclass(frozen=True)
class ReportDocument:
    """Envelope for every CLI result; round-trips losslessly through JSON."""

    schema_version: str
    command: list
    config: dict
    results: dict
    seed: int
    timestamps: dict

    def to_dict(self) -> dict:
        # shallow, unlike dataclasses.asdict, which deep-copies the results
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        """The report as JSON text; ValueError for a NaN or an infinity, which JSON lacks."""
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        return cls(**json.loads(text))


def matrix_payload(m: np.ndarray) -> dict:
    """Row-major matrix serialization with explicit dimensions."""
    import numpy as np

    a = np.asarray(m, dtype=float)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": a.ravel().tolist()}


def _fields(text: str, what: str) -> list:
    """The comma-separated fields of ``text``, ``what`` naming it in errors.

    An empty field is refused, not dropped: a doubled comma is a typo, not
    a shorter list.
    """
    parts = text.split(",")
    for i, part in enumerate(parts, start=1):
        if not part.strip():
            raise ConfigError(f"{what} has an empty field at position {i}")
    return parts


def _methods(text: str) -> list:
    """The estimator tags of a --methods value, each checked against ESTIMATORS."""
    from .estimators import ESTIMATORS

    tags = text.split(",")
    for i, tag in enumerate(tags, start=1):
        if tag not in ESTIMATORS:
            raise ConfigError(f"--methods {text!r} gives no estimator tag at position {i} "
                              f"({tag!r}), expected some of {tuple(ESTIMATORS)}")
    return tags


def parse_model(text: str, p: int) -> PopulationModel:
    """Parse identity | ar1:RHO | spiked:V1,V2,... into a population model."""
    from .sim import PopulationModel

    name, _, rest = text.partition(":")
    if name == "identity":
        if text != name:
            raise ConfigError(f"identity takes no parameters, got {text!r}")
        return PopulationModel(variant="identity", p=p)
    if name == "ar1":
        try:
            rho = float(rest)
        except ValueError:
            raise ConfigError(f"ar1 needs a numeric correlation, got {text!r}") from None
        return PopulationModel(variant="ar1", p=p, rho=rho)
    if name == "spiked":
        try:
            spikes = tuple(float(v) for v in _fields(rest, f"spiked model {text!r}"))
        except ValueError:
            raise ConfigError(f"spiked needs numeric values, got {text!r}") from None
        return PopulationModel(variant="spiked", p=p, spikes=spikes)
    raise ConfigError(f"unknown population model {text!r}")


def _delimiter(text: str) -> str:
    """argparse type of --delimiter: the csv module takes exactly one character."""
    if len(text) != 1:
        raise argparse.ArgumentTypeError(_ONE_CHARACTER.format(text))
    return text


def build_parser() -> argparse.ArgumentParser:
    from .estimators import ESTIMATORS
    from .hdtest import MEAN_TESTS, RATES
    from .sim import EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="covshrink",
        description="Equivariant covariance estimation, spectral diagnostics, and mean tests.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help=f"master seed (default: ${ENV_SEED} or 0)")
    parser.add_argument("--threads", type=int, default=None,
                        help=f"1 to {_MAX_THREADS} threads that each draw and score replicates; "
                             "results do not depend on it, BLAS stays on one thread.  "
                             "Default: 2 if n*p >= 2**18 on 2 usable CPUs, else 1")
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (csv only for the mp grid; default: csv for mp, "
                             "json otherwise)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    est = sub.add_parser("estimate", help="estimate a covariance matrix from CSV data")
    est.set_defaults(handler=_cmd_estimate)
    est.add_argument("--input", required=True)
    short = {tag: alias for alias, tag in METHOD_ALIASES.items()}
    est.add_argument("--method", choices=tuple(short.get(tag, tag) for tag in ESTIMATORS),
                     default="tsai")
    est.add_argument("--n-convention", choices=("uncentered", "centered"), default="centered",
                     help="divisor convention: n on raw cross products, or n-1 after centering")
    est.add_argument("--delimiter", type=_delimiter, default=",")
    est.add_argument("--header", action="store_true")

    tt = sub.add_parser("ttest", help="one-sample mean test")
    tt.set_defaults(handler=_cmd_ttest)
    tt.add_argument("--input", required=True)
    tt.add_argument("--method", choices=tuple(m for m in MEAN_TESTS if m != "oracle"),
                    default="decomposite")
    tt.add_argument("--delimiter", type=_delimiter, default=",")
    tt.add_argument("--header", action="store_true")

    mp = sub.add_parser("mp", help="Marchenko-Pastur density/CDF grid")
    mp.set_defaults(handler=_cmd_mp)
    mp.add_argument("--c", type=float, required=True, help="concentration ratio in (0, 1)")
    mp.add_argument("--points", type=int, default=101,
                    help=f"grid size across the support, 2 to {_MP_MAX_POINTS}")

    rk = sub.add_parser("risk", help="closed-form and Monte Carlo Stein-loss risks")
    rk.set_defaults(handler=_cmd_risk)
    rk.add_argument("--n", type=int, required=True)
    rk.add_argument("--p", type=int, required=True)
    rk.add_argument("--closed-form", action="store_true")
    rk.add_argument("--monte-carlo", action="store_true")
    rk.add_argument("--methods", default="sample,stein_triangular,dp_equivariant")
    rk.add_argument("--model", default="identity")
    rk.add_argument("--replicates", type=int, default=10000)

    si = sub.add_parser("simulate", help="run a desk-scale experiment")
    si.set_defaults(handler=_cmd_simulate)
    si.add_argument("--experiment", choices=tuple(EXPERIMENTS), required=True)
    si.add_argument("--n", type=int, required=True)
    si.add_argument("--p", type=int, required=True)
    si.add_argument("--replicates", type=int, default=30)
    si.add_argument("--model", default="identity")
    si.add_argument("--methods", default="")
    si.add_argument("--drop-rows", action="store_true",
                    help="omit per-replicate rows from the report")

    pw = sub.add_parser("power", help="rejection rate of a mean test under a mean shift")
    pw.set_defaults(handler=_cmd_power)
    pw.add_argument("--n", type=int, required=True)
    pw.add_argument("--p", type=int, required=True)
    pw.add_argument("--delta", required=True, help="comma-separated shift vector of length p")
    pw.add_argument("--alpha", type=float, default=0.05)
    pw.add_argument("--replicates", type=int, default=1000)
    pw.add_argument("--method", choices=tuple(MEAN_TESTS), default="oracle")
    pw.add_argument("--rate", choices=RATES, default="hdim")
    pw.add_argument("--model", default="identity")
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    return 0


def _cmd_estimate(args, seed):
    from .estimators import ESTIMATORS

    data = read_csv(args.input, delimiter=args.delimiter, header=args.header)
    method = METHOD_ALIASES.get(args.method, args.method)
    est = ESTIMATORS[method](data, args.n_convention == "centered")
    results = {
        "method": est.method,
        "n": est.n,
        "p": est.p,
        "divisor": est.divisor,
        "target": est.target,
        "matrix": matrix_payload(est.matrix),
    }
    if est.shrinkage is not None:
        results["shrinkage"] = {k: v.tolist() for k, v in asdict(est.shrinkage).items()}
    config = {"input": args.input, "method": args.method, "n_convention": args.n_convention,
              "header": args.header}
    return config, results


def _cmd_ttest(args, seed):
    from .hdtest import mean_test

    data = read_csv(args.input, delimiter=args.delimiter, header=args.header)
    res = mean_test(args.method, data)
    config = {"input": args.input, "method": args.method, "header": args.header}
    return config, asdict(res)


def _cmd_mp(args, seed):
    import numpy as np

    from .rmt import MPModel, mp_cdf, mp_density

    if not 2 <= args.points <= _MP_MAX_POINTS:
        raise ConfigError(f"need 2 to {_MP_MAX_POINTS} grid points, got {args.points}")
    model = MPModel(args.c)
    xs = np.linspace(model.lambda_minus, model.lambda_plus, args.points)
    columns = zip(xs, mp_density(xs, model), mp_cdf(xs, model))
    config = {"c": args.c, "points": args.points}
    results = {"lambda_minus": model.lambda_minus, "lambda_plus": model.lambda_plus}
    results["table"] = [dict(x=float(x), density=float(d), cdf=float(f)) for x, d, f in columns]
    return config, results


def _cmd_risk(args, seed):
    from .loss_risk import RISK_KINDS, min_risk, monte_carlo_risks
    from .sim import make_sigma

    closed = args.closed_form or not args.monte_carlo
    model = parse_model(args.model, args.p)
    methods = _methods(args.methods)
    config = {"n": args.n, "p": args.p, "closed_form": closed,
              "monte_carlo": args.monte_carlo, "model": args.model,
              "replicates": args.replicates, "methods": methods}
    results = {}
    if closed:
        results["closed_form"] = {kind: min_risk(kind, args.n, args.p) for kind in RISK_KINDS}
    if args.monte_carlo:
        estimates = monte_carlo_risks(methods, make_sigma(model), args.n, args.replicates,
                                      seed, threads=args.threads)
        # the config and the envelope carry the method, n, p and seed
        results["monte_carlo"] = {
            method: {k: v for k, v in asdict(est).items() if k not in ("method", "n", "p", "seed")}
            for method, est in estimates.items()}
    return config, results


def _cmd_simulate(args, seed):
    from .sim import EXPERIMENTS, ExperimentConfig

    model = parse_model(args.model, args.p)
    config_obj = ExperimentConfig(
        model=model,
        n=args.n,
        replicates=args.replicates,
        seed=seed,
        methods=tuple(_methods(args.methods)) if args.methods else (),
        keep_rows=not args.drop_rows,
    )
    report = EXPERIMENTS[args.experiment](config_obj, threads=args.threads)
    config = {"experiment": args.experiment, **config_obj.to_dict()}
    return config, report.to_dict()


def _cmd_power(args, seed):
    import numpy as np

    from .hdtest import power_simulation
    from .sim import make_sigma

    delta = np.array([float(v) for v in _fields(args.delta, f"--delta {args.delta!r}")])
    if delta.shape[0] != args.p:
        raise ConfigError(f"delta has {delta.shape[0]} entries, expected p={args.p}")
    sigma = make_sigma(parse_model(args.model, args.p))
    rep = power_simulation(args.n, args.p, sigma, delta, alpha=args.alpha,
                           replicates=args.replicates, seed=seed,
                           method=args.method, rate=args.rate, threads=args.threads)
    config = {"n": args.n, "p": args.p, "delta": delta.tolist(), "alpha": args.alpha,
              "replicates": args.replicates, "method": args.method, "rate": args.rate,
              "model": args.model}
    results = asdict(rep)
    del results["seed"]  # the envelope carries it
    return config, results


def _loop_threads(args) -> dict:
    """{"replicate_threads": the count run_chunks resolves} for a command with a replicate loop."""
    from ._rng import replicate_threads

    if args.subcommand in ("simulate", "power") or args.subcommand == "risk" and args.monte_carlo:
        return {"replicate_threads": replicate_threads(args.threads, args.n, args.p)}
    return {}


def run_cli(argv) -> int:
    """Parse argv, run the subcommand, write the report. Returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        # argparse signals usage problems with 2; the contract here is 1
        return 1 if code == 2 else code
    if args.format == "csv" and args.subcommand != "mp":
        print("usage error: csv output is only available for the mp grid", file=sys.stderr)
        return 1

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        seed = _resolve_seed(args)
        if args.threads is not None and not 1 <= args.threads <= _MAX_THREADS:
            raise ConfigError(f"need 1 to {_MAX_THREADS} threads, got {args.threads}")
        for flag in ("n", "p"):
            size = getattr(args, flag, 0)
            if size > _MAX_SIZE:
                raise ConfigError(f"--{flag} above 2**53 = {_MAX_SIZE} is not exact in float64, "
                                  f"got {size}")
        if getattr(args, "replicates", 0) > _MAX_REPLICATES:
            raise ConfigError(f"need at most {_MAX_REPLICATES} replicates, got {args.replicates}")
        config, results = args.handler(args, seed)

        fmt = args.format or ("csv" if args.subcommand == "mp" else "json")
        if fmt == "csv":
            rows = (f"{r['x']!r},{r['density']!r},{r['cdf']!r}" for r in results["table"])
            text = "\n".join(["x,density,cdf", *rows]) + "\n"
        else:
            doc = ReportDocument(
                schema_version=SCHEMA_VERSION,
                command=list(argv),
                config=config,
                results=results,
                seed=seed,
                timestamps={
                    "started": started,
                    "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                    **_loop_threads(args),
                },
            )
            text = doc.to_json()
    except (CovshrinkError, ValueError, MemoryError) as exc:  # LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    """The covshrink command: run_cli on one BLAS thread, so reports match on any core count.

    The pin is made here, in the process the command owns, and not in
    run_cli, which leaves a library caller's BLAS pool as it finds it.  It
    is made before NumPy loads, through OPENBLAS_NUM_THREADS, so OpenBLAS
    starts no worker thread; ``_one_blas_thread`` then shrinks the pool of
    a NumPy loaded before this call.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .matrix_core import _one_blas_thread

    _one_blas_thread()
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
