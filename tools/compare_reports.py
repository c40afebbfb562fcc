"""Check that two source trees give the same report for every benchmark invocation.

    python tools/compare_reports.py SRC_A SRC_B --seed N

SRC_A and SRC_B are checkouts of this repository, each with its package under
``src/``.  The invocations are those of every workload in
``perfbench/workloads.py``, read from this repository and never written to:
14 calls, including the oneshot CSV, which is generated once into a
temporary directory and read by both trees, so its path is the same in
both reports.  The fixed ``extra_calls`` follow them.  Each call runs as a
fresh ``covshrink.io_cli:main`` process on each tree.  Their exit codes,
stderr and reports are compared, the reports without the keys that differ
from run to run: ``command``, ``timestamps`` and ``wall_clock``.  A report
that is not JSON, such as the CSV of ``mp``, is compared as text.  Exit
status 1 on any difference, else 0.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VOLATILE = frozenset({"command", "timestamps", "wall_clock"})
CLI_MAIN = "import sys; from covshrink.io_cli import main; sys.exit(main())"


def stable(report):
    """A parsed report without the VOLATILE keys, at any depth."""
    if isinstance(report, dict):
        return {k: stable(v) for k, v in report.items() if k not in VOLATILE}
    if isinstance(report, list):
        return [stable(v) for v in report]
    return report


def comparable(stdout: str):
    """What of a call's stdout must match: its stable report, or the text itself."""
    try:
        return stable(json.loads(stdout))
    except ValueError:
        return stdout


def differences(a, b, path: str = "") -> list:
    """Paths at which two parsed reports differ, each with the two values."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = [f"{path}/{k}: only in {'A' if k in a else 'B'}" for k in sorted(a.keys() ^ b.keys())]
        return out + [d for k in a if k in b for d in differences(a[k], b[k], f"{path}/{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in differences(x, y, f"{path}[{i}]")]
    return [] if a == b else [f"{path or '/'}: {a!r} != {b!r}"]


def run(tree: Path, argv) -> tuple:
    """(exit code, stdout, stderr) of one CLI call on the package under tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], capture_output=True,
                          text=True, env=env, cwd=tree)
    return proc.returncode, proc.stdout, proc.stderr


def extra_calls(seed: int, workdir: Path) -> list:
    """(label, argv) of the calls that run after the workloads', each well under a second.

    Every workload draws from the identity population, so these reach what
    it leaves out: a dense population factor in the draws and the losses,
    the pivot target that differs from sigma's factor, a run refused on its
    refusal tally, every estimator on the uncentered convention, the mp grid
    as JSON, and two threads at sizes whose default is one, in the esd
    experiment and the decomposite power test.  The estimators read a 30 x 4
    CSV drawn from ``seed`` and written into ``workdir``.
    """
    rng = random.Random(seed)
    data = workdir / "extra.csv"
    data.write_text("".join(",".join(repr(rng.gauss(0.0, 1.0)) for _ in range(4)) + "\n"
                            for _ in range(30)))
    s = ("--seed", str(seed))
    risk = s + ("risk", "--p", "6", "--monte-carlo")
    sim = s + ("simulate", "--n", "40", "--p", "8", "--replicates", "20", "--experiment")
    power = s + ("power", "--n", "40", "--p", "4", "--delta", "1,0.5,0,0", "--model", "ar1:0.5",
                 "--replicates", "400", "--method")
    return [
        ("risk_ar1", risk + ("--n", "60", "--replicates", "1000", "--model", "ar1:0.6",
                             "--methods", "sample,stein_triangular,dp_equivariant,tsai")),
        ("risk_tsai_refused", risk + ("--n", "12", "--replicates", "200", "--methods", "tsai")),
        ("simulate_risk_spiked", sim + ("risk", "--model", "spiked:6,3")),
        ("simulate_recovery_ar1", sim + ("recovery", "--model", "ar1:0.4")),
        *((f"power_{method}", power + (method,)) for method in ("hotelling", "oracle")),
        ("power_threads_2", ("--threads", "2") + power + ("decomposite",)),
        *((f"estimate_{method}", s + ("estimate", "--input", str(data), "--method", method,
                                      "--n-convention", "uncentered"))
          for method in ("sample", "stein", "dp", "tsai")),
        ("mp_json", s + ("--format", "json", "mp", "--c", "0.3", "--points", "11")),
        ("esd_threads_2", s + ("--threads", "2", "simulate", "--experiment", "esd", "--n", "100",
                               "--p", "20", "--replicates", "20")),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # import perfbench's workloads without writing there
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    trees = (args.src_a.resolve(), args.src_b.resolve())
    differing = 0
    with tempfile.TemporaryDirectory() as workdir:
        calls = [(f"{name}/{inv.label}", inv.argv)
                 for name, workload in sorted(workloads.WORKLOADS.items())
                 for inv in workload.build(args.seed, Path(workdir))]
        calls += [(f"extra/{label}", argv)
                  for label, argv in extra_calls(args.seed, Path(workdir))]
        for label, argv in calls:
            (code_a, out_a, err_a), (code_b, out_b, err_b) = (run(t, argv) for t in trees)
            found = differences({"exit": code_a, "stderr": err_a, "report": comparable(out_a)},
                                {"exit": code_b, "stderr": err_b, "report": comparable(out_b)})
            print(f"{label}: {'identical' if not found else 'DIFFERENT'}")
            for line in found[:20]:
                print(f"    {line}")
            differing += bool(found)
    print(f"{differing} of the invocations differ" if differing else "every report is identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
