"""covshrink benchmark: one workload per run, end to end or traced by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_small --seed 1 --seconds 30 --trace 0

--trace 0 (end to end) times fresh interpreters.  It runs passes over the
workload's CLI invocations, one at a time as a closed loop with one client,
each through the console-script target covshrink.io_cli:main: at least
MIN_PASSES, then more while the next is expected to end within --seconds.
A fresh interpreter importing covshrink is timed before the first pass and
after each one; setup_s is their median, which also absorbs the first
import of a fresh checkout compiling the package's bytecode.  CPU time and
peak RSS come from os.wait4 on each child alone.

--trace 1 (per layer) runs one pass in this process through
covshrink.io_cli.run_cli untraced, then one pass with the public functions
of every module wrapped in spans (tracer.py), and times the import layers
with python -X importtime.

Every invocation's output is checked against an independent reference
(workloads.py).  Human-readable lines come first; the last line of stdout
is one JSON object with correct, attempted, failed and metrics.  The full
record, with provenance, goes to .perfbench_work/.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

# A pass's wall time drifts by 10-20 % between consecutive passes on a shared
# host, so one pass is never the whole sample, even when it outlasts --seconds.
MIN_PASSES = 2
IMPORTTIME_REPEATS = 3
RUN_DEADLINE_S = 170.0
CLI_MAIN = "import sys; from covshrink.io_cli import main; sys.exit(main())"
IMPORT_LAYERS = ("covshrink", "scipy.stats", "scipy.integrate", "scipy.linalg")
RAISED_SPANS = ("matrix_core.cholesky", "estimators.tsai_eigenvalues")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, workdir: Path, deadline: float):
    """Run one child to completion; return (exit code, stdout, stderr, wall s, rusage).

    The rusage is that child's alone (os.wait4), not the cumulative
    RUSAGE_CHILDREN whose ru_maxrss never falls.  The child is killed if it
    is still running at ``deadline``.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(deadline - started, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return (proc.returncode, out_path.read_text(), err_path.read_text(errors="replace"),
            wall, usage)


def time_import(workdir: Path, deadline: float) -> float:
    """Wall seconds of a fresh interpreter running ``import covshrink``."""
    code, _, err, wall, _ = run_child([sys.executable, "-c", "import covshrink"],
                                      workdir, deadline)
    if code != 0:
        raise RuntimeError(f"import covshrink failed: {err.strip()}")
    return wall


def import_layers(repeats: int, workdir: Path, deadline: float) -> dict:
    """Median cumulative import ms of IMPORT_LAYERS from python -X importtime (0 if absent)."""
    samples = {name: [] for name in IMPORT_LAYERS}
    for _ in range(repeats):
        code, _, err, _, _ = run_child([sys.executable, "-X", "importtime", "-c",
                                        "import covshrink"], workdir, deadline)
        if code != 0:
            raise RuntimeError(f"import covshrink failed: {err.strip()}")
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1000.0)
        for name in IMPORT_LAYERS:
            samples[name].append(cumulative.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def check_invocation(inv, code: int, text: str, err_text: str):
    """(replicates attempted, replicates failed, problem or None) for one finished call."""
    if code != 0:
        return 0, 0, f"{inv.label}: exit code {code}: {err_text.strip()[-500:]}"
    try:
        attempted, failed = inv.check(text)
    except workloads.CheckError as exc:
        return 0, 0, f"{inv.label}: {exc}"
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return 0, 0, f"{inv.label}: malformed output ({type(exc).__name__}: {exc})"
    return attempted, failed, None


def finish_pass(workload, calls: list, outputs: dict) -> list:
    """Mark a call failed when its results break thread invariance; return the pass's calls."""
    first, *rest = workload.same_results or (None,)
    for call in calls:
        if call["label"] in rest and call["problem"] is None:
            try:
                same = json.loads(outputs[call["label"]])["results"] == \
                    json.loads(outputs[first])["results"]
            except (KeyError, ValueError):
                same = False
            if not same:
                call["problem"] = f"{call['label']}: results differ from {first}"
    return calls


def subprocess_pass(workload, invocations, workdir: Path, deadline: float) -> list:
    """Run each invocation in a fresh interpreter through the console-script target."""
    calls, outputs = [], {}
    for inv in invocations:
        code, text, err, wall, usage = run_child([sys.executable, "-c", CLI_MAIN, *inv.argv],
                                                 workdir, deadline)
        attempted, failed, problem = check_invocation(inv, code, text, err)
        outputs[inv.label] = text
        calls.append({"label": inv.label, "threads": inv.threads, "wall_s": wall,
                      "cpu_s": usage.ru_utime + usage.ru_stime,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0,
                      "replicates": attempted, "replicate_failures": failed,
                      "problem": problem})
    return finish_pass(workload, calls, outputs)


def inprocess_pass(workload, invocations, tracer=None) -> tuple:
    """Run each invocation through covshrink.io_cli.run_cli in this process.

    Returns (calls, layers); layers sums the tracer's spans by name.
    """
    from covshrink import io_cli

    calls, outputs, layers = [], {}, {}
    for number, inv in enumerate(invocations, start=1):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_invocation(number)
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = io_cli.run_cli(list(inv.argv))  # looked up now, so a wrapper is seen
            except Exception:  # a crash fails this call; the pass goes on
                traceback.print_exc()
                code = -1
        wall = time.perf_counter() - started
        if tracer is not None:
            for name, row in tracer_mod.summarize(tracer.take_spans()).items():
                acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "raised": 0})
                for key in acc:
                    acc[key] += row[key]
        attempted, failed, problem = check_invocation(inv, code, out.getvalue(), err.getvalue())
        outputs[inv.label] = out.getvalue()
        calls.append({"label": inv.label, "threads": inv.threads, "wall_s": wall,
                      "replicates": attempted, "replicate_failures": failed,
                      "problem": problem})
    return finish_pass(workload, calls, outputs), layers


def tail_latency(samples: list):
    """(value, percentile) of the highest percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return None, None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None if it cannot be asked."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), cpu_model)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit or "unavailable (not a git checkout)",
        "seed": seed,
    }


def replicate_rate(calls, threads: int):
    chosen = [c for c in calls if c["threads"] == threads and c["replicates"]]
    if not chosen:
        return None
    return sum(c["replicates"] for c in chosen) / sum(c["wall_s"] for c in chosen)


def end_to_end(workload, seed: int, seconds: float, workdir: Path, deadline: float) -> tuple:
    """(metrics, extra metrics, calls, record) of untraced passes in fresh interpreters."""
    invocations = workload.build(seed, workdir)
    # one set-up sample before the first pass and one after each, so the
    # median spans the run's drift instead of one moment of it
    setup = [time_import(workdir, deadline)]
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(subprocess_pass(workload, invocations, workdir, deadline))
        setup.append(time_import(workdir, deadline))
        typical = statistics.median(sum(c["wall_s"] for c in p) for p in passes)
        now = time.perf_counter()
        if now + typical > deadline or (len(passes) >= MIN_PASSES
                                        and now - started + typical > seconds):
            break
    calls = [c for p in passes for c in p]
    latencies = [c["wall_s"] for c in calls]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(sum(c["wall_s"] for c in p) for p in passes), "s"),
        "cpu_s": (statistics.median(sum(c["cpu_s"] for c in p) for p in passes), "s"),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in calls), "MiB"),
    }
    tail, pct = tail_latency(latencies)
    extra = {
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, f"s (p{pct:.1f} of {len(latencies)} samples)"
                           if tail is not None
                           else f"s (undefined: {len(latencies)} samples, 11 needed)"),
        "op_failure_rate": (sum(1 for c in calls if c["problem"]) / len(calls), "ratio"),
    }
    reps = sum(c["replicates"] for c in calls)
    if reps:
        extra["replicates_per_s"] = (replicate_rate(calls, 1), "1/s")
        if replicate_rate(calls, 2) is not None:
            extra["replicates_per_s_t2"] = (replicate_rate(calls, 2), "1/s")
        lost = sum(c["replicate_failures"] for c in calls)
        extra["replicate_failure_rate"] = (lost / reps, f"ratio ({lost} of {reps} replicates)")
    return metrics, extra, calls, {"setup_s_samples": setup, "passes": passes}


def per_layer(workload, seed: int, workdir: Path, deadline: float) -> tuple:
    """(metrics, extra metrics, calls, record) of one untraced and one traced in-process pass."""
    sys.path.insert(0, str(SRC))
    import covshrink  # noqa: F401  (import cost stays out of both passes)

    imports = import_layers(IMPORTTIME_REPEATS, workdir, deadline)
    invocations = workload.build(seed, workdir)
    plain, _ = inprocess_pass(workload, invocations)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        traced, layers = inprocess_pass(workload, invocations, tracer)
    finally:
        tracer.uninstall()
    metrics = {f"import.{name.replace('.', '_')}_ms": (ms, "ms") for name, ms in imports.items()}
    for name in tracer_mod.SPAN_NAMES:
        row = layers.get(name, {"calls": 0, "self_s": 0.0, "raised": 0})
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_ms"] = (row["self_s"] * 1000.0, "ms")
        if name in RAISED_SPANS:
            metrics[f"{name}.raised"] = (row["raised"], "count")
    walls = [sum(c["wall_s"] for c in p) for p in (plain, traced)]
    metrics["tracing_overhead_s"] = (walls[1] - walls[0], "s")
    extra = {"untraced_inprocess_wall_s": (walls[0], "s"), "traced_wall_s": (walls[1], "s")}
    return metrics, extra, plain + traced, {"layers": layers, "untraced": plain,
                                            "traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "covshrink" / "__init__.py").is_file():
        print(f"covshrink sources not found under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_DEADLINE_S
    workload = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_work"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        if args.trace:
            result = per_layer(workload, args.seed, Path(tmp), deadline)
        else:
            result = end_to_end(workload, args.seed, args.seconds, Path(tmp), deadline)
    metrics, extra, calls, record = result
    problems = [c["problem"] for c in calls if c["problem"]]
    prov = provenance(args.seed)

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, trace {args.trace}: {len(calls)} invocations, "
          f"{len(problems)} failed")
    for key, value in prov.items():
        print(f"  {key}: {value}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} = {value!r} {unit}")

    correct = not problems
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": workload.name,
        "provenance": prov,
        "correct": correct,
        "problems": problems,
        "volatile": {"metrics": {**as_json, **{k: {"value": v, "unit": u}
                                               for k, (v, u) in extra.items()}},
                     "detail": record},
    }, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": len(problems),
                      "metrics": as_json}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
