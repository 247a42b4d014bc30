"""phasecov benchmark: seeded closed-loop workloads, timed or traced.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload closed-form-dense --seed 1 --seconds 25 --trace 0

``--trace 1`` makes the separate traced run that reports per-layer
counters instead of end-to-end timings.  ``--workload all`` runs every
workload in turn, each in its own process.  See perfbench/README.md.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import os

# One client, one op at a time: keep BLAS/OpenMP pools at one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / "_work"         # outputs of CLI ops, removed on exit

WORKLOADS = ("closed-form-dense", "finite-T-quadrature", "three-route-crosscheck")
MIN_OPS = 100           # p90 needs ten samples beyond it
# op time is CPU time; this caps the loop's wall time on a contended machine
MAX_WALL_PER_OP_SECOND = 1.5
WARM_OPS = 10
SETUP_REPS = 3
# traced runs execute a fixed op count so their counters repeat exactly
TRACE_OPS = {"closed-form-dense": 20, "finite-T-quadrature": 12,
             "three-route-crosscheck": 10}

SETUP_PROBE = (
    "import time\n"
    "t0 = time.process_time()\n"
    "import phasecov.cli\n"
    "phasecov.cli.build_parser()\n"
    "print(time.process_time() - t0, phasecov.cli.__file__)\n"
)


def _fail(message: str) -> None:
    sys.exit(f"perfbench: {message}")


def _is_under(path: str, root: Path) -> bool:
    return Path(path).resolve().is_relative_to(root)


def measure_setup() -> float:
    """Median time, in fresh interpreters, to import the CLI and build its parser.

    Interpreter start-up is excluded; one discarded first probe takes
    the cost of writing bytecode and of a cold page cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for rep in range(SETUP_REPS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split()
        if not _is_under(path, SRC):
            _fail(f"set-up probe imported phasecov from {path}, not from {SRC}")
        if rep:
            times.append(float(seconds))
    return statistics.median(times)


def _streams(workload: str, seed: int, work: Path):
    """(warm-up ops, measured ops): independent seeded streams."""
    import workloads
    make = workloads.WORKLOADS[workload]
    warm_dir, main_dir = work / "warm", work / "main"
    for d in (warm_dir, main_dir):
        d.mkdir(parents=True, exist_ok=True)
    return make(f"warm-{seed}", warm_dir), make(seed, main_dir)


def _execute(op):
    """Run one op; return (seconds, problems).  Verification is untimed."""
    start = thread_time()
    try:
        result = op.run()
    except Exception as exc:    # a raising op is a failed op, not a crash
        return thread_time() - start, [f"{op.kind}: raised {exc!r}"]
    elapsed = thread_time() - start
    try:
        problems = op.verify(result)
    except Exception as exc:
        problems = [f"{op.kind}: output unreadable: {exc!r}"]
    gc.collect()                # every op starts from the same heap state
    return elapsed, problems


def _warm(stream) -> None:
    for op in itertools.islice(stream, WARM_OPS):
        _execute(op)
    gc.collect()
    gc.freeze()                 # import-time objects never rescanned


def timed_run(workload: str, seed: int, seconds: float, work: Path) -> dict:
    import tracing
    setup_s = measure_setup()
    warm, stream = _streams(workload, seed, work)
    _warm(warm)
    tracing.assert_clean()
    times, kinds, points, failed, problems = [], [], 0, 0, []
    busy = 0.0
    wall_end = perf_counter() + MAX_WALL_PER_OP_SECOND * seconds
    while len(times) < MIN_OPS or (busy < seconds and perf_counter() < wall_end):
        op = next(stream)
        elapsed, found = _execute(op)
        times.append(elapsed)
        kinds.append(op.kind)
        busy += elapsed
        points += op.points
        if found:
            failed += 1
            problems += found
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracing.assert_clean()
    metrics = {
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (statistics.quantiles(times, n=10)[-1], "s"),
        "points_per_s": (points / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    by_kind: dict[str, list[float]] = {}
    for kind, t in zip(kinds, times):
        by_kind.setdefault(kind, []).append(t)
    return {"attempted": len(times), "failed": failed, "problems": problems,
            "timed_s": busy, "metrics": metrics,
            "by_kind": {k: (len(v), statistics.median(v)) for k, v in by_kind.items()}}


def traced_run(workload: str, seed: int, work: Path) -> dict:
    """The first TRACE_OPS ops of the stream, run plain, then traced.

    The difference between the two passes' op time is the tracing
    overhead.  cli.self_s is CLI op time not spent inside a wrapped call.
    """
    import tracing
    warm, stream = _streams(workload, seed, work)
    _warm(warm)
    ops = list(itertools.islice(stream, TRACE_OPS[workload]))
    plain = sum(_execute(op)[0] for op in ops)
    traced, cli_self, failed, problems = 0.0, 0.0, 0, []
    with tracing.Tracer() as tracer:
        for op in ops:
            top_before = tracer.top_s
            elapsed, found = _execute(op)
            traced += elapsed
            if op.via_cli:
                cli_self += elapsed - (tracer.top_s - top_before)
            if found:
                failed += 1
                problems += found
    values = tracer.metrics(op_s=traced, plain_s=plain, cli_self_s=cli_self)
    metrics = {name: (value, "s" if name.endswith("_s") else "count")
               for name, value in values.items()}
    return {"attempted": len(ops), "failed": failed, "problems": problems,
            "timed_s": traced, "metrics": metrics}


def report(workload: str, seed: int, trace: int, res: dict) -> None:
    n, failed = res["attempted"], res["failed"]
    mode = "traced" if trace else "timed"
    print(f"{workload} seed={seed} ({mode}): {n} ops in {res['timed_s']:.3f} s of op "
          f"time, {failed} failed, fail_frac = {failed / n:.4g}")
    if "by_kind" in res:
        print("  ops by kind: " + ", ".join(
            f"{k} {count} (median {m:.4g} s)" for k, (count, m) in res["by_kind"].items()))
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    for line in res["problems"][:20]:
        print(f"  FAIL {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }))


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="op time to measure (at least MIN_OPS ops are run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "phasecov" / "__init__.py").is_file():
        _fail(f"program source not found under {SRC}")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import phasecov
    if not _is_under(phasecov.__file__, SRC):
        _fail(f"imported phasecov from {phasecov.__file__}, not from {SRC}")
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.trace:
            res = traced_run(args.workload, args.seed, work)
        else:
            res = timed_run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:         # another run still uses it
            pass
    report(args.workload, args.seed, args.trace, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
