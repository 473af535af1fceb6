"""coherekit benchmark: one workload, one closed loop, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mp_extend --seed 1 --seconds 30 --trace 0

The loop is single-threaded and closed: the next operation starts when
the previous one has returned and its output has been checked.  It runs
whole rounds of the workload's pool (see workloads.py) until --seconds
have passed and at least MIN_OPS operations are done.  With --trace 0 the
last line of standard output carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of one traced pass over the
pool, and the spans are written to perfbench/out/.

Set-up time runs from just before `import coherekit` to the first timed
operation: the import plus generating the seeded inputs.  It is measured
in this process and in SETUP_PROBES fresh child processes, one after the
other, and reported as the median, so that one slow start does not decide
it.  Interpreter start-up is outside it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"

MIN_OPS = 100  # so that ten operations lie beyond the 90th percentile
TIME_LIMIT_S = 120.0  # stop starting rounds after this, whatever the count
SETUP_PROBES = 6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, print the set-up time and exit (used by the runner)",
    )
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, workdir: Path, tracer=None):
    """Import coherekit and generate the seeded pool; returns the pool and
    the seconds it took."""
    start = time.perf_counter()
    import coherekit

    if Path(coherekit.__file__).resolve().parent != SRC / "coherekit":
        raise SystemExit(f"error: imported coherekit from {coherekit.__file__}, not {SRC}")
    if tracer is not None:
        tracer.install()
    pool = workloads.WORKLOADS[workload](seed, workdir)
    return pool, time.perf_counter() - start


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-probe",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


@dataclass
class Outcome:
    """Operations that raised or returned a wrong output (`failed`), of
    which `wrong` returned a wrong output."""

    failed: int = 0
    wrong: int = 0
    errors: list[str] = field(default_factory=list)


def run_op(op, times: list[float], outcome: Outcome) -> None:
    """Time one operation, then check its output outside the timing."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as error:  # a raising operation is a failed one
        times.append(time.perf_counter() - start)
        outcome.failed += 1
        outcome.errors.append(f"{op.kind}: {type(error).__name__}: {error}")
        return
    times.append(time.perf_counter() - start)
    if not op.check(result):
        outcome.failed += 1
        outcome.wrong += 1
        outcome.errors.append(f"{op.kind}: wrong output {result!r}")


def timed_loop(pool, seconds: float):
    """Whole rounds, cycling through the pool, until `seconds` have passed
    and MIN_OPS operations are done."""
    times: list[float] = []
    outcome = Outcome()
    start = time.perf_counter()
    index = 0
    while True:
        for op in pool[index % len(pool)]:
            run_op(op, times, outcome)
        index += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(times) >= MIN_OPS) or elapsed >= TIME_LIMIT_S:
            return times, elapsed, outcome


def traced_pass(pool, tracer):
    """One pass over the whole pool, so that per-operation counts repeat
    exactly for a given seed."""
    times: list[float] = []
    outcome = Outcome()
    start = time.perf_counter()
    for ops in pool:
        for op in ops:
            tracer.op[0] = len(times)
            run_op(op, times, outcome)
    tracer.op[0] = -1
    return times, time.perf_counter() - start, outcome


def result_line(times: list[float], outcome: Outcome, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": outcome.wrong == 0,
            "attempted": len(times),
            "failed": outcome.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coherekit" / "__init__.py").is_file():
        print(f"error: no coherekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        workdir = Path(tmp)
        if args.setup_probe:
            _, setup_s = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # The build: byte-compile the sources once, outside every timing.
        compileall.compile_dir(str(SRC), quiet=1)
        if args.trace:
            return run_traced(args, workdir)
        return run_timed(args, workdir)


def run_timed(args, workdir: Path) -> int:
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    pool, setup_s = set_up(args.workload, args.seed, workdir)
    setups.append(setup_s)
    times, elapsed, outcome = timed_loop(pool, args.seconds)
    report_errors(outcome)
    metrics = {
        "ops_per_s": (len(times) / elapsed, "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(
        f"{args.workload} seed {args.seed}: {len(times)} ops in {elapsed:.1f} s, "
        f"set-up samples {[round(s, 4) for s in setups]}",
        file=sys.stderr,
    )
    print(result_line(times, outcome, metrics))
    return 0


def run_traced(args, workdir: Path) -> int:
    import tracing

    tracer = tracing.Tracer()
    pool, _ = set_up(args.workload, args.seed, workdir, tracer)
    if tracer.missing:
        print("trace: not found, not wrapped: " + ", ".join(tracer.missing), file=sys.stderr)
    setup_spans = tracer.take()
    times, elapsed, outcome = traced_pass(pool, tracer)
    spans = tracer.take()
    report_errors(outcome)
    values = tracer.per_layer(setup_spans, spans, len(times))
    tracer.write(
        OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz",
        {"setup": setup_spans, "ops": spans},
    )
    print(
        f"{args.workload} seed {args.seed} traced: {len(times)} ops in {elapsed:.1f} s, "
        f"op p50 {statistics.median(times) * 1e3:.2f} ms, {len(spans)} spans",
        file=sys.stderr,
    )
    print(result_line(times, outcome, {name: (values[name], unit) for name, unit in tracing.PER_LAYER}))
    return 0


def report_errors(outcome: Outcome) -> None:
    for line in outcome.errors[:20]:
        print(f"failed: {line}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
