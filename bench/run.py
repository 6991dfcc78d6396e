#!/usr/bin/env python3
"""Seeded benchmark of the semialg command line.

    python3 bench/run.py --workload semigroup-queries --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from src/.
One workload runs per process, single-threaded, as a closed loop with one
caller: each operation is a call of semialg.cli.main(argv) with stdout
captured, issued when the previous one has returned.

1. Set-up: fresh interpreters time `import semialg` plus building the CLI
   parser, half of them before the warm-up and half after the timed rounds;
   the median is setup_s (with --trace 0 only).
2. Warm-up, untimed: one round of the workload's operations. Every JSON
   envelope is checked by the independent checkers in checkers.py, and the
   digest of its stdout is kept.
3. Timed: whole rounds of the same operations until --seconds have passed
   and at least 100 operations completed. Each output must match its
   checked digest.

Every reported time is scaled by the reference task of reference.py, timed
around each operation (and in each set-up interpreter), so that the drift
in speed of a shared host cancels out.

With --trace 1, timed rounds alternate between untraced and traced (see
tracing.py); per-layer metrics come from the traced rounds, and the
difference between the two kinds of round is the tracing overhead. Spans
are written to bench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import checkers
import reference
import workloads
from tracing import MAIN, Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

MIN_TIMED_OPS = 100  # so that at least ten completed operations lie beyond p90
SETUP_REPEATS = 8  # fresh interpreters before the warm-up, and again at the end

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import semialg
from semialg import cli
cli.build_parser()
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import reference
reference.task()
print(seconds, reference.scale(5))
"""


class OutputSink:
    """Stands in for stdout: hashes and counts what is written, keeps it only if asked."""

    def __init__(self, keep: bool):
        self.hash = hashlib.blake2b(digest_size=16)
        self.nbytes = 0
        self.chunks: list[str] | None = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode()
        self.hash.update(data)
        self.nbytes += len(data)
        if self.chunks is not None:
            self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class Outcome(NamedTuple):
    seconds: float
    code: int | None  # None: the program raised instead of returning an exit code
    digest: bytes
    nbytes: int
    error: str
    text: str | None


def run_op(main, argv, keep: bool = False) -> Outcome:
    out, err = OutputSink(keep), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught error fails this operation, not the run
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    text = "".join(out.chunks) if keep else None
    return Outcome(seconds, code, out.hash.digest(), out.nbytes, err.getvalue(), text)


def describe(op: workloads.Op) -> str:
    line = " ".join(op.argv)
    return line if len(line) <= 100 else line[:97] + "..."


def check(op: workloads.Op, outcome: Outcome) -> str | None:
    """Why the outcome is wrong, or None when it passes its checker."""
    if op.refused:
        if outcome.code == 2 and "exceeds SEMIGROUP_MAX_BOUND" in outcome.error:
            return None
        return f"expected a BoundTooLargeError refusal, got exit {outcome.code}: {outcome.error.strip()}"
    if outcome.code != 0:
        return f"exit {outcome.code}: {outcome.error.strip()}"
    try:
        envelope = json.loads(outcome.text)
        if envelope["command"] != op.argv[0]:
            return f"envelope command {envelope['command']!r}"
        op.check(envelope["result"])
    except (ValueError, KeyError, TypeError, checkers.CheckFailed) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


class Tally:
    """What one kind of timed round saw. Times are scaled by the reference task (reference.py)."""

    def __init__(self):
        self.latencies: list[float] = []  # scaled seconds, completed and matching operations
        self.busy = 0.0  # scaled seconds inside main(), every operation
        self.raw_busy = 0.0  # the same, unscaled
        self.scales: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0


def timed_round(main, ops, expected, tally: Tally, problems: list[str]) -> None:
    """One round; each operation is scaled by the reference task timed just before and after it."""
    outcomes = []
    before = reference.time_task()
    for op in ops:
        outcome = run_op(main, op.argv)
        after = reference.time_task()
        outcomes.append((outcome, reference.NOMINAL_S * 2 / (before + after)))
        before = after
    for op, (code, digest), (outcome, scale) in zip(ops, expected, outcomes):
        seconds = outcome.seconds * scale
        tally.attempted += 1
        tally.busy += seconds
        tally.raw_busy += outcome.seconds
        tally.scales.append(scale)
        tally.output_bytes += outcome.nbytes
        if outcome.code != 0:
            tally.failed += 1
        if (outcome.code, outcome.digest) != (code, digest):
            problems.append(f"{describe(op)}: output differs from the checked warm-up output")
        elif outcome.code == 0:
            tally.latencies.append(seconds)


def time_setup(repeats: int) -> list[float]:
    """Scaled seconds of `import semialg` plus build_parser(), each in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, scale = map(float, proc.stdout.split())
        times.append(seconds * scale)
    return times


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "semialg" / "__init__.py").is_file():
        print(f"error: no semialg sources at {SRC}; run from a semialg checkout", file=sys.stderr)
        return 2
    # The refusals this benchmark counts happen at the default table cap.
    os.environ.pop("SEMIGROUP_MAX_BOUND", None)

    if not args.trace:
        time_setup(1)  # may write bytecode caches
        setup_times = time_setup(SETUP_REPEATS)

    sys.path.insert(0, str(SRC))
    import semialg
    from semialg import cli

    if not Path(semialg.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: semialg was imported from {semialg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ops = workloads.build_round(args.workload, args.seed)
    problems: list[str] = []
    expected = []
    for op in ops:
        outcome = run_op(cli.main, op.argv, keep=True)
        problem = check(op, outcome)
        if problem:
            problems.append(f"{describe(op)}: {problem}")
        expected.append((outcome.code, outcome.digest))
    gc.collect()

    untraced, traced = Tally(), Tally()
    tracer = Tracer(semialg) if args.trace else None
    if tracer:
        main_span = tracer.span(MAIN, cli.main)

        def traced_main(argv):
            tracer.op += 1
            return main_span(argv)

    start = time.perf_counter()
    while True:
        timed_round(cli.main, ops, expected, untraced, problems)
        if tracer:
            tracer.install()
            try:
                timed_round(traced_main, ops, expected, traced, problems)
            finally:
                tracer.uninstall()
        # Latency percentiles come from untraced runs only; a traced run needs no tail.
        enough = tracer is not None or len(untraced.latencies) >= MIN_TIMED_OPS
        if time.perf_counter() - start >= args.seconds and enough:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup_times += time_setup(SETUP_REPEATS)

    for problem in problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)

    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    if tracer:
        overhead_ms = 1000.0 * (traced.busy / traced.attempted - untraced.busy / untraced.attempted)
        metrics = tracer.layer_metrics(traced.attempted, traced.output_bytes, overhead_ms)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "operations": [" ".join(op.argv) for op in ops],
            "span_fields": ["name", "start_s", "end_s", "parent", "op", "size", "error"],
            "spans": tracer.spans,
            "counts": tracer.counts,
            "totals": tracer.totals(),
        }))
        print(f"spans written to {trace_file.relative_to(BENCH.parent)}")
    else:
        lat_ms = [s * 1000.0 for s in untraced.latencies]
        metrics = {
            "throughput_ops": (len(untraced.latencies) / untraced.busy, "ops/s"),
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "latency_p90_ms": (percentile(lat_ms, 0.9), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per round, "
          f"{attempted} attempted, {failed} failed, {len(problems)} check failures")
    print(f"  host speed: median scale {statistics.median(untraced.scales):.3f}, "
          f"unscaled throughput {len(untraced.latencies) / untraced.raw_busy:.4f} ops/s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:55s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
