"""Time one `semialg` command as a user runs it: a fresh interpreter, from before `import semialg`.

    python tests/time_one_shot.py [--runs N] [--seed S] SRC [SRC ...]

For the first argv of each benchmark workload's round at seed S, runs
`cli.main(argv)` N times per SRC directory (a checkout's `src`) in fresh
`python -I` interpreters, the sources taking turns, and prints the median
and quartiles in ms of each. The time covers importing the package, reading
the arguments and the handler; the command's output goes to /dev/null.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

CHILD = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from semialg import cli
code = cli.main(sys.argv[2:])
sys.stdout.flush()
print(time.perf_counter() - start, code, file=sys.stderr)
"""


def once(src: str, argv: list[str]) -> float:
    proc = subprocess.run([sys.executable, "-I", "-c", CHILD, src, *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120, check=True)
    seconds, code = proc.stderr.split()[-2:]
    if code not in ("0", "2"):  # 2 is a refused over-cap set, a reply the benchmark expects
        raise RuntimeError(f"{argv[:3]} exited {code} with {src}")
    return float(seconds) * 1000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("src", nargs="+")
    args = parser.parse_args()
    for name in sorted(workloads.WORKLOADS):
        argv = workloads.build_round(name, args.seed)[0].argv
        times = {src: [] for src in args.src}
        for k in range(args.runs):
            order = args.src if k % 2 == 0 else args.src[::-1]
            for src in order:
                times[src].append(once(src, argv))
        for src, ms in times.items():
            q1, median, q3 = statistics.quantiles(ms, n=4)
            print(f"{name} {' '.join(argv)[:40]!r} {src}: median {median:.2f} ms [{q1:.2f}-{q3:.2f}], {len(ms)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
