"""Measure one workload's set-up in a fresh process and print the seconds.

Set-up is what a user pays before the first closed-loop step: importing
the package (and numpy), parsing the scenarios, and building the
controllers or the Q-network. run.py starts this script several times and
reports the median.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import run  # noqa: E402  (pins BLAS threads, then imports numpy and visionmpc)


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload not in run.WORKLOADS:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    run.prepare(workload, seed)
    print(repr(time.perf_counter() - START))
    return 0


if __name__ == "__main__":
    sys.exit(main())
