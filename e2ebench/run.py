"""Command line of the end-to-end benchmark (see ``bench.py`` for what it
measures).

Usage, from the repository root::

    python3 e2ebench/run.py --workload adaptive_grow_3k --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; progress goes to standard error.
Without the program's sources next to the benchmark (``src/repro``) it
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import bench

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"e2ebench: unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("e2ebench: --seconds must be positive", file=sys.stderr)
        return 2
    report = bench.run_benchmark(workload, seed=args.seed, seconds=args.seconds,
                                 trace=bool(args.trace))
    if report is None:
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
