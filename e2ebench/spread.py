"""Run-to-run spread of the benchmark's metrics over back-to-back processes.

Usage, from the repository root::

    python3 e2ebench/spread.py --workload uncertain_churn_200 --seeds 1 2 3 4 5
    python3 e2ebench/spread.py --workload adaptive_grow_3k --seeds 7 --repeat 8

Runs ``run.py`` once per seed (``--repeat`` times each), one process at a
time, and prints for every metric the median and the distance between
the first and third quartile as a share of the median — the acceptance
statistic of ``BENCHMARK.json``'s bounds.  The raw (not host-normalised)
setup and run medians are listed next to the normalised ones, so the
benefit of the normalisation can be read off the same processes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from hostclock import RAW_PREFIX  # noqa: E402
from stats import iqr_share  # noqa: E402

RUN_TIMEOUT_S = 600


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    root = os.path.dirname(HERE)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            seconds = json.load(handle)["run_seconds"]

    series = {}
    for seed in args.seeds:
        for _ in range(args.repeat):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            values = {name: m["value"] for name, m in report["metrics"].items()}
            for line in proc.stderr.splitlines():
                if line.startswith(RAW_PREFIX):
                    raw = json.loads(line[len(RAW_PREFIX):])
                    for name in ("setup_s", "run_s"):
                        values[f"raw.{name}"] = raw[name]
            values["correct"] = float(report["correct"])
            for name, value in values.items():
                series.setdefault(name, []).append(value)
            print(f"seed {seed}: " + "  ".join(
                f"{name} {value:.4g}" for name, value in values.items()), flush=True)

    print(f"\n{args.workload}: {len(series['correct'])} runs")
    for name, values in series.items():
        ordered = sorted(values)
        median = ordered[len(ordered) // 2]
        spread = iqr_share(values) if len(values) >= 2 and median else float("nan")
        print(f"  {name:<30} median {median:12.5g}   iqr/median {spread:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
