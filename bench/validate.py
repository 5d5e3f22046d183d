"""Run workloads over several seeds and report each metric's spread.

    python3 bench/validate.py [--workloads a,b] [--seeds 1-10,101] [--seconds 30]
                              [--trace 0] [--out results.json]

Runs ``bench/run.py`` once per (workload, seed), one process at a time, and
prints, per metric, the median and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median.  ``--out`` writes, per workload, the environment of its
last run, every run's metrics and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("known_n_grid", "collision_adaptive", "offline_cli_noisy")


def seed_range(text: str) -> list[int]:
    """``1-10`` or ``1-3,101-103``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("environment "):
            result["environment"] = json.loads(line.split(" ", 1)[1])
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            environment = result["environment"]
            runs[seed] = {k: m["value"] for k, m in result["metrics"].items()}
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[seed].items()), flush=True)
        names = next(iter(runs.values())).keys()
        summary = {
            name: summarize([run[name] for run in runs.values()])
            for name in names
        }
        for name, stats in summary.items():
            print(f"  {workload:<20} {name:<34} median {stats['median']:.6g}"
                  f"  spread {stats['spread']:.4f}")
        report[workload] = {
            "environment": environment, "runs": runs, "summary": summary,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
