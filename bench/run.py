"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload known_n_grid [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory.  Set-up builds the case pool five times and
reports the median.  One untimed warm-up pass records each case's reference
outcome; timed passes then cycle over the pool until ``--seconds`` have
passed, and every recovery is checked against its planted model and its
reference ledger.  ``--trace 1`` spends half the time on traced passes and
reports the per-layer metrics instead of the end-to-end ones.  The last line of standard
output is one JSON object; the exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import expsum from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "expsum" / "__init__.py").is_file():
        sys.exit(f"bench: no expsum sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import expsum

    if Path(expsum.__file__).resolve().parent != SRC / "expsum":
        sys.exit(f"bench: expsum imported from {expsum.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    result = harness.run(workload, seed, args.seconds, bool(args.trace), ROOT)
    harness.print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
