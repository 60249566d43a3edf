#!/usr/bin/env python3
"""Print a SHA-256 of the labels of every perfbench motion case and large_n trial.

Writes the seeded inputs of the `motion` and `large_n` workloads of
``perfbench/workloads.py`` to a temporary directory, runs each case once at
one OpenBLAS thread, as the benchmark does, and prints one line per case:
its name and the SHA-256 of its int64 labels. Two commits give the same
partitions on a seed exactly when their outputs are equal:

    python scripts/partition_digest.py --seed 1 > after.txt
    diff before.txt after.txt
"""

import os

# before numpy loads OpenBLAS: a multi-threaded product rounds differently
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS"):
    os.environ[var] = "1"

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

from scc.engine import scc_run
from workloads import load_cases, make_inputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1, help="workload seed, as perfbench/run.py --seed")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("motion", "large_n"):
            inputs = Path(tmp) / workload
            make_inputs(workload, args.seed, inputs)
            for case in load_cases(workload, args.seed, inputs):
                labels = scc_run(case.data, case.config).partition.labels
                digest = hashlib.sha256(labels.astype(np.int64).tobytes()).hexdigest()
                print(f"{case.name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
