#!/usr/bin/env python3
"""Print a SHA-256 of the labels of every perfbench motion case and large_n trial.

Writes the seeded inputs of the `motion` and `large_n` workloads of
``perfbench/workloads.py`` to a temporary directory, runs each case once at
one OpenBLAS thread, as the benchmark does, and prints one line per case:
its name, the SHA-256 of its int64 labels and its misclassification in
percent. The mean misclassification of each regime (workload, d and
projection) and of all cases follows. Two commits give the same partitions
on a seed exactly when their case lines are equal, and a diff of the two
outputs also shows what a changed partition did to the accuracy:

    python scripts/partition_digest.py --seed 1 > after.txt
    diff before.txt after.txt
"""

import os

# before numpy loads OpenBLAS: a multi-threaded product rounds differently
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS"):
    os.environ[var] = "1"

import argparse
import hashlib
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

from scc.engine import scc_run
from scc.evaluation import misclassification_rate
from workloads import load_cases, make_inputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1, help="workload seed, as perfbench/run.py --seed")
    args = parser.parse_args()

    errors: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("motion", "large_n"):
            inputs = Path(tmp) / workload
            make_inputs(workload, args.seed, inputs)
            for case in load_cases(workload, args.seed, inputs):
                partition = scc_run(case.data, case.config).partition
                digest = hashlib.sha256(partition.labels.astype(np.int64).tobytes()).hexdigest()
                error = misclassification_rate(partition, case.truth)
                regime = f"{workload} SCC({case.config.subspace_dim},{case.config.projection})"
                errors.setdefault(regime, []).append(error)
                print(f"{case.name} {digest} {error:.4f}", flush=True)
    for regime, values in errors.items():
        print(f"mean {regime}: {statistics.fmean(values):.4f}% over {len(values)} cases")
    every = [value for values in errors.values() for value in values]
    print(f"mean all: {statistics.fmean(every):.4f}% over {len(every)} cases")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
