#!/usr/bin/env python3
"""Print SHA-256s of the labels and kernel outputs of every perfbench motion case, large_n trial and protocol cell.

Writes the seeded inputs of the `motion`, `large_n` and `protocol`
workloads of ``perfbench/workloads.py`` to a temporary directory, runs each
case once at one OpenBLAS thread, as the benchmark does, and prints one
line per case: its name, the SHA-256 of its int64 labels (which the
engine numbers in order of first occurrence, so they depend only on the
grouping found), the SHA-256 of every ``curvature_matrix`` output the run
computed (the bytes of each call's curvatures and member mask, in call
order), its misclassification in percent and the number of iterations the
run made.
A `protocol` case is one `scc bench` cell: a sequence under one of the
workload's regimes, as ``scc.cli.bench_cells`` builds it, run for each of
its repeats with the configs ``scc.cli.trial_configs`` seeds, as
`scc bench --seed` does; its digests cover the labels and kernel outputs
of every repeat, its error is their mean, as records.csv holds it, and its
iteration counts are listed per repeat, comma-separated. The mean
misclassification of each regime (workload, d and projection) and of all
cases follows. Two commits give the same partitions on a seed exactly when
their label digests are equal, and the same curvatures on every kernel call
of the seed's inputs when their kernel digests are.
A diff of the two outputs also shows what a changed partition did to the
accuracy and which runs a change of stopping rule shortened:

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

import scc.engine
from scc.cli import bench_cells, trial_configs
from scc.engine import scc_run
from scc.evaluation import misclassification_rate
from workloads import ITERATIONS, PROTOCOL_REGIMES, PROTOCOL_REPEATS, load_cases, make_inputs


def digest(labelings) -> str:
    """SHA-256 of the concatenated int64 labels."""
    return hashlib.sha256(np.concatenate([labels.astype(np.int64) for labels in labelings]).tobytes()).hexdigest()


class KernelDigest:
    """Takes the engine's place of ``curvature_matrix`` and hashes every (curv, member) it returns."""

    def __init__(self):
        self.kernel = scc.engine.curvature_matrix
        self.hash = hashlib.sha256()
        scc.engine.curvature_matrix = self

    def __call__(self, data, sample_sets):
        curv, member = self.kernel(data, sample_sets)
        self.hash.update(curv.tobytes())
        self.hash.update(member.tobytes())
        return curv, member

    def take(self) -> str:
        """The SHA-256 of the outputs since the last take; the next one starts afresh."""
        value, self.hash = self.hash.hexdigest(), hashlib.sha256()
        return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1, help="workload seed, as perfbench/run.py --seed")
    args = parser.parse_args()

    errors: dict[str, list[float]] = {}
    kernel = KernelDigest()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("motion", "large_n"):
            inputs = Path(tmp) / workload
            make_inputs(workload, args.seed, inputs)
            for case in load_cases(workload, args.seed, inputs):
                result = scc_run(case.data, case.config)
                labels_digest = digest([result.partition.labels])
                error = misclassification_rate(result.partition, case.truth)
                regime = f"{workload} SCC({case.config.subspace_dim},{case.config.projection})"
                errors.setdefault(regime, []).append(error)
                print(f"{case.name} {labels_digest} {kernel.take()} {error:.4f} {result.iterations_run}", flush=True)
        inputs = Path(tmp) / "protocol"
        make_inputs("protocol", args.seed, inputs)
        for record, cell in bench_cells(inputs, PROTOCOL_REGIMES, None, ITERATIONS):
            configs = trial_configs(record, cell, PROTOCOL_REPEATS, args.seed)
            results = [scc_run(record.trajectories, config) for config in configs]
            method = f"SCC({cell.subspace_dim},{cell.projection})"
            labels_digest = digest([r.partition.labels for r in results])
            error = statistics.fmean(misclassification_rate(r.partition, record.truth_labels) for r in results)
            errors.setdefault(f"protocol {method}", []).append(error)
            iterations = ",".join(str(r.iterations_run) for r in results)
            print(f"{record.sequence_id}:{method} {labels_digest} {kernel.take()} {error:.4f} {iterations}", flush=True)
    for regime, values in errors.items():
        print(f"mean {regime}: {statistics.fmean(values):.4f}% over {len(values)} cases")
    every = [value for values in errors.values() for value in values]
    print(f"mean all: {statistics.fmean(every):.4f}% over {len(every)} cases")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
