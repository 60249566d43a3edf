#!/usr/bin/env python3
"""Print SHA-256s of the labels and kernel outputs of every perfbench motion case, large_n trial and protocol cell.

Writes the seeded inputs of the `motion`, `large_n` and `protocol`
workloads of ``perfbench/workloads.py`` to a temporary directory and
prints one line per workload, ``inputs <workload> <sha256>``, hashing the
names and bytes of its input files in name order. It then runs each case
once at one OpenBLAS thread, as the benchmark does, and prints one
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
of the seed's inputs when their kernel digests are. The input digests come
first, so a diff shows at its top whether the two wrote the same inputs.
A diff of the two outputs also shows what a changed partition did to the
accuracy and which runs a change of stopping rule shortened:

    python scripts/partition_digest.py --seed 1 > after.txt
    diff before.txt after.txt

``tests/test_golden_partitions.py`` calls ``run_cases`` and compares the
seed-1 label digests, errors and iteration counts with a committed file.
"""

import argparse
import hashlib
import os
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

if __name__ == "__main__":
    # before numpy loads OpenBLAS: a multi-threaded product rounds differently
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS"):
        os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

import scc.engine
from scc.cli import bench_cells, trial_configs
from scc.engine import scc_run
from scc.evaluation import misclassification_rate
from workloads import ITERATIONS, PROTOCOL_REGIMES, PROTOCOL_REPEATS, load_cases, make_inputs


class Case(NamedTuple):
    """One case's outcome: its name and regime, its label and kernel digests, error (%) and iteration counts."""

    name: str
    regime: str
    labels: str
    kernel: str
    error: float
    iterations: str


def digest(labelings) -> str:
    """SHA-256 of the concatenated int64 labels."""
    return hashlib.sha256(np.concatenate([labels.astype(np.int64) for labels in labelings]).tobytes()).hexdigest()


class KernelDigest:
    """Takes the engine's place of ``curvature_matrix`` while entered and hashes every (curv, member) it returns."""

    def __init__(self):
        self.kernel = scc.engine.curvature_matrix
        self.hash = hashlib.sha256()

    def __enter__(self):
        scc.engine.curvature_matrix = self
        return self

    def __exit__(self, *exc):
        scc.engine.curvature_matrix = self.kernel

    def __call__(self, data, sample_sets):
        curv, member = self.kernel(data, sample_sets)
        self.hash.update(curv.tobytes())
        self.hash.update(member.tobytes())
        return curv, member

    def take(self) -> str:
        """The SHA-256 of the outputs since the last take; the next one starts afresh."""
        value, self.hash = self.hash.hexdigest(), hashlib.sha256()
        return value


def inputs_digest(directory: Path) -> str:
    """SHA-256 of the names and bytes of the files in ``directory``, in name order."""
    value = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        value.update(f"{path.name}\0{len(data)}\0".encode())
        value.update(data)
    return value.hexdigest()


def run_cases(seed: int, on_inputs: Callable[[str, Path], None] | None = None) -> Iterator[Case]:
    """Run every case of the seed's `motion`, `large_n` and `protocol` inputs, in order.

    All three workloads' inputs are written first; ``on_inputs`` is then
    called with each workload's name and input directory, before any case runs.
    """
    with KernelDigest() as kernel, tempfile.TemporaryDirectory() as tmp:
        inputs = {workload: Path(tmp) / workload for workload in ("motion", "large_n", "protocol")}
        for workload, directory in inputs.items():
            make_inputs(workload, seed, directory)
            if on_inputs is not None:
                on_inputs(workload, directory)
        for workload in ("motion", "large_n"):
            for case in load_cases(workload, seed, inputs[workload]):
                result = scc_run(case.data, case.config)
                yield Case(
                    case.name,
                    f"{workload} SCC({case.config.subspace_dim},{case.config.projection})",
                    digest([result.partition.labels]),
                    kernel.take(),
                    misclassification_rate(result.partition, case.truth),
                    str(result.iterations_run),
                )
        for record, cell in bench_cells(inputs["protocol"], PROTOCOL_REGIMES, None, ITERATIONS):
            configs = trial_configs(record, cell, PROTOCOL_REPEATS, seed)
            results = [scc_run(record.trajectories, config) for config in configs]
            method = f"SCC({cell.subspace_dim},{cell.projection})"
            yield Case(
                f"{record.sequence_id}:{method}",
                f"protocol {method}",
                digest([r.partition.labels for r in results]),
                kernel.take(),
                statistics.fmean(misclassification_rate(r.partition, record.truth_labels) for r in results),
                ",".join(str(r.iterations_run) for r in results),
            )


def mean_lines(cases: list[Case]) -> list[str]:
    """The mean misclassification of each regime, in order of first case, then of all cases."""
    errors: dict[str, list[float]] = {}
    for case in cases:
        errors.setdefault(case.regime, []).append(case.error)
    lines = [f"mean {regime}: {statistics.fmean(values):.4f}% over {len(values)} cases" for regime, values in errors.items()]
    return lines + [f"mean all: {statistics.fmean(case.error for case in cases):.4f}% over {len(cases)} cases"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1, help="workload seed, as perfbench/run.py --seed")
    args = parser.parse_args()

    def print_inputs(workload: str, directory: Path) -> None:
        print(f"inputs {workload} {inputs_digest(directory)}", flush=True)

    cases = []
    for case in run_cases(args.seed, print_inputs):
        cases.append(case)
        print(f"{case.name} {case.labels} {case.kernel} {case.error:.4f} {case.iterations}", flush=True)
    print("\n".join(mean_lines(cases)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
