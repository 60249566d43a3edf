"""Seeded inputs of the three benchmark workloads, and the set-up step that makes them.

Every input is a function of the workload seed alone. The set-up step writes
the inputs to a directory, loads them back and warms the engine up; the
measured process later receives only these files.

    python3 perfbench/workloads.py --workload motion --seed 1 --out DIR [--smoke]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scc import (
    SccConfig,
    SynthSpec,
    load_sequence,
    save_sequence,
    scc_run,
    synth_affine_motion,
    synth_subspace_mixture,
)
from scc.geometry import Partition

WORKLOADS = ("motion", "large_n", "protocol")

# Light noise, relative to the diameter of the clean trajectories.
MOTION_NOISE = 0.002
MIXTURE_NOISE = 0.01

# Every run makes exactly this many engine iterations: the earliest stop the
# default patience of 3 allows is after iteration 4, so a budget of 4 fixes
# the count. Left to converge, a run makes 4 to 10 iterations depending on
# the seed, which would swamp any code change in the timings; convergence
# itself is read from `engine.*` in the traced run.
ITERATIONS = 4
# motion: (K, F, N) per sequence, each clustered under both regimes. The
# sizes span the paper's Hopkins-like range and are fixed; the seed only
# changes the bodies, their motion and the noise.
MOTION_GRID = [(k, f, n) for k in (2, 3) for f in (24, 30) for n in (120, 240, 360)]
MOTION_REGIMES = ((3, "4K"), (4, "ambient"))
# large_n: one mixture of K=3 flats (d=3, D=20), N = 3 * 2000, c = 300.
LARGE_N = {"n_clusters": 3, "points_per_cluster": 2000, "subspace_dim": 3, "ambient_dim": 20}
LARGE_N_SETS = 300
LARGE_N_TRIALS = 2
# protocol: small sequences, so that a window holds two `scc bench` calls
# of 48 runs each over 24 distinct (sequence, regime) cells.
PROTOCOL_GRID = [(k, f, n) for k in (2, 3) for f in (24, 30) for n in (48, 60)]
PROTOCOL_REGIMES = ("3,d+1", "3,4K", "4,2F")
PROTOCOL_REPEATS = 2

SMOKE = {
    "motion": [(2, 8, 40)],
    "large_n": {"n_clusters": 2, "points_per_cluster": 40, "subspace_dim": 2, "ambient_dim": 8},
    "protocol": [(2, 8, 40)],
}


@dataclass(frozen=True)
class Case:
    """One scc_run: its input, ground truth and configuration."""

    name: str
    data: np.ndarray
    truth: Partition
    config: SccConfig


def _motion_specs(grid, seed: int):
    for i, (k, frames, n) in enumerate(grid):
        yield SynthSpec(
            n_clusters=k,
            points_per_cluster=n // k,
            n_frames=frames,
            noise_sigma=MOTION_NOISE,
            seed=seed * 100 + i,
        )


def make_inputs(workload: str, seed: int, out: Path, smoke: bool = False) -> None:
    """Write the workload's inputs for ``seed`` under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    if workload in ("motion", "protocol"):
        grid = SMOKE[workload] if smoke else (MOTION_GRID if workload == "motion" else PROTOCOL_GRID)
        for i, spec in enumerate(_motion_specs(grid, seed)):
            record = synth_affine_motion(spec)
            save_sequence(out / f"{i:02d}-{record.sequence_id}.seq", record)
    elif workload == "large_n":
        params = SMOKE["large_n"] if smoke else LARGE_N
        data, labels = synth_subspace_mixture(SynthSpec(noise_sigma=MIXTURE_NOISE, seed=seed, **params))
        np.save(out / "data.npy", data)
        np.save(out / "labels.npy", labels.labels)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def load_cases(workload: str, seed: int, inputs: Path, smoke: bool = False) -> list[Case]:
    """The in-process runs of ``motion`` or ``large_n``, in the order they cycle."""
    if workload == "motion":
        cases = []
        for path in sorted(inputs.glob("*.seq")):
            record = load_sequence(path)
            for d, projection in MOTION_REGIMES:
                config = SccConfig(
                    subspace_dim=d,
                    n_clusters=record.truth_labels.n_clusters,
                    seed=seed,
                    projection=projection,
                    max_iterations=ITERATIONS,
                )
                name = f"{record.sequence_id}:SCC({d},{projection})"
                cases.append(Case(name, record.trajectories, record.truth_labels, config))
        return cases
    if workload == "large_n":
        data = np.load(inputs / "data.npy")
        labels = np.load(inputs / "labels.npy")
        k = int(labels.max()) + 1
        d = (SMOKE["large_n"] if smoke else LARGE_N)["subspace_dim"]
        sets = 10 * k if smoke else LARGE_N_SETS
        return [
            Case(f"mixture:trial{t}", data, Partition(labels, k),
                 SccConfig(subspace_dim=d, n_clusters=k, n_sample_sets=sets, seed=seed * 10 + t,
                           max_iterations=ITERATIONS))
            for t in range(LARGE_N_TRIALS)
        ]
    raise ValueError(f"workload {workload!r} has no in-process cases")


def warm_up() -> None:
    """One tiny run, so that lazy imports and BLAS start-up fall outside timing."""
    data, _ = synth_subspace_mixture(
        SynthSpec(n_clusters=2, points_per_cluster=20, subspace_dim=1, ambient_dim=4, seed=1)
    )
    scc_run(data, SccConfig(subspace_dim=1, n_clusters=2, max_iterations=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's seeded inputs.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)
    make_inputs(args.workload, args.seed, out, args.smoke)
    if args.workload == "protocol":
        for path in sorted(out.glob("*.seq")):
            load_sequence(path)
    else:
        load_cases(args.workload, args.seed, out, args.smoke)
    warm_up()
    return 0


if __name__ == "__main__":
    sys.exit(main())
