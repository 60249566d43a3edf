#!/usr/bin/env python3
"""Generate a labeled synthetic suite and run the full benchmark protocol.

Builds a directory of motion and mixture sequences with ground truth, runs
every requested regime with seeded repeats, and prints the aggregated
table. Example:

    python scripts/synthetic_benchmark.py --out /tmp/scc-bench --repeats 10
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scc.cli import main as scc_main
from scc.dataio import SequenceRecord, SynthSpec, save_sequence, synth_affine_motion, synth_subspace_mixture


def build_suite(data_dir: Path, seed: int) -> None:
    data_dir.mkdir(parents=True, exist_ok=True)
    for i, k in enumerate((2, 2, 3)):
        record = synth_affine_motion(
            SynthSpec(
                n_clusters=k, points_per_cluster=60, noise_sigma=0.002,
                seed=seed + i, n_frames=24,
            )
        )
        save_sequence(data_dir / f"{record.sequence_id}.seq", record)
    for i, k in enumerate((2, 3)):
        spec = SynthSpec(
            n_clusters=k, points_per_cluster=50, subspace_dim=3, ambient_dim=12,
            noise_sigma=0.01, seed=seed + 10 + i,
        )
        data, labels = synth_subspace_mixture(spec)
        record = SequenceRecord(f"mixture-K{k}-seed{seed + 10 + i}", data, labels)
        save_sequence(data_dir / f"{record.sequence_id}.seq", record)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="working directory")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--regimes", nargs="*", default=["3,4K", "3,2F", "4,4K"], help="d,projection pairs"
    )
    args = parser.parse_args()

    out = Path(args.out)
    data_dir = out / "data"
    build_suite(data_dir, args.seed)
    code = scc_main(
        ["bench", "--data", str(data_dir), "--out", str(out / "results"),
         "--repeats", str(args.repeats), "--seed", str(args.seed), "--regimes", *args.regimes]
    )
    if code != 0:
        return code
    print((out / "results" / "report.txt").read_text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
