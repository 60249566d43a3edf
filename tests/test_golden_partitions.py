"""Golden partitions: the perfbench inputs of seed 1 must still cluster as committed.

``golden_partitions_seed1.txt`` holds what ``scripts/partition_digest.py
--seed 1`` prints, less the input and kernel digests, which depend on the
BLAS and SIMD build: per case its label digest, misclassification and
iteration counts, then the mean misclassification per regime. A change that
moves a partition on purpose regenerates the file and lists the cases it moved:

    python scripts/partition_digest.py --seed 1 \\
        | awk '$1 == "inputs" {next} $1 != "mean" {print $1, $2, $4, $5; next} {print}' \\
        > tests/golden_partitions_seed1.txt
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_partitions_seed1.txt")


def _partition_digest():
    spec = importlib.util.spec_from_file_location("partition_digest", ROOT / "scripts" / "partition_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_1_partitions_match_golden_file():
    script = _partition_digest()
    cases = list(script.run_cases(1))
    lines = [f"{c.name} {c.labels} {c.error:.4f} {c.iterations}" for c in cases] + script.mean_lines(cases)
    assert lines == GOLDEN.read_text().splitlines()
