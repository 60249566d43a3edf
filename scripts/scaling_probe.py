#!/usr/bin/env python3
"""Wall-time scaling probe: how runtime responds to doubling N or c.

Runs the timing loop of the acceptance gate
``tests/test_acceptance.py::test_complexity_scaling`` (its cases, warm-up
and interleaving) and prints the median ratios the gate bounds to
[1.5, 3]. Near-linear scaling in both N and c shows up as ratios
close to 2.

    python scripts/scaling_probe.py --base-n 200 --base-c 200 --runs 5
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import _scaling_medians


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base-n", type=int, default=200)
    parser.add_argument("--base-c", type=int, default=200)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()

    medians = _scaling_medians(args.base_n, args.base_c, args.runs)
    print(f"N={args.base_n}, c={args.base_c}: median {medians['base']:.3f} s over {args.runs} runs")
    print(f"doubling N -> x{medians['N2'] / medians['base']:.2f}")
    print(f"doubling c -> x{medians['c2'] / medians['base']:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
