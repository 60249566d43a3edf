#!/usr/bin/env python3
"""Wall-time scaling probe: how runtime responds to doubling N or c.

Runs the timing loop of the acceptance gate
``tests/test_acceptance.py::test_complexity_scaling`` (its cases, warm-up
and interleaving) ``--rounds`` times and prints each round's median ratios,
which the gate bounds to [1.5, 3], then the median and the minimum of each
ratio over the rounds. Near-linear scaling in both N and c shows up as
ratios close to 2.

    python scripts/scaling_probe.py --base-n 200 --base-c 200 --runs 5 --rounds 10
"""

import argparse
import statistics
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
    parser.add_argument("--rounds", type=int, default=1, help="repetitions of the gate's timing loop")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    ratios = {"N": [], "c": []}
    for round_no in range(1, args.rounds + 1):
        medians = _scaling_medians(args.base_n, args.base_c, args.runs)
        ratios["N"].append(medians["N2"] / medians["base"])
        ratios["c"].append(medians["c2"] / medians["base"])
        print(
            f"round {round_no}: N={args.base_n}, c={args.base_c}: median {medians['base']:.3f} s "
            f"over {args.runs} runs; doubling N -> x{ratios['N'][-1]:.2f}, "
            f"doubling c -> x{ratios['c'][-1]:.2f}",
            flush=True,
        )
    for name, values in ratios.items():
        print(
            f"doubling {name} over {args.rounds} rounds: median x{statistics.median(values):.2f}, "
            f"min x{min(values):.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
