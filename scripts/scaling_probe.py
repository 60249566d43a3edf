#!/usr/bin/env python3
"""Wall-time scaling probe: how runtime responds to doubling N or c.

Times complete clustering runs on the cases of the acceptance gate
``tests/test_acceptance.py::test_complexity_scaling`` (the same data seed,
run seed and iteration count), interleaving the configurations so load
drift affects all of them alike, and prints the median ratios the gate
bounds to [1.5, 3]. Near-linear scaling in both N and c shows up as ratios
close to 2.

    python scripts/scaling_probe.py --base-n 200 --base-c 200 --runs 5
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from scc.engine import scc_run
from test_acceptance import _scaling_case


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base-n", type=int, default=200)
    parser.add_argument("--base-c", type=int, default=200)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()

    cases = {
        "base": _scaling_case(args.base_n, args.base_c),
        "2N": _scaling_case(2 * args.base_n, args.base_c),
        "2c": _scaling_case(args.base_n, 2 * args.base_c),
    }
    for data, config in cases.values():
        scc_run(data, config)  # warm-up
    times = {name: [] for name in cases}
    for _ in range(args.runs):
        for name, (data, config) in cases.items():
            start = time.perf_counter()
            scc_run(data, config)
            times[name].append(time.perf_counter() - start)

    medians = {name: float(np.median(vals)) for name, vals in times.items()}
    print(f"N={args.base_n}, c={args.base_c}: median {medians['base']:.3f} s over {args.runs} runs")
    print(f"doubling N -> x{medians['2N'] / medians['base']:.2f}")
    print(f"doubling c -> x{medians['2c'] / medians['base']:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
