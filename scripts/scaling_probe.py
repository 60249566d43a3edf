#!/usr/bin/env python3
"""Wall-time scaling probe: how runtime responds to doubling N or c.

Runs the timing loop of the acceptance gate
``tests/test_acceptance.py::test_complexity_scaling`` (its cases, warm-up
and interleaving) ``--rounds`` times and prints each round's median ratios,
which the gate bounds to [1.5, 3], then the median and the minimum of each
ratio over the rounds. Beside them it prints each case's median run
seconds, median ``curvature_matrix`` seconds per run, timed by wrapping
the engine's kernel call, and iterations per run (one kernel call each),
so a change to the kernel shows how much of the gate's margin it moves.
Near-linear scaling in both N and c shows up as ratios close to 2; if the
cases stop after different numbers of iterations, the ratios measure
convergence as well as cost.

    python scripts/scaling_probe.py --base-n 200 --base-c 200 --runs 5 --rounds 10
"""

import argparse
import itertools
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import scc.engine
from test_acceptance import _scaling_medians

# (N, c, seconds) of every curvature_matrix call the engine makes
_KERNEL_CALLS: list[tuple[int, int, float]] = []


def _timed_kernel(kernel):
    def timed(data, sample_sets):
        start = time.perf_counter()
        result = kernel(data, sample_sets)
        _KERNEL_CALLS.append((data.shape[1], len(sample_sets), time.perf_counter() - start))
        return result

    return timed


def _kernel_medians() -> dict[tuple[int, int], tuple[float, float]]:
    """Median kernel seconds and iterations per run of each (N, c) case, warm-up run excluded.

    The gate interleaves its three cases, so each run of a case is one
    unbroken streak of calls with that case's (N, c), one call per iteration.
    """
    per_run: dict[tuple[int, int], list[tuple[float, int]]] = {}
    for case, calls in itertools.groupby(_KERNEL_CALLS, key=lambda call: call[:2]):
        seconds = [call[2] for call in calls]
        per_run.setdefault(case, []).append((sum(seconds), len(seconds)))
    _KERNEL_CALLS.clear()
    return {
        case: tuple(statistics.median(column) for column in zip(*runs[1:]))
        for case, runs in per_run.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base-n", type=int, default=200)
    parser.add_argument("--base-c", type=int, default=200)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=1, help="repetitions of the gate's timing loop")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    scc.engine.curvature_matrix = _timed_kernel(scc.engine.curvature_matrix)
    cases = {
        "base": (args.base_n, args.base_c),
        "N2": (2 * args.base_n, args.base_c),
        "c2": (args.base_n, 2 * args.base_c),
    }
    ratios = {"N": [], "c": []}
    for round_no in range(1, args.rounds + 1):
        medians = _scaling_medians(args.base_n, args.base_c, args.runs)
        kernel = _kernel_medians()
        ratios["N"].append(medians["N2"] / medians["base"])
        ratios["c"].append(medians["c2"] / medians["base"])
        split = ", ".join(
            f"{name} {medians[name]:.3f}/{kernel[case][0]:.3f}/{kernel[case][1]:g}"
            for name, case in cases.items()
        )
        print(
            f"round {round_no}: N={args.base_n}, c={args.base_c}: median {medians['base']:.3f} s "
            f"over {args.runs} runs; doubling N -> x{ratios['N'][-1]:.2f}, "
            f"doubling c -> x{ratios['c'][-1]:.2f}; run s/curvature s/iterations: {split}",
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
