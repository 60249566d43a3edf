#!/usr/bin/env python3
"""Wall-time scaling probe: how runtime responds to doubling N or c.

Runs the timing loop of the acceptance gate
``tests/test_acceptance.py::test_complexity_scaling`` (its cases, warm-up
and interleaving) ``--rounds`` times and prints each round's median ratios,
which the gate bounds to [1.5, 3], then the median and the minimum of each
ratio over the rounds. Beside them it prints each case's median seconds
per run: the whole run, ``curvature_matrix`` (timed by wrapping the
engine's kernel call), the eigensolves (timed by wrapping the spectral
layer's Lanczos solver, one call per bandwidth candidate) and the
remainder (run - kernel - eigensolve), then the iterations per run (one
kernel call each). The remainder and the eigensolve hold the costs that
grow least with N and c, so they show how much of the gate's margin rests
on fixed costs. Near-linear scaling in both N and c shows up as ratios
close to 2; if the cases stop after different numbers of iterations, the
ratios measure convergence as well as cost.

    python scripts/scaling_probe.py --base-n 200 --base-c 200 --runs 5 --rounds 10
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import scc.engine
import scc.spectral
from test_acceptance import _scaling_medians

# (layer, (N, c) for a kernel call, seconds) of every curvature_matrix call
# the engine makes and every eigensolve of the spectral layer, in order
_CALLS: list[tuple[str, tuple[int, int] | None, float]] = []


def _timed(function, layer):
    def timed(*args):
        start = time.perf_counter()
        result = function(*args)
        case = (args[0].shape[1], len(args[1])) if layer == "kernel" else None
        _CALLS.append((layer, case, time.perf_counter() - start))
        return result

    return timed


def _layer_medians() -> dict[tuple[int, int], tuple[float, float, float]]:
    """Median kernel seconds, eigensolve seconds and iterations per run of each (N, c) case.

    The gate interleaves its three cases, so a run starts at a kernel call
    whose (N, c) differs from the previous kernel call's, and its eigensolves
    are those before the next run starts. Each case's warm-up run is left out.
    """
    per_run: dict[tuple[int, int], list[list[float]]] = {}
    current = None
    for layer, case, seconds in _CALLS:
        if layer == "kernel" and case != current:
            current = case
            per_run.setdefault(case, []).append([0.0, 0.0, 0])
        run = per_run[current][-1]
        if layer == "kernel":
            run[0] += seconds
            run[2] += 1
        else:
            run[1] += seconds
    _CALLS.clear()
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

    scc.engine.curvature_matrix = _timed(scc.engine.curvature_matrix, "kernel")
    scc.spectral._lanczos = _timed(scc.spectral._lanczos, "eigensolve")
    cases = {
        "base": (args.base_n, args.base_c),
        "N2": (2 * args.base_n, args.base_c),
        "c2": (args.base_n, 2 * args.base_c),
    }
    ratios = {"N": [], "c": []}
    for round_no in range(1, args.rounds + 1):
        medians = _scaling_medians(args.base_n, args.base_c, args.runs)
        layers = _layer_medians()
        ratios["N"].append(medians["N2"] / medians["base"])
        ratios["c"].append(medians["c2"] / medians["base"])
        split = ", ".join(
            f"{name} {medians[name]:.4f}/{kernel:.4f}/{eigensolve:.4f}/"
            f"{medians[name] - kernel - eigensolve:.4f}/{iterations:g}"
            for name, case in cases.items()
            for kernel, eigensolve, iterations in [layers[case]]
        )
        print(
            f"round {round_no}: N={args.base_n}, c={args.base_c}: median {medians['base']:.3f} s "
            f"over {args.runs} runs; doubling N -> x{ratios['N'][-1]:.2f}, "
            f"doubling c -> x{ratios['c'][-1]:.2f}; "
            f"run s/curvature s/eigensolve s/remainder s/iterations: {split}",
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
