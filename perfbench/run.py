"""The scc benchmark: one command per workload, run from the root of a checkout.

    python3 perfbench/run.py --workload motion --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Set-up runs three times in fresh processes; each writes the seeded inputs,
loads them back and warms up, and `setup_s` is the median wall time. The
inputs of the three must be byte-identical. A fresh process (measure.py)
then runs the workload for ``--seconds``; its thread settings are fixed
here, so the caller's environment cannot change them. The last line of
standard output is one JSON object: with ``--trace 0`` it carries the
end-to-end metrics, with ``--trace 1`` the per-layer ones. Lines before it
give every metric with its unit, the checks, the thread settings and the
library versions. The exit code is nonzero when any check fails.

``--smoke`` runs every workload at a tiny size, with and without tracing,
and checks that each metric BENCHMARK.json names is printed with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("motion", "large_n", "protocol")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0  # children are killed after this, so a call ends within 180 s

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")
# motion and large_n are the single-threaded baseline; protocol runs as a
# user would type it, under the machine's default BLAS threading.
THREADS = {"motion": "1", "large_n": "1", "protocol": None}

# Run times are bounded in units of the reference kernel's time (see
# measure.py): in seconds they follow the host's drifting core speed.
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_ref.p50": "ref",
    "runs_per_ref": "1/ref",
    "peak_mb": "MB",
}
# Printed beside the end-to-end metrics but not bounded: seconds drift with
# the host, misclassification is fixed by the seed, fail_frac is normally 0
# and the tail needs 20 runs.
GUARD_UNITS = {
    "run_s.p50": "s",
    "runs_per_s": "1/s",
    "ref_s": "s",
    "run_s.tail": "s",
    "misclass_pct": "%",
    "fail_frac": "fraction",
}
PER_LAYER_UNITS = {
    "curvature.matrix_s": "s",
    "curvature.calls": "count",
    "curvature.tuples": "count",
    "curvature.ns_per_tuple": "ns",
    "curvature.inf_frac": "fraction",
    "curvature.affinity_s": "s",
    "curvature.weights_s": "s",
    "spectral.eig_s": "s",
    "spectral.dense_calls": "count",
    "spectral.factored_calls": "count",
    "spectral.kmeans_s": "s",
    "spectral.kmeans_calls": "count",
    "geometry.ols_select_s": "s",
    "geometry.ols_calls": "count",
    "geometry.projection_s": "s",
    "engine.iterations": "count",
    "engine.stalled_frac": "fraction",
    "engine.sampling_s": "s",
    "engine.sweep_self_s": "s",
    "dataio.load_s": "s",
    "dataio.loads_per_seq": "count",
    "cli.pool_overhead_s": "s",
    "cli.run_s.p50": "s",
    "evaluation.score_s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


def _env(threads: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS and k != "SCC_THREADS"}
    if threads is not None:
        env.update({name: threads for name in BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _call(argv, env, log: Path, timeout: float) -> int:
    """Run a child in its own process group; on timeout kill the group and wait."""
    with log.open("a", encoding="utf-8") as handle:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=handle, stderr=handle,
                                start_new_session=True)
        try:
            return proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return -1


def _digest(directory: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def tail(times: list[float]) -> tuple[float, int] | None:
    """The highest whole percentile with at least 10 runs above it, by nearest rank."""
    n = len(times)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return sorted(times)[rank - 1], pct


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> tuple[dict, bool]:
    """Set up, measure and summarize one workload; returns (result line, passed)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK / f"{workload}-seed{seed}{'-smoke' if smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "log.txt"
    env = _env(THREADS[workload])
    flags = ["--smoke"] if smoke else []
    problems = []

    setup_walls, digests = [], []
    for rep in range(SETUP_REPEATS):
        inputs = work / f"inputs-{rep}"
        start = time.perf_counter()
        code = _call([sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                      "--seed", str(seed), "--out", str(inputs), *flags],
                     _env("1"), log, deadline - time.monotonic())
        setup_walls.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up exited with {code}; see {log}")
        digests.append(_digest(inputs))
        if rep:
            shutil.rmtree(inputs)
    if len(set(digests)) != 1:
        problems.append("set-up made different inputs from the same seed")

    result_path = work / "result.json"
    code = _call([sys.executable, str(HERE / "measure.py"), "--workload", workload,
                  "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                  "--inputs", str(work / "inputs-0"), "--out", str(result_path), *flags],
                 env, log, deadline - time.monotonic())
    if code != 0:
        raise RuntimeError(f"measurement exited with {code}; see {log}")
    raw = json.loads(result_path.read_text(encoding="utf-8"))
    problems += raw["problems"]

    times = raw["times"]
    if not times:
        raise RuntimeError("no run completed: " + "; ".join(problems[:3]))
    completed = len(times) if workload != "protocol" else raw["completed"]
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": raw["env"]["nproc"],
        "blas_threads_setting": THREADS[workload] or "default",
        "numpy": raw["env"]["numpy"], "scipy": raw["env"]["scipy"],
        "openblas": raw["env"]["openblas"],
        "runs_timed": completed, "window_s": raw["window_s"],
    }
    if trace:
        metrics = dict(raw["layers"])
        # 0 when no traced run had a completed untraced partner
        metrics["trace.overhead_pct"] = 100.0 * (raw["traced_s"] / raw["plain_s"] - 1.0) if raw["plain_s"] else 0.0
        units = PER_LAYER_UNITS
    else:
        ratios = [t / r for t, r in zip(times, raw["refs"])]
        if workload == "protocol":  # whole bench calls, each between two kernel samples
            busy = sum(w / r for w, r in zip(raw["call_walls"], raw["call_refs"]))
        else:
            busy = sum(ratios)
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "run_ref.p50": statistics.median(ratios),
            "runs_per_ref": completed / busy,
            "peak_mb": raw["peak_mb"],
        }
        units = END_TO_END_UNITS
        guards = {
            "run_s.p50": statistics.median(times),
            "runs_per_s": completed / raw["window_s"],
            "ref_s": statistics.median(raw["refs"]),
            "misclass_pct": statistics.fmean(raw["errors"]),
            "fail_frac": raw["failed"] / raw["attempted"],
        }
        tail_value = tail(times)
        if tail_value is not None:
            guards["run_s.tail"] = tail_value[0]
            info["run_s.tail"] = {"percentile": tail_value[1], "samples": len(times)}
        for name, value in guards.items():
            print(f"{name} = {value:.6g} {GUARD_UNITS[name]}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print("info " + json.dumps(info, sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}")
    passed = not problems
    line = {
        "correct": passed,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return line, passed


def smoke() -> bool:
    """Every workload, tiny, both trace modes; every named metric present with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line, passed = run_workload(workload, 1, 1.0, trace, smoke=True)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            if got != want:
                print(f"smoke: {workload} trace={trace} printed {got}, BENCHMARK.json names {want}")
                ok = False
            ok = ok and passed and line["attempted"] >= 1
    print(f"smoke: {'passed' if ok else 'FAILED'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark scc on one workload.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scc" / "__init__.py").is_file():
        print(f"error: no scc sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    try:
        if args.smoke:
            return 0 if smoke() else 1
        line, passed = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
