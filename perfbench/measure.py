"""The measured process: runs one workload in a closed loop for a fixed time.

It receives the inputs that set-up wrote, warms up, then starts each run
when the previous one has returned. `motion` and `large_n` run all their
cases in turn, in whole cycles, and stop at the cycle boundary nearest to
``--seconds``; `protocol` makes whole `scc bench` calls the same way. It
checks every output and writes the raw measurements as JSON for `run.py`
to summarize. With ``--trace 1`` every run is made twice,
untraced and then traced, so the tracing overhead is measured on the same
work.

    python3 perfbench/measure.py --workload motion --seed 1 --seconds 30 \
        --trace 0 --inputs DIR --out result.json
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import json
import os
import re
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if it ships one)

import scc.cli
import scc.engine
from scc import misclassification_rate, scc_run
from tracing import Tracer, layer_metrics, read_worker_spans
from workloads import ITERATIONS, PROTOCOL_REGIMES, PROTOCOL_REPEATS, WORKLOADS, load_cases, warm_up


def blas_info() -> dict:
    """Versions and the thread count each loaded OpenBLAS reports."""
    info = {"numpy": np.__version__, "scipy": scipy.__version__, "openblas": []}
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", handle.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"lib": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if getter is not None and config is not None:
                    getter.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    entry.update(threads=getter(), config=config().decode())
        info["openblas"].append(entry)
    return info


# The speed of a core on the shared host drifts by up to half over minutes,
# and it moves the runs and this fixed kernel alike. The kernel is sampled
# before and after each run, and within a long run after an engine
# iteration, so a run's time can also be read in units of the kernel's time
# over the same stretch (`run.py` reports both). The kernel uses no BLAS, so
# no thread setting changes it.
REFERENCE_DATA = np.random.default_rng(20090909).standard_normal(200_000)
REFERENCE_BUFFERS = np.empty((2, REFERENCE_DATA.size))  # so that the kernel allocates nothing
REFERENCE_BLOCKS = 3
PROBE_INTERVAL_S = 1.0


def reference_s() -> float:
    """Median wall time of a fixed sort/exp/Python-loop kernel, about 10 ms."""
    w, tmp = REFERENCE_BUFFERS
    times = []
    for _ in range(REFERENCE_BLOCKS):
        start = time.perf_counter()
        w[:] = REFERENCE_DATA
        w.sort()
        np.multiply(w, w, out=tmp)
        np.negative(tmp, out=tmp)
        np.exp(tmp, out=tmp)
        total = tmp.sum()
        np.cumsum(w, out=tmp)
        total += tmp[-1] + sum(i * i for i in range(40_000))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Samples of the reference kernel and the wall time they took."""

    def __init__(self):
        reference_s()  # the first call pays for page faults
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = 0.0
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(reference_s())
        self.last = time.perf_counter()
        self.spent += self.last - start

    @contextlib.contextmanager
    def within_runs(self):
        """Also sample after an engine iteration once a second has passed since the last sample."""
        original = scc.engine.sweep_and_cluster

        def probed(*args, **kwargs):
            result = original(*args, **kwargs)
            if time.perf_counter() - self.last > PROBE_INTERVAL_S:
                self.sample()
            return result

        scc.engine.sweep_and_cluster = probed
        try:
            yield
        finally:
            scc.engine.sweep_and_cluster = original


def _peak_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _label_problem(labels, n_points: int, n_clusters: int) -> str | None:
    labels = np.asarray(labels)
    if labels.shape != (n_points,) or not np.issubdtype(labels.dtype, np.integer):
        return f"labels have shape {labels.shape} and dtype {labels.dtype}, expected ({n_points},) integers"
    if labels.min() < 0 or labels.max() >= n_clusters:
        return f"labels outside [0, {n_clusters})"
    return None


def run_in_process(workload, seed, seconds, trace, inputs, smoke) -> dict:
    """`motion` and `large_n`: scc_run on every case in turn, in whole cycles."""
    cases = load_cases(workload, seed, inputs, smoke)
    warm_up()
    tracer = Tracer()
    traced_run = tracer.wrap("run", scc_run)
    out = {"times": [], "refs": [], "errors": [], "attempted": 0, "failed": 0, "problems": [],
           "plain_s": 0.0, "traced_s": 0.0}
    first_labels: dict[str, bytes] = {}

    probe = SpeedProbe()

    def once(case, fn, timed=True):
        out["attempted"] += 1
        probed = probe.spent
        start = time.perf_counter()
        try:
            result = fn(case.data, case.config)
        except Exception as exc:  # a run that raises counts in fail_frac
            out["failed"] += 1
            out["problems"].append(f"{case.name}: raised {exc!r}")
            return None
        elapsed = time.perf_counter() - start - (probe.spent - probed)
        labels = result.partition.labels
        problem = _label_problem(labels, case.data.shape[1], case.config.n_clusters)
        if problem:
            out["problems"].append(f"{case.name}: {problem}")
            return elapsed
        if first_labels.setdefault(case.name, labels.tobytes()) != labels.tobytes():
            out["problems"].append(f"{case.name}: labels differ from an earlier run of the same case")
        if timed:
            out["times"].append(elapsed)
            out["errors"].append(misclassification_rate(result.partition, case.truth))
        return elapsed

    # Every window holds whole cycles, so each seed's window runs the same mix.
    start = time.perf_counter()
    done = 0
    while True:
        cycle_start = time.perf_counter()
        for case in cases:
            if trace and done % 2:  # alternate which side runs first
                with tracer.installed():
                    traced = once(case, traced_run, timed=False)
            timed, first = len(out["times"]), len(probe.samples) - 1
            with probe.within_runs():
                plain = once(case, scc_run)
            probe.sample()
            if len(out["times"]) > timed:
                out["refs"].append(statistics.fmean(probe.samples[first:]))
            if trace and not done % 2:
                with tracer.installed():
                    traced = once(case, traced_run, timed=False)
            if trace and plain is not None and traced is not None:
                out["plain_s"] += plain
                out["traced_s"] += traced
            done += 1
        now = time.perf_counter()
        # stop at the cycle boundary nearest to --seconds
        if now - start + (now - cycle_start) / 2 > seconds:
            break
    out["window_s"] = now - start
    if done == len(cases):  # no case came round twice: repeat one to check determinism
        once(cases[0], scc_run, timed=False)
    if trace:
        out["layers"] = layer_metrics(tracer.spans)
        out["spans"] = tracer.spans
    return out


def _read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def run_protocol(seed, seconds, trace, inputs, work, workers) -> dict:
    """`protocol`: `scc bench` calls over the set-up's .seq files, one after another."""
    sequences = len(list(inputs.glob("*.seq")))
    runs_per_call = sequences * len(PROTOCOL_REGIMES) * PROTOCOL_REPEATS
    warm_up()
    flush_dir = work / "worker-spans"
    flush_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(flush_dir)
    out = {"times": [], "refs": [], "errors": [], "attempted": 0, "failed": 0, "problems": [],
           "plain_s": 0.0, "traced_s": 0.0, "plain_calls": 0, "traced_calls": 0,
           "completed": 0, "pool_overhead_s": [], "call_walls": [], "call_refs": []}
    spans: list[dict] = []
    reference: dict[str, bytes] = {}

    probe = SpeedProbe()
    start = time.perf_counter()
    call = 0
    while True:
        traced = trace and call % 2 == 1
        result_dir = work / f"bench-{call}"
        argv = ["bench", "--data", str(inputs), "--out", str(result_dir),
                "--repeats", str(PROTOCOL_REPEATS), "--regimes", *PROTOCOL_REGIMES,
                "--seed", str(seed), "--workers", str(workers),
                "--max-iterations", str(ITERATIONS)]
        call_start = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            code = scc.cli.main(argv)
        wall = time.perf_counter() - call_start
        probe.sample()
        ref = statistics.fmean(probe.samples[-2:])
        call += 1
        out["attempted"] += runs_per_call
        if code != 0:
            out["failed"] += runs_per_call
            out["problems"].append(f"scc bench call {call} exited with {code}")
        else:
            out["completed"] += runs_per_call
            out["call_walls"].append(wall)
            out["call_refs"].append(ref)
            cells = len(out["times"])
            _check_bench_output(result_dir, sequences, reference, out)
            out["refs"] += [ref] * (len(out["times"]) - cells)
        if traced:
            call_spans = tracer.spans + read_worker_spans(flush_dir)
            tracer.spans = []
            worker_runs = sum(s["end"] - s["start"] for s in call_spans if s["name"] == "run")
            out["pool_overhead_s"].append(wall - worker_runs / workers)
            spans.extend(call_spans)
            out["traced_s"] += wall
            out["traced_calls"] += 1
        else:
            out["plain_s"] += wall
            out["plain_calls"] += 1
        now = time.perf_counter()
        if call >= 2 and now - start + wall / 2 > seconds:
            break
    out["window_s"] = now - start
    if trace:
        layers = layer_metrics(spans, out["traced_calls"], sequences)
        overhead = out["pool_overhead_s"]
        layers["cli.pool_overhead_s"] = sum(overhead) / len(overhead)
        out["layers"] = layers
        out["spans"] = spans
        # compare mean call walls; the two sides ran the same calls
        out["plain_s"] /= out["plain_calls"]
        out["traced_s"] /= out["traced_calls"]
    return out


def _check_bench_output(result_dir: Path, sequences: int, reference: dict, out: dict) -> None:
    cells = sequences * len(PROTOCOL_REGIMES)
    records = _read_csv(result_dir / "records.csv")
    timings = _read_csv(result_dir / "timings.csv")
    if len(records) != cells or len(timings) != cells:
        out["problems"].append(f"{result_dir.name}: expected {cells} cells in records.csv and timings.csv")
    for row in records:
        if int(row["runs"]) != PROTOCOL_REPEATS or not 0.0 <= float(row["error_pct"]) <= 100.0:
            out["problems"].append(f"{result_dir.name}: bad record {row}")
    out["errors"].extend(float(row["error_pct"]) for row in records)
    out["times"].extend(float(row["mean_runtime_sec"]) for row in timings)
    for name in ("report.csv", "records.csv"):
        content = (result_dir / name).read_bytes()
        if reference.setdefault(name, content) != content:
            out["problems"].append(f"{result_dir.name}/{name} differs from the first call's")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Measure one workload for a fixed time.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    inputs = Path(args.inputs)
    result_path = Path(args.out)
    workers = len(os.sched_getaffinity(0))
    if args.workload == "protocol":
        out = run_protocol(args.seed, args.seconds, args.trace, inputs, result_path.parent, workers)
    else:
        out = run_in_process(args.workload, args.seed, args.seconds, args.trace, inputs, args.smoke)
    out["peak_mb"] = _peak_mb()
    out["env"] = {"nproc": workers, **blas_info()}
    spans = out.pop("spans", None)
    if spans is not None:
        with (result_path.parent / "spans.jsonl").open("w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    result_path.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
