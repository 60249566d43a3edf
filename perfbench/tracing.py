"""Spans around the calls into each layer of scc, recorded from outside the package.

`Tracer.installed()` rebinds the public names that `scc.engine`, `scc.spectral`
and `scc.cli` call to timing wrappers and restores them on exit. Each span
holds its name, start, end, parent and run id (the id of the enclosing `run`
span); spans stay in memory until written out. A process-pool worker forked
while the wrappers are installed inherits them and appends its own spans to
`spans-<pid>.jsonl` in the trace directory after each task.

`layer_metrics` turns a list of spans into the per-layer metrics; a layer's
self time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np


def _curvature_counts(result) -> dict:
    curv, member = result
    return {
        "tuples": int(member.size - np.count_nonzero(member)),
        "inf": int(np.count_nonzero(np.isinf(curv))),  # member entries hold zeros
    }


def _run_counts(result) -> dict:
    return {"errors": list(result.per_iteration_errors)}


# (module, attribute, span name): every call site the engine and the CLI use.
TARGETS = [
    ("scc.engine", "curvature_matrix", "curvature.matrix"),
    ("scc.engine", "affinity_from_curvatures", "curvature.affinity"),
    ("scc.engine", "pairwise_weights", "curvature.weights"),
    ("scc.engine", "spectral_cluster", "spectral.dense"),
    ("scc.engine", "spectral_cluster_factored", "spectral.factored"),
    ("scc.spectral", "spectral_cluster", "spectral.dense"),
    ("scc.spectral", "kmeans", "spectral.kmeans"),
    ("scc.engine", "total_ols_error", "geometry.ols"),
    ("scc.engine", "project_pca", "geometry.projection"),
    ("scc.engine", "sample_initial", "engine.sampling"),
    ("scc.engine", "resample_within", "engine.sampling"),
    ("scc.engine", "sweep_and_cluster", "engine.sweep"),
    ("scc.cli", "load_sequence", "dataio.load"),
    ("scc.cli", "scc_run", "run"),
    ("scc.cli", "_bench_one", "cli.cell"),
    ("scc.cli", "misclassification_rate", "evaluation"),
    ("scc.cli", "aggregate", "evaluation"),
    ("scc.cli", "error_histogram", "evaluation"),
    ("scc.cli", "format_report_table", "evaluation"),
    ("scc.cli", "write_report_csv", "evaluation"),
    ("scc.cli", "write_histogram_csv", "evaluation"),
]
COUNTERS = {"curvature.matrix": _curvature_counts, "run": _run_counts}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, flush_dir: Path | None = None):
        self.spans: list[dict] = []
        self.flush_dir = flush_dir
        self._stack: list[str] = []
        self._serial = 0
        self._pid = os.getpid()
        self._owner = self._pid
        self._run_id = None
        self._saved: list[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans, self._stack, self._run_id = [], [], None
        self._pid = os.getpid()

    def _begin(self, name: str) -> tuple[str, str | None, float]:
        span_id = f"{self._pid}-{self._serial}"
        self._serial += 1
        if name == "run":
            self._run_id = span_id
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _end(self, name, span_id, parent, start, result=None, failed=False) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span = {"id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "run": self._run_id}
        if failed:
            span["failed"] = True
        elif name in COUNTERS:
            span.update(COUNTERS[name](result))
        if name == "run":
            self._run_id = None
        self.spans.append(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, start = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._end(name, span_id, parent, start, failed=True)
                raise
            self._end(name, span_id, parent, start, result)
            if name == "cli.cell" and self._pid != self._owner:
                self.flush()
            return result

        return traced

    def flush(self) -> None:
        """Append this process's spans to its own file and drop them from memory."""
        with (self.flush_dir / f"spans-{self._pid}.jsonl").open("a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    @contextlib.contextmanager
    def installed(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved = []


def read_worker_spans(flush_dir: Path) -> list[dict]:
    """Collect and remove the span files that pool workers wrote."""
    spans = []
    for path in sorted(flush_dir.glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle)
        path.unlink()
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], invocations: int = 0, sequences: int = 0) -> dict[str, float]:
    """Per-layer metrics: seconds and counts per run, protocol layers per invocation.

    ``invocations`` and ``sequences`` count the traced `scc bench` calls and
    the `.seq` files each reads; both are zero for in-process workloads.
    """
    own = self_times(spans)
    runs = [s for s in spans if s["name"] == "run"]
    n_runs = max(len(runs), 1)

    def total(*names, per=n_runs):
        return sum(own[s["id"]] for s in spans if s["name"] in names) / per

    def count(name, per=n_runs):
        return sum(1 for s in spans if s["name"] == name) / per

    curv = [s for s in spans if s["name"] == "curvature.matrix"]
    tuples = sum(s.get("tuples", 0) for s in curv)  # failed spans carry no counts
    curv_time = sum(own[s["id"]] for s in curv)
    errors = [s["errors"] for s in runs if "errors" in s]
    iterations = [len(e) for e in errors]
    # iterations after the one that reached the run's best error
    stalled = [len(e) - 1 - int(np.argmin(e)) for e in errors]
    run_wall = sum(s["end"] - s["start"] for s in runs)
    in_layers = run_wall - sum(own[s["id"]] for s in runs)
    metrics = {
        "curvature.matrix_s": curv_time / n_runs,
        "curvature.calls": len(curv) / n_runs,
        "curvature.tuples": tuples / n_runs,
        "curvature.ns_per_tuple": 1e9 * curv_time / tuples if tuples else 0.0,
        "curvature.inf_frac": sum(s.get("inf", 0) for s in curv) / tuples if tuples else 0.0,
        "curvature.affinity_s": total("curvature.affinity"),
        "curvature.weights_s": total("curvature.weights"),
        "spectral.eig_s": total("spectral.dense", "spectral.factored"),
        "spectral.dense_calls": count("spectral.dense"),
        "spectral.factored_calls": count("spectral.factored"),
        "spectral.kmeans_s": total("spectral.kmeans"),
        "spectral.kmeans_calls": count("spectral.kmeans"),
        "geometry.ols_select_s": total("geometry.ols"),
        "geometry.ols_calls": count("geometry.ols"),
        "geometry.projection_s": total("geometry.projection"),
        "engine.iterations": sum(iterations) / n_runs,
        "engine.stalled_frac": sum(stalled) / sum(iterations) if iterations else 0.0,
        "engine.sampling_s": total("engine.sampling"),
        "engine.sweep_self_s": total("engine.sweep"),
        "trace.coverage_pct": 100.0 * in_layers / run_wall if run_wall else 0.0,
        "dataio.load_s": 0.0,
        "dataio.loads_per_seq": 0.0,
        "cli.pool_overhead_s": 0.0,
        "cli.run_s.p50": 0.0,
        "evaluation.score_s": 0.0,
    }
    if invocations:
        worker_runs = [s["end"] - s["start"] for s in runs]
        metrics.update({
            "dataio.load_s": total("dataio.load", per=invocations),
            "dataio.loads_per_seq": count("dataio.load", per=invocations * sequences),
            "cli.run_s.p50": statistics.median(worker_runs) if worker_runs else 0.0,
            "evaluation.score_s": total("evaluation", per=invocations),
        })
    return metrics
