"""Command line interface: cluster one sequence, generate synthetic data,
run the benchmark protocol over a directory of sequences, and emit reports.

All commands are deterministic for a fixed --seed (default 0). Wall-clock
timings are diagnostics only: they go to stderr, to the cluster command's
JSON-lines record, and to bench's timings.csv, never into the result files.
SCC_THREADS caps the bench worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import seeding
from .dataio import (
    SequenceParseError,
    SequenceRecord,
    SynthSpec,
    load_sequence,
    save_sequence,
    sequence_from_matrix,
    synth_affine_motion,
    synth_subspace_mixture,
)
from .engine import SccConfig, scc_run
from .evaluation import (
    AggregateRow,
    EvalRecord,
    aggregate,
    error_histogram,
    format_report_table,
    misclassification_rate,
    write_histogram_csv,
    write_report_csv,
)
from .reference_results import reference_rows

DEFAULT_SEED = 0
DEFAULT_REPEATS = 100
DEFAULT_REGIMES = ("3,d+1", "3,4K", "3,2F", "4,d+1", "4,4K", "4,2F")
DEFAULT_BIN_EDGES = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 100.0]

EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _regime_label(subspace_dim: int, projection: str) -> str:
    if projection == "d+1":
        return f"SCC ({subspace_dim},{subspace_dim + 1})"
    return f"SCC ({subspace_dim},{projection})"


def _parse_regime(text: str) -> tuple[int, str]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"regime must look like 'd,projection', got {text!r}")
    try:
        dim = int(parts[0])
    except ValueError:
        raise ValueError(f"bad subspace dimension in regime {text!r}") from None
    proj = parts[1].strip()
    if proj.lower() not in ("d+1", "4k", "2f", "ambient"):
        raise ValueError(f"bad projection in regime {text!r}; use d+1, 4K or 2F")
    return dim, "2F" if proj.lower() in ("2f", "ambient") else ("4K" if proj.lower() == "4k" else "d+1")


# ---------------------------------------------------------------- cluster


def cmd_cluster(args) -> int:
    record = load_sequence(args.input)
    config = SccConfig(
        subspace_dim=args.d,
        n_clusters=args.K,
        n_sample_sets=args.c,
        max_iterations=args.max_iterations,
        seed=args.seed,
        projection=args.proj,
    )
    start = time.perf_counter()
    result = scc_run(record.trajectories, config)
    elapsed = time.perf_counter() - start

    labels_path = Path(args.out) if args.out else Path(f"{record.sequence_id}.labels.txt")
    labels_path.write_text(
        " ".join(str(int(v)) for v in result.partition.labels) + "\n", encoding="utf-8"
    )
    diag_path = Path(args.diagnostics) if args.diagnostics else labels_path.with_suffix(
        labels_path.suffix + ".jsonl"
    )
    diag = {
        "sequence": record.sequence_id,
        "n_points": record.n_points,
        "subspace_dim": args.d,
        "n_clusters": args.K,
        "projection": config.projection,
        "working_dim": result.working_dim,
        "seed": args.seed,
        "ols_error": result.ols_error,
        "sigma_sq": result.sigma_sq_chosen,
        "q": result.q_chosen,
        "iterations": result.iterations_run,
        "runtime_sec": elapsed,
    }
    diag_path.write_text(json.dumps(diag, sort_keys=True) + "\n", encoding="utf-8")
    _log(f"{record.sequence_id}: wrote {labels_path} ({elapsed:.2f} s)")
    return 0


# ---------------------------------------------------------------- synth


def cmd_synth(args) -> int:
    if args.N % args.K != 0:
        raise ValueError("--N must be divisible by --K (equal-size clusters)")
    spec = SynthSpec(
        n_clusters=args.K,
        points_per_cluster=args.N // args.K,
        subspace_dim=args.d,
        ambient_dim=args.D,
        noise_sigma=args.noise,
        seed=args.seed,
        n_frames=args.F,
        rigid_motion_magnitude=args.motion_magnitude,
        unit_diameter=args.unit_diameter,
    )
    if args.mode == "motion":
        record = synth_affine_motion(spec)
    else:
        if args.D % 2 != 0:
            raise ValueError("mixture mode needs an even --D to store rows as coordinate pairs")
        data, labels = synth_subspace_mixture(spec)
        record = sequence_from_matrix(
            data, labels, f"mixture-K{args.K}-d{args.d}-D{args.D}-seed{args.seed}"
        )
    out = Path(args.out) if args.out else Path(f"{record.sequence_id}.seq")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_sequence(out, record)
    _log(f"wrote {out}")
    return 0


# ---------------------------------------------------------------- bench


def _bench_one(payload) -> tuple[str, str, float, float]:
    """One (sequence, regime) cell: mean error and mean runtime over repeats."""
    record, dim, projection, repeats, root_seed, c, max_iterations = payload
    truth = record.truth_labels
    errors = []
    elapsed = []
    for trial in range(repeats):
        trial_seed = seeding.stable_text_seed(f"{root_seed}:{record.sequence_id}:{trial}")
        config = SccConfig(
            subspace_dim=dim,
            n_clusters=truth.n_clusters,
            n_sample_sets=c,
            max_iterations=max_iterations,
            seed=trial_seed,
            projection=projection,
        )
        start = time.perf_counter()
        result = scc_run(record.trajectories, config)
        elapsed.append(time.perf_counter() - start)
        errors.append(misclassification_rate(result.partition, truth))
    return record.sequence_id, _regime_label(dim, projection), float(np.mean(errors)), float(
        np.mean(elapsed)
    )


def _worker_count(args) -> int:
    workers = args.workers
    cap = os.environ.get("SCC_THREADS")
    if cap is not None:
        workers = min(workers, max(1, int(cap)))
    return max(1, workers)


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ValueError("--repeats must be at least 1")
    data_dir = Path(args.data)
    paths = sorted(data_dir.glob("*.seq"))
    if not paths:
        _log(f"error: no .seq files found under {data_dir}")
        return EXIT_INTERNAL

    regimes = [_parse_regime(r) for r in (args.regimes or DEFAULT_REGIMES)]
    sequences: list[SequenceRecord] = []
    for path in paths:
        try:
            record = load_sequence(path)
        except SequenceParseError as exc:
            _log(f"warning: skipping {path.name}: {exc}")
            continue
        if record.truth_labels is None:
            _log(f"warning: skipping {path.name}: no ground-truth labels")
            continue
        sequences.append(record)
    if not sequences:
        _log("error: no labeled sequences to benchmark")
        return EXIT_INTERNAL

    tasks = [
        (record, dim, proj, args.repeats, args.seed, args.c, args.max_iterations)
        for record in sequences
        for dim, proj in regimes
    ]
    workers = _worker_count(args)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_bench_one, tasks))
    else:
        outcomes = [_bench_one(task) for task in tasks]

    by_method: dict[str, list[EvalRecord]] = {}
    runtimes: dict[tuple[str, str], float] = {}
    meta = {rec.sequence_id: rec for rec in sequences}
    for seq_id, method, mean_error, mean_time in outcomes:
        record = meta[seq_id]
        by_method.setdefault(method, []).append(
            EvalRecord(
                sequence_id=seq_id,
                category=record.category,
                n_motions=record.truth_labels.n_clusters,
                error_pct=mean_error,
                runs=args.repeats,
                mean_runtime=mean_time,
            )
        )
        runtimes[(seq_id, method)] = mean_time
        _log(f"{seq_id} [{method}]: mean error {mean_error:.3f}% ({mean_time:.2f} s/run)")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    emitted = _emit_reports(out_dir, by_method, args.include_reference, DEFAULT_BIN_EDGES)

    records_path = out_dir / "records.csv"
    with records_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "sequence", "category", "motions", "error_pct", "runs"])
        for method in sorted(by_method):
            for rec in sorted(by_method[method], key=lambda r: r.sequence_id):
                writer.writerow(
                    [method, rec.sequence_id, rec.category, rec.n_motions, f"{rec.error_pct:.6f}", rec.runs]
                )
    emitted.append(records_path.name)

    timings_path = out_dir / "timings.csv"  # diagnostics; wall-clock, not reproducible
    with timings_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sequence", "method", "mean_runtime_sec"])
        for (seq_id, method) in sorted(runtimes):
            writer.writerow([seq_id, method, f"{runtimes[(seq_id, method)]:.4f}"])

    manifest = {
        "dataset": str(data_dir),
        "output_dir": str(out_dir),
        "repeats": args.repeats,
        "seed": args.seed,
        "regimes": [f"{d},{p}" for d, p in regimes],
        "n_sample_sets": args.c,
        "files": sorted(emitted),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _log(f"wrote {out_dir}/manifest.json")
    return 0


def _emit_reports(
    out_dir: Path,
    by_method: dict[str, list[EvalRecord]],
    include_reference: bool,
    bin_edges: list[float],
) -> list[str]:
    emitted: list[str] = []
    motions_values = sorted({r.n_motions for records in by_method.values() for r in records})

    rows_by_method: dict[str, list[AggregateRow]] = {}
    for method in sorted(by_method):
        rows: list[AggregateRow] = []
        for motions in motions_values:
            if any(r.n_motions == motions for r in by_method[method]):
                rows.extend(aggregate(by_method[method], motions))
        rows_by_method[method] = rows
    if include_reference:
        for motions in motions_values:
            for method, rows in reference_rows(motions).items():
                rows_by_method.setdefault(method, []).extend(rows)

    report_path = out_dir / "report.csv"
    write_report_csv(report_path, rows_by_method)
    emitted.append(report_path.name)

    tables = []
    for motions in motions_values:
        tables.append(f"== {motions} motions ==")
        tables.append(format_report_table(rows_by_method, motions))
    table_path = out_dir / "report.txt"
    table_path.write_text("\n".join(tables), encoding="utf-8")
    emitted.append(table_path.name)

    for method in sorted(by_method):
        for motions in motions_values:
            errors = [r.error_pct for r in by_method[method] if r.n_motions == motions]
            if not errors:
                continue
            counts, zero_share = error_histogram(errors, bin_edges)
            slug = method.replace(" ", "").replace("(", "").replace(")", "").replace(",", "-")
            hist_path = out_dir / f"hist_{slug}_{motions}motions.csv"
            write_histogram_csv(hist_path, bin_edges, counts)
            emitted.append(hist_path.name)
            _log(f"{method}, {motions} motions: {zero_share:.1f}% of sequences at zero error")
    return emitted


# ---------------------------------------------------------------- report


def cmd_report(args) -> int:
    records_path = Path(args.records)
    by_method: dict[str, list[EvalRecord]] = {}
    with records_path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"method", "sequence", "category", "motions", "error_pct", "runs"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise SequenceParseError(records_path, 1, f"records CSV must have columns {sorted(required)}")
        for row in reader:
            by_method.setdefault(row["method"], []).append(
                EvalRecord(
                    sequence_id=row["sequence"],
                    category=row["category"],
                    n_motions=int(row["motions"]),
                    error_pct=float(row["error_pct"]),
                    runs=int(row["runs"]),
                )
            )
    if not by_method:
        _log("error: no records found")
        return EXIT_INTERNAL
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _emit_reports(out_dir, by_method, args.include_reference, DEFAULT_BIN_EDGES)
    _log(f"wrote report under {out_dir}")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scc",
        description="Spectral curvature clustering of affine subspace mixtures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="cluster one .seq file")
    cluster.add_argument("--in", dest="input", required=True, help="input .seq file")
    cluster.add_argument("--d", type=int, required=True, help="max subspace dimension")
    cluster.add_argument("--K", type=int, required=True, help="number of clusters")
    cluster.add_argument("--proj", default="2F", choices=["d+1", "4K", "2F"], help="projection regime")
    cluster.add_argument("--c", type=int, default=None, help="sampled subsets (default 100*K)")
    cluster.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cluster.add_argument("--max-iterations", type=int, default=None)
    cluster.add_argument("--out", default=None, help="labels output path")
    cluster.add_argument("--diagnostics", default=None, help="JSON-lines diagnostics path")
    cluster.set_defaults(func=cmd_cluster)

    synth = sub.add_parser("synth", help="generate a synthetic labeled .seq file")
    synth.add_argument("--mode", choices=["motion", "mixture"], required=True)
    synth.add_argument("--K", type=int, required=True, help="number of clusters/bodies")
    synth.add_argument("--N", type=int, required=True, help="total number of points")
    synth.add_argument("--d", type=int, default=3, help="subspace dimension (mixture mode)")
    synth.add_argument("--D", type=int, default=10, help="ambient dimension (mixture mode)")
    synth.add_argument("--F", type=int, default=30, help="frames (motion mode)")
    synth.add_argument("--noise", type=float, default=0.0, help="noise level relative to diameter")
    synth.add_argument("--motion-magnitude", type=float, default=0.1)
    synth.add_argument("--unit-diameter", action="store_true")
    synth.add_argument("--seed", type=int, default=DEFAULT_SEED)
    synth.add_argument("--out", default=None, help="output .seq path")
    synth.set_defaults(func=cmd_synth)

    bench = sub.add_parser("bench", help="run the benchmark protocol over a dataset directory")
    bench.add_argument("--data", required=True, help="directory of labeled .seq files")
    bench.add_argument("--out", required=True, help="output directory")
    bench.add_argument("--repeats", type=int, default=DEFAULT_REPEATS, help="seeded trials per sequence")
    bench.add_argument(
        "--regimes",
        nargs="*",
        default=None,
        help="regimes as d,proj (default: 3,d+1 3,4K 3,2F 4,d+1 4,4K 4,2F)",
    )
    bench.add_argument("--c", type=int, default=None, help="sampled subsets (default 100*K)")
    bench.add_argument("--max-iterations", type=int, default=None)
    bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench.add_argument("--workers", type=int, default=1, help="parallel workers (capped by SCC_THREADS)")
    bench.add_argument("--include-reference", action="store_true", help="join published method rows")
    bench.set_defaults(func=cmd_bench)

    report = sub.add_parser("report", help="regenerate tables/histograms from records.csv")
    report.add_argument("--records", required=True, help="records.csv from a bench run")
    report.add_argument("--out", required=True, help="output directory")
    report.add_argument("--include-reference", action="store_true")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SequenceParseError as exc:
        _log(f"error: {exc}")
        return EXIT_PARSE
    except FileNotFoundError as exc:
        _log(f"error: {exc}")
        return EXIT_PARSE
    except ValueError as exc:
        _log(f"error: {exc}")
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        _log(f"internal error: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
