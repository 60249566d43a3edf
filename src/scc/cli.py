"""Command line interface: cluster one sequence, generate synthetic data,
run the benchmark protocol over a directory of sequences, and emit reports.

All commands are deterministic for a fixed --seed (default 0). Wall-clock
timings are diagnostics only: they go to stderr, to the cluster command's
JSON-lines record, and to bench's timings.csv, never into the result files.
A command returns only on success; every failure is an exception, which
``main`` maps to an exit code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
import traceback
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
    synth_affine_motion,
    synth_subspace_mixture,
)
from .engine import SccConfig, _normalize_projection, check_shape, scc_run
from .evaluation import (
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
_RECORD_COLUMNS = ["method", "sequence", "category", "motions", "error_pct", "runs"]

EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _regime_text(subspace_dim: int, projection: str) -> str:
    """A regime as the paper writes it, e.g. "3,d+1", "3,4K" or "3,2F" (2F: the ambient space)."""
    return f"{subspace_dim},{'2F' if projection == 'ambient' else projection}"


def _regime_label(subspace_dim: int, projection: str) -> str:
    if projection == "d+1":
        return f"SCC ({subspace_dim},{subspace_dim + 1})"
    return f"SCC ({_regime_text(subspace_dim, projection)})"


def _parse_regime(text: str) -> tuple[int, str]:
    """'d,projection' -> (d, the engine's canonical projection name)."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"regime must look like 'd,projection', got {text!r}")
    try:
        dim = int(parts[0])
    except ValueError:
        raise ValueError(f"bad subspace dimension in regime {text!r}") from None
    return dim, _normalize_projection(parts[1])


def _projection_arg(text: str) -> str:
    """argparse type for --proj: any alias of the engine's table, in any case."""
    try:
        return _normalize_projection(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ---------------------------------------------------------------- cluster


def cmd_cluster(args) -> None:
    record = load_sequence(args.input)
    config = SccConfig(subspace_dim=args.d, n_clusters=args.K, n_sample_sets=args.c,
                       max_iterations=args.max_iterations, seed=args.seed, projection=args.proj)
    start = time.perf_counter()
    result = scc_run(record.trajectories, config)
    elapsed = time.perf_counter() - start

    labels_path = Path(args.out) if args.out else Path(f"{record.sequence_id}.labels.txt")
    labels_path.write_text(" ".join(str(int(v)) for v in result.partition.labels) + "\n", encoding="utf-8")
    diag_path = labels_path.with_suffix(labels_path.suffix + ".jsonl")
    diag = {
        "sequence": record.sequence_id,
        "n_points": record.n_points,
        "subspace_dim": args.d,
        "n_clusters": args.K,
        "projection": config.projection,
        "working_dim": result.working_dim,
        "seed": args.seed,
        "n_sample_sets": config.sample_set_count,
        "max_iterations": config.iteration_limit,
        "ols_error": result.ols_error,
        "sigma_sq": result.sigma_sq_chosen,
        "q": result.q_chosen,
        "iterations": result.iterations_run,
        "stop_reason": result.stop_reason,
        "per_iteration_errors": result.per_iteration_errors,
        "runtime_sec": elapsed,
    }
    diag_path.write_text(json.dumps(diag, sort_keys=True) + "\n", encoding="utf-8")
    _log(f"{record.sequence_id}: wrote {labels_path} ({elapsed:.2f} s)")


# ---------------------------------------------------------------- synth


def cmd_synth(args) -> None:
    if args.K < 1:
        raise ValueError("--K must be at least 1")
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
    )
    if args.mode == "motion":
        record = synth_affine_motion(spec)
    else:
        if args.D % 2 != 0:
            raise ValueError("mixture mode needs an even --D to store rows as coordinate pairs")
        data, labels = synth_subspace_mixture(spec)
        record = SequenceRecord(f"mixture-K{args.K}-d{args.d}-D{args.D}-seed{args.seed}", data, labels)
    out = Path(args.out) if args.out else Path(f"{record.sequence_id}.seq")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_sequence(out, record)
    _log(f"wrote {out}")


# ---------------------------------------------------------------- bench


def bench_cells(data_dir, regime_texts, n_sample_sets, max_iterations) -> list[tuple[SequenceRecord, SccConfig]]:
    """The (record, config) of every `scc bench` cell, file by file in name order, then regime by regime.

    A ``.seq`` file that does not parse or has no labels is skipped with a
    warning. Raises FileNotFoundError when there is no ``.seq`` file, and
    ValueError on a repeated regime, a shared sequence id, no labeled
    sequence, or a cell that ``check_shape`` rejects: all before any run.
    """
    data_dir = Path(data_dir)
    paths = sorted(data_dir.glob("*.seq"))
    if not paths:
        raise FileNotFoundError(f"no .seq files found under {data_dir}")
    regimes = []
    for text in regime_texts:
        regime = _parse_regime(text)
        if regime in regimes:
            # aliases name one regime: it would run twice and key two records alike
            raise ValueError(f"regime {text!r} repeats {_regime_text(*regime)}")
        regimes.append(regime)
    cells = []
    id_paths: dict[str, Path] = {}
    for path in paths:
        try:
            record = load_sequence(path)
        except (SequenceParseError, OSError) as exc:  # OSError: e.g. a directory named *.seq
            _log(f"warning: skipping {path.name}: {exc}")
            continue
        if record.truth_labels is None:
            _log(f"warning: skipping {path.name}: no ground-truth labels")
            continue
        # records, reports and per-trial seeds are all keyed by the header id
        first = id_paths.setdefault(record.sequence_id, path)
        if first != path:
            raise ValueError(f"{first.name} and {path.name} share the sequence id {record.sequence_id!r}")
        for dim, proj in regimes:
            config = SccConfig(subspace_dim=dim, n_clusters=record.truth_labels.n_clusters,
                               n_sample_sets=n_sample_sets, max_iterations=max_iterations, projection=proj)
            try:
                check_shape(config, record.trajectories.shape)
            except ValueError as exc:
                raise ValueError(f"{path.name} under {_regime_text(dim, proj)}: {exc}") from None
            cells.append((record, config))
    if not cells:
        raise ValueError(f"no labeled sequences to benchmark under {data_dir}")
    return cells


def trial_configs(record: SequenceRecord, config: SccConfig, repeats: int, root_seed: int) -> list[SccConfig]:
    """The config of each trial of a cell, seeded from (root seed, sequence id, trial index)."""
    return [
        dataclasses.replace(config, seed=seeding.stable_text_seed(f"{root_seed}:{record.sequence_id}:{trial}"))
        for trial in range(repeats)
    ]


def _bench_one(payload) -> tuple[str, str, float, float]:
    """One (sequence, regime) cell: mean error and mean runtime over repeats."""
    record, config, repeats, root_seed = payload
    errors, elapsed = [], []
    for trial_config in trial_configs(record, config, repeats, root_seed):
        start = time.perf_counter()
        result = scc_run(record.trajectories, trial_config)
        elapsed.append(time.perf_counter() - start)
        errors.append(misclassification_rate(result.partition, record.truth_labels))
    method = _regime_label(config.subspace_dim, config.projection)
    return record.sequence_id, method, float(np.mean(errors)), float(np.mean(elapsed))


def _cell_cost(task) -> int:
    """A cell's relative cost: points x sampled subsets x working dimension."""
    record, config = task[:2]
    return record.n_points * config.sample_set_count * config.projection_dim(record.trajectories.shape[0])


def cmd_bench(args) -> None:
    if args.repeats < 1:
        raise ValueError("--repeats must be at least 1")
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    data_dir = Path(args.data)
    # built before any worker starts, so a bad --c or an unrunnable cell fails first
    cells = bench_cells(data_dir, args.regimes or DEFAULT_REGIMES, args.c, args.max_iterations)
    tasks = [(record, config, args.repeats, args.seed) for record, config in cells]
    # longest cells first, so the pool does not end on one heavy cell; the
    # outputs are sorted below, so the order shows only in the wall time
    tasks.sort(key=_cell_cost, reverse=True)
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            outcomes = list(pool.map(_bench_one, tasks))
    else:
        outcomes = [_bench_one(task) for task in tasks]

    meta = {record.sequence_id: record for record, _ in cells}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.csv"
    with records_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_COLUMNS)
        for seq_id, method, mean_error, mean_time in sorted(outcomes, key=lambda o: (o[1], o[0])):
            record = meta[seq_id]
            # 17 significant digits round-trip exactly, so `scc report` rebuilds the same tables
            writer.writerow([method, seq_id, record.category, record.truth_labels.n_clusters,
                             f"{mean_error:.17g}", args.repeats])
            _log(f"{seq_id} [{method}]: mean error {mean_error:.3f}% ({mean_time:.2f} s/run)")
    emitted = _emit_reports(out_dir, records_path, args.include_reference) + [records_path.name]

    timings_path = out_dir / "timings.csv"  # diagnostics; wall-clock, not reproducible
    with timings_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sequence", "method", "mean_runtime_sec"])
        for seq_id, method, _, mean_time in sorted(outcomes, key=lambda o: o[:2]):
            writer.writerow([seq_id, method, f"{mean_time:.4f}"])

    manifest = {
        "dataset": str(data_dir),
        "output_dir": str(out_dir),
        "repeats": args.repeats,
        "seed": args.seed,
        # the first file's cells name every regime, in order
        "regimes": list(dict.fromkeys(_regime_text(config.subspace_dim, config.projection) for _, config in cells)),
        "n_sample_sets": args.c,
        "files": sorted(emitted),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _log(f"wrote {out_dir}/manifest.json")


def _emit_reports(out_dir: Path, records_path: Path, include_reference: bool) -> list[str]:
    """Write report.csv, report.txt and the histograms from a records.csv.

    Returns the names written. Raises SequenceParseError, before any
    directory is made, when the file holds no records.
    """
    by_method: dict[str, list[EvalRecord]] = {}
    with records_path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not set(_RECORD_COLUMNS).issubset(reader.fieldnames):
            raise SequenceParseError(records_path, 1, f"records CSV must have columns {sorted(_RECORD_COLUMNS)}")
        seen: set[tuple[str, str]] = set()
        for row in reader:
            if None in row or None in row.values():
                raise SequenceParseError(records_path, reader.line_num, f"expected {len(reader.fieldnames)} fields")
            if include_reference and row["method"].endswith(" (published)"):
                raise SequenceParseError(records_path, reader.line_num, "' (published)' is kept for published rows")
            key = (row["method"], row["sequence"])
            if key in seen:
                raise SequenceParseError(records_path, reader.line_num, f"second record for {key[0]!r} on {key[1]!r}")
            seen.add(key)
            try:
                record = EvalRecord(
                    sequence_id=row["sequence"],
                    category=row["category"],
                    n_motions=int(row["motions"]),
                    error_pct=float(row["error_pct"]),
                    runs=int(row["runs"]),
                )
            except ValueError as exc:
                raise SequenceParseError(records_path, reader.line_num, f"bad record: {exc}") from None
            by_method.setdefault(row["method"], []).append(record)
        if not by_method:
            raise SequenceParseError(records_path, reader.line_num, "no records after the header")
    out_dir.mkdir(parents=True, exist_ok=True)
    emitted: list[str] = []
    motions_values = sorted({r.n_motions for records in by_method.values() for r in records})

    rows_by_method = {
        method: [row for motions in motions_values for row in aggregate(by_method[method], motions)]
        for method in sorted(by_method)
    }
    if include_reference:
        # the published table names methods as bench does; its rows join apart from the measured ones
        for motions in motions_values:
            for method, rows in reference_rows(motions).items():
                rows_by_method.setdefault(f"{method} (published)", []).extend(rows)

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
            counts, zero_share = error_histogram(errors)
            slug = method.replace(" ", "").replace("(", "").replace(")", "").replace(",", "-")
            hist_path = out_dir / f"hist_{slug}_{motions}motions.csv"
            write_histogram_csv(hist_path, counts)
            emitted.append(hist_path.name)
            _log(f"{method}, {motions} motions: {zero_share:.1f}% of sequences at zero error")
    return emitted


# ---------------------------------------------------------------- report


def cmd_report(args) -> None:
    out_dir = Path(args.out)
    _emit_reports(out_dir, Path(args.records), args.include_reference)
    _log(f"wrote report under {out_dir}")


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
    cluster.add_argument(
        "--proj", default="2F", type=_projection_arg,
        help="projection regime: d+1, 4K or 2F (alias ambient), in any case",
    )
    cluster.add_argument("--c", type=int, default=None, help="sampled subsets (default 100*K)")
    cluster.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cluster.add_argument("--max-iterations", type=int, default=None)
    cluster.add_argument("--out", default=None, help="labels output path; diagnostics go to <out>.jsonl")
    cluster.set_defaults(func=cmd_cluster)

    synth = sub.add_parser("synth", help="generate a synthetic labeled .seq file")
    synth.add_argument("--mode", choices=["motion", "mixture"], required=True)
    synth.add_argument("--K", type=int, required=True, help="number of clusters/bodies")
    synth.add_argument("--N", type=int, required=True, help="total number of points")
    synth.add_argument("--d", type=int, default=3, help="subspace dimension (mixture mode)")
    synth.add_argument("--D", type=int, default=10, help="ambient dimension (mixture mode)")
    synth.add_argument("--F", type=int, default=30, help="frames (motion mode)")
    synth.add_argument("--noise", type=float, default=0.0, help="noise level relative to diameter")
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
    bench.add_argument("--workers", type=int, default=1, help="parallel worker processes")
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
        args.func(args)
        return 0
    except (SequenceParseError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_PARSE
    except ValueError as exc:
        _log(f"error: {exc}")
        return EXIT_CONFIG
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        _log(f"internal error: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
