import csv
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy

import scc.cli
from scc.cli import main
from scc.dataio import SynthSpec, load_sequence, save_sequence, synth_affine_motion
from scc.engine import _blas_thread_controls, sweep_and_cluster

SRC = str(Path(__file__).resolve().parents[1] / "src")
_RECORDS_HEADER = "method,sequence,category,motions,error_pct,runs"


def _synth(tmp_path, name, mode="mixture", K=2, N=40, D=6, d=2, F=8, noise=0.02, seed=1):
    out = tmp_path / name
    args = [
        "synth", "--mode", mode, "--K", str(K), "--N", str(N), "--d", str(d),
        "--D", str(D), "--F", str(F), "--noise", str(noise), "--seed", str(seed),
        "--out", str(out),
    ]
    assert main(args) == 0
    return out


def test_synth_motion_and_mixture_files_load(tmp_path):
    motion = _synth(tmp_path, "m.seq", mode="motion", K=2, N=30, F=6, noise=0.0, seed=2)
    record = load_sequence(motion)
    assert record.trajectories.shape == (12, 30)
    assert record.truth_labels is not None

    mixture = _synth(tmp_path, "x.seq", mode="mixture", K=3, N=45, D=8, d=2, seed=3)
    record = load_sequence(mixture)
    assert record.trajectories.shape == (8, 45)
    assert record.truth_labels.n_clusters == 3


def test_synth_is_deterministic(tmp_path):
    a = _synth(tmp_path, "a.seq", seed=7)
    b = _synth(tmp_path, "b.seq", seed=7)
    assert a.read_bytes() == b.read_bytes()


def test_synth_rejects_bad_specs(tmp_path):
    out = tmp_path / "bad.seq"
    assert main(["synth", "--mode", "mixture", "--K", "3", "--N", "40", "--out", str(out)]) == 3
    assert main(
        ["synth", "--mode", "mixture", "--K", "2", "--N", "40", "--D", "7", "--out", str(out)]
    ) == 3
    assert main(["synth", "--mode", "motion", "--K", "0", "--N", "40", "--out", str(out)]) == 3


def test_cluster_writes_labels_and_diagnostics(tmp_path):
    seq = _synth(tmp_path, "c.seq", K=2, N=40, D=6, d=2, seed=4)
    labels_path = tmp_path / "labels.txt"
    code = main(
        ["cluster", "--in", str(seq), "--d", "2", "--K", "2", "--proj", "2F",
         "--seed", "5", "--out", str(labels_path)]
    )
    assert code == 0
    values = labels_path.read_text().split()
    assert len(values) == 40
    assert set(values) <= {"0", "1"}
    diag = json.loads((tmp_path / "labels.txt.jsonl").read_text())
    assert diag["iterations"] >= 1
    assert diag["sigma_sq"] > 0
    assert "runtime_sec" in diag


def test_cluster_diagnostics_say_why_the_run_stopped(tmp_path):
    seq = _synth(tmp_path, "s.seq", mode="motion", K=2, N=30, F=10, noise=0.0, seed=6)
    reasons = {}
    for max_iterations in ("1", "10"):
        labels_path = tmp_path / f"s{max_iterations}.txt"
        assert main(
            ["cluster", "--in", str(seq), "--d", "3", "--K", "2", "--proj", "4K", "--seed", "1",
             "--max-iterations", max_iterations, "--out", str(labels_path)]
        ) == 0
        diag = json.loads((tmp_path / f"s{max_iterations}.txt.jsonl").read_text())
        assert len(diag["per_iteration_errors"]) == diag["iterations"]
        assert min(diag["per_iteration_errors"]) == diag["ols_error"]
        reasons[max_iterations] = (diag["stop_reason"], diag["iterations"])
    # a noiseless run finds its partition at once and stops when the next iteration returns it
    assert reasons == {"1": ("limit", 1), "10": ("repeat", 2)}


def test_cluster_projection_flag_controls_working_dim(tmp_path):
    seq = _synth(tmp_path, "p.seq", mode="motion", K=2, N=30, F=10, noise=0.0, seed=6)
    labels_path = tmp_path / "p-labels.txt"
    code = main(
        ["cluster", "--in", str(seq), "--d", "3", "--K", "2", "--proj", "d+1",
         "--seed", "1", "--out", str(labels_path)]
    )
    assert code == 0
    diag = json.loads((tmp_path / "p-labels.txt.jsonl").read_text())
    assert diag["working_dim"] == 4


def test_cluster_projection_accepts_the_engine_aliases_in_any_case(tmp_path):
    seq = _synth(tmp_path, "q.seq", mode="motion", K=2, N=30, F=10, noise=0.0, seed=6)
    outputs = {}
    for proj in ("2F", "ambient", "2f", "4K", "4k", "d+1", "D+1"):
        labels_path = tmp_path / f"{proj}.txt"
        code = main(
            ["cluster", "--in", str(seq), "--d", "3", "--K", "2", "--proj", proj,
             "--seed", "1", "--out", str(labels_path)]
        )
        assert code == 0
        diag = json.loads((tmp_path / f"{proj}.txt.jsonl").read_text())
        outputs[proj] = (labels_path.read_bytes(), diag["projection"], diag["working_dim"])
    assert outputs["ambient"] == outputs["2F"] == outputs["2f"]
    assert outputs["4k"] == outputs["4K"] and outputs["D+1"] == outputs["d+1"]
    assert [outputs[p][1:] for p in ("2F", "4K", "d+1")] == [("ambient", 20), ("4K", 8), ("d+1", 4)]


def test_cluster_rejects_an_unknown_projection(tmp_path, capsys):
    seq = _synth(tmp_path, "u.seq", K=2, N=30, D=6, d=2, seed=1)
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--in", str(seq), "--d", "2", "--K", "2", "--proj", "5K"])
    assert exc.value.code == 2
    assert "unknown projection regime" in capsys.readouterr().err


def test_cluster_label_file_is_deterministic(tmp_path):
    seq = _synth(tmp_path, "d.seq", K=2, N=36, D=6, d=2, seed=8)
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out_a, out_b):
        assert main(
            ["cluster", "--in", str(seq), "--d", "2", "--K", "2", "--seed", "9", "--out", str(out)]
        ) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cluster_exit_codes(tmp_path):
    missing = tmp_path / "missing.seq"
    assert main(["cluster", "--in", str(missing), "--d", "2", "--K", "2"]) == 2
    corrupt = tmp_path / "corrupt.seq"
    corrupt.write_text("not a header\n")
    assert main(["cluster", "--in", str(corrupt), "--d", "2", "--K", "2"]) == 2
    binary = tmp_path / "binary.seq"
    binary.write_bytes(b"\xff\n")
    assert main(["cluster", "--in", str(binary), "--d", "2", "--K", "2"]) == 2
    assert main(["cluster", "--in", str(tmp_path), "--d", "2", "--K", "2"]) == 2  # a directory
    seq = _synth(tmp_path, "e.seq", K=2, N=30, D=6, d=2, seed=1)
    assert main(["cluster", "--in", str(seq), "--d", "0", "--K", "2"]) == 3


def test_cluster_rejects_a_sequence_whose_points_all_coincide(tmp_path, capsys):
    same = tmp_path / "same.seq"
    rows = [" ".join([value] * 30) for value in ("0.25", "-1", "3", "0.5")]
    same.write_text("\n".join(["SEQ same F=2 N=30 K=0 CAT=test"] + rows) + "\n")
    out = tmp_path / "same.txt"
    assert main(["cluster", "--in", str(same), "--d", "1", "--K", "2", "--out", str(out)]) == 3
    assert "every point of the working data coincides" in capsys.readouterr().err
    assert not out.exists()


def test_cluster_internal_error_prints_traceback(tmp_path, monkeypatch, capsys):
    seq = _synth(tmp_path, "f.seq", K=2, N=30, D=6, d=2, seed=1)
    capsys.readouterr()

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("scc.cli.scc_run", broken)
    assert main(["cluster", "--in", str(seq), "--d", "2", "--K", "2"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err
    assert "internal error: boom" in err


def _make_suite(tmp_path):
    data_dir = tmp_path / "suite"
    data_dir.mkdir()
    for i, k in enumerate((2, 2, 3)):
        _synth(data_dir, f"s{i}.seq", K=k, N=20 * k, D=6, d=2, seed=10 + i)
    # one unlabeled file that bench must skip with a warning
    unlabeled = data_dir / "nolabels.seq"
    text = (data_dir / "s0.seq").read_text().splitlines()
    unlabeled.write_text("\n".join([text[0].replace("K=2", "K=0")] + text[2:]) + "\n")
    # and one that is not UTF-8
    (data_dir / "binary.seq").write_bytes(b"SEQ binary F=1 N=2 K=0 CAT=x\n\xff 0\n0 0\n")
    return data_dir


def _run_bench(data_dir, out_dir, extra=()):
    args = [
        "bench", "--data", str(data_dir), "--out", str(out_dir),
        "--repeats", "2", "--regimes", "2,4K", "--seed", "3", "--c", "60",
    ] + list(extra)
    return main(args)


def test_bench_produces_reports(tmp_path, capsys):
    data_dir = _make_suite(tmp_path)
    out_dir = tmp_path / "out"
    assert _run_bench(data_dir, out_dir) == 0
    err = capsys.readouterr().err
    assert "nolabels.seq" in err and "skipping" in err
    assert "skipping binary.seq" in err and "binary.seq:2: not UTF-8" in err

    report = (out_dir / "report.csv").read_text().splitlines()
    assert report[0] == "method,category,motions,mean_pct,median_pct"
    assert any(",2," in line for line in report[1:])
    assert any(",3," in line for line in report[1:])

    records = (out_dir / "records.csv").read_text().splitlines()
    assert records[0] == "method,sequence,category,motions,error_pct,runs"
    assert len(records) == 4  # three labeled sequences, one regime

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["repeats"] == 2
    assert "report.csv" in manifest["files"]
    hists = sorted(p.name for p in out_dir.glob("hist_*.csv"))
    assert hists == ["hist_SCC2-4K_2motions.csv", "hist_SCC2-4K_3motions.csv"]
    assert (out_dir / "timings.csv").exists()


def test_bench_deterministic_outputs(tmp_path):
    # literally the same command twice into the same directory
    data_dir = _make_suite(tmp_path)
    out_dir = tmp_path / "out"
    names = ["report.csv", "records.csv", "report.txt", "manifest.json"]
    assert _run_bench(data_dir, out_dir) == 0
    first = {name: (out_dir / name).read_bytes() for name in names}
    assert _run_bench(data_dir, out_dir) == 0
    for name in names:
        assert (out_dir / name).read_bytes() == first[name], name


def test_bench_parallel_workers_match_serial(tmp_path):
    data_dir = _make_suite(tmp_path)
    out_serial, out_parallel = tmp_path / "serial", tmp_path / "parallel"
    assert _run_bench(data_dir, out_serial) == 0
    assert _run_bench(data_dir, out_parallel, extra=["--workers", "2"]) == 0
    assert (out_serial / "records.csv").read_bytes() == (out_parallel / "records.csv").read_bytes()


def test_bench_rejects_duplicate_sequence_ids(tmp_path, capsys):
    # a K=2 and a K=3 file under one header id would merge into one record key
    data_dir = tmp_path / "suite"
    data_dir.mkdir()
    two = _synth(data_dir, "two.seq", K=2, N=40, D=6, d=2, seed=20)
    three = _synth(data_dir, "three.seq", K=3, N=60, D=6, d=2, seed=21)
    lines = three.read_text().splitlines()
    header = lines[0].split()
    header[1] = load_sequence(two).sequence_id
    three.write_text("\n".join([" ".join(header)] + lines[1:]) + "\n")
    capsys.readouterr()
    assert _run_bench(data_dir, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "two.seq" in err and "three.seq" in err
    assert not (tmp_path / "out").exists()


def test_bench_skips_a_directory_named_like_a_sequence(tmp_path, capsys):
    data_dir = _make_suite(tmp_path)
    assert _run_bench(data_dir, tmp_path / "plain") == 0
    (data_dir / "nested.seq").mkdir()
    capsys.readouterr()
    assert _run_bench(data_dir, tmp_path / "out") == 0
    assert "warning: skipping nested.seq" in capsys.readouterr().err
    for name in ("records.csv", "report.csv", "report.txt"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name


def test_bench_rejects_a_bad_config_before_starting_workers(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr("scc.cli.ProcessPoolExecutor", no_pool)
    data_dir = _make_suite(tmp_path)
    # fewer sample sets than clusters: SccConfig's ValueError, exit 3
    assert _run_bench(data_dir, tmp_path / "out", extra=["--workers", "2", "--c", "1"]) == 3
    assert not (tmp_path / "out").exists()


def test_bench_rejects_duplicate_regimes_before_running_a_cell(tmp_path, monkeypatch, capsys):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("scc.cli._bench_one", no_cell)
    monkeypatch.setattr("scc.cli.ProcessPoolExecutor", no_cell)
    data_dir = _make_suite(tmp_path)
    for regimes, named in ((["3,2F", "3,ambient"], "3,2F"), (["3,4k", "3,4K"], "3,4K"), (["4,d+1", "3,4K", "4,D+1"], "4,d+1")):
        for workers in ("1", "2"):
            out_dir = tmp_path / f"out-{regimes[-1]}-{workers}"
            capsys.readouterr()
            args = ["bench", "--data", str(data_dir), "--out", str(out_dir), "--repeats", "1",
                    "--workers", workers, "--regimes", *regimes]
            assert main(args) == 3
            assert f"repeats {named}" in capsys.readouterr().err
            assert not out_dir.exists()


class _RecordingPool(ProcessPoolExecutor):
    """A real process pool that records the order of the tasks it is handed."""

    handed: list = []

    def map(self, fn, *iterables, **kwargs):
        tasks = list(iterables[0])
        _RecordingPool.handed.append(tasks)
        return super().map(fn, tasks, **kwargs)


def test_bench_hands_out_longest_cells_first_with_unchanged_outputs(tmp_path, monkeypatch):
    data_dir = tmp_path / "suite"
    data_dir.mkdir()
    # file order mixes the sizes, so it is not the cost order
    for name, n, seed in (("a.seq", 40, 31), ("b.seq", 120, 32), ("c.seq", 40, 33), ("d.seq", 120, 34)):
        _synth(data_dir, name, mode="motion", K=2, N=n, F=8, noise=0.002, seed=seed)
    sizes = {load_sequence(p).sequence_id: load_sequence(p).n_points for p in data_dir.glob("*.seq")}
    c, frames = 60, 8

    def cost(task):
        record, config = task[:2]
        working_dim = 2 * frames if config.projection == "ambient" else config.subspace_dim + 1
        return sizes[record.sequence_id] * c * working_dim

    handed = []
    serial_cell = scc.cli._bench_one

    def recording_cell(task):
        handed.append(task)
        return serial_cell(task)

    _RecordingPool.handed = []
    monkeypatch.setattr("scc.cli.ProcessPoolExecutor", _RecordingPool)
    outs = {}
    for workers in ("1", "2"):
        outs[workers] = tmp_path / f"out-{workers}"
        args = ["bench", "--data", str(data_dir), "--out", str(outs[workers]), "--repeats", "1",
                "--regimes", "3,d+1", "4,2F", "--seed", "2", "--c", str(c), "--max-iterations", "2",
                "--workers", workers]
        with monkeypatch.context() as patch:
            if workers == "1":  # the serial path calls the cell function in process
                patch.setattr("scc.cli._bench_one", recording_cell)
            assert main(args) == 0
    assert len(_RecordingPool.handed) == 1
    for order in (handed, _RecordingPool.handed[0]):
        costs = [cost(task) for task in order]
        assert len(costs) == 8 and len(set(costs)) == 4
        assert costs == sorted(costs, reverse=True)

    names = ["records.csv", "report.csv", "report.txt"]
    names += sorted(p.name for p in outs["1"].glob("hist_*.csv"))
    assert len(names) == 5
    for name in names:
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name
    keys = {}
    for workers, out_dir in outs.items():
        with (out_dir / "timings.csv").open(newline="") as handle:
            keys[workers] = [tuple(row[:2]) for row in csv.reader(handle)][1:]
    assert keys["1"] == keys["2"] == sorted(keys["1"])


def test_bench_rejects_fewer_than_one_worker(tmp_path):
    data_dir = _make_suite(tmp_path)
    for workers in ("0", "-2"):
        assert _run_bench(data_dir, tmp_path / f"out{workers}", extra=["--workers", workers]) == 3
        assert not (tmp_path / f"out{workers}").exists()


def _thread_counts(controls):
    return [get() for get, _ in controls]


def test_blas_thread_controls_find_every_openblas():
    # a renamed wheel symbol would otherwise turn the pin into a silent no-op
    configs = [np.show_config(mode="dicts"), scipy.show_config(mode="dicts")]
    blas = [config["Build Dependencies"]["blas"] for config in configs]
    libraries = {b["lib directory"] for b in blas if "openblas" in b["name"].lower()}
    assert len(_blas_thread_controls()) == len(libraries)


def test_bench_pins_cells_to_one_blas_thread(tmp_path, monkeypatch):
    controls = _blas_thread_controls()
    previous = _thread_counts(controls)
    for _, set_threads in controls:
        set_threads(2)
    try:
        before = _thread_counts(controls)
        data_dir = _make_suite(tmp_path)
        # scc_run pins inside the pool workers; the parent's counts never change
        assert _run_bench(data_dir, tmp_path / "pool", extra=["--workers", "2"]) == 0
        assert _thread_counts(controls) == before

        seen = []

        def spy(*args, **kwargs):
            seen.append(_thread_counts(controls))
            return sweep_and_cluster(*args, **kwargs)

        monkeypatch.setattr("scc.engine.sweep_and_cluster", spy)
        assert _run_bench(data_dir, tmp_path / "serial", extra=["--workers", "1"]) == 0
        assert len(seen) >= 6  # three cells of two runs each
        assert all(counts == [1] * len(controls) for counts in seen)
        assert _thread_counts(controls) == before
    finally:
        for (_, set_threads), count in zip(controls, previous):
            set_threads(count)


def _write_motion_seq(directory):
    # a three-body sequence whose SCC (4,2F) partition differs between one
    # and two unpinned OpenBLAS threads
    spec = SynthSpec(n_clusters=3, points_per_cluster=120, n_frames=30, noise_sigma=0.002, seed=111)
    directory.mkdir()
    path = directory / "motion.seq"
    save_sequence(path, synth_affine_motion(spec))
    return path


def _run_module(args, blas_threads):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=str(blas_threads))
    proc = subprocess.run(
        [sys.executable, "-m", "scc", *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_bench_records_do_not_depend_on_blas_threads_or_workers(tmp_path):
    data_dir = _write_motion_seq(tmp_path / "data").parent
    records = set()
    for threads in (1, 2):
        for workers in (1, 2):
            out_dir = tmp_path / f"out-{threads}-{workers}"
            _run_module(
                ["bench", "--data", str(data_dir), "--out", str(out_dir), "--regimes", "4,2F",
                 "--repeats", "1", "--seed", "1", "--max-iterations", "4",
                 "--workers", str(workers)],
                threads,
            )
            records.add((out_dir / "records.csv").read_bytes())
    assert len(records) == 1


def test_cluster_labels_do_not_depend_on_blas_threads(tmp_path):
    seq = _write_motion_seq(tmp_path / "data")
    labels = set()
    for threads in (1, 2):
        out = tmp_path / f"labels-{threads}.txt"
        _run_module(
            ["cluster", "--in", str(seq), "--d", "4", "--K", "3", "--proj", "2F",
             "--seed", "0", "--out", str(out)],
            threads,
        )
        labels.add(out.read_bytes())
    assert len(labels) == 1


def test_bench_empty_directory_fails(tmp_path, capsys):
    # no .seq file to read is a file error
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", "--data", str(empty), "--out", str(tmp_path / "o")]) == 2
    assert "no .seq files found" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bench_without_a_labeled_sequence_has_nothing_to_benchmark(tmp_path, capsys):
    data_dir = tmp_path / "suite"
    data_dir.mkdir()
    for name in ("a.seq", "b.seq"):
        seq = _synth(data_dir, name)
        lines = seq.read_text().splitlines()
        seq.write_text("\n".join([lines[0].replace("K=2", "K=0")] + lines[2:]) + "\n")  # no LABELS row
    assert _run_bench(data_dir, tmp_path / "out") == 3
    assert "no labeled sequences to benchmark" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_rejects_an_unrunnable_cell_before_any_run(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("scc.cli.scc_run", no_run)
    monkeypatch.setattr("scc.cli.ProcessPoolExecutor", no_run)
    data_dir = tmp_path / "suite"
    data_dir.mkdir()
    _synth(data_dir, "a.seq", K=2, N=40, D=6, d=2)
    # 6 points, and SCC (5,2F) needs d+2 = 7
    _synth(data_dir, "b.seq", K=2, N=6, D=6, d=1)
    for workers in ("1", "2"):
        out_dir = tmp_path / f"out-{workers}"
        capsys.readouterr()
        args = ["bench", "--data", str(data_dir), "--out", str(out_dir), "--repeats", "2",
                "--regimes", "5,2F", "--c", "20", "--workers", workers]
        assert main(args) == 3
        assert "b.seq under 5,2F: need at least d+2 = 7 points, got 6" in capsys.readouterr().err
        assert not out_dir.exists()


def test_report_rejects_a_records_file_without_records(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text(_RECORDS_HEADER + "\n")
    assert main(["report", "--records", str(records), "--out", str(tmp_path / "out")]) == 2
    assert "records.csv:1: no records after the header" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_regenerates_from_records(tmp_path):
    data_dir = _make_suite(tmp_path)
    out_dir = tmp_path / "out"
    assert _run_bench(data_dir, out_dir) == 0
    regen = tmp_path / "regen"
    code = main(["report", "--records", str(out_dir / "records.csv"), "--out", str(regen)])
    assert code == 0
    assert (regen / "report.csv").read_bytes() == (out_dir / "report.csv").read_bytes()


def test_report_regenerates_bench_tables_byte_for_byte(tmp_path, monkeypatch):
    # four cell errors whose mean is exactly 17.65625: bench's report.csv says
    # 17.6562, and records rounded to six decimals would regenerate 17.6563
    data_dir = tmp_path / "suite"
    data_dir.mkdir()
    paths = [_synth(data_dir, f"t{i}.seq", K=2, N=20, D=6, d=2, seed=30 + i) for i in range(4)]
    errors = [26.041666666666668, 10.416666666666666, 7.916666666666667, 26.25]
    by_id = {load_sequence(p).sequence_id: e for p, e in zip(paths, errors)}

    def fake_cell(payload):
        record = payload[0]
        return record.sequence_id, "SCC (2,4K)", by_id[record.sequence_id], 0.0

    monkeypatch.setattr("scc.cli._bench_one", fake_cell)
    out_dir, regen = tmp_path / "out", tmp_path / "regen"
    assert _run_bench(data_dir, out_dir, extra=["--workers", "1"]) == 0
    assert main(["report", "--records", str(out_dir / "records.csv"), "--out", str(regen)]) == 0
    assert "17.6562" in (out_dir / "report.csv").read_text()
    names = ["report.csv", "report.txt"] + sorted(p.name for p in out_dir.glob("hist_*.csv"))
    assert len(names) == 3
    for name in names:
        assert (regen / name).read_bytes() == (out_dir / name).read_bytes(), name


def test_report_with_reference_rows(tmp_path):
    data_dir = _make_suite(tmp_path)
    out_dir = tmp_path / "out"
    assert _run_bench(data_dir, out_dir) == 0
    regen = tmp_path / "ref"
    code = main(
        ["report", "--records", str(out_dir / "records.csv"), "--out", str(regen),
         "--include-reference"]
    )
    assert code == 0
    report = (regen / "report.csv").read_text()
    assert "RANSAC" in report and "REF" in report and "1.4100" in report


def test_published_rows_stay_apart_from_measured_rows(tmp_path):
    # the published table also holds a "SCC (3,4K)" method
    data_dir = _make_suite(tmp_path)
    out_dir = tmp_path / "out"
    assert main(
        ["bench", "--data", str(data_dir), "--out", str(out_dir), "--repeats", "1", "--regimes", "3,4K",
         "--seed", "3", "--c", "60", "--max-iterations", "2", "--include-reference"]
    ) == 0
    with (out_dir / "records.csv").open(newline="") as handle:
        measured = [float(r["error_pct"]) for r in csv.DictReader(handle) if r["motions"] == "2"]
    with (out_dir / "report.csv").open(newline="") as handle:
        rows = [r for r in csv.DictReader(handle) if (r["category"], r["motions"]) == ("All", "2")]
    ours = [r for r in rows if r["method"] == "SCC (3,4K)"]
    assert len(ours) == 1 and ours[0]["mean_pct"] == f"{np.mean(measured):.4f}"
    published = [r for r in rows if r["method"] == "SCC (3,4K) (published)"]
    assert [r["mean_pct"] for r in published] == ["1.6300"]

    table = (out_dir / "report.txt").read_text().split("== 3 motions ==")[0].splitlines()[1:]
    header, *lines = [re.split(r"\s{2,}", line) for line in table if line]
    ours = [cells for cells in lines if cells[0] == "SCC (3,4K)"]
    assert len(ours) == 1
    assert ours[0][header.index("All mean/med")] == f"{np.mean(measured):.2f}/{np.median(measured):.2f}"

    # a measured method under a published name is refused, not merged
    records = tmp_path / "records.csv"
    records.write_text(f"{_RECORDS_HEADER}\nRANSAC (published),s1,synthetic,2,1.5,1\n")
    assert main(["report", "--records", str(records), "--out", str(tmp_path / "ref"), "--include-reference"]) == 2
    assert main(["report", "--records", str(records), "--out", str(tmp_path / "plain")]) == 0



@pytest.mark.parametrize(
    "bad_row, message",
    [
        ('"SCC (2,4K)",s2,synthetic,2', "expected 6 fields"),
        ('"SCC (2,4K)",s2,synthetic,two,3.5,1', "bad record: invalid literal for int()"),
        ('"SCC (2,4K)",s1,synthetic,2,3.5,1', "second record for 'SCC (2,4K)' on 's1'"),
    ],
    ids=["short-row", "bad-motions", "duplicate-pair"],
)
def test_report_rejects_a_bad_record_with_its_line(tmp_path, capsys, bad_row, message):
    records = tmp_path / "records.csv"
    records.write_text("\n".join([_RECORDS_HEADER, '"SCC (2,4K)",s1,synthetic,2,1.5,1', bad_row]) + "\n")
    assert main(["report", "--records", str(records), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{records}:3: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_module_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "scc", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "cluster" in proc.stdout and "bench" in proc.stdout
    # no other test imports the scripts, so a removed name they use shows up here
    for script in sorted(Path(SRC).parent.glob("scripts/*.py")):
        proc = subprocess.run(
            [sys.executable, str(script), "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, f"{script.name}: {proc.stderr}"
