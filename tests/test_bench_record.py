import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent


def test_bench_record_schema(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench_record.py"), "--checkout",
         f"smoke={REPO}", "--checkout", f"again={REPO}", "--workloads", "finite_width",
         "--seeds", "1", "--seconds", "0.2", "--no-tier1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert len(record["git_sha"]) == 40 and isinstance(record["dirty"], bool)
    assert record["tier1"] is None and record["cli"] is None and record["import_s"] is None
    assert record["micro"] is None
    # the north star's line count, as `wc -l src/nnkernels/*.py` totals it
    wc = subprocess.run(["wc", "-l", *sorted((REPO / "src" / "nnkernels").glob("*.py"))],
                        capture_output=True, text=True, check=True)
    assert record["src_lines"] == int(wc.stdout.splitlines()[-1].split()[0]) > 0
    entry = record["workloads"]["finite_width"]
    assert entry["attempted"] >= 1 and entry["failed"] == 0 and entry["all_correct"]
    names = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]]
    assert sorted(entry["metrics"]) == sorted(names)
    for stats in entry["metrics"].values():
        assert stats["q1"] <= stats["median"] <= stats["q3"]
    assert [run["seed"] for run in entry["runs"]] == [1]
    assert "pairs_won_vs_smoke" not in entry and "log_ratio_vs_smoke" not in entry
    # the second checkout is paired with the first, seed by seed
    entry = json.loads((tmp_path / "BENCH_again.json").read_text())["workloads"]["finite_width"]
    assert sorted(entry["pairs_won_vs_smoke"]) == sorted(names)
    ratios = entry["log_ratio_vs_smoke"]
    assert sorted(ratios) == sorted(names)
    for stats in ratios.values():
        assert stats["q1"] <= stats["median"] <= stats["q3"]


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  REPO / "scripts" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    return bench_record


def test_cli_record_fields(tmp_path):
    from nnkernels.cli import build_parser
    from nnkernels.data import load_csv
    bench_record = _bench_record()
    dataset = tmp_path / "d.csv"
    bench_record.write_dataset(dataset)
    ds = load_csv(dataset, -1)
    assert ds.X.shape == (100, 6) and np.isfinite(ds.y).all()
    first = dataset.read_bytes()
    bench_record.write_dataset(dataset)
    assert dataset.read_bytes() == first
    # every case parses as given (at the defaults, plus --out), and every
    # subcommand has a case
    parser, commands = build_parser()
    for argv in bench_record.CLI_CASES.values():
        parser.parse_args([a.replace("{dataset}", str(dataset)) for a in argv] + ["--out", "o"])
    assert {argv[0] for argv in bench_record.CLI_CASES.values()} == set(commands)
    # one cheap subcommand, run twice: wall time, exit code and both hashes
    runs = [bench_record.run_cli(REPO, ["norm-preserve", "--norm-points", "3"], tmp_path)
            for _ in range(2)]
    entry = bench_record.summarize_cli(runs)
    assert entry["exit_codes"] == [0, 0]
    assert entry["wall_s"]["q1"] <= entry["wall_s"]["median"] <= entry["wall_s"]["q3"]
    assert entry["out_sha256"] == hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest()
    assert len(entry["stdout_sha256"]) == 64 and entry["runs"] == runs
    failed = bench_record.run_cli(REPO, ["norm-preserve", "--norm-min", "-1"], tmp_path)
    assert failed["exit_code"] == 1 and failed["out_sha256"] is None
    assert bench_record.summarize_cli(runs + [failed])["out_sha256"] is None


def test_import_s_recorded_with_cli(tmp_path, monkeypatch):
    # the workloads faked and no nnk case: this checks the import timing
    # and where it lands in the record, with and without --cli
    bench_record = _bench_record()
    names = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]]
    fake = lambda checkout, command, workload, seed, seconds: {
        "seed": seed, "correct": True, "attempted": 1, "failed": 0,
        "metrics": {name: 1.0 for name in names}}
    monkeypatch.setattr(bench_record, "run_benchmark", fake)
    monkeypatch.setattr(bench_record, "CLI_CASES", {})
    argv = ["--checkout", f"a={REPO}", "--checkout", f"b={REPO}", "--workloads", "finite_width",
            "--seeds", "1", "--no-tier1", "--out-dir", str(tmp_path)]
    assert bench_record.main(argv + ["--cli"]) == 0
    for label in "ab":
        record = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
        stats = record["import_s"]
        assert len(stats["runs"]) == 1 and 0.0 < stats["runs"][0] < 60.0
        assert stats["q1"] == stats["median"] == stats["q3"] == stats["runs"][0]
        assert record["cli"] == {}
    assert bench_record.main(argv) == 0
    for label in "ab":
        record = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
        assert record["import_s"] is None and record["cli"] is None
    monkeypatch.setattr(bench_record, "IMPORT", [sys.executable, "-c", "import nnkernels_nowhere"])
    with pytest.raises(RuntimeError, match="(?s)import nnkernels exited 1: .*nnkernels_nowhere"):
        bench_record.run_import(REPO, tmp_path)


def test_paired_log_ratios():
    bench_record = _bench_record()
    metrics = [{"name": "ops_per_s"}, {"name": "failed_share"}]
    base = [{"metrics": {"ops_per_s": v, "failed_share": 0.0}} for v in (10.0, 20.0, 10.0)]
    runs = [{"metrics": {"ops_per_s": v, "failed_share": 0.0}} for v in (11.0, 22.0, 12.0)]
    out = bench_record.paired_log_ratios(runs, base, metrics)
    q1, med, q3 = np.percentile(np.log([1.1, 1.1, 1.2]), [25, 50, 75])
    assert out["ops_per_s"] == {"median": med, "q1": q1, "q3": q3}
    assert out["failed_share"] is None


def test_micro_recorded_with_flag(tmp_path, monkeypatch):
    # the workloads faked, no nnk case and four small micro cases: ns per
    # ELU entry and per GP call for each checkout with --micro, and the log
    # ratio to the first checkout in the second file; null without the flag
    bench_record = _bench_record()
    names = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]]
    fake = lambda checkout, command, workload, seed, seconds: {
        "seed": seed, "correct": True, "attempted": 1, "failed": 0,
        "metrics": {name: 1.0 for name in names}}
    monkeypatch.setattr(bench_record, "run_benchmark", fake)
    monkeypatch.setattr(bench_record, "CLI_CASES", {})
    cases = {"ns_per_entry": {"interior-2": ("interior", 2), "tail-1": ("tail", 1)},
             "ns_per_call": {"fit-8": ("fit", 8), "test-8": ("predict-test", 8)}}
    monkeypatch.setattr(bench_record, "MICRO_CASES", {**cases["ns_per_entry"],
                                                      **cases["ns_per_call"]})
    monkeypatch.setattr(bench_record, "MICRO_CALLS", 3)
    argv = ["--checkout", f"a={REPO}", "--checkout", f"b={REPO}", "--workloads", "finite_width",
            "--seeds", "1", "--no-tier1", "--out-dir", str(tmp_path)]
    assert bench_record.main(argv + ["--micro"]) == 0
    first, second = (json.loads((tmp_path / f"BENCH_{label}.json").read_text())["micro"]
                     for label in "ab")
    assert sorted(first) == ["ns_per_call", "ns_per_entry"]
    for record in (first, second):
        for unit, unit_cases in cases.items():
            assert sorted(record[unit]) == sorted(unit_cases)
            assert all(0.0 < v < 1e9 for v in record[unit].values())
    assert second["log_ratio_vs_a"] == {
        case: float(np.log(second[unit][case] / first[unit][case]))
        for unit, unit_cases in cases.items() for case in unit_cases}
    assert bench_record.main(argv) == 0
    for label in "ab":
        assert json.loads((tmp_path / f"BENCH_{label}.json").read_text())["micro"] is None
    # a failing script names the checkout
    monkeypatch.setattr(bench_record, "MICRO_SCRIPT", "raise SystemExit(3)")
    with pytest.raises(RuntimeError, match="micro exited 3"):
        bench_record.run_micro(REPO, tmp_path)
