import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

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
    assert record["src_lines"] > 0 and record["tier1"] is None
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


def test_paired_log_ratios():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  REPO / "scripts" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    metrics = [{"name": "ops_per_s"}, {"name": "failed_share"}]
    base = [{"metrics": {"ops_per_s": v, "failed_share": 0.0}} for v in (10.0, 20.0, 10.0)]
    runs = [{"metrics": {"ops_per_s": v, "failed_share": 0.0}} for v in (11.0, 22.0, 12.0)]
    out = bench_record.paired_log_ratios(runs, base, metrics)
    q1, med, q3 = np.percentile(np.log([1.1, 1.1, 1.2]), [25, 50, 75])
    assert out["ops_per_s"] == {"median": med, "q1": q1, "q3": q3}
    assert out["failed_share"] is None
