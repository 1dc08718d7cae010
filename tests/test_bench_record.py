import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_bench_record_schema(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench_record.py"), "--checkout",
         f"smoke={REPO}", "--workloads", "finite_width", "--seeds", "1",
         "--seconds", "0.2", "--no-tier1", "--out-dir", str(tmp_path)],
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
