"""Tests of the benchmark suite itself (not tier-1): ``pytest benchmarks/suite``.

Each test drives ``bench.py`` the way a user does, in ``--smoke`` mode
(horizons / 20), so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(SUITE))
import bench  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks/suite/bench.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def smoke(tmp_path: Path, *args: str) -> dict:
    out = tmp_path / "out.json"
    proc = run_bench("run", "--smoke", "--seconds", "0", "--out", str(out), *args)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(out.read_text())


def test_workload_table_matches_benchmark_json():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    assert list(workloads.WORKLOADS) == WORKLOADS


def test_smoke_run_emits_exactly_the_end_to_end_metrics(tmp_path):
    doc = smoke(tmp_path)
    names = {m["name"] for m in BENCH["end_to_end"]}
    assert list(doc["workloads"]) == WORKLOADS
    for name, r in doc["workloads"].items():
        assert set(r["metrics"]) == names, name
        for metric, v in r["metrics"].items():
            assert math.isfinite(v["value"]) and v["value"] > 0, (name, metric)
        assert r["failed"] == 0 and r["detail"]["error_rate"] == 0, name
        assert r["correct"] and r["detail"]["oracle_failures"] == []
        assert r["detail"]["golden_checked"], name


def test_doctored_golden_digest_counts_as_failure(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(SUITE / "golden", golden)
    path = golden / "batch-kernel.json"
    doc = json.loads(path.read_text())
    cell = sorted(doc["smoke"]["1"])[0]
    doc["smoke"]["1"][cell] = "0" * 64
    path.write_text(json.dumps(doc))
    r = smoke(tmp_path, "--workload", "batch-kernel", "--golden", str(golden))
    result = r["workloads"]["batch-kernel"]
    assert result["failed"] > 0 and result["detail"]["error_rate"] > 0
    assert not result["correct"]


def test_traced_run_reports_every_layer_and_matches_untraced(tmp_path):
    doc = smoke(tmp_path, "--trace")
    names = {m["name"] for m in BENCH["per_layer"]}
    assert len(names) <= 128
    for name, r in doc["workloads"].items():
        assert set(r["metrics"]) == names, name
        assert all(math.isfinite(v["value"]) for v in r["metrics"].values())
        assert r["detail"]["traced_equals_untraced"], name
        assert r["correct"] and r["failed"] == 0, name
        assert r["metrics"]["trace.overhead_ratio"]["value"] > 0
    layers = doc["workloads"]
    assert layers["batch-kernel"]["metrics"]["kernel.batch_lean.cells"]["value"] > 0
    assert layers["batch-kernel"]["metrics"]["kernel.batch_general.cells"]["value"] > 0
    assert layers["credit-flow"]["metrics"]["sources.maybe_start_calls"]["value"] > 0
    assert layers["families-sweep"]["metrics"]["runner.cells"]["value"] == 57
    assert layers["checkpoint-resume"]["metrics"]["checkpoint.restores"]["value"] == 3


def test_every_span_has_an_enclosing_parent(tmp_path):
    smoke(tmp_path, "--trace", "--workload", "checkpoint-resume")
    spans = [json.loads(line) for line in (tmp_path / "out.json.spans.jsonl").open()]
    assert spans
    by_id = {(s["workload"], s["id"]): s for s in spans}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is None:
            continue
        parent = by_id[(s["workload"], s["parent"])]
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"], s
    assert all(s["cell"] for s in spans if s["name"].startswith("switch."))


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("run", "--workload", "batch-kernel", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("change, expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.05], "unchanged"),
    ([8.0, 8.1, 7.9, 8.0, 8.05], "better"),
    ([12.0, 12.1, 11.9, 12.0, 12.05], "worse"),
    ([9.0, 11.5, 8.5, 10.0, 11.0], "unresolved"),
])
def test_compare_verdicts(change, expected):
    parent = [10.0, 10.05, 9.95, 10.0, 10.02]
    assert bench.verdict(parent, change, "lower", 0.1)[0] == expected


def test_compare_counts_pairs_won_for_higher_is_better():
    verdict, won = bench.verdict([100, 101, 99], [120, 119, 121], "higher", 0.1)
    assert (verdict, won) == ("better", 3)
