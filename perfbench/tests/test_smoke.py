"""Smoke test of the benchmark itself, at the small ``--quick`` sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    return out


def assert_metrics(out, specs):
    expected = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == expected
    assert all(math.isfinite(m["value"]) for m in out["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_tracing_keeps_digits(workload):
    plain = result(workload, 0)
    assert_metrics(plain, SPEC["end_to_end"])
    traced = result(workload, 1)
    assert_metrics(traced, SPEC["per_layer"])
    assert traced["metrics"]["trace.digits"]["value"] == plain["metrics"]["digits"]["value"]
    assert traced["metrics"]["trace.coverage_frac"]["value"] > 0.9


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("rational-weyl", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("n, pct, beyond", [(5, 100, 0), (20, 100, 0), (21, 52, 10), (400, 97, 12)])
def test_tail_percentile_leaves_ten_samples_above(n, pct, beyond):
    latencies = [float(i) for i in range(n)]
    got_pct, value = run.tail(latencies)
    assert got_pct == pct
    assert sum(v > value for v in latencies) == beyond
