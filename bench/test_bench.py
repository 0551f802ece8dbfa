"""Self-test of the benchmark at small size (a few seconds per workload).

    python3 -m pytest -q bench/test_bench.py

Runs every workload untraced and traced with ``--small`` and checks that the
result line holds every metric of BENCHMARK.json with its unit, that the
run is correct (which includes traced passes reproducing untraced bytes),
and that exact counts match the code.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from rundiff import first_difference, main as rundiff_main, tree_digest  # noqa: E402
from workloads import SMALL_TASKS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_and_prediction_map():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layer = [m["name"] for m in SPEC["per_layer"]]
    assert len(layer) == len(set(layer))
    assert "setup_s" in e2e
    predictions = json.loads((BENCH / "predictions.json").read_text())["rows"]
    mapped = [name for row in predictions for name in row["metrics"]]
    assert sorted(mapped) == sorted(layer)
    for row in predictions:
        for cite in row["moves"] + row["no_change"]:
            assert cite["metric"] in e2e | set(layer)
            assert cite["workload"] in WORKLOADS


def test_rundiff_names_first_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        (d / "snapshots").mkdir(parents=True)
        (d / "manifest.json").write_text("{}\n")
        (d / "snapshots" / "task_001.snap").write_bytes(b"\x00\x01")
    assert first_difference(a, b) is None
    assert tree_digest(a) == tree_digest(b)
    assert rundiff_main([str(a), str(b)]) == 0
    (b / "snapshots" / "task_001.snap").write_bytes(b"\x00\x02")
    assert first_difference(a, b).startswith("snapshots/task_001.snap: sha256")
    assert rundiff_main([str(a), str(b)]) == 1
    (a / "extra.csv").write_text("x\n")
    assert first_difference(a, b) == f"extra.csv: only in {a}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    line = result_line(run_bench(workload, 0))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics(workload):
    line = result_line(run_bench(workload, 1))
    assert line["correct"] and line["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in line["metrics"].items()}

    record = json.loads((BENCH / "results" / f"{workload}-seed3-trace1.json").read_text())
    assert record["failures"] == []          # traced bytes == untraced bytes
    assert record["passes"]["traced_run_s"]
    assert record["run_digests"]
    assert record["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"

    scratch_models = metrics["driver.train_scratch_model.calls"]
    if workload == "table-default":
        assert scratch_models == 3 * SMALL_TASKS
        assert metrics["ops.conv2d.useful_mac_frac.scratch"] == 1.0
        # one generation per mode, one per cold check of grown and grow_only
        assert metrics["data.synth_tasks.calls"] == 5
    else:
        assert scratch_models == 0
    if workload == "grown-wide":
        assert 0.0 < metrics["ops.conv2d.useful_mac_frac"] < 1.0
    if workload == "verify-sweep":
        assert metrics["enumcheck.verify_mask_freedom.calls"] == 10
        assert metrics["backbone.forward_pass.train.calls"] == 0
    else:
        assert metrics["enumcheck.run_sweep.s"] == 0.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("table-default", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
