import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growcl.config import parse_config_data
from growcl.driver import evaluate, forgetting_check, run_pipeline, build_tasks
from growcl.persist import (
    arch_from_dict,
    build_manifest,
    load_backbone,
    load_run,
    load_snapshot,
    save_backbone,
    save_run,
    save_snapshot,
)
from growcl.store import StoreFormatError, read_container, write_container


def tiny_config(seed=0):
    return parse_config_data({
        "seed": seed,
        "arch": {"layers": [
            {"capacity": 6, "seed_channels": 2},
            {"capacity": 8, "seed_channels": 2},
        ]},
        "tasks": {"n_tasks": 2, "samples_per_class": 40},
        "epochs": {"task1": 6, "pick": 4, "expand": 5, "scratch": 6},
    })


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    cfg = tiny_config()
    result = run_pipeline(cfg, "grown")
    run_dir = tmp_path_factory.mktemp("runs") / result.run_id
    save_run(result, run_dir)
    return cfg, result, run_dir


class TestRoundTrips:
    def test_snapshot_round_trip(self, saved_run, tmp_path):
        _, result, _ = saved_run
        snap = result.snapshots[1]
        save_snapshot(snap, tmp_path / "s.snap")
        back = load_snapshot(tmp_path / "s.snap")
        assert back.task_id == snap.task_id
        assert back.probe_fingerprint == snap.probe_fingerprint
        assert back.head_weight.tobytes() == snap.head_weight.tobytes()
        assert back.probe_images.tobytes() == snap.probe_images.tobytes()
        for name in snap.claim_bits:
            assert back.claim_bits[name].tobytes() == snap.claim_bits[name].tobytes()
            assert back.reuse_bits[name].tobytes() == snap.reuse_bits[name].tobytes()
            assert back.claim_logits[name].tobytes() == snap.claim_logits[name].tobytes()
            assert back.reuse_logits[name].tobytes() == snap.reuse_logits[name].tobytes()

    def test_backbone_round_trip(self, saved_run, tmp_path):
        cfg, result, _ = saved_run
        save_backbone(result.backbone, cfg.resolved["arch"], tmp_path / "b.bin")
        back = load_backbone(tmp_path / "b.bin")
        for la, lb in zip(result.backbone.layers, back.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()
            assert la.slot_state.tobytes() == lb.slot_state.tobytes()
            assert la.kernel_owner.tobytes() == lb.kernel_owner.tobytes()

    def test_arch_from_dict_round_trip(self, saved_run):
        cfg, _, _ = saved_run
        arch = arch_from_dict(cfg.resolved["arch"])
        assert arch == cfg.arch


class TestSnapshotSufficiency:
    """Reloading only the backbone + snapshots reproduces every task's
    accuracy and fingerprint exactly (no optimizer state involved)."""

    def test_reload_reproduces_inference(self, saved_run):
        cfg, result, run_dir = saved_run
        manifest, backbone, snapshots = load_run(run_dir)
        assert set(snapshots) == set(result.snapshots)
        passes = forgetting_check(snapshots, backbone)
        assert all(passes.values())
        tasks = build_tasks(cfg)
        for task in tasks:
            acc = evaluate(task.task_id, backbone, snapshots[task.task_id], task.test)
            assert acc == result.test_accuracies[task.task_id]

    def test_loaded_arrays_are_frozen(self, saved_run):
        _, _, run_dir = saved_run
        _, _, snapshots = load_run(run_dir)
        with pytest.raises(ValueError):
            snapshots[1].head_weight[0, 0] = 99.0


class TestRunDirectory:
    def test_layout(self, saved_run):
        _, result, run_dir = saved_run
        names = {p.name for p in run_dir.iterdir()}
        assert {"manifest.json", "accuracy.csv", "size.csv", "curves.csv",
                "ledger.csv", "backbone.bin", "snapshots"} <= names
        snaps = sorted(p.name for p in (run_dir / "snapshots").iterdir())
        assert snaps == ["task_001.snap", "task_002.snap"]

    def test_manifest_content(self, saved_run):
        _, result, run_dir = saved_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["mode"] == "grown"
        assert manifest["config_digest"] == result.config.digest
        assert manifest["n_tasks"] == 2
        assert len(manifest["gate_log"]) == 1
        gate = manifest["gate_log"][0]
        assert gate["expanded"] == (gate["pick_accuracy"] < gate["target_accuracy"])

    def test_accuracy_csv_shape(self, saved_run):
        _, result, run_dir = saved_run
        lines = (run_dir / "accuracy.csv").read_text().splitlines()
        assert lines[0] == "method,1,2,avg,model_size"
        cells = lines[1].split(",")
        assert cells[0] == "grown"
        avg = float(cells[3])
        assert avg == pytest.approx(np.mean([float(c) for c in cells[1:3]]), abs=1e-9)
        assert cells[4].endswith("x")

    def test_rerun_writes_identical_bytes(self):
        cfg = tiny_config(seed=1)
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            r1 = run_pipeline(cfg, "grown")
            r2 = run_pipeline(cfg, "grown")
            d1 = save_run(r1, Path(d) / "a")
            d2 = save_run(r2, Path(d) / "b")
            files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
            files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
            assert files1 == files2
            for rel in files1:
                assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel

    def test_manifest_is_deterministic_json(self, saved_run):
        _, result, _ = saved_run
        a = json.dumps(build_manifest(result), sort_keys=True)
        b = json.dumps(build_manifest(result), sort_keys=True)
        assert a == b


class TestMalformedFiles:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncated_snapshot_rejected(self, saved_run, tmp_path_factory, data):
        _, _, run_dir = saved_run
        raw = (run_dir / "snapshots" / "task_001.snap").read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1), label="cut")
        path = tmp_path_factory.mktemp("cut") / "task_001.snap"
        path.write_bytes(raw[:cut])
        with pytest.raises(StoreFormatError):
            load_snapshot(path)

    def test_swapped_kinds_rejected(self, saved_run):
        _, _, run_dir = saved_run
        with pytest.raises(StoreFormatError, match="'task_snapshot'"):
            load_snapshot(run_dir / "backbone.bin")
        with pytest.raises(StoreFormatError, match="'backbone'"):
            load_backbone(run_dir / "snapshots" / "task_001.snap")

    def test_unknown_format_version_rejected(self, saved_run, tmp_path):
        _, _, run_dir = saved_run
        header, arrays = read_container(run_dir / "backbone.bin")
        write_container(tmp_path / "b.bin", {**header, "format_version": 2}, arrays)
        with pytest.raises(StoreFormatError, match="format_version"):
            load_backbone(tmp_path / "b.bin")
