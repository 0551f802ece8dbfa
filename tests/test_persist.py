import dataclasses
import functools
import json
import math
import operator
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growcl import persist
from growcl.cli import main
from growcl.backbone import SlotState
from growcl.config import arch_dict, parse_arch, parse_config_data
from growcl.driver import (
    TaskSnapshot, build_tasks, evaluate, forgetting_check, run_id, run_pipeline,
)
from growcl.growth import boundary_violation
from growcl.persist import (
    build_manifest,
    load_backbone,
    load_run,
    load_snapshot,
    read_manifest,
    save_backbone,
    save_run,
    save_snapshot,
)
from growcl.store import StoreFormatError, read_container, write_container


def tiny_config(seed=0, group_norm=False, n_tasks=2):
    return parse_config_data({
        "seed": seed,
        "arch": {"group_norm": group_norm, "layers": [
            {"capacity": 6, "seed_channels": 2},
            {"capacity": 8, "seed_channels": 2},
        ]},
        "tasks": {"n_tasks": n_tasks, "samples_per_class": 40},
        "epochs": {"task1": 6, "pick": 4, "expand": 5, "scratch": 6},
    })


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    cfg = tiny_config()
    result = run_pipeline(cfg, "grown")
    run_dir = tmp_path_factory.mktemp("runs") / run_id(result.mode, cfg)
    save_run(result, run_dir)
    return cfg, result, run_dir


class TestRoundTrips:
    def test_snapshot_round_trip(self, saved_run, tmp_path):
        _, result, _ = saved_run
        snap = result.snapshots[1]
        save_snapshot(snap, tmp_path / "s.snap")
        back = load_snapshot(tmp_path / "s.snap", result.backbone.arch)
        assert back.task_id == snap.task_id
        assert back.probe_fingerprint == snap.probe_fingerprint
        assert back.head_weight.tobytes() == snap.head_weight.tobytes()
        assert back.probe_images.tobytes() == snap.probe_images.tobytes()
        for name in snap.reuse_bits:
            assert back.reuse_bits[name].tobytes() == snap.reuse_bits[name].tobytes()

    def test_backbone_round_trip(self, saved_run, tmp_path):
        cfg, result, _ = saved_run
        save_backbone(result.backbone, tmp_path / "b.bin")
        back = load_backbone(tmp_path / "b.bin")
        for la, lb in zip(result.backbone.layers, back.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()
            assert la.slot_state.tobytes() == lb.slot_state.tobytes()
            assert la.kernel_owner.tobytes() == lb.kernel_owner.tobytes()

    def test_arch_dict_round_trip(self, saved_run):
        cfg, _, _ = saved_run
        assert arch_dict(cfg.arch) == cfg.resolved["arch"]
        assert parse_arch(cfg.resolved["arch"], "arch") == cfg.arch


# run name -> (mode, group_norm); each run has three tasks, so grown has
# at least one picked task after task 1
RUNS = {"grown": ("grown", False), "grow_only": ("grow_only", False),
        "grown-gn": ("grown", True)}


@pytest.fixture(scope="module", params=list(RUNS))
def mode_run(request):
    mode, group_norm = RUNS[request.param]
    cfg = tiny_config(group_norm=group_norm, n_tasks=3)
    return cfg, run_pipeline(cfg, mode)


def assert_same_snapshot(a: TaskSnapshot, b: TaskSnapshot) -> None:
    for f in dataclasses.fields(TaskSnapshot):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            x, y = {"": x}, {"": y}
        if not isinstance(x, dict):
            assert x == y, f.name
            continue
        assert isinstance(y, dict) and x.keys() == y.keys(), f.name
        for key in x:
            assert (x[key].dtype, x[key].shape) == (y[key].dtype, y[key].shape), f.name
            assert x[key].tobytes() == y[key].tobytes(), (f.name, key)


class TestModeRuns:
    def test_snapshot_round_trip(self, mode_run, tmp_path):
        cfg, result = mode_run
        for t, snap in result.snapshots.items():
            save_snapshot(snap, tmp_path / "a.snap")
            back = load_snapshot(tmp_path / "a.snap", cfg.arch)
            assert_same_snapshot(back, snap)
            save_snapshot(back, tmp_path / "b.snap")
            assert (tmp_path / "a.snap").read_bytes() == (tmp_path / "b.snap").read_bytes()
            # every optional record the mode writes is really read back
            assert (back.reuse_bits is not None) == (result.mode == "grown")
            assert (back.norm_scale is not None) == cfg.arch.group_norm

    def test_backbone_keeps_the_boundary_rules(self, mode_run, tmp_path):
        _, result = mode_run
        assert boundary_violation(result.backbone, max(result.task_ids)) is None
        save_backbone(result.backbone, tmp_path / "b.bin")
        load_backbone(tmp_path / "b.bin", max(result.task_ids))
        # below the latest task that owns anything, that task's owners are too high
        top = max(int(l.kernel_owner.max()) for l in result.backbone.layers)
        with pytest.raises(StoreFormatError, match=f"no owner is above the last task {top - 1}"):
            load_backbone(tmp_path / "b.bin", top - 1)

    def test_val_accuracy_is_the_frozen_tasks(self, mode_run):
        cfg, result = mode_run
        tasks = build_tasks(cfg)
        assert sorted(result.val_accuracies) == [task.task_id for task in tasks]
        for task in tasks:
            t = task.task_id
            assert evaluate(t, result.backbone, result.snapshots[t], task.val) == \
                result.val_accuracies[t]


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
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            # a fresh parse for each run, so the rerun trains its own scratch
            # targets instead of reading the first run's from the config's memo
            r1 = run_pipeline(tiny_config(seed=1), "grown")
            r2 = run_pipeline(tiny_config(seed=1), "grown")
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


class TestManifest:
    def test_read_manifest_is_the_written_json(self, saved_run):
        _, _, run_dir = saved_run
        assert read_manifest(run_dir) == json.loads((run_dir / "manifest.json").read_text())

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path)

    @pytest.mark.parametrize("rewrite, detail", [
        (lambda m: "not json {", ""),
        (lambda m: json.dumps([m]), ""),
        (lambda m: json.dumps({**m, "task_ids": []}), ""),
        (lambda m: json.dumps({**m, "n_tasks": 3}), ""),
        (lambda m: json.dumps({**m, "test_accuracies": {"1": m["test_accuracies"]["1"]}}), ""),
        (lambda m: json.dumps({**m, "task_ids": [1, 2.0]}), "task_ids is not what the run derives"),
        (lambda m: json.dumps({**m, "task_ids": [1, 3], **{
            key: {"1": m[key]["1"], "3": m[key]["2"]}
            for key in ("test_accuracies", "val_accuracies", "ratios")}}), "KeyError: '2'"),
        (lambda m: json.dumps({**m, "note": 1}), "key 'note' is unknown"),
    ], ids=["not-json", "json-list", "no-task-ids", "n-tasks-not-len-task-ids",
            "id-without-accuracy", "float-task-id", "ids-not-from-1", "unknown-key"])
    def test_malformed_manifest_rejected(self, saved_run, tmp_path, rewrite, detail):
        _, _, run_dir = saved_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        (tmp_path / "manifest.json").write_text(rewrite(manifest))
        with pytest.raises(StoreFormatError, match=f"^malformed manifest .*{detail}"):
            load_run(tmp_path)

    def test_crash_while_saving_leaves_no_manifest(self, saved_run, tmp_path, monkeypatch):
        _, result, _ = saved_run
        written = []

        def failing_save_snapshot(snapshot, path):
            if written:
                raise OSError("disk full")
            written.append(path)
            save_snapshot(snapshot, path)

        monkeypatch.setattr(persist, "save_snapshot", failing_save_snapshot)
        with pytest.raises(OSError, match="disk full"):
            save_run(result, tmp_path / "run")
        assert len(written) == 1 and written[0].exists()
        assert not (tmp_path / "run" / "manifest.json").exists()
        assert main(["report", str(tmp_path / "run"), "--out", str(tmp_path / "report")]) == 2


# edits of the saved grown run's manifest that only the derived-key rules
# catch -> the rule's message
GROWN_EDITS = {
    "pass-as-1": (lambda m: m["forgetting"][1]["passes"].update({"1": 1}), "forgetting is not"),
    "failed-pass": (lambda m: m["forgetting"][1]["passes"].update({"2": False}),
                    "forgetting is not"),
    "boundary-dropped": (lambda m: m["forgetting"].pop(), "forgetting is not"),
    "target-as-int-1": (lambda m: m["targets"].update({"1": 1}), "targets[1] has the wrong type"),
    "target-of-task-3": (lambda m: m["targets"].update({"3": 0.5}),
                         "targets is not what the run derives"),
    "expanded-flipped": (lambda m: m["gate_log"][0].update(expanded=not m["gate_log"][0][
        "expanded"]), "gate_log is not what the run derives"),
    "gate-task-id-float": (lambda m: m["gate_log"][0].update(task_id=2.0),
                           "gate_log is not what the run derives"),
    "gate-target-not-targets": (lambda m: m["gate_log"][0].update(target_accuracy=0.5),
                                "gate_log is not what the run derives"),
    "gate-entry-extra-key": (lambda m: m["gate_log"][0].update(note=""),
                             "gate_log is not what the run derives"),
}


@pytest.fixture(scope="module")
def scratch_run_dir(tmp_path_factory):
    cfg = tiny_config()
    result = run_pipeline(cfg, "scratch")
    return save_run(result, tmp_path_factory.mktemp("runs") / run_id(result.mode, cfg))


class TestDerivedManifestKeys:
    """The forgetting log, targets, gate log and a scratch run's sizes are
    what the run derives, type for type."""

    @pytest.mark.parametrize("name", list(GROWN_EDITS))
    def test_grown_edit_rejected(self, saved_run, tmp_path, name):
        _, _, run_dir = saved_run
        shutil.copytree(run_dir, tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit, message = GROWN_EDITS[name]
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match=re.escape(message)):
            load_run(tmp_path / "run")

    @pytest.mark.parametrize("key, value", [
        ("ratios", {"1": 0.5, "2": 2.0}), ("ratios", {"1": 1.0, "2": 2}),
        ("targets", {"1": 0.5, "2": 0.5}), ("gate_log", [{}]),
        ("forgetting", [{"after_task": 1, "passes": {"1": True}}]),
    ], ids=["ratio-1-half", "ratio-2-int", "targets", "gate-log", "forgetting"])
    def test_scratch_edit_rejected(self, scratch_run_dir, tmp_path, key, value):
        shutil.copytree(scratch_run_dir, tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["ratios"] == {"1": 1.0, "2": 2.0} and manifest["targets"] == {}
        load_run(tmp_path / "run")
        path.write_text(json.dumps({**manifest, key: value}))
        with pytest.raises(StoreFormatError, match=re.escape(f"{key} is not what the run derives")):
            load_run(tmp_path / "run")

    def test_targets_are_the_configs(self, saved_run, tmp_path):
        # the same run, as if its config had set the targets it derived
        _, _, run_dir = saved_run
        shutil.copytree(run_dir, tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        config = {**manifest["config"], "target_accuracy": list(manifest["targets"].values())}
        cfg = parse_config_data(config)
        manifest.update(config=cfg.resolved, config_digest=cfg.digest,
                        run_id=run_id(manifest["mode"], cfg))
        path.write_text(json.dumps(manifest))
        read_manifest(tmp_path / "run")
        manifest["targets"]["1"] = 0.5   # a fraction, but not the config's
        path.write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="targets is not what the run derives"):
            read_manifest(tmp_path / "run")


class TestSnapshotSet:
    @pytest.mark.parametrize("change, found", [
        ("deleted-1", [2]), ("deleted-2", [1]), ("extra-3", [1, 2, 3]), ("duplicate-2", [1, 2, 2]),
    ], ids=["deleted-1", "deleted-2", "extra-3", "duplicate-2"])
    def test_snapshot_ids_must_match_the_manifest(self, saved_run, tmp_path, change, found):
        # a run with a backbone holds one snapshot per manifest task id
        _, _, run_dir = saved_run
        shutil.copytree(run_dir, tmp_path / "run")
        snaps = tmp_path / "run" / "snapshots"
        kind, task = change.split("-")
        if kind == "deleted":
            (snaps / f"task_00{task}.snap").unlink()
        else:
            header, arrays = read_container(snaps / "task_002.snap")
            write_container(snaps / "task_003.snap", {**header, "task_id": int(task)}, arrays)
        message = f"snapshot task ids {found} differ from the manifest's task_ids [1, 2]"
        with pytest.raises(StoreFormatError, match=re.escape(message)):
            load_run(tmp_path / "run")


# format-2 edit of task 2's snapshot header and records (of backbone.bin's
# for a name that starts "backbone-") -> (how, the key it names); at format 1
# each of the first four loaded and then broke the cold forgetting check, and
# the extra claim record, layers key and kernel_state record are what format
# 1 wrote and format 2 drops
SNAPSHOT_EDITS = {
    "no-conv2-records": (lambda h, a: a.pop("reuse/conv2"), "no array record 'reuse/conv2'"),
    "reuse-grid-one-row-too-tall": (
        lambda h, a: a.update({"reuse/conv1": np.vstack([a["reuse/conv1"], a["reuse/conv1"][:1]])}),
        "'reuse/conv1' has shape"),
    "head-one-column-short": (lambda h, a: a.update(head_weight=a["head_weight"][:, :-1]),
                              "'head_weight' has shape"),
    "probe-images-one-row-short": (
        lambda h, a: a.update(probe_images=a["probe_images"][:, :, :-1]),
        "'probe_images' has shape"),
    "extra-claim-record": (lambda h, a: a.update({"claim/conv1": np.ones_like(a["reuse/conv1"])}),
                           "unknown array record 'claim/conv1'"),
    "extra-layers-header-key": (lambda h, a: h.update(layers=["conv1", "conv2"]),
                                "unknown header key 'layers'"),
    "backbone-extra-kernel-state-record": (
        lambda h, a: a.update({"conv1/kernel_state": np.zeros_like(a["conv1/kernel_owner"])}),
        "unknown array record 'conv1/kernel_state'"),
    "backbone-extra-note-header-key": (lambda h, a: h.update(note=""), "unknown header key 'note'"),
}


class TestFormat2:
    @pytest.mark.parametrize("name", list(SNAPSHOT_EDITS))
    def test_snapshot_is_loaded_against_the_arch(self, saved_run, tmp_path, name):
        _, _, run_dir = saved_run
        shutil.copytree(run_dir, tmp_path / "run")
        path = tmp_path / "run" / ("backbone.bin" if name.startswith("backbone-")
                                   else "snapshots/task_002.snap")
        header, arrays = read_container(path)
        edit, message = SNAPSHOT_EDITS[name]
        edit(header, arrays)
        write_container(path, header, arrays)
        with pytest.raises(StoreFormatError, match=re.escape(message)):
            load_run(tmp_path / "run")

    def test_norm_records_must_match_the_arch(self, saved_run, tmp_path):
        # a plain arch's snapshot that claims norm records, shaped right
        cfg, _, run_dir = saved_run
        shutil.copytree(run_dir, tmp_path / "run")
        path = tmp_path / "run" / "snapshots" / "task_002.snap"
        header, arrays = read_container(path)
        for spec in cfg.arch.layers:
            arrays[f"norm_scale/{spec.name}"] = np.ones(spec.out_channels)
            arrays[f"norm_shift/{spec.name}"] = np.zeros(spec.out_channels)
        write_container(path, {**header, "has_norm": True}, arrays)
        with pytest.raises(StoreFormatError, match="has_norm differs from the arch's group_norm"):
            load_run(tmp_path / "run")

    def test_ratios_must_be_the_backbones_sizes(self, saved_run, tmp_path):
        _, _, run_dir = saved_run
        shutil.copytree(run_dir, tmp_path / "run")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["ratios"]["1"] /= 2   # still a number in range
        (tmp_path / "run" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match=re.escape("ratios[1] is not backbone.bin's")):
            load_run(tmp_path / "run")

    def test_snapshots_without_a_backbone_rejected(self, saved_run, tmp_path):
        _, _, run_dir = saved_run
        shutil.copytree(run_dir, tmp_path / "run")
        (tmp_path / "run" / "backbone.bin").unlink()
        with pytest.raises(StoreFormatError, match="snapshots without a backbone.bin"):
            load_run(tmp_path / "run")

    def test_record_and_header_sets(self, mode_run, tmp_path):
        cfg, result = mode_run
        run_dir = save_run(result, tmp_path / "run")
        names = [spec.name for spec in cfg.arch.layers]
        header, arrays = read_container(run_dir / "backbone.bin")
        assert sorted(header) == ["arch", "format_version", "kind"]
        assert sorted(arrays) == sorted(f"{n}/{a}" for n in names for a in (
            "weights", "bias", "slot_state", "slot_owner", "kernel_owner"))
        prefixes = ["reuse"] * (result.mode == "grown") + ["norm_scale", "norm_shift"] * (
            cfg.arch.group_norm)
        for t in result.task_ids:
            header, arrays = read_container(run_dir / "snapshots" / f"task_{t:03d}.snap")
            assert sorted(header) == sorted([
                "format_version", "kind", "task_id", "n_classes", "probe_fingerprint",
                "has_reuse", "has_norm"])
            assert header["format_version"] == 2
            assert sorted(arrays) == sorted(["head_weight", "head_bias", "probe_images", *(
                f"{prefix}/{n}" for prefix in prefixes for n in names)])
        manifest = read_manifest(run_dir)
        assert manifest["format_version"] == 2 and "ratio_labels" not in manifest

    @pytest.mark.parametrize("file", ["manifest.json", "backbone.bin", "task_001.snap"])
    def test_format_1_rejected(self, saved_run, tmp_path, file):
        _, _, run_dir = saved_run
        shutil.copytree(run_dir, tmp_path / "run")
        if file == "manifest.json":
            manifest = json.loads((run_dir / file).read_text())
            (tmp_path / "run" / file).write_text(json.dumps({**manifest, "format_version": 1}))
            match = "format_version is not what the run derives: 1"
        else:   # a format-1 container starts with GCL1 and has no checksum
            path = next((tmp_path / "run").rglob(file))
            path.write_bytes(b"GCL1" + path.read_bytes()[4:-32])
            match = "bad magic b'GCL1'"
        with pytest.raises(StoreFormatError, match=re.escape(match)):
            load_run(tmp_path / "run")


SLOT_RULE = "a task boundary holds only UNGROWN, PRUNED or FIXED slots"


class TestMalformedFiles:
    @pytest.mark.parametrize("key, value, rule", [
        ("conv2/slot_state", 64, SLOT_RULE), ("conv1/slot_state", -1, SLOT_RULE),
    ], ids=["conv2/slot_state-64-SlotState", "conv1/slot_state--1-SlotState"])
    def test_out_of_range_state_rejected(self, saved_run, tmp_path, key, value, rule):
        # the slot rule rejects any value outside SlotState, at the last index
        _, _, run_dir = saved_run
        header, arrays = read_container(run_dir / "backbone.bin")
        arrays[key] = arrays[key].copy()
        arrays[key].flat[-1] = value
        write_container(tmp_path / "b.bin", header, arrays)
        index = ", ".join(str(n - 1) for n in arrays[key].shape)
        with pytest.raises(StoreFormatError, match=re.escape(f"{key}[{index}] = {value}: {rule}")):
            load_backbone(tmp_path / "b.bin")

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncated_snapshot_rejected(self, saved_run, tmp_path_factory, data):
        cfg, _, run_dir = saved_run
        raw = (run_dir / "snapshots" / "task_001.snap").read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1), label="cut")
        path = tmp_path_factory.mktemp("cut") / "task_001.snap"
        path.write_bytes(raw[:cut])
        with pytest.raises(StoreFormatError):
            load_snapshot(path, cfg.arch)

    def test_swapped_kinds_rejected(self, saved_run):
        cfg, _, run_dir = saved_run
        with pytest.raises(StoreFormatError, match="'task_snapshot'"):
            load_snapshot(run_dir / "backbone.bin", cfg.arch)
        with pytest.raises(StoreFormatError, match="'backbone'"):
            load_backbone(run_dir / "snapshots" / "task_001.snap")

    def test_unknown_format_version_rejected(self, saved_run, tmp_path):
        _, _, run_dir = saved_run
        header, arrays = read_container(run_dir / "backbone.bin")
        write_container(tmp_path / "b.bin", {**header, "format_version": 1}, arrays)
        with pytest.raises(StoreFormatError, match="format_version"):
            load_backbone(tmp_path / "b.bin")

    def test_missing_header_key_rejected(self, saved_run, tmp_path):
        cfg, _, _ = saved_run
        version = persist.FORMAT_VERSION
        write_container(tmp_path / "s.snap", {"format_version": version, "kind": "task_snapshot"},
                        {"head_bias": np.zeros(2)})
        with pytest.raises(StoreFormatError, match="'task_id'"):
            load_snapshot(tmp_path / "s.snap", cfg.arch)
        write_container(tmp_path / "b.bin", {"format_version": version, "kind": "backbone"}, {})
        with pytest.raises(StoreFormatError, match="'arch'"):
            load_backbone(tmp_path / "b.bin")

    @pytest.mark.parametrize("layer0, gn, match", [
        ({"capacity": 0, "seed_channels": 0}, False, r"capacity = 0 outside \[1, 4096\]"),
        ({}, "yes", "group_norm must be true/false"),
    ])
    def test_out_of_range_arch_rejected(self, saved_run, tmp_path, layer0, gn, match):
        # the header's arch is held to the ranges a config's arch is
        _, _, run_dir = saved_run
        header, arrays = read_container(run_dir / "backbone.bin")
        arch = header["arch"]
        arch["layers"][0].update(layer0)
        arch["group_norm"] = gn
        write_container(tmp_path / "b.bin", header, arrays)
        with pytest.raises(StoreFormatError, match=match):
            load_backbone(tmp_path / "b.bin")

    def test_missing_snapshot_flag_rejected(self, saved_run, tmp_path):
        # has_reuse is required like has_norm
        cfg, _, run_dir = saved_run
        header, arrays = read_container(run_dir / "snapshots" / "task_001.snap")
        del header["has_reuse"]
        write_container(tmp_path / "s.snap", header, arrays)
        with pytest.raises(StoreFormatError, match="'has_reuse'"):
            load_snapshot(tmp_path / "s.snap", cfg.arch)

    @pytest.mark.parametrize("key, value", [
        ("task_id", "x"), ("task_id", True), ("n_classes", 2.0), ("probe_fingerprint", None),
        ("has_reuse", "no"), ("has_norm", 0),
    ])
    def test_mistyped_snapshot_header_rejected(self, saved_run, tmp_path, key, value):
        # header values are held to one type table, as the manifest's are
        cfg, _, run_dir = saved_run
        header, arrays = read_container(run_dir / "snapshots" / "task_002.snap")
        write_container(tmp_path / "s.snap", {**header, key: value}, arrays)
        with pytest.raises(StoreFormatError, match=f"'{key}' has the wrong type"):
            load_snapshot(tmp_path / "s.snap", cfg.arch)

    def test_missing_array_record_rejected(self, saved_run, tmp_path):
        cfg, _, run_dir = saved_run
        header, arrays = read_container(run_dir / "snapshots" / "task_002.snap")
        del arrays["reuse/conv2"]
        write_container(tmp_path / "s.snap", header, arrays)
        with pytest.raises(StoreFormatError, match="'reuse/conv2'"):
            load_snapshot(tmp_path / "s.snap", cfg.arch)
        header, arrays = read_container(run_dir / "backbone.bin")
        del arrays["conv1/bias"]
        write_container(tmp_path / "b.bin", header, arrays)
        with pytest.raises(StoreFormatError, match="'conv1/bias'"):
            load_backbone(tmp_path / "b.bin")

    def test_wrong_array_shape_rejected(self, saved_run, tmp_path):
        cfg, _, run_dir = saved_run
        header, arrays = read_container(run_dir / "backbone.bin")
        arrays["conv2/weights"] = arrays["conv2/weights"][:, :-1]
        write_container(tmp_path / "b.bin", header, arrays)
        with pytest.raises(StoreFormatError, match="'conv2/weights' has shape"):
            load_backbone(tmp_path / "b.bin")
        # a shape that would broadcast into place is rejected too
        header, arrays = read_container(run_dir / "backbone.bin")
        arrays["conv1/bias"] = arrays["conv1/bias"][:1]
        write_container(tmp_path / "b.bin", header, arrays)
        with pytest.raises(StoreFormatError, match="'conv1/bias' has shape"):
            load_backbone(tmp_path / "b.bin")
        header, arrays = read_container(run_dir / "snapshots" / "task_001.snap")
        arrays["reuse/conv1"] = arrays["reuse/conv1"].T.copy()
        write_container(tmp_path / "s.snap", header, arrays)
        with pytest.raises(StoreFormatError, match="'reuse/conv1' has shape"):
            load_snapshot(tmp_path / "s.snap", cfg.arch)


# In the saved grown run, conv2's row 0 is PRUNED and row 1 is FIXED by task
# 1 with every kernel USED by task 1; the manifest's last task is 2.
def _set(**values):
    def mutate(arrays):
        for key, (index, value) in values.items():
            arrays[f"conv2/{key}"][index] = value
    return mutate


OWNER_RULE = "a kernel's owner is 0 or its row's task or a later one"
BOUNDARY_BREAKS = {
    "growing-slot": (_set(slot_state=(0, 1)), "slot_state[0] = 1: a task boundary holds only"),
    "fixed-slot-ungrown": (_set(slot_state=(1, 0)), "slot_owner[1] = 1: a FIXED slot"),
    "owned-pruned-slot": (_set(slot_owner=(0, 1)), "slot_owner[0] = 1: a FIXED slot"),
    "negative-owner": (_set(slot_owner=(0, -1)), "slot_owner[0] = -1: a FIXED slot"),
    "owner-in-pruned-row": (_set(kernel_owner=((0, 2), 1)),
                            "kernel_owner[0, 2] = 1: a row that is not FIXED has owners 0"),
    "used-before-its-row": (_set(slot_owner=(1, 2)), "kernel_owner[1, 0] = 1: " + OWNER_RULE),
    "negative-kernel-owner": (_set(kernel_owner=((1, 2), -1)),
                              "kernel_owner[1, 2] = -1: " + OWNER_RULE),
    "kernel-owner-after-last": (_set(kernel_owner=((1, 2), 3)),
                                "kernel_owner[1, 2] = 3: no owner is above the last task 2"),
    "slot-owner-after-last": (_set(slot_owner=(1, 3), kernel_owner=(1, 3)),
                              "slot_owner[1] = 3: no owner is above the last task 2"),
    "weight-in-pruned-row": (_set(weights=((0, 5, 2, 1), -0.0)),
                             "weights[0, 5, 2, 1] = -0.0: a row that is not FIXED"),
    "bias-in-pruned-row": (_set(bias=(0, 1e-300)), "bias[0] = 1e-300: a row that is not FIXED"),
}


class TestBoundaryRules:
    @pytest.mark.parametrize("name", list(BOUNDARY_BREAKS))
    def test_broken_rule_rejected_at_load(self, saved_run, tmp_path, name):
        # the message names the layer, the array and the index
        _, result, run_dir = saved_run
        layer = result.backbone.layers[1]
        assert list(layer.slot_state[:2]) == [SlotState.PRUNED, SlotState.FIXED]
        assert set(layer.kernel_owner[1]) == {1}
        mutate, message = BOUNDARY_BREAKS[name]
        shutil.copytree(run_dir, tmp_path / "run")
        header, arrays = read_container(run_dir / "backbone.bin")
        arrays = {key: arr.copy() for key, arr in arrays.items()}
        mutate(arrays)
        write_container(tmp_path / "run" / "backbone.bin", header, arrays)
        with pytest.raises(StoreFormatError, match=re.escape(f"backbone.bin: conv2/{message}")):
            load_run(tmp_path / "run")
        if "above the last" not in message:   # no manifest bounds a lone backbone
            with pytest.raises(StoreFormatError, match=re.escape(f"conv2/{message}")):
                load_backbone(tmp_path / "run" / "backbone.bin")


def _record_spans(raw: bytes) -> dict[str, tuple[int, int]]:
    """Byte range of each array record's payload in a container."""
    pos = 8 + struct.unpack_from("<I", raw, 4)[0]
    (n_records,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    spans = {}
    for _ in range(n_records):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        name = raw[pos + 2:pos + 2 + name_len].decode()
        code, ndim = struct.unpack_from("<BB", raw, pos + 2 + name_len)
        pos += 4 + name_len
        shape = struct.unpack_from(f"<{ndim}I", raw, pos)
        pos += 4 * ndim
        end = pos + math.prod(shape) * {0: 8, 1: 1, 2: 4, 3: 8}[code]
        spans[name] = (pos, end)
        pos = end
    return spans


class TestBitFlips:
    def test_single_bit_flips_raise_only_store_errors(self, saved_run, tmp_path):
        """Single-bit flips in the backbone and the snapshots, one at a time:
        every bit of the slot_state records and 100 seeded bits anywhere in
        each file.  Every container ends in the sha256 of its other bytes,
        so every flip is rejected."""
        _, _, run_dir = saved_run
        shutil.copytree(run_dir, tmp_path / "run")
        files = [tmp_path / "run" / "backbone.bin",
                 *sorted((tmp_path / "run" / "snapshots").glob("*.snap"))]
        spans = _record_spans(files[0].read_bytes())
        state_bits = [8 * byte + bit for key, (lo, hi) in spans.items()
                      if key.endswith("/slot_state")
                      for byte in range(lo, hi) for bit in range(8)]
        rng = np.random.default_rng(20)
        trials = [(files[0], b) for b in state_bits]
        for path in files:
            size = 8 * path.stat().st_size
            trials += [(path, b) for b in rng.choice(size, 100, replace=False)]
        for path, bit in trials:
            raw = path.read_bytes()
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            with pytest.raises(StoreFormatError, match="magic|checksum"):
                load_run(tmp_path / "run")
            path.write_bytes(raw)
        load_run(tmp_path / "run")


# what a manifest mutation writes: null, a string, numbers in and out of
# [0, 1], a bool, containers, a huge number, a numeric string and NaN
MANIFEST_VALUES = [None, "x", -1, 0, 1.5, True, [], {}, 1e30, "4", float("nan")]
# top-level keys every mutation under which must be rejected, except a
# validation accuracy set to 0, which is a real accuracy
MUST_REJECT = ("format_version", "mode", "avg_accuracy", "test_accuracies", "val_accuracies",
               "config_digest", "seed", "run_id", "ratios", "forgetting", "targets")


def _key_paths(obj, path=()):
    """The path of every dict key and list index under obj."""
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield path + (key,)
            yield from _key_paths(value, path + (key,))


class TestManifestMutations:
    def test_mutations_raise_only_store_errors(self, saved_run, tmp_path):
        """Seeded single edits of manifest.json, one at a time: delete one
        key or list item, or set it to one of MANIFEST_VALUES; an edit that
        leaves the JSON as it was (a true pass set to true) is skipped.  An
        edit may load, but nothing other than StoreFormatError is raised,
        every edit under a MUST_REJECT key is rejected, and a ``config`` edit
        loads only when the edited config has the manifest's digest."""
        _, _, run_dir = saved_run
        shutil.copytree(run_dir, tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        text = path.read_text()
        paths = list(_key_paths(json.loads(text)))
        # compared as JSON text, which tells true from 1 as == does not
        unedited = json.dumps(json.loads(text), sort_keys=True)
        rng = np.random.default_rng(21)
        rejected, loaded = set(), 0
        for _ in range(600):
            where = paths[rng.integers(len(paths))]
            pick = int(rng.integers(len(MANIFEST_VALUES) + 1))
            manifest = json.loads(text)
            parent = functools.reduce(operator.getitem, where[:-1], manifest)
            value = "deleted" if pick == len(MANIFEST_VALUES) else MANIFEST_VALUES[pick]
            if value == "deleted":
                del parent[where[-1]]
            else:
                parent[where[-1]] = value
            if json.dumps(manifest, sort_keys=True) == unedited:
                continue
            path.write_text(json.dumps(manifest))
            try:
                load_run(tmp_path / "run")
            except StoreFormatError:
                rejected.add(where[0])
            else:
                loaded += 1
                real_accuracy = where[0] == "val_accuracies" and len(where) == 2 and value == 0
                assert where[0] not in MUST_REJECT or real_accuracy, (where, value)
                if where[0] == "config":
                    digest = parse_config_data(manifest["config"]).digest
                    assert digest == manifest["config_digest"], (where, value)
        path.write_text(text)
        load_run(tmp_path / "run")
        assert set(MUST_REJECT) <= rejected and loaded > 0

    @pytest.mark.parametrize("edit", ["delete-default-momentum", "output-dir"])
    def test_config_edits_that_keep_the_digest_load(self, saved_run, tmp_path, edit):
        # a key that holds its default, and where the run was written, are
        # not part of what the digest names
        cfg, _, run_dir = saved_run
        shutil.copytree(run_dir, tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        if edit == "output-dir":
            manifest["config"]["output_dir"] = "elsewhere"
        else:
            assert cfg.momentum == parse_config_data({}).momentum
            del manifest["config"]["momentum"]
        path.write_text(json.dumps(manifest))
        assert load_run(tmp_path / "run")[0] == manifest
