"""Run-directory layout: manifest, CSV reports, snapshots, backbone.

A run directory is self-describing (manifest + config digest + seed
reproduce it exactly) and deterministic: rerunning the same config and seed
yields byte-identical files.  Nothing here writes wall-clock time.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .backbone import ArchSpec, BackboneState, ConvLayerSpec
from .driver import EpochLogEntry, RunResult, TaskSnapshot, _frozen
from .growth import ratio_label
from .store import StoreFormatError, read_container, write_container, write_text_atomic

FORMAT_VERSION = 1


def arch_from_dict(d: dict) -> ArchSpec:
    prev = d["in_channels"]
    specs = []
    for ld in d["layers"]:
        specs.append(ConvLayerSpec(
            ld["name"], prev, ld["capacity"], ld["seed_channels"],
            ld["kernel"], ld["stride"], ld["pad"], ld["pool"],
        ))
        prev = ld["capacity"]
    return ArchSpec(d["image_size"], d["in_channels"], tuple(specs),
                    group_norm=d["group_norm"])


# ---------------------------------------------------------------------------
# snapshot / backbone containers
# ---------------------------------------------------------------------------

def save_snapshot(snapshot: TaskSnapshot, path: str | Path) -> None:
    layers = sorted(snapshot.claim_bits)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "task_snapshot",
        "task_id": snapshot.task_id,
        "n_classes": snapshot.n_classes,
        "probe_fingerprint": snapshot.probe_fingerprint,
        "has_reuse": snapshot.reuse_bits is not None,
        "has_norm": snapshot.norm_scale is not None,
        "has_logits": snapshot.claim_logits is not None,
        "layers": layers,
        # mask granularity tag: claim and reuse masks are
        # kernel-wise grids bound to each layer's (out, in) capacity
        "mask_granularity": "kernel",
    }
    arrays: dict[str, np.ndarray] = {
        "head_weight": snapshot.head_weight,
        "head_bias": snapshot.head_bias,
        "probe_images": snapshot.probe_images,
    }
    for name in layers:
        arrays[f"claim/{name}"] = snapshot.claim_bits[name]
        if snapshot.claim_logits is not None:
            arrays[f"claim_logits/{name}"] = snapshot.claim_logits[name]
        if snapshot.reuse_bits is not None:
            arrays[f"reuse/{name}"] = snapshot.reuse_bits[name]
        if snapshot.reuse_logits is not None:
            arrays[f"reuse_logits/{name}"] = snapshot.reuse_logits[name]
        if snapshot.norm_scale is not None:
            arrays[f"norm_scale/{name}"] = snapshot.norm_scale[name]
            arrays[f"norm_shift/{name}"] = snapshot.norm_shift[name]
    write_container(path, header, arrays)


def _read_kind(path: str | Path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """A container's header and arrays, after checking its version and kind."""
    header, arrays = read_container(path)
    found = (header.get("format_version"), header.get("kind"))
    if found != (FORMAT_VERSION, kind):
        raise StoreFormatError(f"{path}: expected format_version {FORMAT_VERSION} "
                               f"kind {kind!r}, got {found[0]!r} kind {found[1]!r}")
    return header, arrays


def load_snapshot(path: str | Path) -> TaskSnapshot:
    header, arrays = _read_kind(path, "task_snapshot")
    layers = header["layers"]
    reuse = None
    if header["has_reuse"]:
        reuse = {name: _frozen(arrays[f"reuse/{name}"]) for name in layers}
    norm_scale = norm_shift = None
    if header["has_norm"]:
        norm_scale = {name: _frozen(arrays[f"norm_scale/{name}"]) for name in layers}
        norm_shift = {name: _frozen(arrays[f"norm_shift/{name}"]) for name in layers}
    reuse_logits = claim_logits = None
    if header.get("has_logits"):
        claim_logits = {name: _frozen(arrays[f"claim_logits/{name}"]) for name in layers}
        if header["has_reuse"]:
            reuse_logits = {name: _frozen(arrays[f"reuse_logits/{name}"]) for name in layers}
    return TaskSnapshot(
        task_id=header["task_id"],
        n_classes=header["n_classes"],
        reuse_bits=reuse,
        claim_bits={name: _frozen(arrays[f"claim/{name}"]) for name in layers},
        head_weight=_frozen(arrays["head_weight"]),
        head_bias=_frozen(arrays["head_bias"]),
        norm_scale=norm_scale,
        norm_shift=norm_shift,
        probe_images=_frozen(arrays["probe_images"]),
        probe_fingerprint=header["probe_fingerprint"],
        reuse_logits=reuse_logits,
        claim_logits=claim_logits,
    )


def save_backbone(backbone: BackboneState, arch_dict: dict, path: str | Path) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "backbone",
        "arch": arch_dict,
    }
    arrays: dict[str, np.ndarray] = {}
    for layer in backbone.layers:
        n = layer.spec.name
        arrays[f"{n}/weights"] = layer.weights
        arrays[f"{n}/bias"] = layer.bias
        arrays[f"{n}/slot_state"] = layer.slot_state
        arrays[f"{n}/slot_owner"] = layer.slot_owner
        arrays[f"{n}/kernel_state"] = layer.kernel_state
        arrays[f"{n}/kernel_owner"] = layer.kernel_owner
    write_container(path, header, arrays)


def load_backbone(path: str | Path) -> BackboneState:
    header, arrays = _read_kind(path, "backbone")
    backbone = BackboneState(arch_from_dict(header["arch"]))
    for layer in backbone.layers:
        n = layer.spec.name
        layer.weights[:] = arrays[f"{n}/weights"]
        layer.bias[:] = arrays[f"{n}/bias"]
        layer.slot_state[:] = arrays[f"{n}/slot_state"]
        layer.slot_owner[:] = arrays[f"{n}/slot_owner"]
        layer.kernel_state[:] = arrays[f"{n}/kernel_state"]
        layer.kernel_owner[:] = arrays[f"{n}/kernel_owner"]
    return backbone


# ---------------------------------------------------------------------------
# manifest and CSV reports
# ---------------------------------------------------------------------------

def build_manifest(result: RunResult) -> dict:
    ids = result.task_ids
    return {
        "format_version": FORMAT_VERSION,
        "run_id": result.run_id,
        "mode": result.mode,
        "seed": result.config.seed,
        "config_digest": result.config.digest,
        "config": result.config.resolved,
        "n_tasks": len(ids),
        "task_ids": ids,
        "test_accuracies": {str(t): result.test_accuracies[t] for t in ids},
        "val_accuracies": {str(t): result.val_accuracies[t] for t in ids},
        "targets": {str(t): result.targets[t] for t in sorted(result.targets)},
        "avg_accuracy": result.avg_accuracy,
        "ratios": {str(t): result.ratios[t] for t in ids},
        "ratio_labels": {str(t): ratio_label(result.ratios[t]) for t in ids},
        "gate_log": [
            {
                "task_id": e.task_id,
                "pick_accuracy": e.pick_accuracy,
                "target_accuracy": e.target_accuracy,
                "expanded": e.expanded,
            }
            for e in result.gate_log
        ],
        "forgetting": result.forgetting_log,
    }


def accuracy_csv(rows: list[dict], n_tasks: int) -> str:
    """rows: {"method", "accuracies" (by task order), "avg", "size_label"}."""
    header = "method," + ",".join(str(i) for i in range(1, n_tasks + 1)) + ",avg,model_size"
    lines = [header]
    for row in rows:
        accs = ",".join(f"{a:.4f}" for a in row["accuracies"])
        lines.append(f"{row['method']},{accs},{row['avg']:.4f},{row['size_label']}")
    return "\n".join(lines) + "\n"


def size_csv(rows: list[dict], n_tasks: int) -> str:
    """rows: {"method", "labels" (per-task size labels), "final_label"}."""
    header = "method," + ",".join(str(i) for i in range(1, n_tasks + 1)) + ",model_size"
    lines = [header]
    for row in rows:
        lines.append(f"{row['method']}," + ",".join(row["labels"]) + f",{row['final_label']}")
    return "\n".join(lines) + "\n"


def curves_csv(epoch_log: list[EpochLogEntry]) -> str:
    lines = ["task_id,phase,epoch,loss,val_accuracy,growth_ratio"]
    for e in epoch_log:
        lines.append(
            f"{e.task_id},{e.phase},{e.epoch},{e.loss:.6f},"
            f"{e.val_accuracy:.4f},{e.growth_ratio:.6f}"
        )
    return "\n".join(lines) + "\n"


def report_rows(manifest: dict) -> tuple[dict, dict]:
    ids = manifest["task_ids"]
    labels = [manifest["ratio_labels"][str(t)] for t in ids]
    acc_row = {
        "method": manifest["mode"],
        "accuracies": [manifest["test_accuracies"][str(t)] for t in ids],
        "avg": manifest["avg_accuracy"],
        "size_label": labels[-1],
    }
    size_row = {"method": manifest["mode"], "labels": labels, "final_label": labels[-1]}
    return acc_row, size_row


def save_run(result: RunResult, run_dir: str | Path) -> Path:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(result)
    write_text_atomic(run_dir / "manifest.json",
                      json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    acc_row, size_row = report_rows(manifest)
    n = manifest["n_tasks"]
    write_text_atomic(run_dir / "accuracy.csv", accuracy_csv([acc_row], n))
    write_text_atomic(run_dir / "size.csv", size_csv([size_row], n))
    write_text_atomic(run_dir / "curves.csv", curves_csv(result.epoch_log))
    if result.ledger is not None:
        write_text_atomic(run_dir / "ledger.csv", result.ledger.to_csv())
    if result.backbone is not None:
        save_backbone(result.backbone, result.config.resolved["arch"],
                      run_dir / "backbone.bin")
    if result.snapshots:
        snap_dir = run_dir / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        for t, snapshot in sorted(result.snapshots.items()):
            save_snapshot(snapshot, snap_dir / f"task_{t:03d}.snap")
    return run_dir


def load_run(run_dir: str | Path) -> tuple[dict, BackboneState | None, dict[int, TaskSnapshot]]:
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"missing manifest: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    backbone = None
    if (run_dir / "backbone.bin").exists():
        backbone = load_backbone(run_dir / "backbone.bin")
    snapshots: dict[int, TaskSnapshot] = {}
    snap_dir = run_dir / "snapshots"
    if snap_dir.exists():
        for path in sorted(snap_dir.glob("task_*.snap")):
            snap = load_snapshot(path)
            snapshots[snap.task_id] = snap
    return manifest, backbone, snapshots
