"""Run-directory layout: manifest, CSV reports, snapshots, backbone.

A run directory is self-describing (manifest + config digest + seed
reproduce it exactly) and deterministic: rerunning the same config and seed
yields byte-identical files.  Nothing here writes wall-clock time.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .backbone import BackboneState
from .config import ConfigError, _typed, arch_dict, parse_arch
from .driver import MODES, EpochLogEntry, RunResult, TaskSnapshot, _frozen, run_id
from .growth import boundary_violation, ratio_label
from .store import StoreFormatError, read_container, write_container, write_text_atomic

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# snapshot / backbone containers
# ---------------------------------------------------------------------------

# record prefix -> (TaskSnapshot field, header flags it needs, grid-shaped);
# a grid record is [out, in] per layer like the claim bits, the rest [out]
_SNAPSHOT_RECORDS = {
    "claim": ("claim_bits", (), True),
    "claim_logits": ("claim_logits", ("has_logits",), True),
    "reuse": ("reuse_bits", ("has_reuse",), True),
    "reuse_logits": ("reuse_logits", ("has_logits", "has_reuse"), True),
    "norm_scale": ("norm_scale", ("has_norm",), False),
    "norm_shift": ("norm_shift", ("has_norm",), False),
}
# header flag -> the TaskSnapshot field whose presence it records
_SNAPSHOT_FLAGS = {"has_reuse": "reuse_bits", "has_norm": "norm_scale",
                   "has_logits": "claim_logits"}


def save_snapshot(snapshot: TaskSnapshot, path: str | Path) -> None:
    layers = sorted(snapshot.claim_bits)
    flags = {flag: getattr(snapshot, attr) is not None for flag, attr in _SNAPSHOT_FLAGS.items()}
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "task_snapshot",
        "task_id": snapshot.task_id,
        "n_classes": snapshot.n_classes,
        "probe_fingerprint": snapshot.probe_fingerprint,
        "layers": layers,
        # mask granularity tag: claim and reuse masks are
        # kernel-wise grids bound to each layer's (out, in) capacity
        "mask_granularity": "kernel",
        **flags,
    }
    arrays: dict[str, np.ndarray] = {
        "head_weight": snapshot.head_weight,
        "head_bias": snapshot.head_bias,
        "probe_images": snapshot.probe_images,
    }
    for prefix, (attr, needs, _) in _SNAPSHOT_RECORDS.items():
        if all(flags[f] for f in needs):
            per_layer = getattr(snapshot, attr)
            arrays.update((f"{prefix}/{name}", per_layer[name]) for name in layers)
    write_container(path, header, arrays)


def _read_kind(path: str | Path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """A container's header and arrays, after checking its version and kind."""
    header, arrays = read_container(path)
    found = (header.get("format_version"), header.get("kind"))
    if found != (FORMAT_VERSION, kind):
        raise StoreFormatError(f"{path}: expected format_version {FORMAT_VERSION} "
                               f"kind {kind!r}, got {found[0]!r} kind {found[1]!r}")
    return header, arrays


def _field(header: dict, key: str, path: str | Path):
    if key not in header:
        raise StoreFormatError(f"{path}: header lacks {key!r}")
    return header[key]


# header key -> the JSON type load_snapshot needs; "layers" holds str names
_SNAPSHOT_TYPES = {"layers": list, "task_id": int, "n_classes": int,
                   "probe_fingerprint": str, **dict.fromkeys(_SNAPSHOT_FLAGS, bool)}


def _array(arrays: dict[str, np.ndarray], key: str, path: str | Path,
           shape: tuple) -> np.ndarray:
    """The ``key`` record, checked against ``shape`` (None matches any extent)."""
    if key not in arrays:
        raise StoreFormatError(f"{path}: no array record {key!r}")
    arr = arrays[key]
    if len(arr.shape) != len(shape) or any(
            want is not None and got != want for got, want in zip(arr.shape, shape)):
        raise StoreFormatError(f"{path}: array {key!r} has shape {arr.shape}, "
                               f"expected {shape}")
    return arr


def load_snapshot(path: str | Path) -> TaskSnapshot:
    header, arrays = _read_kind(path, "task_snapshot")
    fields = {key: _field(header, key, path) for key in _SNAPSHOT_TYPES}
    for key, types in _SNAPSHOT_TYPES.items():
        value = fields[key]
        if not _typed(value, types) or key == "layers" and not all(
                isinstance(name, str) for name in value):
            raise StoreFormatError(f"{path}: header {key!r} has the wrong type: {value!r}")
    layers, n_classes = fields["layers"], fields["n_classes"]

    def per_layer(prefix: str, grid: bool) -> dict[str, np.ndarray]:
        # claim bits fix each layer's [out, in] grid; the rest must match it
        out = {}
        for name in layers:
            claim = _array(arrays, f"claim/{name}", path, (None, None))
            shape = claim.shape if grid else claim.shape[:1]
            out[name] = _frozen(_array(arrays, f"{prefix}/{name}", path, shape))
        return out

    records = {
        attr: per_layer(prefix, grid) if all(fields[f] for f in needs) else None
        for prefix, (attr, needs, grid) in _SNAPSHOT_RECORDS.items()
    }
    return TaskSnapshot(
        task_id=fields["task_id"],
        n_classes=n_classes,
        head_weight=_frozen(_array(arrays, "head_weight", path, (n_classes, None))),
        head_bias=_frozen(_array(arrays, "head_bias", path, (n_classes,))),
        probe_images=_frozen(_array(arrays, "probe_images", path, (None,) * 4)),
        probe_fingerprint=fields["probe_fingerprint"],
        **records,
    )


_LAYER_ARRAYS = ("weights", "bias", "slot_state", "slot_owner", "kernel_state", "kernel_owner")


def save_backbone(backbone: BackboneState, path: str | Path) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "backbone",
        "arch": arch_dict(backbone.arch),
    }
    arrays: dict[str, np.ndarray] = {}
    for layer in backbone.layers:
        n = layer.spec.name
        for attr in _LAYER_ARRAYS:
            arrays[f"{n}/{attr}"] = getattr(layer, attr)
    write_container(path, header, arrays)


def load_backbone(path: str | Path, last_task: int | None = None) -> BackboneState:
    """A saved backbone, held to ``growth.boundary_violation``'s rules and its
    derived ``kernel_state``; with no ``last_task`` owners are unbounded."""
    header, arrays = _read_kind(path, "backbone")
    try:
        arch = parse_arch(_field(header, "arch", path), "arch")
    except ConfigError as exc:
        raise StoreFormatError(f"{path}: bad arch in header: {exc}") from None
    backbone = BackboneState(arch)
    for layer in backbone.layers:
        for attr in _LAYER_ARRAYS:
            key, target = f"{layer.spec.name}/{attr}", getattr(layer, attr)
            arr = _array(arrays, key, path, target.shape)
            if arr.dtype != target.dtype:
                raise StoreFormatError(f"{path}: array {key!r} has "
                                       f"dtype {arr.dtype}, expected {target.dtype}")
            if attr != "kernel_state":
                target[:] = arr
    last = np.iinfo(np.int32).max if last_task is None else last_task
    violation = boundary_violation(backbone, last)
    if violation:
        raise StoreFormatError(f"{path}: {violation}")
    for layer in backbone.layers:
        key, derived = f"{layer.spec.name}/kernel_state", layer.kernel_state
        for j, i in np.argwhere(arrays[key] != derived)[:1]:
            raise StoreFormatError(f"{path}: {key}[{j}, {i}] = {arrays[key][j, i]}: "
                                   f"slot_state and kernel_owner derive {derived[j, i]}")
    return backbone


# ---------------------------------------------------------------------------
# manifest and CSV reports
# ---------------------------------------------------------------------------

def build_manifest(result: RunResult) -> dict:
    ids = result.task_ids
    return {
        "format_version": FORMAT_VERSION,
        "run_id": run_id(result.mode, result.config),
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
        "gate_log": [asdict(e) for e in result.gate_log],
        "forgetting": result.forgetting_log,
    }


def _csv(manifests: list[dict], tail: str, row) -> str:
    """One ``row(manifest, size labels)`` per manifest, under the columns
    method, 1..n_tasks (the first manifest's) and ``tail``."""
    n_tasks = manifests[0]["n_tasks"]
    lines = ["method," + ",".join(str(i) for i in range(1, n_tasks + 1)) + tail]
    for m in manifests:
        labels = [m["ratio_labels"][str(t)] for t in m["task_ids"]]
        lines.append(",".join([m["mode"], *row(m, labels)]))
    return "\n".join(lines) + "\n"


def accuracy_csv(manifests: list[dict]) -> str:
    """Test accuracy per task, the average and the final model size."""
    return _csv(manifests, ",avg,model_size", lambda m, labels: [
        *(f"{m['test_accuracies'][str(t)]:.4f}" for t in m["task_ids"]),
        f"{m['avg_accuracy']:.4f}", labels[-1]])


def size_csv(manifests: list[dict]) -> str:
    """Model size after each task and at the end."""
    return _csv(manifests, ",model_size", lambda m, labels: [*labels, labels[-1]])


def curves_csv(epoch_log: list[EpochLogEntry]) -> str:
    lines = ["task_id,phase,epoch,loss,val_accuracy,growth_ratio"]
    lines += [f"{e.task_id},{e.phase},{e.epoch},{e.loss:.6f},"
              f"{e.val_accuracy:.4f},{e.growth_ratio:.6f}" for e in epoch_log]
    return "\n".join(lines) + "\n"


# manifest key -> the JSON type its readers need (a bool is not a number);
# each per-task key maps str(task id) to such a value for every task id
_MANIFEST_TYPES = {"format_version": int, "seed": int, "n_tasks": int, "mode": str,
                   "config_digest": str, "avg_accuracy": (int, float)}
_ACCURACIES = ("test_accuracies", "val_accuracies")   # each in [0, 1]
_PER_TASK_TYPES = {**dict.fromkeys(_ACCURACIES, (int, float)), "ratio_labels": str}


def read_manifest(run_dir: str | Path) -> dict:
    """A run directory's manifest: FileNotFoundError when it has none,
    StoreFormatError when its schema or values are not what ``build_manifest``
    writes (``avg_accuracy`` is ``RunResult.avg_accuracy``, bit for bit)."""
    path = Path(run_dir) / "manifest.json"
    try:   # ValueError: not JSON or a bad value; KeyError: a key missing; TypeError: a bad type
        m = json.loads(path.read_text())
        if not isinstance(m, dict):
            raise TypeError(f"{type(m).__name__}, not an object")
        ids = m["task_ids"]
        if not isinstance(ids, list) or not ids or len(ids) != m["n_tasks"]:
            raise ValueError(f"task_ids {ids!r} are not n_tasks = {m['n_tasks']!r} ids")
        values = [(key, m[key], types) for key, types in _MANIFEST_TYPES.items()]
        values += [("task id", t, int) for t in ids]
        per_task = ((key, m[key][str(t)], types)   # looked up once the ids pass
                    for key, types in _PER_TASK_TYPES.items() for t in ids)
        for key, value, types in itertools.chain(values, per_task):
            if not _typed(value, types):
                raise TypeError(f"{key} has the wrong type: {value!r}")
            if key in _ACCURACIES and not 0.0 <= value <= 1.0:   # NaN fails too
                raise ValueError(f"{key} holds {value}, outside [0, 1]")
        for key, allowed in (("format_version", (FORMAT_VERSION,)), ("mode", MODES)):
            if m[key] not in allowed:
                raise ValueError(f"{key} {m[key]!r} is not one of {allowed}")
        if m["avg_accuracy"] != float(np.mean([m["test_accuracies"][str(t)] for t in ids])):
            raise ValueError(f"avg_accuracy {m['avg_accuracy']!r} is not the mean test accuracy")
    except (ValueError, KeyError, TypeError) as e:
        raise StoreFormatError(
            f"malformed manifest {path}: {type(e).__name__}: {e}") from None
    return m


def save_run(result: RunResult, run_dir: str | Path) -> Path:
    """Write the run directory.  The manifest comes last, so a directory
    that has one holds a complete run."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(result)
    write_text_atomic(run_dir / "accuracy.csv", accuracy_csv([manifest]))
    write_text_atomic(run_dir / "size.csv", size_csv([manifest]))
    write_text_atomic(run_dir / "curves.csv", curves_csv(result.epoch_log))
    if result.ledger is not None:
        write_text_atomic(run_dir / "ledger.csv", result.ledger.to_csv())
    if result.backbone is not None:
        save_backbone(result.backbone, run_dir / "backbone.bin")
    if result.snapshots:
        snap_dir = run_dir / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        for t, snapshot in sorted(result.snapshots.items()):
            save_snapshot(snapshot, snap_dir / f"task_{t:03d}.snap")
    write_text_atomic(run_dir / "manifest.json",
                      json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return run_dir


def load_run(run_dir: str | Path) -> tuple[dict, BackboneState | None, dict[int, TaskSnapshot]]:
    run_dir = Path(run_dir)
    manifest = read_manifest(run_dir)
    backbone = None
    if (run_dir / "backbone.bin").exists():
        backbone = load_backbone(run_dir / "backbone.bin", max(manifest["task_ids"]))
    snapshots = [load_snapshot(p) for p in sorted((run_dir / "snapshots").glob("task_*.snap"))]
    ids = [snap.task_id for snap in snapshots]
    if backbone is not None and ids != manifest["task_ids"]:
        # a run with a backbone saved one snapshot per task, in task order
        raise StoreFormatError(f"{run_dir}: snapshot task ids {ids} differ from "
                               f"the manifest's task_ids {manifest['task_ids']}")
    return manifest, backbone, {snap.task_id: snap for snap in snapshots}
