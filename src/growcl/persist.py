"""Run-directory layout (format 2): manifest, CSV reports, snapshots, backbone.

A run directory is self-describing (manifest + config digest + seed
reproduce it exactly) and deterministic: rerunning the same config and seed
yields byte-identical files.  Nothing here writes wall-clock time.  Kernel
states and size labels are derived, not stored; a manifest loads only if
``build_manifest`` writes it back from its free facts, its sizes must be the
backbone's, and each snapshot's records must fit the backbone's arch.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .backbone import ArchSpec, BackboneState, SlotState
from .config import ConfigError, _typed, arch_dict, parse_arch, parse_config_data
from .driver import (
    MODES, EpochLogEntry, GateLogEntry, RunResult, TaskSnapshot, _frozen, explicit_targets, run_id,
)
from .growth import boundary_violation, ratio_label
from .store import StoreFormatError, read_container, write_container, write_text_atomic

FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# snapshot / backbone containers
# ---------------------------------------------------------------------------

# record prefix -> (TaskSnapshot field, the header flag for it, the record's
# shape for a layer); each is one record per layer of the arch, or none
_SNAPSHOT_RECORDS = {
    "reuse": ("reuse_bits", "has_reuse", lambda spec: (spec.out_channels, spec.in_channels)),
    "norm_scale": ("norm_scale", "has_norm", lambda spec: (spec.out_channels,)),
    "norm_shift": ("norm_shift", "has_norm", lambda spec: (spec.out_channels,)),
}


def save_snapshot(snapshot: TaskSnapshot, path: str | Path) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "task_snapshot",
        "task_id": snapshot.task_id,
        "n_classes": snapshot.n_classes,
        "probe_fingerprint": snapshot.probe_fingerprint,
    }
    arrays: dict[str, np.ndarray] = {
        "head_weight": snapshot.head_weight,
        "head_bias": snapshot.head_bias,
        "probe_images": snapshot.probe_images,
    }
    for prefix, (attr, flag, _) in _SNAPSHOT_RECORDS.items():
        per_layer = getattr(snapshot, attr)
        header[flag] = per_layer is not None
        if per_layer is not None:
            arrays.update((f"{prefix}/{name}", arr) for name, arr in per_layer.items())
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


# header key -> the JSON type load_snapshot needs
_SNAPSHOT_TYPES = {"task_id": int, "n_classes": int, "probe_fingerprint": str,
                   "has_reuse": bool, "has_norm": bool}


def _check_keys(path: str | Path, header: dict, arrays: dict[str, np.ndarray],
                header_keys: set[str], record_keys: set[str]) -> None:
    """StoreFormatError for a header key or array record the saver would not write."""
    for what, found, known in (("header key", header, header_keys),
                               ("array record", arrays, record_keys)):
        if unknown := sorted(found.keys() - known):
            raise StoreFormatError(f"{path}: unknown {what} {unknown[0]!r}")


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


def load_snapshot(path: str | Path, arch: ArchSpec) -> TaskSnapshot:
    """A saved snapshot, every record's shape checked against ``arch``; a
    header key or record that ``save_snapshot`` would not write is an error."""
    header, arrays = _read_kind(path, "task_snapshot")
    fields = {key: _field(header, key, path) for key in _SNAPSHOT_TYPES}
    for key, types in _SNAPSHOT_TYPES.items():
        if not _typed(fields[key], types):
            raise StoreFormatError(f"{path}: header {key!r} has the wrong type: {fields[key]!r}")
    if fields["has_norm"] != arch.group_norm:
        raise StoreFormatError(f"{path}: has_norm differs from the arch's group_norm")
    _check_keys(path, header, arrays, {"format_version", "kind", *_SNAPSHOT_TYPES},
                {"head_weight", "head_bias", "probe_images"} | {
                    f"{prefix}/{spec.name}" for prefix, (_, flag, _) in _SNAPSHOT_RECORDS.items()
                    if fields[flag] for spec in arch.layers})
    n_classes, size = fields["n_classes"], arch.image_size
    records = {
        attr: {spec.name: _frozen(_array(arrays, f"{prefix}/{spec.name}", path, shape(spec)))
               for spec in arch.layers} if fields[flag] else None
        for prefix, (attr, flag, shape) in _SNAPSHOT_RECORDS.items()
    }
    return TaskSnapshot(
        task_id=fields["task_id"],
        n_classes=n_classes,
        head_weight=_frozen(_array(arrays, "head_weight", path, (n_classes, arch.feature_dim))),
        head_bias=_frozen(_array(arrays, "head_bias", path, (n_classes,))),
        probe_images=_frozen(_array(arrays, "probe_images", path,
                                    (None, arch.in_channels, size, size))),
        probe_fingerprint=fields["probe_fingerprint"],
        **records,
    )


_LAYER_ARRAYS = ("weights", "bias", "slot_state", "slot_owner", "kernel_owner")


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
    """A saved backbone, held to ``growth.boundary_violation``'s rules; with
    no ``last_task`` owners are unbounded.  A header key or record that
    ``save_backbone`` would not write is an error."""
    header, arrays = _read_kind(path, "backbone")
    try:
        arch = parse_arch(_field(header, "arch", path), "arch")
    except ConfigError as exc:
        raise StoreFormatError(f"{path}: bad arch in header: {exc}") from None
    _check_keys(path, header, arrays, {"format_version", "kind", "arch"},
                {f"{spec.name}/{attr}" for spec in arch.layers for attr in _LAYER_ARRAYS})
    backbone = BackboneState(arch)
    for layer in backbone.layers:
        for attr in _LAYER_ARRAYS:
            key, target = f"{layer.spec.name}/{attr}", getattr(layer, attr)
            arr = _array(arrays, key, path, target.shape)
            if arr.dtype != target.dtype:
                raise StoreFormatError(f"{path}: array {key!r} has "
                                       f"dtype {arr.dtype}, expected {target.dtype}")
            target[:] = arr
    last = np.iinfo(np.int32).max if last_task is None else last_task
    violation = boundary_violation(backbone, last)
    if violation:
        raise StoreFormatError(f"{path}: {violation}")
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
        "targets": {str(t): result.targets[t] for t in ids if t in result.targets},
        "avg_accuracy": result.avg_accuracy,
        "ratios": {str(t): result.ratios[t] for t in ids},
        "gate_log": [asdict(e) for e in result.gate_log],
        "forgetting": result.forgetting_log,
    }


def _csv(manifests: list[dict], tail: str, row) -> str:
    """One ``row(manifest, size labels)`` per manifest, under the columns
    method, 1..n_tasks (the first manifest's) and ``tail``."""
    n_tasks = manifests[0]["n_tasks"]
    lines = ["method," + ",".join(str(i) for i in range(1, n_tasks + 1)) + tail]
    for m in manifests:
        labels = [ratio_label(m["ratios"][str(t)]) for t in m["task_ids"]]
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


# free fact -> (its JSON types, its least and its greatest value); a bool is
# not a number, and math.ulp(0.0) is the least float above 0
_FREE_FACTS = {"test_accuracies": ((int, float), 0.0, 1.0),
               "val_accuracies": ((int, float), 0.0, 1.0),
               "ratios": ((int, float), 0.0, math.inf),
               "targets": (float, math.ulp(0.0), 1.0),
               "pick_accuracy": (float, 0.0, 1.0)}


def _fact(key: str, value, where: str):
    """``value``, a free fact of kind ``key``; TypeError or ValueError unless
    it has the kind's type and range."""
    types, lo, hi = _FREE_FACTS[key]
    if not _typed(value, types):
        raise TypeError(f"{where} has the wrong type: {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{where} holds {value}, outside [{lo}, {hi}]")
    return value


def _same(a, b) -> bool:
    """JSON equality that compares types too: 1 is neither true nor 1.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def read_manifest(run_dir: str | Path) -> dict:
    """A run directory's manifest: FileNotFoundError when it has none,
    StoreFormatError unless ``build_manifest``, given its free facts, writes
    it back key for key and type for type (``config`` aside: it is parsed and
    so held to its digest).  The free facts are the mode, the config, per task
    1..n the accuracies, size ratio and target, and each gate's pick accuracy.
    A scratch run's size after task i is i, a config's targets are its own,
    and a finished run logged a passing forgetting check for every task at
    every boundary (a scratch run logged none)."""
    path = Path(run_dir) / "manifest.json"
    try:   # ValueError: a bad value; LookupError: a key or item missing; TypeError: a bad type
        m = json.loads(path.read_text())
        if not isinstance(m, dict):
            raise TypeError(f"{type(m).__name__}, not an object")
        mode, config = m["mode"], parse_config_data(m["config"])   # a ConfigError is a ValueError
        if mode not in MODES:
            raise ValueError(f"mode {mode!r} is not one of {MODES}")
        ids = list(range(1, len(m["test_accuracies"]) + 1))
        if not ids:
            raise ValueError("test_accuracies holds no task")

        def per_task(key: str) -> dict[int, float]:
            return {t: _fact(key, m[key][str(t)], f"{key}[{t}]") for t in ids}

        grows = mode != "scratch"
        result = RunResult(
            mode, config, test_accuracies=per_task("test_accuracies"),
            val_accuracies=per_task("val_accuracies"),
            ratios=per_task("ratios") if grows else {t: float(t) for t in ids},
            forgetting_log=[{"after_task": t, "passes": {str(s): True for s in range(1, t + 1)}}
                            for t in ids] if grows else [])
        if grows:
            result.targets = (per_task("targets") if config.target_accuracy is None
                              else explicit_targets(config, ids))
        if mode == "grown":
            result.gate_log = [
                GateLogEntry(t, _fact("pick_accuracy", m["gate_log"][t - 2]["pick_accuracy"],
                                      f"gate_log[{t - 2}].pick_accuracy"), result.targets[t])
                for t in ids[1:]]
        built = build_manifest(result)
        if odd := sorted(m.keys() ^ built.keys()):
            raise ValueError(f"key {odd[0]!r} is {'missing' if odd[0] in built else 'unknown'}")
        for key in sorted(built.keys() - {"config"}):
            if not _same(m[key], built[key]):
                raise ValueError(f"{key} is not what the run derives: {m[key]!r}")
    except (ValueError, LookupError, TypeError) as e:
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
    """A run directory's manifest, backbone and snapshots (none without a backbone)."""
    run_dir = Path(run_dir)
    manifest = read_manifest(run_dir)
    paths = sorted((run_dir / "snapshots").glob("task_*.snap"))
    if not (run_dir / "backbone.bin").exists():
        if paths:
            raise StoreFormatError(f"{run_dir}: snapshots without a backbone.bin")
        return manifest, None, {}
    backbone = load_backbone(run_dir / "backbone.bin", max(manifest["task_ids"]))
    snapshots = [load_snapshot(p, backbone.arch) for p in paths]
    ids = [snap.task_id for snap in snapshots]
    if ids != manifest["task_ids"]:
        # a run with a backbone saved one snapshot per task, in task order
        raise StoreFormatError(f"{run_dir}: snapshot task ids {ids} differ from "
                               f"the manifest's task_ids {manifest['task_ids']}")
    for t in ids:   # the size after task t counts the slots tasks 1..t fixed
        fixed = sum(int(((l.slot_state == SlotState.FIXED) & (l.slot_owner <= t)).sum())
                    * l.spec.params_per_channel for l in backbone.layers)
        if manifest["ratios"][str(t)] != fixed / backbone.arch.full_params:
            raise StoreFormatError(f"{run_dir}: ratios[{t}] is not backbone.bin's size")
    return manifest, backbone, dict(zip(ids, snapshots))
