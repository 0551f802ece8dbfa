"""Run configuration: JSON-shaped file, strict validation, stable digest.

Every omitted field takes a documented default; unknown keys are rejected
by name; numeric ranges are validated with their bounds in the message.
The digest of the fully resolved config (sha256 of canonical JSON) names
run directories and goes into every manifest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .backbone import ArchSpec, ConvLayerSpec
from .data import load_group_file


class ConfigError(ValueError):
    pass


_LAYER_DEFAULTS = [
    {"capacity": 12, "seed_channels": 4, "kernel": 3, "stride": 1, "pad": 1, "pool": 2},
    {"capacity": 16, "seed_channels": 4, "kernel": 3, "stride": 1, "pad": 1, "pool": 2},
]
_LAYER_KEYS = {"name", *_LAYER_DEFAULTS[0]}

DEFAULTS: dict = {
    "seed": 0,
    "arch": {
        "image_size": 16,
        "in_channels": 1,
        "group_norm": False,
        "layers": _LAYER_DEFAULTS,
    },
    "lambda_l0": 2e-3,
    "temperature": {"start": 1.0, "end": 0.1},
    "learning_rate": 0.03,
    "momentum": 0.9,
    "batch_size": 32,
    "epochs": {"task1": 30, "pick": 15, "expand": 20, "scratch": 20},
    "growth_cap": 0.6,
    "target_slack": 0.02,
    "target_accuracy": None,
    "tasks": {
        "source": "synthetic",
        "n_tasks": 5,
        "classes_per_task": 2,
        "samples_per_class": 120,
        "image_size": 16,
        "difficulty": 1.0,
    },
    "output_dir": None,
}


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _section(value, where: str, allowed: set[str] | None) -> dict:
    """``value`` checked to be an object holding only ``allowed`` keys
    (any keys when ``allowed`` is None)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    if allowed is not None:
        _require_keys(value, allowed, where)
    return value


def _num(obj: dict, key: str, default, lo, hi, where: str,
         lo_open=False, hi_open=False, integer=False):
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    if integer and int(value) != value:
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    lo_ok = value > lo if lo_open else value >= lo
    hi_ok = value < hi if hi_open else value <= hi
    if not (lo_ok and hi_ok):
        lo_b = "(" if lo_open else "["
        hi_b = ")" if hi_open else "]"
        lo_s = "-inf" if lo == float("-inf") else f"{lo:g}"
        hi_s = "inf" if hi == float("inf") else f"{hi:g}"
        raise ConfigError(
            f"{where}.{key} = {value!r} outside {lo_b}{lo_s}, {hi_s}{hi_b}"
        )
    return int(value) if integer else float(value)


@dataclass(frozen=True)
class RunConfig:
    seed: int
    arch: ArchSpec
    lambda_l0: float
    temp_start: float
    temp_end: float
    learning_rate: float
    momentum: float
    batch_size: int
    epochs: dict[str, int]
    growth_cap: float
    target_slack: float
    target_accuracy: tuple[float, ...] | None
    task_source: dict
    output_dir: str | None
    resolved: dict = field(repr=False, compare=False, default_factory=dict)
    # driver.train_scratch_model's outcomes under this config; not a knob, so
    # outside ``resolved`` and the digest, and ``dataclasses.replace`` starts
    # the new config with an empty memo
    scratch_outcomes: dict = field(init=False, repr=False, compare=False,
                                   default_factory=dict)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def n_tasks(self) -> int:
        """Number of tasks; for the idx source, the groups file is read."""
        if self.task_source["source"] == "synthetic":
            return self.task_source["n_tasks"]
        return len(load_group_file(self.task_source["groups"]))


def parse_arch(value, where: str) -> ArchSpec:
    """An arch object (a config's ``arch`` or a backbone header's) as an
    ``ArchSpec``, with defaults filled in and every range checked."""
    arch_in = _section(value, where, set(DEFAULTS["arch"]))
    image_size = _num(arch_in, "image_size", DEFAULTS["arch"]["image_size"],
                      8, 256, where, integer=True)
    in_channels = _num(arch_in, "in_channels", DEFAULTS["arch"]["in_channels"],
                       1, 16, where, integer=True)
    gn = arch_in.get("group_norm", DEFAULTS["arch"]["group_norm"])
    if not isinstance(gn, bool):
        raise ConfigError(f"{where}.group_norm must be true/false, got {gn!r}")
    layers_in = arch_in.get("layers", _LAYER_DEFAULTS)
    if not isinstance(layers_in, list) or not layers_in:
        raise ConfigError(f"{where}.layers must be a non-empty list")
    specs = []
    prev = in_channels
    for i, ldata in enumerate(layers_in):
        lw = f"{where}.layers[{i}]"
        _section(ldata, lw, _LAYER_KEYS)
        capacity = _num(ldata, "capacity", None, 1, 4096, lw, integer=True)
        seed_ch = _num(ldata, "seed_channels", min(4, capacity), 0, capacity,
                       lw, integer=True)
        kernel = _num(ldata, "kernel", 3, 1, 9, lw, integer=True)
        stride = _num(ldata, "stride", 1, 1, 4, lw, integer=True)
        pad = _num(ldata, "pad", 1, 0, 8, lw, integer=True)
        pool = _num(ldata, "pool", 2, 0, 8, lw, integer=True)
        name = ldata.get("name", f"conv{i + 1}")
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{lw}.name must be a non-empty string")
        specs.append(ConvLayerSpec(name, prev, capacity, seed_ch, kernel, stride, pad, pool))
        prev = capacity
    if len({s.name for s in specs}) != len(specs):
        raise ConfigError(f"{where}.layers names must be unique")
    try:   # ArchSpec checks the channel chain, spatial_after each layer's extent
        arch = ArchSpec(image_size, in_channels, tuple(specs), group_norm=gn)
        arch.spatial_after(len(specs) - 1)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None
    return arch


def arch_dict(arch: ArchSpec) -> dict:
    """The arch object ``parse_arch`` reads back as ``arch``."""
    return {
        "image_size": arch.image_size,
        "in_channels": arch.in_channels,
        "group_norm": arch.group_norm,
        "layers": [
            {"name": s.name, "capacity": s.out_channels,
             "seed_channels": s.seed_channels, "kernel": s.kernel,
             "stride": s.stride, "pad": s.pad, "pool": s.pool}
            for s in arch.layers
        ],
    }


def parse_config_data(data: dict) -> RunConfig:
    _section(data, "config", set(DEFAULTS))

    seed = _num(data, "seed", DEFAULTS["seed"], 0, 2**64 - 1, "config", integer=True)
    lam = _num(data, "lambda_l0", DEFAULTS["lambda_l0"], 0.0, float("inf"),
               "config", hi_open=True)
    lr = _num(data, "learning_rate", DEFAULTS["learning_rate"], 0.0, float("inf"),
              "config", lo_open=True, hi_open=True)
    momentum = _num(data, "momentum", DEFAULTS["momentum"], 0.0, 1.0,
                    "config", hi_open=True)
    batch = _num(data, "batch_size", DEFAULTS["batch_size"], 1, 10**6,
                 "config", integer=True)
    cap = _num(data, "growth_cap", DEFAULTS["growth_cap"], 0.0, 1.0,
               "config", lo_open=True)
    slack = _num(data, "target_slack", DEFAULTS["target_slack"], 0.0, 1.0,
                 "config", hi_open=True)

    temp = _section(data.get("temperature", {}), "config.temperature", {"start", "end"})
    t_start = _num(temp, "start", DEFAULTS["temperature"]["start"], 0.0,
                   float("inf"), "config.temperature", lo_open=True, hi_open=True)
    t_end = _num(temp, "end", DEFAULTS["temperature"]["end"], 0.0,
                 float("inf"), "config.temperature", lo_open=True, hi_open=True)

    epochs_in = _section(data.get("epochs", {}), "config.epochs", set(DEFAULTS["epochs"]))
    epochs = {
        phase: _num(epochs_in, phase, default, 1, 10**6, "config.epochs", integer=True)
        for phase, default in DEFAULTS["epochs"].items()
    }

    arch = parse_arch(data.get("arch", {}), "config.arch")

    target = data.get("target_accuracy", DEFAULTS["target_accuracy"])
    if target is not None:
        values = target if isinstance(target, list) else [target]
        if not values or not all(
                isinstance(t, (int, float)) and not isinstance(t, bool) and 0.0 < t <= 1.0
                for t in values):
            raise ConfigError(
                "config.target_accuracy must be null, a fraction in (0, 1], "
                f"or a non-empty list of them, got {target!r}"
            )
        target = tuple(float(t) for t in values)

    tasks_in = _section(data.get("tasks", {}), "config.tasks", None)
    source = tasks_in.get("source", "synthetic")
    if source == "synthetic":
        _require_keys(tasks_in, set(DEFAULTS["tasks"]), "config.tasks")
        d = DEFAULTS["tasks"]
        task_source = {
            "source": "synthetic",
            "n_tasks": _num(tasks_in, "n_tasks", d["n_tasks"], 1, 64,
                            "config.tasks", integer=True),
            "classes_per_task": _num(tasks_in, "classes_per_task",
                                     d["classes_per_task"], 2, 64,
                                     "config.tasks", integer=True),
            "samples_per_class": _num(tasks_in, "samples_per_class",
                                      d["samples_per_class"], 10, 10**5,
                                      "config.tasks", integer=True),
            "image_size": _num(tasks_in, "image_size", d["image_size"], 8, 256,
                               "config.tasks", integer=True),
            "difficulty": _num(tasks_in, "difficulty", d["difficulty"], 0.0, 1.0,
                               "config.tasks", lo_open=True),
        }
        if task_source["image_size"] != arch.image_size:
            raise ConfigError(
                f"config.tasks.image_size {task_source['image_size']} != "
                f"config.arch.image_size {arch.image_size}"
            )
        n_tasks = task_source["n_tasks"]
        if target is not None and len(target) not in (1, n_tasks):
            raise ConfigError(
                f"config.target_accuracy has {len(target)} values for {n_tasks} tasks "
                f"(give 1 or {n_tasks})"
            )
    elif source == "idx":
        _require_keys(tasks_in, {"source", "images", "labels", "groups"}, "config.tasks")
        for key in ("images", "labels", "groups"):
            if key not in tasks_in or not isinstance(tasks_in[key], str):
                raise ConfigError(f"config.tasks.{key} (a path) is required for source 'idx'")
        task_source = {
            "source": "idx",
            "images": tasks_in["images"],
            "labels": tasks_in["labels"],
            "groups": tasks_in["groups"],
        }
    else:
        raise ConfigError(
            f"config.tasks.source must be 'synthetic' or 'idx', got {source!r}"
        )

    output_dir = data.get("output_dir", None)
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"config.output_dir must be a string path, got {output_dir!r}")

    resolved = {
        "seed": seed,
        "arch": arch_dict(arch),
        "lambda_l0": lam,
        "temperature": {"start": t_start, "end": t_end},
        "learning_rate": lr,
        "momentum": momentum,
        "batch_size": batch,
        "epochs": epochs,
        "growth_cap": cap,
        "target_slack": slack,
        "target_accuracy": list(target) if target is not None else None,
        "tasks": task_source,
        "output_dir": output_dir,
    }
    return RunConfig(
        seed=seed, arch=arch, lambda_l0=lam, temp_start=t_start, temp_end=t_end,
        learning_rate=lr, momentum=momentum, batch_size=batch, epochs=epochs,
        growth_cap=cap, target_slack=slack, target_accuracy=target,
        task_source=task_source, output_dir=output_dir, resolved=resolved,
    )


def parse_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: cannot read config: {e}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: syntax error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    return parse_config_data(data)
