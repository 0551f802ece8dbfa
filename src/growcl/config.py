"""Run configuration: JSON-shaped file, strict validation, stable digest.

Each config section has one table: ``_TOP`` (top-level scalars), ``_TEMPERATURE``,
``_EPOCHS``, ``_SYNTHETIC`` (synthetic ``tasks``), ``_ARCH`` and ``_LAYER`` (each of
``arch.layers``).  A table's ``Row`` states a numeric key's default, its bounds (open
or closed) and whether it is an integer, once; ``_num`` reads every row and cites the
bounds a value breaks, and ``DEFAULTS`` is built from the tables.  Unknown keys are
rejected by name.  The digest of the fully resolved config (sha256 of canonical JSON,
without ``output_dir``) names run directories and goes into every manifest.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .backbone import ArchSpec, ConvLayerSpec
from .data import load_group_file


class ConfigError(ValueError):
    pass


def _typed(value, types) -> bool:
    """Whether a JSON value has one of ``types``; a bool counts only as bool."""
    return isinstance(value, types) and (type(value) is bool) == (types is bool)


class Row(NamedTuple):
    """One numeric key of a config section."""
    default: int | float | None   # None: the key is required
    lo: float
    hi: float
    integer: bool = False
    lo_open: bool = False
    hi_open: bool = False


_INF = float("inf")
_TOP = {
    "seed": Row(0, 0, 2**64 - 1, integer=True),
    "lambda_l0": Row(2e-3, 0.0, _INF, hi_open=True),
    "learning_rate": Row(0.03, 0.0, _INF, lo_open=True, hi_open=True),
    "momentum": Row(0.9, 0.0, 1.0, hi_open=True),
    "batch_size": Row(32, 1, 10**6, integer=True),
    "growth_cap": Row(0.6, 0.0, 1.0, lo_open=True),
    "target_slack": Row(0.02, 0.0, 1.0, hi_open=True),
}
_TEMPERATURE = {"start": Row(1.0, 0.0, _INF, lo_open=True, hi_open=True),
                "end": Row(0.1, 0.0, _INF, lo_open=True, hi_open=True)}
_EPOCHS = {phase: Row(default, 1, 10**6, integer=True) for phase, default in
           {"task1": 30, "pick": 15, "expand": 20, "scratch": 20}.items()}
_ARCH = {"image_size": Row(16, 8, 256, integer=True),
         "in_channels": Row(1, 1, 16, integer=True)}
_SYNTHETIC = {
    "n_tasks": Row(5, 1, 64, integer=True),
    "classes_per_task": Row(2, 2, 64, integer=True),
    "samples_per_class": Row(120, 10, 10**5, integer=True),
    "image_size": _ARCH["image_size"],   # and it must equal arch.image_size
    "difficulty": Row(1.0, 0.0, 1.0, lo_open=True),
}
_LAYER = {
    "capacity": Row(None, 1, 4096, integer=True),
    "seed_channels": Row(4, 0, _INF, integer=True),   # parse_arch caps default and hi at capacity
    "kernel": Row(ConvLayerSpec.kernel, 1, 9, integer=True),
    "stride": Row(ConvLayerSpec.stride, 1, 4, integer=True),
    "pad": Row(ConvLayerSpec.pad, 0, 8, integer=True),
    "pool": Row(ConvLayerSpec.pool, 0, 8, integer=True),
}
_IDX_PATHS = ("images", "labels", "groups")


def _defaults(table: dict) -> dict:
    return {key: row.default for key, row in table.items()}


DEFAULTS: dict = {
    **_defaults(_TOP),
    "temperature": _defaults(_TEMPERATURE), "epochs": _defaults(_EPOCHS),
    "arch": {**_defaults(_ARCH), "group_norm": ArchSpec.group_norm,
             "layers": [{**_defaults(_LAYER), "capacity": c} for c in (12, 16)]},
    "tasks": {"source": "synthetic", **_defaults(_SYNTHETIC)},
    "target_accuracy": None, "output_dir": None,
}


def _section(value, where: str, allowed=None) -> dict:
    """``value`` checked to be an object with only ``allowed`` keys (any if None)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    for key in value:
        if allowed is not None and key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return value


def _num(obj: dict, key: str, row: Row, where: str):
    value = obj.get(key, row.default)
    if not _typed(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    if row.integer and not (isinstance(value, int) or value.is_integer()):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    lo_ok = value > row.lo if row.lo_open else value >= row.lo
    hi_ok = value < row.hi if row.hi_open else value <= row.hi
    if not (lo_ok and hi_ok):
        raise ConfigError(f"{where}.{key} = {value!r} outside {'(' if row.lo_open else '['}"
                          f"{row.lo:g}, {row.hi:g}{')' if row.hi_open else ']'}")
    return int(value) if row.integer else float(value)


def _read(value, table: dict, where: str, allowed=None) -> dict:
    """Every row of ``table`` read, in table order, from the object ``value``,
    which may hold only ``allowed`` keys (``table``'s keys when None)."""
    obj = _section(value, where, table if allowed is None else allowed)
    return {key: _num(obj, key, row, where) for key, row in table.items()}


_MAPPINGS = ("temperature", "epochs", "tasks")   # RunConfig holds these read-only


@dataclass(frozen=True)
class RunConfig:
    """``resolved``'s values by name, but ``arch`` an ArchSpec, ``target_accuracy`` a
    tuple, and the ``_MAPPINGS`` read-only.  Every instance, ``dataclasses.replace``'s
    included, is checked by the schema tables: ``__post_init__`` re-reads the fields."""
    seed: int
    arch: ArchSpec
    lambda_l0: float
    temperature: Mapping[str, float]   # Gumbel temperature at the first and last epoch
    learning_rate: float
    momentum: float
    batch_size: int
    epochs: Mapping[str, int]
    growth_cap: float
    target_slack: float
    target_accuracy: tuple[float, ...] | None
    tasks: Mapping
    output_dir: str | None
    # driver.train_scratch_model's outcomes under this config; not a knob, so outside
    # ``resolved`` and the digest, and ``dataclasses.replace`` starts an empty memo
    scratch_outcomes: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in _fields(self.resolved).items():
            object.__setattr__(self, name, value)
        if self.tasks["source"] == "synthetic":   # an idx source's task count is in its groups file
            check_target_count(self)

    @property
    def resolved(self) -> dict:
        """The fields as the JSON object ``parse_config_data`` reads back to this config."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        return {**values, **{key: dict(values[key]) for key in _MAPPINGS},
                "arch": arch_dict(self.arch), "target_accuracy":
                None if self.target_accuracy is None else list(self.target_accuracy)}

    @property
    def digest(self) -> str:
        """sha256 of ``resolved``, but for ``output_dir``: where a run is
        written changes none of its results."""
        blob = json.dumps({**self.resolved, "output_dir": None}, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def n_tasks(self) -> int:
        """Number of tasks; for the idx source, the groups file is read."""
        if self.tasks["source"] == "synthetic":
            return self.tasks["n_tasks"]
        return len(load_group_file(self.tasks["groups"]))


def check_target_count(config: RunConfig) -> None:
    """Reject a ``target_accuracy`` list whose length is neither 1 nor the task count."""
    count = len(config.target_accuracy or ())
    if count > 1 and count != (n_tasks := config.n_tasks):
        raise ConfigError(f"config.target_accuracy has {count} values for {n_tasks} "
                          f"tasks (give 1 or {n_tasks})")


def parse_arch(value, where: str) -> ArchSpec:
    """An arch object (a config's ``arch`` or a backbone header's) as an
    ``ArchSpec``, with defaults filled in and every range checked."""
    sizes = _read(value, _ARCH, where, DEFAULTS["arch"])
    gn = value.get("group_norm", DEFAULTS["arch"]["group_norm"])
    if not _typed(gn, bool):
        raise ConfigError(f"{where}.group_norm must be true/false, got {gn!r}")
    layers_in = value.get("layers", DEFAULTS["arch"]["layers"])
    if not isinstance(layers_in, list) or not layers_in:
        raise ConfigError(f"{where}.layers must be a non-empty list")
    specs, prev = [], sizes["in_channels"]
    for i, ldata in enumerate(layers_in):
        lw = f"{where}.layers[{i}]"
        _section(ldata, lw, {"name", *_LAYER})
        capacity = _num(ldata, "capacity", _LAYER["capacity"], lw)
        seed = _LAYER["seed_channels"]
        rows = dict(_LAYER, seed_channels=seed._replace(
            default=min(seed.default, capacity), hi=capacity))
        layer = {key: _num(ldata, key, row, lw) for key, row in rows.items()}
        name = ldata.get("name", f"conv{i + 1}")
        if not _typed(name, str) or not name:
            raise ConfigError(f"{lw}.name must be a non-empty string")
        specs.append(ConvLayerSpec(name, prev, layer.pop("capacity"), **layer))
        prev = capacity
    if len({s.name for s in specs}) != len(specs):
        raise ConfigError(f"{where}.layers names must be unique")
    try:   # ArchSpec checks the channel chain, spatial_after each layer's extent
        arch = ArchSpec(**sizes, layers=tuple(specs), group_norm=gn)
        arch.spatial_after(len(specs) - 1)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None
    return arch


def arch_dict(arch: ArchSpec) -> dict:
    """The arch object ``parse_arch`` reads back as ``arch``."""
    layers = [{"name": s.name, "capacity": s.out_channels,
               **{key: getattr(s, key) for key in _LAYER if key != "capacity"}}
              for s in arch.layers]
    return {**{key: getattr(arch, key) for key in (*_ARCH, "group_norm")}, "layers": layers}


def _fields(data: dict) -> dict:
    """``RunConfig``'s fields read from the JSON object ``data``, every value checked."""
    values = _read(data, _TOP, "config", DEFAULTS)
    values["temperature"] = _read(data.get("temperature", {}), _TEMPERATURE, "config.temperature")
    values["epochs"] = _read(data.get("epochs", {}), _EPOCHS, "config.epochs")
    arch = parse_arch(data.get("arch", {}), "config.arch")
    target = data.get("target_accuracy", DEFAULTS["target_accuracy"])
    if target is not None:
        targets = target if isinstance(target, list) else [target]
        if not targets or not all(_typed(t, (int, float)) and 0.0 < t <= 1.0 for t in targets):
            raise ConfigError("config.target_accuracy must be null, a fraction in (0, 1], "
                              f"or a non-empty list of them, got {target!r}")
        target = tuple(float(t) for t in targets)

    tasks = _section(data.get("tasks", {}), "config.tasks")
    source = tasks.get("source", DEFAULTS["tasks"]["source"])
    if source == "synthetic":
        tasks = {"source": source, **_read(tasks, _SYNTHETIC, "config.tasks", DEFAULTS["tasks"])}
        if tasks["image_size"] != arch.image_size:
            raise ConfigError(f"config.tasks.image_size {tasks['image_size']} != "
                              f"config.arch.image_size {arch.image_size}")
    elif source == "idx":
        _section(tasks, "config.tasks", {"source", *_IDX_PATHS})
        for key in _IDX_PATHS:
            if not _typed(tasks.get(key), str):
                raise ConfigError(f"config.tasks.{key} (a path) is required for source 'idx'")
        tasks = {"source": source, **{key: tasks[key] for key in _IDX_PATHS}}
    else:
        raise ConfigError(f"config.tasks.source must be 'synthetic' or 'idx', got {source!r}")

    output_dir = data.get("output_dir", DEFAULTS["output_dir"])
    if output_dir is not None and not _typed(output_dir, str):
        raise ConfigError(f"config.output_dir must be a string path, got {output_dir!r}")

    values.update(arch=arch, target_accuracy=target, tasks=tasks, output_dir=output_dir)
    return {**values, **{key: MappingProxyType(values[key]) for key in _MAPPINGS}}


def parse_config_data(data: dict) -> RunConfig:
    return RunConfig(**_fields(data))


def parse_config(path: str | Path) -> RunConfig:
    try:   # reading raises OSError or UnicodeDecodeError, parsing JSONDecodeError
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: cannot read config: {e}") from None
    return parse_config_data(data)
