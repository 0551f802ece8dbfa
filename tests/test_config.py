import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growcl.config import DEFAULTS, ConfigError, parse_arch, parse_config, parse_config_data


def test_empty_object_gives_full_defaults():
    cfg = parse_config_data({})
    assert cfg.seed == 0
    assert cfg.learning_rate == 0.03
    assert cfg.growth_cap == 0.6
    assert cfg.epochs["task1"] >= 1
    assert cfg.arch.layers[0].name == "conv1"
    assert cfg.tasks["source"] == "synthetic"


def test_digest_stable_across_parses():
    assert parse_config_data({}).digest == parse_config_data({}).digest
    assert parse_config_data({}).digest != parse_config_data({"seed": 1}).digest


def test_replaced_field_moves_the_digest():
    replaced = dataclasses.replace(parse_config_data({}), seed=5)
    assert replaced.resolved["seed"] == 5
    assert replaced.digest == parse_config_data({"seed": 5}).digest


@pytest.mark.parametrize("changes, match", [
    ({"momentum": 2.0, "growth_cap": -1.0}, r"config\.momentum = 2\.0 outside \[0, 1\)"),
    ({"growth_cap": -1.0}, r"config\.growth_cap = -1\.0 outside \(0, 1\]"),
    ({"epochs": {"scratch": 0}}, r"config\.epochs\.scratch = 0 outside \[1, 1e\+06\]"),
    ({"target_accuracy": (0.5, 0.5)}, "config.target_accuracy has 2 values for 5 tasks"),
], ids=["momentum-and-cap", "growth-cap", "epochs", "target-count"])
def test_replace_runs_the_schema_tables(changes, match):
    with pytest.raises(ConfigError, match=match):
        dataclasses.replace(parse_config_data({}), **changes)


@pytest.mark.parametrize("name, key", [
    ("epochs", "scratch"), ("temperature", "start"), ("tasks", "n_tasks")])
def test_mapping_fields_are_read_only(name, key):
    cfg = parse_config_data({})
    digest = cfg.digest
    with pytest.raises(TypeError):
        getattr(cfg, name)[key] = 1
    assert cfg.digest == digest
    assert type(cfg.resolved[name]) is dict


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="lamda"):
        parse_config_data({"lamda": 0.1})


def test_nested_unknown_key_named():
    with pytest.raises(ConfigError, match="warmup"):
        parse_config_data({"epochs": {"warmup": 3}})


def test_negative_lambda_range_cited():
    with pytest.raises(ConfigError, match=r"\[0, inf\)"):
        parse_config_data({"lambda_l0": -1})


def test_momentum_range():
    with pytest.raises(ConfigError, match="momentum"):
        parse_config_data({"momentum": 1.0})


def test_growth_cap_open_lower_bound():
    with pytest.raises(ConfigError, match=r"\(0, 1\]"):
        parse_config_data({"growth_cap": 0.0})


def test_temperature_must_be_positive():
    with pytest.raises(ConfigError, match="temperature"):
        parse_config_data({"temperature": {"end": 0.0}})


INF = float("inf")
# every numeric key: (section, key, low, high, range as the message cites it);
# the brackets say which bounds are open, integer keys have int bounds
NUMERIC_ROWS = [
    ("config", "seed", 0, 2**64 - 1, "[0, 1.84467e+19]"),
    ("config", "lambda_l0", 0.0, INF, "[0, inf)"),
    ("config", "learning_rate", 0.0, INF, "(0, inf)"),
    ("config", "momentum", 0.0, 1.0, "[0, 1)"),
    ("config", "batch_size", 1, 10**6, "[1, 1e+06]"),
    ("config", "growth_cap", 0.0, 1.0, "(0, 1]"),
    ("config", "target_slack", 0.0, 1.0, "[0, 1)"),
    ("config.temperature", "start", 0.0, INF, "(0, inf)"),
    ("config.temperature", "end", 0.0, INF, "(0, inf)"),
    *(("config.epochs", phase, 1, 10**6, "[1, 1e+06]")
      for phase in ("task1", "pick", "expand", "scratch")),
    ("config.tasks", "n_tasks", 1, 64, "[1, 64]"),
    ("config.tasks", "classes_per_task", 2, 64, "[2, 64]"),
    ("config.tasks", "samples_per_class", 10, 10**5, "[10, 100000]"),
    ("config.tasks", "image_size", 8, 256, "[8, 256]"),
    ("config.tasks", "difficulty", 0.0, 1.0, "(0, 1]"),
    ("config.arch", "image_size", 8, 256, "[8, 256]"),
    ("config.arch", "in_channels", 1, 16, "[1, 16]"),
    ("config.arch.layers[0]", "capacity", 1, 4096, "[1, 4096]"),
    ("config.arch.layers[0]", "seed_channels", 0, 12, "[0, 12]"),   # capacity 12
    ("config.arch.layers[0]", "kernel", 1, 9, "[1, 9]"),
    ("config.arch.layers[0]", "stride", 1, 4, "[1, 4]"),
    ("config.arch.layers[0]", "pad", 0, 8, "[0, 8]"),
    ("config.arch.layers[0]", "pool", 0, 8, "[0, 8]"),
]


def _one_fault(where: str, key: str, value) -> dict:
    """A config that is valid but for ``where.key = value``."""
    if where == "config":
        return {key: value}
    if where.startswith("config.arch.layers"):
        return {"arch": {"layers": [{"capacity": 12, key: value}]}}
    return {where.removeprefix("config."): {key: value}}


def _fault_cases():
    for where, key, lo, hi, text in NUMERIC_ROWS:
        name = f"{where}.{key}"
        integer = isinstance(lo, int)
        step = 1 if integer else 1e-9
        below = lo if text[0] == "(" else lo - step
        yield pytest.param(where, key, below, f"{name} = {below!r} outside {text}",
                           id=f"{name}-below")
        above = hi if text[-1] == ")" else hi + step
        yield pytest.param(where, key, above, f"{name} = {above!r} outside {text}",
                           id=f"{name}-above")
        yield pytest.param(where, key, True, f"{name} must be a number, got True",
                           id=f"{name}-bool")
        if integer:
            yield pytest.param(where, key, lo + 0.5,
                               f"{name} must be an integer, got {lo + 0.5!r}",
                               id=f"{name}-fraction")


@pytest.mark.parametrize("where, key, value, message", _fault_cases())
def test_one_numeric_fault_gives_its_exact_message(where, key, value, message):
    with pytest.raises(ConfigError) as e:
        parse_config_data(_one_fault(where, key, value))
    assert str(e.value) == message


def test_layer_capacity_required():
    with pytest.raises(ConfigError):
        parse_config_data({"arch": {"layers": [{"seed_channels": 2}]}})


def test_seed_channels_bounded_by_capacity():
    with pytest.raises(ConfigError):
        parse_config_data({"arch": {"layers": [{"capacity": 4, "seed_channels": 5}]}})


def test_task_image_size_must_match_arch():
    with pytest.raises(ConfigError, match="image_size"):
        parse_config_data({"tasks": {"image_size": 32}})


def test_idx_source_requires_paths():
    with pytest.raises(ConfigError, match="images"):
        parse_config_data({"tasks": {"source": "idx"}})


def test_idx_task_count_reads_groups_file(tmp_path):
    groups = tmp_path / "groups.txt"
    groups.write_text("0 1\n# comment\n2 3\n4 5\n")
    cfg = parse_config_data({"tasks": {
        "source": "idx", "images": "images.idx", "labels": "labels.idx",
        "groups": str(groups),
    }})
    assert cfg.n_tasks == 3


def test_target_accuracy_forms():
    assert parse_config_data({"target_accuracy": 0.9}).target_accuracy == (0.9,)
    two_tasks = {"tasks": {"n_tasks": 2}}
    assert parse_config_data({"target_accuracy": [0.9, 0.8], **two_tasks}
                             ).target_accuracy == (0.9, 0.8)
    assert parse_config_data({"target_accuracy": [0.9], **two_tasks}).target_accuracy == (0.9,)
    with pytest.raises(ConfigError):
        parse_config_data({"target_accuracy": 1.5})


@pytest.mark.parametrize("target, match", [
    ([True], "non-empty list"),
    (True, "non-empty list"),
    ([0.9, False], "non-empty list"),
    ([], "non-empty list"),
    ([0.9, 0.8, 0.7], "3 values for 2 tasks"),
])
def test_bad_target_accuracy_rejected(target, match):
    # a bool is no fraction, and a synthetic suite's target list must fit it
    with pytest.raises(ConfigError, match=match):
        parse_config_data({"target_accuracy": target, "tasks": {"n_tasks": 2}})


def test_idx_target_count_is_checked_against_the_groups_file():
    # the task count of an idx source is known once its groups file is read,
    # so the parser leaves the length to config.check_target_count, which
    # driver.run_pipeline calls before any mode trains
    cfg = parse_config_data({"target_accuracy": [0.9, 0.8, 0.7], "tasks": {
        "source": "idx", "images": "i", "labels": "l", "groups": "g"}})
    assert cfg.target_accuracy == (0.9, 0.8, 0.7)


def test_syntax_error_reports_line_and_column(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "seed": 1,\n  oops\n}\n')
    with pytest.raises(ConfigError, match=r"line 3, column 3"):
        parse_config(p)


def test_parse_file_round_trip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 7, "tasks": {"n_tasks": 2}}))
    cfg = parse_config(p)
    assert cfg.seed == 7
    assert cfg.n_tasks == 2


def test_resolved_dict_covers_every_field():
    cfg = parse_config_data({})
    assert set(cfg.resolved) == {
        "seed", "arch", "lambda_l0", "temperature", "learning_rate", "momentum",
        "batch_size", "epochs", "growth_cap", "target_slack", "target_accuracy",
        "tasks", "output_dir",
    }


def _layer(capacity: int):
    return st.fixed_dictionaries({"capacity": st.just(capacity)}, optional={
        "seed_channels": st.integers(0, capacity),
        "kernel": st.sampled_from([1, 3, 5]),
        "stride": st.integers(1, 4),
        "pad": st.integers(0, 8),
        "pool": st.sampled_from([0, 2]),
        "name": st.text(min_size=1, max_size=6),
    })


def _arch_parses(arch: dict) -> bool:
    """Whether parse_arch accepts ``arch`` (strides, pads and names drawn
    independently can break the spatial rules or repeat a name)."""
    try:
        parse_arch(arch, "arch")
    except ConfigError:
        return False
    return True


def _task_image_size_follows_arch(data: dict) -> dict:
    """``data`` with a synthetic suite's ``tasks.image_size`` set to the
    drawn ``arch.image_size``, which it must equal."""
    size, tasks = data.get("arch", {}).get("image_size"), data.get("tasks", {})
    if size is None or tasks.get("source") == "idx":
        return data
    return {**data, "tasks": {**tasks, "image_size": size}}


def _target_count_fits(data: dict) -> bool:
    """A target list holds 1 value or one per task of a synthetic suite."""
    target, tasks = data.get("target_accuracy"), data.get("tasks", {})
    return (not isinstance(target, list) or tasks.get("source") == "idx"
            or len(target) in (1, tasks.get("n_tasks", DEFAULTS["tasks"]["n_tasks"])))


_FRACTION = st.floats(0.01, 1.0)
CONFIGS = st.fixed_dictionaries({}, optional={
    "seed": st.integers(0, 2**64 - 1),
    "arch": st.fixed_dictionaries({}, optional={
        "image_size": st.integers(8, 256),
        "in_channels": st.integers(1, 16),
        "group_norm": st.booleans(),
        "layers": st.lists(st.integers(1, 24).flatmap(_layer), min_size=1, max_size=2),
    }).filter(_arch_parses),
    "lambda_l0": st.floats(0.0, 1e3),
    "temperature": st.fixed_dictionaries({}, optional={
        "start": st.floats(0.01, 10.0), "end": st.floats(0.01, 10.0)}),
    "learning_rate": st.floats(1e-4, 1.0),
    "momentum": st.floats(0.0, 0.99),
    "batch_size": st.integers(1, 512),
    "epochs": st.fixed_dictionaries({}, optional={
        phase: st.integers(1, 100) for phase in ("task1", "pick", "expand", "scratch")}),
    "growth_cap": _FRACTION,
    "target_slack": st.floats(0.0, 0.5),
    "target_accuracy": st.none() | _FRACTION | st.lists(_FRACTION, min_size=1, max_size=5),
    "tasks": st.fixed_dictionaries({}, optional={
        "n_tasks": st.integers(1, 64), "classes_per_task": st.integers(2, 10),
        "samples_per_class": st.integers(10, 500), "difficulty": _FRACTION,
    }) | st.fixed_dictionaries({
        "source": st.just("idx"), "images": st.text(), "labels": st.text(),
        "groups": st.text(),
    }),
    "output_dir": st.none() | st.text(),
}).filter(_target_count_fits).map(_task_image_size_follows_arch)


@given(data=CONFIGS)
@settings(max_examples=200, deadline=None)
def test_resolved_config_reparses_to_the_same_digest(data):
    # a saved run's manifest holds ``resolved`` as JSON; re-verifying the run
    # cold parses it back and must arrive at the same config digest
    cfg = parse_config_data(data)
    again = parse_config_data(json.loads(json.dumps(cfg.resolved)))
    assert again.resolved == cfg.resolved
    assert again.digest == cfg.digest


@pytest.mark.parametrize("layers, match", [
    ([{"capacity": 12, "stride": 2}, {"capacity": 16}], "not divisible by stride 2"),
    # a pool window wider than its input, which the padded conv after it
    # would otherwise hide
    ([{"capacity": 4, "kernel": 5, "pad": 0, "pool": 0}, {"capacity": 4, "pool": 8},
      {"capacity": 4, "kernel": 1, "pad": 2, "pool": 0}], "pool window 8 exceeds"),
])
def test_layer_that_cannot_run_is_rejected(layers, match):
    # the extents parse_arch accepts are the ones ops.conv2d and maxpool2d run
    with pytest.raises(ConfigError, match=match):
        parse_config_data({"arch": {"image_size": 8, "layers": layers},
                           "tasks": {"image_size": 8}})


def test_strided_layer_with_divisible_extent_accepted():
    cfg = parse_config_data({"arch": {"layers": [
        {"capacity": 12, "stride": 2, "kernel": 4}, {"capacity": 16}]}})
    assert cfg.arch.spatial_after(0) == 4
