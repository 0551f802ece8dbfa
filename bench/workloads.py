"""The benchmark's workloads: one pass of each is one closed-loop job.

A pass calls only growcl's public functions, always through their modules
(``driver.run_pipeline``, not a name bound at import time), so the tracer
sees every call.  Run directories are written under the pass's work
directory and compared by the caller.  ``cold_check`` re-verifies a saved
run from its files alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from growcl import cli, config, driver, persist

MODES = ("scratch", "grown", "grow_only")

WIDE_LAYERS = [{"capacity": 48, "seed_channels": 16},
               {"capacity": 64, "seed_channels": 16}]

# Epoch counts are cut from the defaults (30/15/20/20) so that one pass takes
# a few seconds and a run holds several passes.  One pick epoch mostly misses
# the target, so most later tasks expand and the work varies little by seed.
TABLE_EPOCHS = {"task1": 3, "pick": 1, "expand": 2, "scratch": 2}
WIDE_EPOCHS = {"task1": 2, "pick": 1, "expand": 2}
SEQ20_EPOCHS = {"task1": 2, "pick": 1, "expand": 1}
SEQ20_CHECKS = 3
SWEEP_INSTANCES = 300

SMALL_EPOCHS = {"task1": 1, "pick": 1, "expand": 1, "scratch": 1}
SMALL_TASKS = 2
SMALL_INSTANCES = 10


@dataclass
class PassResult:
    run_s: float = 0.0
    ops: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    dirs: dict[str, Path] = field(default_factory=dict)   # label -> output dir
    mode_s: dict[str, float] = field(default_factory=dict)
    check_s: list[float] = field(default_factory=list)
    manifest: dict | None = None                          # of the grown run
    spans: dict = field(default_factory=dict)             # traced passes only
    counters: Counter = field(default_factory=Counter)    # traced passes only


def _failure(result: PassResult, what: str, n_ops: int) -> None:
    result.failed += n_ops
    result.failures.append(f"{what}: {traceback.format_exc(limit=3).strip()}")


def cold_check(run_dir: Path) -> dict[int, str]:
    """Re-verify a saved grown/grow_only run from its files alone.

    Returns a problem per failing task: a cold forgetting check that is not
    True, or a test accuracy that differs from the manifest's.
    """
    manifest, backbone, snapshots = persist.load_run(run_dir)
    cfg = config.parse_config_data(manifest["config"])
    if cfg.digest != manifest["config_digest"]:
        return {t: "config digest mismatch" for t in manifest["task_ids"]}
    passes = driver.forgetting_check(snapshots, backbone)
    tasks = {task.task_id: task for task in driver.build_tasks(cfg)}
    problems = {}
    for t in manifest["task_ids"]:
        if passes.get(t) is not True:
            problems[t] = "cold forgetting check failed"
            continue
        acc = driver.evaluate(t, backbone, snapshots[t], tasks[t].test)
        if acc != manifest["test_accuracies"][str(t)]:
            problems[t] = (f"test accuracy {acc!r} != manifest "
                           f"{manifest['test_accuracies'][str(t)]!r}")
    return problems


def _gate(result: PassResult, label: str, n_tasks: int, checks: int = 1) -> None:
    """Cold-check a saved run ``checks`` times; each failing task is one failed op."""
    if label not in result.dirs:
        return
    bad: dict[int, str] = {}
    for _ in range(checks):
        c0 = time.perf_counter()
        try:
            bad.update(cold_check(result.dirs[label]))
        except Exception:
            _failure(result, f"cold check of {label}", n_tasks)
            return
        result.check_s.append(time.perf_counter() - c0)
    result.failed += len(bad)
    result.failures.extend(f"{label} task {t}: {why}" for t, why in sorted(bad.items()))


def _run_mode(result: PassResult, cfg, mode: str, out: Path) -> None:
    result.ops += cfg.n_tasks
    t0 = time.perf_counter()
    try:
        run = driver.run_pipeline(cfg, mode)
        persist.save_run(run, out)
    except Exception:
        _failure(result, f"{mode} run", cfg.n_tasks)
        return
    result.mode_s[mode] = time.perf_counter() - t0
    result.dirs[mode] = out
    if mode == "grown":
        result.manifest = json.loads((out / "manifest.json").read_text())


class Workload:
    name = ""

    def __init__(self, seed: int, small: bool) -> None:
        self.seed = seed
        self.small = small

    def config_data(self) -> dict:
        return {}

    def run_pass(self, work: Path) -> PassResult:
        raise NotImplementedError


class TableDefault(Workload):
    """The README's comparison table: scratch, grown and grow_only on the
    default arch and task suite, merged by ``growcl report``."""

    name = "table-default"

    def config_data(self) -> dict:
        data = {"seed": self.seed, "epochs": dict(TABLE_EPOCHS)}
        if self.small:
            data.update(epochs=dict(SMALL_EPOCHS), tasks={"n_tasks": SMALL_TASKS})
        return data

    def run_pass(self, work: Path) -> PassResult:
        cfg = config.parse_config_data(self.config_data())
        result = PassResult()
        t0 = time.perf_counter()
        for mode in MODES:
            _run_mode(result, cfg, mode, work / mode)
        argv = ["report", *(str(result.dirs[m]) for m in MODES if m in result.dirs),
                "--out", str(work / "report")]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        result.ops += 1
        if rc != 0:
            result.failed += 1
            result.failures.append(f"growcl report exited {rc}")
        result.dirs["report"] = work / "report"
        for mode in ("grown", "grow_only"):
            _gate(result, mode, cfg.n_tasks)
        result.run_s = time.perf_counter() - t0
        return result


class GrownWide(Workload):
    """grown at 4x channel capacity with explicit targets (no scratch models)."""

    name = "grown-wide"

    def config_data(self) -> dict:
        data = {"seed": self.seed, "arch": {"layers": WIDE_LAYERS},
                "target_accuracy": 0.95, "epochs": dict(WIDE_EPOCHS)}
        if self.small:
            data.update(epochs=dict(SMALL_EPOCHS), tasks={"n_tasks": SMALL_TASKS})
        return data

    def run_pass(self, work: Path) -> PassResult:
        cfg = config.parse_config_data(self.config_data())
        result = PassResult()
        t0 = time.perf_counter()
        _run_mode(result, cfg, "grown", work / "grown")
        _gate(result, "grown", cfg.n_tasks)
        result.run_s = time.perf_counter() - t0
        return result


class Seq20Check(Workload):
    """grown on 20 short tasks, saved, then cold-checked SEQ20_CHECKS times."""

    name = "seq20-check"

    def config_data(self) -> dict:
        data = {"seed": self.seed, "target_accuracy": 0.95,
                "tasks": {"n_tasks": 20}, "epochs": dict(SEQ20_EPOCHS)}
        if self.small:
            data.update(epochs=dict(SMALL_EPOCHS), tasks={"n_tasks": SMALL_TASKS})
        return data

    def run_pass(self, work: Path) -> PassResult:
        cfg = config.parse_config_data(self.config_data())
        result = PassResult()
        t0 = time.perf_counter()
        _run_mode(result, cfg, "grown", work / "grown")
        _gate(result, "grown", cfg.n_tasks, checks=SEQ20_CHECKS)
        result.run_s = time.perf_counter() - t0
        return result


class VerifySweep(Workload):
    """``growcl verify``: the enumeration sweep plus the gradient suite."""

    name = "verify-sweep"

    def run_pass(self, work: Path) -> PassResult:
        result = PassResult()
        work.mkdir(parents=True, exist_ok=True)
        csv = work / "sweep.csv"
        n = SMALL_INSTANCES if self.small else SWEEP_INSTANCES
        argv = ["verify", "--instances", str(n), "--seed", str(self.seed),
                "--out", str(csv)]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        result.run_s = time.perf_counter() - t0
        rows = csv.read_text().count("\n") - 1 if csv.exists() else 0
        result.ops = n
        if rc != 0 or rows != n:
            result.failed = n
            result.failures.append(f"growcl verify exited {rc} with {rows} sweep rows")
        result.dirs["verify"] = work
        return result


WORKLOADS = {w.name: w for w in (TableDefault, GrownWide, Seq20Check, VerifySweep)}
