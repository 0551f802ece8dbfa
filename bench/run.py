"""growcl benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload table-default --seed 0 --seconds 25 --trace 0

Runs passes of the workload (each a closed-loop batch job; the next starts
when the previous returns) until ``--seconds`` are used, with every BLAS and
OpenMP pool pinned to one thread.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` spends half the time untraced and
half traced and reports its per-layer metrics.  Every pass is checked: the
in-run forgetting checks must not raise, saved runs must pass a cold check,
``growcl verify`` must exit 0, and every pass must reproduce the first pass's
bytes (traced passes included).  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, goes to ``bench/results/``.  ``--small`` shrinks every
workload to a few seconds for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer as tr
from rundiff import first_difference, tree_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 3      # before the first pass; then one more before every pass
WORKLOAD_NAMES = ("table-default", "grown-wide", "seq20-check", "verify-sweep")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="1-2 tasks, 1 epoch per phase, 10 sweep instances")
    return p.parse_args(argv)


def environment(seed: int, config_data: dict) -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "cpu_model": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "config": config_data,
    }


def setup_probe_s(config_data: dict) -> float:
    """Time from a fresh process's start to its first pipeline call."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "setup_probe.py"),
                           json.dumps(config_data)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rc = proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited {rc}")
    return elapsed


class Runner:
    """Runs passes, compares their bytes with the first pass, keeps the tally.

    A set-up probe runs before every pass, so set-up is sampled across the
    whole run, as pass times are, not only at its start.
    """

    def __init__(self, workload, work_root: Path) -> None:
        self.workload = workload
        self.work_root = work_root
        self.setup_s = [setup_probe_s(workload.config_data()) for _ in range(SETUP_PROBES)]
        self.first_dirs: dict[str, Path] = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, label: str, budget_s: float, min_passes: int, tracer=None) -> list:
        passes = []
        walls = []
        start = time.perf_counter()
        while True:
            self.setup_s.append(setup_probe_s(self.workload.config_data()))
            work = self.work_root / f"{label}{len(passes)}"
            if tracer is not None:
                mark, before = tracer.mark(), Counter(tracer.counters)
            w0 = time.perf_counter()
            result = self.workload.run_pass(work)
            walls.append(time.perf_counter() - w0)
            if tracer is not None:
                result.spans = tracer.aggregate(mark)
                result.counters = tracer.counters - before
            self.attempted += result.ops
            self.failed += result.failed
            self.failures.extend(f"{label}{len(passes)}: {f}" for f in result.failures)
            if not self.first_dirs:
                self.first_dirs = dict(result.dirs)
                self.digests = {k: tree_digest(v) for k, v in sorted(result.dirs.items())}
            else:
                diffs = []
                for key, ref in sorted(self.first_dirs.items()):
                    if key in result.dirs:   # a missing output already failed
                        diff = first_difference(ref, result.dirs[key])
                        if diff is not None:
                            diffs.append(f"{key}: {diff}")
                if diffs:
                    self.failed += result.ops - result.failed
                    self.failures.extend(f"{label}{len(passes)} bytes differ from "
                                         f"the first pass: {d}" for d in diffs)
                shutil.rmtree(work, ignore_errors=True)
            passes.append(result)
            elapsed = time.perf_counter() - start
            if len(passes) >= min_passes and elapsed + statistics.median(walls) > budget_s:
                return passes


def median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def workload_figures(passes: list) -> dict[str, float]:
    """Figures of untraced passes that exist only on some workloads."""
    out = {"run_s": median_of(p.run_s for p in passes)}
    for mode in ("scratch", "grown", "grow_only"):
        out[f"{mode}_s"] = median_of(p.mode_s[mode] for p in passes if mode in p.mode_s)
    out["check_ms"] = 1e3 * median_of(s for p in passes for s in p.check_s)
    manifest = passes[0].manifest
    if manifest is not None:
        out["avg_accuracy"] = manifest["avg_accuracy"]
        out["final_size"] = manifest["ratios"][str(manifest["task_ids"][-1])]
        out["driver.expansions"] = sum(e["expanded"] for e in manifest["gate_log"])
    else:
        out["avg_accuracy"] = out["final_size"] = out["driver.expansions"] = 0
    return out


def layer_figures(traced: list, failures: list[str]) -> dict[str, float]:
    """Per-layer figures of traced passes: medians of times, exact counts."""
    names = set()
    for mod, qual in tr.TRACED:
        name = f"{mod}.{qual}"
        if name == "backbone.forward_pass":
            names |= {f"{name}.train", f"{name}.eval"}
        elif name == "driver.run_pipeline":
            names |= {f"{name}.{m}" for m in tr.MODES}
        else:
            names.add(name)
    first = traced[0]
    for i, p in enumerate(traced[1:], start=1):
        calls = {n: a["calls"] for n, a in p.spans.items()}
        if calls != {n: a["calls"] for n, a in first.spans.items()} or p.counters != first.counters:
            failures.append(f"traced pass {i}: call counts differ from traced pass 0")
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = first.spans.get(name, {}).get("calls", 0)
        for kind in ("s", "self_s"):
            out[f"{name}.{kind}"] = median_of(p.spans.get(name, {}).get(kind, 0.0)
                                              for p in traced)
    c = first.counters
    out["ops.conv2d.gflop"] = 2 * c["ops.conv2d.macs"] / 1e9
    for suffix in ("", *(f".{m}" for m in tr.MODES)):
        macs = c[f"ops.conv2d.macs{suffix}"]
        out[f"ops.conv2d.useful_mac_frac{suffix}"] = (
            c[f"ops.conv2d.useful_macs{suffix}"] / macs if macs else 0.0)
    for action in ("grow", "detach", "regrow", "prune", "fix"):
        out[f"growth.actions.{action}"] = c[f"growth.actions.{action}"]
    for key in ("store.write_container.bytes", "store.read_container.bytes"):
        out[key] = c[key]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "growcl" / "__init__.py").is_file():
        print(f"error: no growcl sources at {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: missing {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads   # loads numpy, so only after the thread pins above

    workload = workloads.WORKLOADS[args.workload](args.seed, args.small)
    config_data = workload.config_data()

    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_root = RESULTS / f"work-{tag}-{os.getpid()}"
    runner = Runner(workload, work_root)
    tracer = None
    try:
        if args.trace:
            untraced = runner.run("u", args.seconds / 2, min_passes=2)
            with tr.Tracer() as tracer:
                traced = runner.run("t", args.seconds / 2, min_passes=1, tracer=tracer)
        else:
            untraced = runner.run("u", args.seconds, min_passes=2)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    figures = workload_figures(untraced)
    figures["setup_s"] = statistics.median(runner.setup_s)
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    figures["ops_failed_frac"] = runner.failed / runner.attempted if runner.attempted else 1.0
    if args.trace:
        figures.update(layer_figures(traced, runner.failures))
        traced_run_s = median_of(p.run_s for p in traced)
        figures["trace_overhead_frac"] = traced_run_s / figures["run_s"] - 1.0
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = runner.failed == 0 and not runner.failures and runner.attempted > 0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small,
        "environment": environment(args.seed, config_data),
        "passes": {"untraced_run_s": [p.run_s for p in untraced],
                   "traced_run_s": [p.run_s for p in traced] if args.trace else []},
        "run_digests": runner.digests,
        "figures": figures,
        "attempted": runner.attempted, "failed": runner.failed,
        "failures": runner.failures,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{tag}.spans.jsonl")

    for f in runner.failures:
        print(f"FAIL {f}", file=sys.stderr)
    for label, digest in runner.digests.items():
        print(f"digest {label} {digest}")
    print(f"passes {len(untraced)} untraced"
          + (f", {len(traced)} traced" if args.trace else ""))
    print(f"ops_failed_frac {figures['ops_failed_frac']:.6g} "
          f"({runner.failed} of {runner.attempted} ops)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
