"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to stream them).
The heavyweight end-to-end runs execute once in session fixtures and are
shared by the criteria that inspect them.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from growcl.backbone import BackboneState, KernelState, SlotState
from growcl.cli import main as cli_main
from growcl.driver import forgetting_check
from growcl.enumcheck import run_sweep
from growcl.growth import finalize_task, query_and_transition
from growcl.masks import (
    binarize_ste,
    gumbel_noise,
    gumbel_sigmoid,
    l0_penalty,
    sigmoid,
    ste_logit_grad,
)
from growcl.ops import (
    conv2d,
    conv2d_backward,
    cross_entropy,
    finite_diff_check,
    linear,
    linear_backward,
    relu,
    relu_backward,
)
from growcl.rng import SeededRng

ABLATION_SEEDS = (0, 1, 2, 3, 4)

pytestmark = pytest.mark.slow


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def default_config_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("config") / "default.json"
    path.write_text("{}\n")   # all defaults: 5 synthetic tasks, seed 0
    return path


@pytest.fixture(scope="session")
def grown_run(tmp_path_factory, default_config_file):
    """Default 5-task run through the CLI into a temp root; timed for
    criterion 1."""
    import os
    root = tmp_path_factory.mktemp("grown_root")
    old = os.environ.get("GROWCL_OUTPUT_ROOT")
    os.environ["GROWCL_OUTPUT_ROOT"] = str(root)
    try:
        start = time.monotonic()
        code = cli_main(["run", "--config", str(default_config_file), "--mode", "grown"])
        elapsed = time.monotonic() - start
        assert code == 0
        (run_dir,) = root.iterdir()
    finally:
        if old is None:
            os.environ.pop("GROWCL_OUTPUT_ROOT", None)
        else:
            os.environ["GROWCL_OUTPUT_ROOT"] = old
    return run_dir, elapsed


@pytest.fixture(scope="session")
def scratch_run(tmp_path_factory, default_config_file):
    import os
    root = tmp_path_factory.mktemp("scratch_root")
    old = os.environ.get("GROWCL_OUTPUT_ROOT")
    os.environ["GROWCL_OUTPUT_ROOT"] = str(root)
    try:
        code = cli_main(["run", "--config", str(default_config_file), "--mode", "scratch"])
        assert code == 0
        (run_dir,) = root.iterdir()
    finally:
        if old is None:
            os.environ.pop("GROWCL_OUTPUT_ROOT", None)
        else:
            os.environ["GROWCL_OUTPUT_ROOT"] = old
    return run_dir


class TestCriterion1ZeroForgetting:
    def test_bitwise_forgetting_and_planted_fault(self, grown_run):
        run_dir, elapsed = grown_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        boundary_ok = all(
            all(entry["passes"].values()) for entry in manifest["forgetting"]
        )
        n_boundaries = len(manifest["forgetting"])

        # planted fault: a 1e-9 nudge on a FIXED weight must be detected
        from growcl.persist import load_run
        _, backbone, snapshots = load_run(run_dir)
        assert all(forgetting_check(snapshots, backbone).values())
        layer = backbone.layers[0]
        j, i = np.argwhere(layer.kernel_state == KernelState.USED)[0]
        owner = int(layer.kernel_owner[j, i])
        layer.weights[j, i, 0, 0] += 1e-9
        detected = not forgetting_check(snapshots, backbone)[owner]

        report(
            1,
            boundary_ok and n_boundaries == 5 and detected and elapsed < 600,
            f"zero forgetting at all {n_boundaries} boundaries, 1e-9 fault "
            f"detected={detected}, runtime {elapsed:.0f}s < 600s",
        )


class TestCriterion2EnumerationSweep:
    def test_two_hundred_instances(self):
        start = time.monotonic()
        sweep = run_sweep(200, seed=0)
        elapsed = time.monotonic() - start
        strict_frac = sweep.strict_count / 200
        report(
            2,
            sweep.all_passed and strict_frac >= 0.10 and elapsed < 300,
            f"200/200 ordered minima exact, {sweep.strict_count} strict "
            f"({strict_frac:.0%} >= 10%), runtime {elapsed:.0f}s < 300s",
        )


class TestCriterion3GradientSuite:
    N_POINTS = 100
    TOL = 1e-5

    def _sweep(self, make_problem) -> float:
        worst = 0.0
        rng = np.random.default_rng(0)
        for _ in range(self.N_POINTS):
            fn, point = make_problem(rng)
            res = finite_diff_check(fn, point, eps=1e-5)
            worst = max(worst, res.max_rel_error)
        return worst

    def test_all_operations(self):
        worsts = {}

        def conv_problem(rng):
            x = rng.normal(size=(1, 2, 4, 4))
            w = rng.normal(size=(2, 2, 3, 3)) * 0.5
            b = rng.normal(size=2) * 0.1
            dout = rng.normal(size=(1, 2, 4, 4))

            def f(wflat):
                out, cache = conv2d(x, wflat.reshape(w.shape), b, pad=1)
                _, dw, _ = conv2d_backward(dout, cache)
                return float((out * dout).sum()), dw.ravel()

            return f, w.ravel().copy()

        worsts["conv2d"] = self._sweep(conv_problem)

        def linear_problem(rng):
            x = rng.normal(size=(3, 4))
            w = rng.normal(size=(2, 4))
            y = rng.integers(0, 2, size=3)

            def f(wflat):
                out, cache = linear(x, wflat.reshape(w.shape), np.zeros(2))
                loss, dz = cross_entropy(out, y)
                _, dw, _ = linear_backward(dz, cache)
                return loss, dw.ravel()

            return f, w.ravel().copy()

        worsts["linear+cross_entropy"] = self._sweep(linear_problem)

        def relu_problem(rng):
            x = rng.normal(size=(4, 4))
            x[np.abs(x) < 0.05] += 0.1   # stay off the kink

            def f(xv):
                out, cache = relu(xv)
                return float((out**2).sum()), relu_backward(2.0 * out, cache)

            return f, x.copy()

        worsts["relu"] = self._sweep(relu_problem)

        def masked_forward_problem(rng):
            # relaxed straight-through path: the loss as a function of mask
            # logits with the hard threshold replaced by the soft p
            x = rng.normal(size=(1, 2, 3, 3))
            w = rng.normal(size=(2, 2, 3, 3)) * 0.5
            logits0 = rng.normal(size=(2, 2))
            srng = SeededRng(int(rng.integers(0, 2**32))).substream("gumbel")
            g0 = gumbel_noise(srng, logits0.shape)
            g1 = gumbel_noise(srng, logits0.shape)
            y = rng.integers(0, 2, size=1)
            t = 0.8

            def f(logits_flat):
                logits = logits_flat.reshape(2, 2)
                p = gumbel_sigmoid(logits, g0, g1, t)
                eff = w * p[:, :, None, None]
                out, cache = conv2d(x, eff, np.zeros(2))
                loss, dz = cross_entropy(out.reshape(1, 2), y)
                _, d_eff, _ = conv2d_backward(dz.reshape(1, 2, 1, 1), cache)
                d_p = (d_eff * w).sum(axis=(2, 3))
                d_logits = ste_logit_grad(d_p, logits, g0, g1, t)
                return loss, d_logits.ravel()

            return f, logits0.ravel().copy()

        worsts["masked_forward_ste"] = self._sweep(masked_forward_problem)

        def l0_problem(rng):
            logits0 = rng.normal(size=6)
            lam = 0.37

            def f(logits):
                bits = binarize_ste(sigmoid(logits))
                value = lam * float(sigmoid(logits).sum())   # relaxed count
                _, grad = l0_penalty(bits, logits, lam)
                return value, grad

            return f, logits0.copy()

        worsts["l0_surrogate"] = self._sweep(l0_problem)

        worst = max(worsts.values())
        detail = ", ".join(f"{k}={v:.2e}" for k, v in worsts.items())
        report(3, worst < self.TOL,
               f"max relative error {worst:.2e} < 1e-5 at {self.N_POINTS} points "
               f"per op ({detail})")


class TestCriterion4GumbelLaw:
    def test_threshold_law_and_analytic_point(self):
        rng = SeededRng(7).substream("gumbel")
        n = 10**5
        ok = True
        details = []
        for m_r in (-2.0, 0.0, 2.0):
            g0 = gumbel_noise(rng, n)
            g1 = gumbel_noise(rng, n)
            p = gumbel_sigmoid(np.full(n, m_r), g0, g1, temperature=0.05)
            freq = float((p > 0.5).mean())
            s = float(sigmoid(np.array(m_r)))
            expect = s / (1.0 + s)
            ok &= abs(freq - expect) < 0.02
            details.append(f"m={m_r:+.0f}: {freq:.4f}~{expect:.4f}")
        exact = float(gumbel_sigmoid(0.0, 0.0, 0.0, 1.0))
        ok &= exact == 1.0 / 3.0
        report(4, ok,
               f"threshold law within ±0.02 over 1e5 draws ({'; '.join(details)}); "
               f"analytic zero-noise point == 1/3 exactly ({exact!r})")


class TestCriterion5StateMachine:
    def test_randomized_conformance(self):
        reference = {
            (SlotState.UNGROWN, 1.0): SlotState.GROWN_TRAINING,
            (SlotState.UNGROWN, 0.0): SlotState.UNGROWN,
            (SlotState.GROWN_TRAINING, 1.0): SlotState.GROWN_TRAINING,
            (SlotState.GROWN_TRAINING, 0.0): SlotState.DETACHED,
            (SlotState.DETACHED, 1.0): SlotState.GROWN_TRAINING,
            (SlotState.DETACHED, 0.0): SlotState.DETACHED,
            (SlotState.PRUNED, 1.0): SlotState.PRUNED,
            (SlotState.PRUNED, 0.0): SlotState.PRUNED,
        }
        from growcl.backbone import ArchSpec, ConvLayerSpec
        arch = ArchSpec(16, 1, (ConvLayerSpec("c", 1, 20, seed_channels=0),))
        walk = np.random.default_rng(123)
        rng = SeededRng(123)
        transitions = 0
        detach_restores = 0
        stashed: dict[int, bytes] = {}
        violations = 0
        backbone = BackboneState(arch)
        layer = backbone.layers[0]
        while transitions < 10**4:
            before = [SlotState(s) for s in layer.slot_state]
            bits = walk.integers(0, 2, size=20).astype(float)
            bits[layer.slot_state == SlotState.FIXED] = np.nan
            for j in np.flatnonzero(layer.slot_state == SlotState.GROWN_TRAINING):
                if bits[j] == 0.0:
                    stashed[j] = layer.weights[j].tobytes()
            query_and_transition(layer, bits, rng)
            for j, prev in enumerate(before):
                if np.isnan(bits[j]):
                    continue
                transitions += 1
                if SlotState(layer.slot_state[j]) != reference[(prev, bits[j])]:
                    violations += 1
                if prev == SlotState.DETACHED and bits[j] == 1.0:
                    if layer.weights[j].tobytes() == stashed.get(j):
                        detach_restores += 1
                    else:
                        violations += 1
            if walk.random() < 0.02:   # occasional task boundary
                finalize_task(layer, np.ones_like(layer.kernel_state, dtype=float),
                              task_id=int(walk.integers(1, 9)))
                states = {SlotState(s) for s in layer.slot_state}
                if not states <= {SlotState.FIXED, SlotState.PRUNED, SlotState.UNGROWN}:
                    violations += 1
                break_out = (layer.slot_state != SlotState.FIXED).sum() == 0
                if break_out:
                    backbone = BackboneState(arch)
                    layer = backbone.layers[0]
                    stashed.clear()
        report(5, violations == 0 and detach_restores > 0,
               f"{transitions} transitions, 0 violations, "
               f"{detach_restores} detach->regrow byte-identical restores")


class TestCriterion6GrowthAccounting:
    def test_ratios_and_size_rows(self, grown_run, scratch_run):
        run_dir, _ = grown_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        ratios = [manifest["ratios"][str(t)] for t in manifest["task_ids"]]
        monotone = all(b >= a - 1e-15 for a, b in zip(ratios, ratios[1:]))
        capped = all(r <= manifest["config"]["growth_cap"] + 1e-12 for r in ratios)
        cap_is_default = manifest["config"]["growth_cap"] == 0.6

        size_lines = (run_dir / "size.csv").read_text().splitlines()
        grown_format_ok = (
            size_lines[0] == "method,1,2,3,4,5,model_size"
            and all(c.endswith("x") for c in size_lines[1].split(",")[1:])
        )
        ledger_lines = (run_dir / "ledger.csv").read_text().splitlines()
        ledger_ok = ledger_lines[0] == "task_id,layer,active_channels,active_params,growth_ratio"

        scratch_lines = (scratch_run / "size.csv").read_text().splitlines()
        scratch_cells = scratch_lines[1].split(",")
        scratch_ok = scratch_cells[1:6] == ["1x", "2x", "3x", "4x", "5x"]

        report(6, monotone and capped and cap_is_default and grown_format_ok
               and ledger_ok and scratch_ok,
               f"ratios {['%.2f' % r for r in ratios]} non-decreasing <= 0.6; "
               f"scratch size row reads 1x..5x")


class TestCriterion7AblationDirection:
    def test_grown_vs_grow_only_over_seeds(self, tmp_path_factory):
        import os
        root = tmp_path_factory.mktemp("ablation_runs")
        old = os.environ.get("GROWCL_OUTPUT_ROOT")
        os.environ["GROWCL_OUTPUT_ROOT"] = str(root)
        try:
            cfg_dir = tmp_path_factory.mktemp("ablation_cfg")
            run_dirs = []
            deltas = {}
            for seed in ABLATION_SEEDS:
                cfg_path = cfg_dir / f"seed{seed}.json"
                cfg_path.write_text(json.dumps({"seed": seed}))
                for mode in ("grown", "grow_only"):
                    assert cli_main(["run", "--config", str(cfg_path),
                                     "--mode", mode]) == 0
            run_dirs = [str(p) for p in sorted(root.iterdir())]
            report_dir = tmp_path_factory.mktemp("ablation_report")
            assert cli_main(["report", *run_dirs, "--out", str(report_dir)]) == 0
            lines = (report_dir / "deltas.csv").read_text().splitlines()
            for line in lines[1:]:
                seed, _, _, delta = line.split(",")
                deltas[int(seed)] = float(delta)
        finally:
            if old is None:
                os.environ.pop("GROWCL_OUTPUT_ROOT", None)
            else:
                os.environ["GROWCL_OUTPUT_ROOT"] = old
        wins = sum(d >= 0.0 for d in deltas.values())
        report(7, len(deltas) == 5 and wins >= 4,
               f"grown >= grow_only in {wins}/5 seeds "
               f"(deltas {sorted(deltas.items())}), reported in deltas.csv")


class TestCriterion8Determinism:
    def test_rerun_directory_is_byte_identical(self, grown_run, default_config_file,
                                               tmp_path_factory):
        import os
        run_dir, _ = grown_run
        root = tmp_path_factory.mktemp("rerun_root")
        old = os.environ.get("GROWCL_OUTPUT_ROOT")
        os.environ["GROWCL_OUTPUT_ROOT"] = str(root)
        try:
            assert cli_main(["run", "--config", str(default_config_file),
                             "--mode", "grown"]) == 0
            (rerun_dir,) = root.iterdir()
        finally:
            if old is None:
                os.environ.pop("GROWCL_OUTPUT_ROOT", None)
            else:
                os.environ["GROWCL_OUTPUT_ROOT"] = old
        files_a = sorted(p.relative_to(run_dir) for p in run_dir.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(rerun_dir) for p in rerun_dir.rglob("*") if p.is_file())
        same_names = files_a == files_b
        same_bytes = same_names and all(
            (run_dir / rel).read_bytes() == (rerun_dir / rel).read_bytes()
            for rel in files_a
        )
        report(8, same_names and same_bytes,
               f"{len(files_a)} files byte-identical across independent reruns "
               f"(manifest, CSVs, snapshots, backbone)")


class TestCriterion9GateConformance:
    def test_expansion_iff_below_target(self, grown_run):
        run_dir, _ = grown_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        gate_log = manifest["gate_log"]
        consistent = all(
            e["expanded"] == (e["pick_accuracy"] < e["target_accuracy"])
            for e in gate_log
        )
        covers_all = len(gate_log) == manifest["n_tasks"] - 1
        report(9, consistent and covers_all,
               "expansion ran exactly for tasks with pick accuracy below target: "
               + "; ".join(
                   f"task {e['task_id']}: {e['pick_accuracy']:.2f} vs "
                   f"{e['target_accuracy']:.2f} -> "
                   f"{'expand' if e['expanded'] else 'skip'}"
                   for e in gate_log
               ))
