import numpy as np
import pytest

from growcl.backbone import BackboneState, KernelState, SlotState
from growcl.config import parse_config_data
from growcl.driver import (
    CLAIM_INIT,
    TaskSpec,
    TaskTrainer,
    baseline_scratch,
    build_eval_view,
    build_tasks,
    evaluate,
    forgetting_check,
    probe_fingerprint,
    run_pipeline,
    train_scratch_model,
)
from growcl.ops import cross_entropy, linear, linear_backward, sgd_step
from growcl.rng import SeededRng


def tiny_config(seed=0, n_tasks=2, **overrides):
    data = {
        "seed": seed,
        "arch": {
            "image_size": 16,
            "layers": [
                {"capacity": 6, "seed_channels": 2},
                {"capacity": 8, "seed_channels": 2},
            ],
        },
        "tasks": {"n_tasks": n_tasks, "samples_per_class": 40},
        "epochs": {"task1": 6, "pick": 4, "expand": 5, "scratch": 6},
    }
    data.update(overrides)
    return parse_config_data(data)


@pytest.fixture(scope="module")
def grown_run():
    cfg = tiny_config(n_tasks=3)
    return cfg, run_pipeline(cfg, "grown")


class TestRunGrown:
    def test_all_slots_owned_or_inactive_after_task1(self, grown_run):
        _, res = grown_run
        for layer in res.backbone.layers:
            states = {SlotState(s) for s in layer.slot_state}
            assert states <= {SlotState.FIXED, SlotState.PRUNED, SlotState.UNGROWN}
            fixed = layer.slot_state == SlotState.FIXED
            assert np.all(layer.slot_owner[fixed] >= 1)

    def test_ratio_monotone_and_capped(self, grown_run):
        cfg, res = grown_run
        ratios = [res.ratios[t] for t in res.task_ids]
        assert all(b >= a - 1e-15 for a, b in zip(ratios, ratios[1:]))
        assert all(r <= cfg.growth_cap + 1e-12 for r in ratios)

    def test_forgetting_passes_at_every_boundary(self, grown_run):
        _, res = grown_run
        assert len(res.forgetting_log) == len(res.task_ids)
        for entry in res.forgetting_log:
            assert all(entry["passes"].values())

    def test_gate_matches_pick_vs_target(self, grown_run):
        _, res = grown_run
        assert len(res.gate_log) == len(res.task_ids) - 1
        for e in res.gate_log:
            assert e.expanded == (e.pick_accuracy < e.target_accuracy)

    def test_skipped_expansion_owns_no_channels(self, grown_run):
        _, res = grown_run
        skipped = [e.task_id for e in res.gate_log if not e.expanded]
        for t in skipped:
            for layer in res.backbone.layers:
                assert not np.any(layer.slot_owner == t)

    def test_forward_multipliers_are_binary(self, grown_run):
        cfg, res = grown_run
        tasks = build_tasks(cfg)
        spec = TaskSpec(2, tasks[1], 0.9, cfg.growth_cap)
        trainer = TaskTrainer(res.backbone, spec, cfg, True, SeededRng(0))
        tv = trainer.build_train_view()
        for mult in tv.view.multipliers.values():
            assert set(np.unique(mult)) <= {0.0, 1.0}
        view = build_eval_view(res.backbone, res.snapshots[1])
        for mult in view.multipliers.values():
            assert set(np.unique(mult)) <= {0.0, 1.0}

    def test_report_row_counts(self, grown_run):
        _, res = grown_run
        assert len(res.test_accuracies) == len(res.task_ids)
        assert len(res.ratios) == len(res.task_ids)

    def test_evaluate_is_deterministic(self, grown_run):
        cfg, res = grown_run
        tasks = build_tasks(cfg)
        t = res.task_ids[0]
        a = evaluate(t, res.backbone, res.snapshots[t], tasks[0].val)
        b = evaluate(t, res.backbone, res.snapshots[t], tasks[0].val)
        assert a == b
        fp1 = probe_fingerprint(res.backbone, res.snapshots[t])
        fp2 = probe_fingerprint(res.backbone, res.snapshots[t])
        assert fp1 == fp2 == res.snapshots[t].probe_fingerprint

    def test_missing_snapshot_is_error(self, grown_run):
        cfg, res = grown_run
        tasks = build_tasks(cfg)
        with pytest.raises(KeyError):
            evaluate(1, res.backbone, None, tasks[0].val)
        with pytest.raises(KeyError):
            evaluate(2, res.backbone, res.snapshots[1], tasks[1].val)

    def test_planted_perturbation_detected(self, grown_run):
        _, res = grown_run
        layer = res.backbone.layers[0]
        j, i = np.argwhere(
            (layer.kernel_state == KernelState.USED) & (layer.kernel_owner == 1)
        )[0]
        layer.weights[j, i, 0, 0] += 1e-9
        try:
            passes = forgetting_check(res.snapshots, res.backbone)
            assert passes[1] is False
        finally:
            layer.weights[j, i, 0, 0] -= 1e-9
        assert all(forgetting_check(res.snapshots, res.backbone).values())


class TestGroupNormVariant:
    def test_per_task_norm_keeps_zero_forgetting(self):
        cfg = tiny_config(seed=2, arch={
            "image_size": 16,
            "group_norm": True,
            "layers": [
                {"capacity": 6, "seed_channels": 2},
                {"capacity": 8, "seed_channels": 2},
            ],
        })
        res = run_pipeline(cfg, "grown")
        assert all(all(e["passes"].values()) for e in res.forgetting_log)
        for snap in res.snapshots.values():
            assert snap.norm_scale is not None
            for name, scale in snap.norm_scale.items():
                assert scale.shape == snap.norm_shift[name].shape
        # snapshot+backbone round trip preserves the norm state bit-exactly
        import tempfile
        from growcl.persist import load_run, save_run
        with tempfile.TemporaryDirectory() as d:
            run_dir = save_run(res, d + "/run")
            _, backbone, snapshots = load_run(run_dir)
            assert all(forgetting_check(snapshots, backbone).values())


class TestNonFiniteGuard:
    def test_nan_head_raises_even_with_frozen_conv_weights(self):
        # a grow-only pick phase trains no conv weight, so only the head can
        # carry the NaN; the epoch check must still refuse to go on
        cfg = tiny_config(n_tasks=2)
        tasks = build_tasks(cfg)
        root = SeededRng(cfg.seed)
        backbone = BackboneState(cfg.arch)
        from growcl.driver import _grow_seed_channels
        _grow_seed_channels(backbone, root.substream("growth"))
        tr1 = TaskTrainer(backbone, TaskSpec(1, tasks[0], 0.9, cfg.growth_cap),
                          cfg, False, root)
        tr1.train_phase("grow", 1, grow=True, epoch_log=[])
        tr1.finalize()
        weights = [l.weights.copy() for l in backbone.layers]
        tr2 = TaskTrainer(backbone, TaskSpec(2, tasks[1], 0.9, cfg.growth_cap),
                          cfg, False, root)
        tr2.head_bias[0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite head"):
            tr2.train_phase("pick", 1, grow=False, epoch_log=[])
        for layer, before in zip(backbone.layers, weights):
            assert np.all(np.isfinite(layer.weights))
            assert layer.weights.tobytes() == before.tobytes()


class TestDeterminism:
    def test_identical_seed_reproduces_everything(self):
        cfg = tiny_config(seed=3)
        a = run_pipeline(cfg, "grown")
        b = run_pipeline(cfg, "grown")
        assert a.test_accuracies == b.test_accuracies
        assert a.ratios == b.ratios
        for t in a.snapshots:
            assert a.snapshots[t].probe_fingerprint == b.snapshots[t].probe_fingerprint
        for la, lb in zip(a.backbone.layers, b.backbone.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()
            assert la.slot_state.tobytes() == lb.slot_state.tobytes()


class TestBaselines:
    def test_scratch_rows_track_task_identity(self):
        cfg = tiny_config(n_tasks=2)
        res = baseline_scratch(cfg)
        assert [res.ratios[t] for t in res.task_ids] == [1.0, 2.0]
        # per-task outcome equals an isolated single-task run with same seed
        tasks = build_tasks(cfg)
        solo = train_scratch_model(tasks[1], cfg, cfg.seed)
        assert solo.test_accuracy == res.test_accuracies[2]

    def test_scratch_is_order_equivariant(self):
        cfg = tiny_config(n_tasks=2)
        tasks = build_tasks(cfg)
        a = train_scratch_model(tasks[0], cfg, cfg.seed)
        b = train_scratch_model(tasks[1], cfg, cfg.seed)
        b2 = train_scratch_model(tasks[1], cfg, cfg.seed)
        a2 = train_scratch_model(tasks[0], cfg, cfg.seed)
        assert (a.test_accuracy, b.test_accuracy) == (a2.test_accuracy, b2.test_accuracy)

    def test_grow_only_never_allocates_selection_masks(self):
        cfg = tiny_config(n_tasks=2)
        res = run_pipeline(cfg, "grow_only")
        for snap in res.snapshots.values():
            assert snap.reuse_bits is None
            assert snap.reuse_logits is None and snap.claim_logits is None
            for bits in snap.claim_bits.values():
                assert np.all(bits == 1.0)
        for layer in res.backbone.layers:
            assert not np.any(layer.kernel_state == KernelState.RELEASED)

    def test_grow_only_forgetting_passes(self):
        cfg = tiny_config(n_tasks=2)
        res = run_pipeline(cfg, "grow_only")
        assert all(forgetting_check(res.snapshots, res.backbone).values())


def assert_kernel_logits_at_init(trainer):
    for masks in (trainer.reuse_masks, trainer.claim_masks):
        for mask in masks.values():
            assert np.all(mask.logits == CLAIM_INIT)


class TestKeepAllKernelMasks:
    """Without kernel masks the reuse and claim masks stay at keep-all, so
    the one train view multiplies every used and growing kernel by 1."""

    def test_grow_only_phases_keep_logits_and_multipliers(self):
        cfg = tiny_config(n_tasks=2)
        tasks = build_tasks(cfg)
        root = SeededRng(cfg.seed)
        backbone = BackboneState(cfg.arch)
        from growcl.driver import _grow_seed_channels
        _grow_seed_channels(backbone, root.substream("growth"))
        tr1 = TaskTrainer(backbone, TaskSpec(1, tasks[0], 0.9, cfg.growth_cap),
                          cfg, False, root)
        tr1.train_phase("grow", 2, grow=True, epoch_log=[])
        assert_kernel_logits_at_init(tr1)
        tr1.finalize()

        # target and cap 1.0: task 2 keeps growing channels to the end
        tr2 = TaskTrainer(backbone, TaskSpec(2, tasks[1], 1.0, 1.0), cfg, False, root)
        tr2.train_phase("grow", 2, grow=True, epoch_log=[])
        assert_kernel_logits_at_init(tr2)
        tv = tr2.build_train_view()
        n_used = n_growing = 0
        for layer in backbone.layers:
            name = layer.spec.name
            mult = tv.view.multipliers[name]
            used = tv.used_old[name]
            rows = tv.training_rows[name]
            assert np.all(mult[used] == 1.0) and np.all(mult[rows] == 1.0)
            n_used += int(used.sum())
            n_growing += int(rows.sum())
        assert n_used > 0 and n_growing > 0

    def test_scratch_model_keeps_logits(self, monkeypatch):
        import growcl.driver as driver
        trainers = []

        class Recording(driver.TaskTrainer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                trainers.append(self)

        monkeypatch.setattr(driver, "TaskTrainer", Recording)
        cfg = tiny_config(n_tasks=1)
        train_scratch_model(build_tasks(cfg)[0], cfg, cfg.seed)
        (trainer,) = trainers
        assert_kernel_logits_at_init(trainer)


class TestPickTransferOracle:
    """With zero released kernels and reuse forced to all-ones, the pick
    phase degrades to plain frozen-feature transfer (linear probe)."""

    def test_pick_equals_linear_probe(self):
        cfg = tiny_config(n_tasks=2)
        tasks = build_tasks(cfg)
        root = SeededRng(cfg.seed)
        backbone = BackboneState(cfg.arch)
        from growcl.driver import _grow_seed_channels
        _grow_seed_channels(backbone, root.substream("growth"))
        spec1 = TaskSpec(1, tasks[0], 0.9, cfg.growth_cap)
        tr1 = TaskTrainer(backbone, spec1, cfg, False, root)
        tr1.train_phase("grow", cfg.epochs["task1"], grow=True, epoch_log=[])
        tr1.finalize()
        # grow-only task 1 claims everything: no released kernels exist
        assert not any(
            np.any(l.kernel_state == KernelState.RELEASED) for l in backbone.layers
        )

        # pick phase with selection machinery disabled
        spec2 = TaskSpec(2, tasks[1], 0.9, cfg.growth_cap)
        tr2 = TaskTrainer(backbone, spec2, cfg, False, root)
        tr2.train_phase("pick", cfg.epochs["pick"], grow=False, epoch_log=[])
        candidate = tr2.validation_accuracy()

        # independent linear probe: same frozen features, same head streams
        root2 = SeededRng(cfg.seed)
        root2.substream("growth")
        tv = tr2.build_train_view()
        feats = {}
        for split in ("train", "val"):
            ds = getattr(tasks[1], split)
            h = ds.images
            for layer in backbone.layers:
                from growcl.backbone import effective_filters
                from growcl.ops import conv2d, maxpool2d, relu
                eff = effective_filters(layer, tv.view.multipliers[layer.spec.name])
                eb = np.where(tv.view.channel_on[layer.spec.name], layer.bias, 0.0)
                h, _ = conv2d(h, eff, eb, stride=layer.spec.stride, pad=layer.spec.pad)
                h[:, ~tv.view.channel_on[layer.spec.name]] = 0.0
                h, _ = relu(h)
                if layer.spec.pool:
                    h, _ = maxpool2d(h, layer.spec.pool, layer.spec.pool)
            feats[split] = h.reshape(len(ds), -1)

        init = root2.substream("task2/init")
        batches = root2.substream("task2/batches")
        d = cfg.arch.feature_dim
        k = tasks[1].n_classes
        hw = init.uniform(-np.sqrt(6.0 / d), np.sqrt(6.0 / d), size=(k, d))
        hb = np.zeros(k)
        vw, vb = np.zeros_like(hw), np.zeros_like(hb)
        n = len(tasks[1].train)
        for _ in range(cfg.epochs["pick"]):
            order = batches.permutation(n)
            for s in range(0, n, cfg.batch_size):
                idx = order[s:s + cfg.batch_size]
                out, cache = linear(feats["train"][idx], hw, hb)
                _, dz = cross_entropy(out, tasks[1].train.labels[idx])
                _, dw, db = linear_backward(dz, cache)
                sgd_step(hw, dw, cfg.learning_rate, cfg.momentum, vw)
                sgd_step(hb, db, cfg.learning_rate, cfg.momentum, vb)
        probe_logits, _ = linear(feats["val"], hw, hb)
        probe_acc = float((probe_logits.argmax(axis=1) == tasks[1].val.labels).mean())
        assert candidate == pytest.approx(probe_acc, abs=1e-12)


class TestReleasedKernelFlow:
    def test_released_kernels_claimed_and_frozen_by_next_task(self):
        cfg = tiny_config(n_tasks=2)
        tasks = build_tasks(cfg)
        root = SeededRng(cfg.seed)
        backbone = BackboneState(cfg.arch)
        from growcl.driver import _grow_seed_channels
        _grow_seed_channels(backbone, root.substream("growth"))
        spec1 = TaskSpec(1, tasks[0], 0.9, cfg.growth_cap)
        tr1 = TaskTrainer(backbone, spec1, cfg, True, root)
        tr1.train_phase("grow", cfg.epochs["task1"], grow=True, epoch_log=[])
        # force some releases over a live input channel (a pruned input
        # would leave the released kernels with legitimately zero gradient)
        conv1 = backbone.layer("conv1")
        live = int(np.flatnonzero(conv1.slot_state == SlotState.GROWN_TRAINING)[0])
        tr1.claim_masks["conv2"].logits[:, live] = -1.0
        snap1 = tr1.finalize()
        released = [
            (l.spec.name, tuple(idx))
            for l in backbone.layers
            for idx in np.argwhere(l.kernel_state == KernelState.RELEASED)
        ]
        assert released

        before = {key: backbone.layer(key[0]).weights[key[1]].copy()
                  for key in released}
        spec2 = TaskSpec(2, tasks[1], 0.9, cfg.growth_cap)
        tr2 = TaskTrainer(backbone, spec2, cfg, True, root)
        tr2.train_phase("pick", cfg.epochs["pick"], grow=False, epoch_log=[])
        snap2 = tr2.finalize()

        moved = 0
        for name, idx in released:
            layer = backbone.layer(name)
            assert layer.kernel_state[idx] == KernelState.USED
            assert layer.kernel_owner[idx] == 2
            if not np.array_equal(layer.weights[idx], before[(name, idx)]):
                moved += 1
        assert moved > 0   # retraining actually touched released kernels
        # and task 1 is byte-stable regardless
        assert probe_fingerprint(backbone, snap1) == snap1.probe_fingerprint

    def test_eval_view_multiplier_rules(self):
        cfg = tiny_config()
        backbone = BackboneState(cfg.arch)
        layer = backbone.layers[0]
        layer.slot_state[:3] = SlotState.FIXED
        layer.slot_owner[:3] = [1, 2, 3]
        layer.kernel_state[:3] = KernelState.USED
        layer.kernel_owner[0] = 1
        layer.kernel_owner[1] = 2
        layer.kernel_owner[2] = 3
        layer.kernel_state[1, 0] = KernelState.RELEASED
        from growcl.driver import TaskSnapshot
        reuse = {l.spec.name: np.full((l.spec.out_channels, l.spec.in_channels), 0.0)
                 for l in backbone.layers}
        reuse["conv1"][0, :] = 1.0
        snap = TaskSnapshot(
            task_id=2, n_classes=2, reuse_bits=reuse,
            claim_bits={l.spec.name: np.ones_like(l.kernel_state, dtype=float)
                        for l in backbone.layers},
            head_weight=np.zeros((2, cfg.arch.feature_dim)), head_bias=np.zeros(2),
            norm_scale=None, norm_shift=None,
            probe_images=np.zeros((1, 1, 16, 16)), probe_fingerprint="",
        )
        view = build_eval_view(backbone, snap)
        mult = view.multipliers["conv1"]
        on = view.channel_on["conv1"]
        assert list(on[:4]) == [True, True, False, False]  # owners 1,2 <= t=2 < 3
        assert np.all(mult[0] == 1.0)          # USED by task 1 -> reuse bit 1
        assert mult[1, 0] == 0.0               # RELEASED -> 0
        assert np.all(mult[1, 1:] == 1.0)      # USED by task 2 itself -> 1
        assert np.all(mult[2] == 0.0)          # owner 3 > 2 -> channel off
