import copy
import dataclasses

import numpy as np
import pytest

from growcl.backbone import BackboneState, KernelState, SlotState, forward_pass
from growcl.config import ConfigError, parse_config_data
from growcl.driver import (
    CLAIM_INIT,
    EXPLORE_PER_EPOCH,
    TaskTrainer,
    baseline_scratch,
    build_eval_view,
    build_tasks,
    evaluate,
    forgetting_check,
    probe_fingerprint,
    run_pipeline,
    train_scratch_model,
    train_task1,
)
from growcl.growth import ContractViolation, finalize_task, query_and_transition
from growcl.ops import cross_entropy, linear, linear_backward, sgd_step
from growcl.persist import load_run, save_run
from growcl.rng import SeededRng

from oracles import first_difference


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

    def test_boundary_rules_checked_after_each_task(self, monkeypatch):
        # a finalize that leaves a bias in a row it did not fix is caught at
        # that task's boundary, before the forgetting check
        import growcl.driver as driver

        def leaky_finalize(layer, claim_bits, task_id):
            actions = finalize_task(layer, claim_bits, task_id)
            if task_id == 2 and layer.spec.name == "conv2":
                j = int(np.flatnonzero(layer.slot_state != SlotState.FIXED)[0])
                layer.bias[j] = 0.5
            return actions

        monkeypatch.setattr(driver, "finalize_task", leaky_finalize)
        with pytest.raises(ContractViolation,
                           match=r"^backbone after task 2: conv2/bias\[\d+\] = 0\.5: a row that"):
            run_pipeline(tiny_config(n_tasks=3), "grown")

    @pytest.mark.parametrize("array,position", [("weights", r"\d+"), ("bias", "'bias'")],
                             ids=["kernel", "bias"])
    def test_a_changed_protected_entry_is_named_at_the_boundary(self, array, position,
                                                               monkeypatch):
        # task 2's finalize moves a kernel or bias task 1 fixed by one ulp; the
        # boundary names it before the forgetting check can fail
        import growcl.driver as driver

        def leaky_finalize(layer, claim_bits, task_id):
            actions = finalize_task(layer, claim_bits, task_id)
            if task_id == 2 and layer.spec.name == "conv1":
                j = int(np.flatnonzero(layer.slot_owner == 1)[0])
                values = getattr(layer, array)
                values[j] = np.nextafter(values[j], np.inf)
            return actions

        monkeypatch.setattr(driver, "finalize_task", leaky_finalize)
        with pytest.raises(ContractViolation, match=rf"^protected weight changed after task 2: "
                                                    rf"\('conv1', \d+, {position}, 1\)$"):
            run_pipeline(tiny_config(target_accuracy=0.5), "grow_only")

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
        trainer = TaskTrainer(res.backbone, tasks[1], cfg, True, SeededRng(0))
        for mult in trainer.build_train_view().multipliers.values():
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
        tr1 = TaskTrainer(backbone, tasks[0], cfg, False, root)
        tr1.train_phase("grow", 1, [], target=0.9)
        tr1.finalize()
        weights = [l.weights.copy() for l in backbone.layers]
        tr2 = TaskTrainer(backbone, tasks[1], cfg, False, root)
        tr2.head_bias[0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite head"):
            tr2.train_phase("pick", 1, [])
        for layer, before in zip(backbone.layers, weights):
            assert np.all(np.isfinite(layer.weights))
            assert layer.weights.tobytes() == before.tobytes()


class TestDeterminism:
    def test_identical_seed_reproduces_everything(self):
        # two parses, so the second run retrains its scratch targets too
        a = run_pipeline(tiny_config(seed=3), "grown")
        b = run_pipeline(tiny_config(seed=3), "grown")
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
        # (on a fresh parse, whose memo holds none of the sequence's models)
        tasks = build_tasks(cfg)
        solo = train_scratch_model(tasks[1], tiny_config(n_tasks=2))
        assert solo.test_accuracy == res.test_accuracies[2]

    def test_scratch_is_order_equivariant(self):
        cfg = tiny_config(n_tasks=2)
        tasks = build_tasks(cfg)
        a = train_scratch_model(tasks[0], cfg)
        b = train_scratch_model(tasks[1], cfg)
        again = tiny_config(n_tasks=2)   # retrains, in the other order
        b2 = train_scratch_model(tasks[1], again)
        a2 = train_scratch_model(tasks[0], again)
        assert (a.test_accuracy, b.test_accuracy) == (a2.test_accuracy, b2.test_accuracy)

    def test_grow_only_never_allocates_selection_masks(self):
        cfg = tiny_config(n_tasks=2)
        res = run_pipeline(cfg, "grow_only")
        for snap in res.snapshots.values():
            assert snap.reuse_bits is None
        # every claim bit was 1: each FIXED row's kernels are all owned
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
        tr1 = TaskTrainer(backbone, tasks[0], cfg, False, root)
        tr1.train_phase("grow", 2, [], target=0.9)
        assert_kernel_logits_at_init(tr1)
        tr1.finalize()

        # target and cap 1.0: task 2 keeps growing channels to the end
        uncapped = dataclasses.replace(cfg, growth_cap=1.0)
        tr2 = TaskTrainer(backbone, tasks[1], uncapped, False, root)
        tr2.train_phase("grow", 2, [], target=1.0)
        assert_kernel_logits_at_init(tr2)
        view = tr2.build_train_view()
        n_used = n_growing = 0
        for layer in backbone.layers:
            mult = view.multipliers[layer.spec.name]
            used = layer.kernel_state == KernelState.USED
            rows = layer.slot_state == SlotState.GROWN_TRAINING
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
        train_scratch_model(build_tasks(cfg)[0], cfg)
        (trainer,) = trainers
        assert_kernel_logits_at_init(trainer)


class TestTargetGatesGrowth:
    """``train_phase`` grows only when given a target, and tries UNGROWN
    slots only while validation accuracy is below it."""

    class Recording(TaskTrainer):
        """Per epoch query: need_growth and the UNGROWN slots grown, per layer."""

        def query_epoch(self, temperature, need_growth):
            before = [l.slot_state == SlotState.UNGROWN for l in self.backbone.layers]
            super().query_epoch(temperature, need_growth)
            self.queries.append((need_growth, [
                int((was & (l.slot_state != SlotState.UNGROWN)).sum())
                for was, l in zip(before, self.backbone.layers)]))

    def seeded_trainer(self):
        cfg = tiny_config(n_tasks=1)
        (task,) = build_tasks(cfg)
        root = SeededRng(cfg.seed)
        backbone = BackboneState(cfg.arch)
        from growcl.driver import _grow_seed_channels
        _grow_seed_channels(backbone, root.substream("growth"))
        trainer = self.Recording(backbone, task, cfg, False, root)
        trainer.queries = []
        return trainer

    def test_no_target_changes_no_slot_and_no_gate_logit(self):
        trainer = self.seeded_trainer()
        states = [l.slot_state.tobytes() for l in trainer.backbone.layers]
        logits = {name: m.logits.tobytes() for name, m in trainer.grow_masks.items()}
        trainer.train_phase("pick", 3, [])
        assert trainer.queries == []
        assert [l.slot_state.tobytes() for l in trainer.backbone.layers] == states
        assert {name: m.logits.tobytes() for name, m in trainer.grow_masks.items()} == logits

    def test_met_target_grows_no_ungrown_slot(self):
        trainer = self.seeded_trainer()
        ungrown = [l.slot_state == SlotState.UNGROWN for l in trainer.backbone.layers]
        assert all(mask.any() for mask in ungrown)
        trainer.train_phase("grow", 4, [], target=1e-6)
        assert [need for need, _ in trainer.queries] == [False] * 4
        for was, layer in zip(ungrown, trainer.backbone.layers):
            assert np.all(layer.slot_state[was] == SlotState.UNGROWN)

    def test_unmet_target_grows_a_bounded_number_per_epoch(self):
        trainer = self.seeded_trainer()
        trainer.train_phase("grow", 4, [], target=1.0)
        assert trainer.queries and all(need for need, _ in trainer.queries)
        grown = [n for _, per_layer in trainer.queries for n in per_layer]
        assert max(grown) <= EXPLORE_PER_EPOCH
        assert sum(grown) > 0


class TestStepWorkspaces:
    def test_buffers_live_across_steps_finalize_and_forgetting_check(self):
        # every later pass of a 1-task run is no larger than its first step,
        # so each layer keeps the buffers that step made
        cfg = tiny_config(n_tasks=1)
        (task,) = build_tasks(cfg)
        root = SeededRng(cfg.seed)
        backbone = BackboneState(cfg.arch)
        from growcl.driver import _grow_seed_channels
        _grow_seed_channels(backbone, root.substream("growth"))
        trainer = TaskTrainer(backbone, task, cfg, True, root)
        batch = np.arange(cfg.batch_size)
        trainer.train_step(batch, 1.0)
        first = [dict(layer.workspace) for layer in backbone.layers]
        assert all(first)
        for _ in range(2):   # no target, so no slot grows: every step has one shape
            trainer.validation_accuracy()
            trainer.train_step(batch, 1.0)
        snapshot = trainer.finalize()
        assert forgetting_check({1: snapshot}, backbone) == {1: True}
        assert all(layer.workspace.keys() == before.keys()
                   and all(layer.workspace[role] is buf for role, buf in before.items())
                   for layer, before in zip(backbone.layers, first, strict=True))


def after_task1(layers=None, target=0.9):
    """A grow_only backbone after task 1 (trained to ``target``), with
    UNGROWN slots left in every layer, and the task sequence; 64 training
    images in steps of 24, and no growth cap that could undo a slot the
    tests grow.  ``layers`` replaces the arch's layers."""
    from growcl.driver import _grow_seed_channels
    arch = {} if layers is None else {"arch": {"image_size": 16, "layers": layers}}
    cfg = tiny_config(batch_size=24, growth_cap=1.0, **arch)
    tasks = build_tasks(cfg)
    root = SeededRng(cfg.seed)
    backbone = BackboneState(cfg.arch)
    _grow_seed_channels(backbone, root.substream("growth"))
    train_task1(backbone, tasks[0], target, cfg, False, root, [])
    assert all(np.any(l.slot_state == SlotState.UNGROWN) for l in backbone.layers)
    return cfg, tasks, backbone


@pytest.fixture(scope="module")
def grow_only_after_task1():
    return after_task1()


def set_slot(trainer, layer_index, state):
    """Grow the first UNGROWN slot of a layer (its gate logit at +1, as
    ``query_epoch`` starts one), or detach every growing slot of it."""
    layer = trainer.backbone.layers[layer_index]
    bits = np.where(layer.slot_state == SlotState.FIXED, np.nan, 0.0)
    if state == SlotState.GROWN_TRAINING:
        j = np.flatnonzero(layer.slot_state == SlotState.UNGROWN)[0]
        bits[j] = 1.0
        trainer.grow_masks[layer.spec.name].logits[j] = 1.0
    else:
        bits[layer.slot_state == SlotState.GROWN_TRAINING] = 0.0
    query_and_transition(layer, bits, trainer.growth)


class TestFrozenTrunkCache:
    """A grow_only step runs from the lowest layer that holds trainable state,
    on cached outputs of the layers below it.  Its parameters, velocities and
    losses are those of the same steps run in full, byte for byte."""

    def run_both(self, fixture, monkeypatch, script, epochs):
        """Train task 2 for ``epochs`` growing epochs twice: with the cache,
        and with ``frozen_depth`` patched to 0, which bypasses it.  Before
        epoch e's query, ``script[e]`` (layer index, state) pairs are set.
        Both runs give every gate logit off the growing rows an exact +0.0
        data gradient.  Returns the cached trainer's depth per step, and the
        cached trainer."""
        cfg, tasks, backbone = fixture
        depths, runs = [], []
        for cached in (True, False):
            trainer = TaskTrainer(copy.deepcopy(backbone), tasks[1], cfg, False,
                                  SeededRng(cfg.seed))
            if not cached:
                monkeypatch.setattr(trainer, "frozen_depth", lambda: 0)
            losses, queried = [], []
            step, query, relaxed = trainer.train_step, trainer.query_epoch, trainer._relaxed_grad

            def checked_relaxed(mask, d_bits, temperature, trainer=trainer, relaxed=relaxed):
                for layer in trainer.backbone.layers:
                    if mask is trainer.grow_masks[layer.spec.name]:
                        off = layer.slot_state != SlotState.GROWN_TRAINING
                        assert not d_bits[off].view(np.int64).any(), layer.spec.name
                return relaxed(mask, d_bits, temperature)

            def scripted_query(temperature, need_growth, trainer=trainer, query=query,
                               queried=queried):
                for layer_index, state in script.get(len(queried), []):
                    set_slot(trainer, layer_index, state)
                queried.append(temperature)
                query(temperature, need_growth=False)   # every draw; no slot tried

            def recorded_step(idx, temperature, trainer=trainer, step=step, cached=cached):
                if cached:
                    depths.append(trainer.frozen_depth())
                losses.append(step(idx, temperature))
                return losses[-1]

            monkeypatch.setattr(trainer, "query_epoch", scripted_query)
            monkeypatch.setattr(trainer, "train_step", recorded_step)
            monkeypatch.setattr(trainer, "_relaxed_grad", checked_relaxed)
            log = []
            trainer.train_phase("grow", epochs, log, target=1.0)
            assert (trainer.trunk is not None) == cached
            runs.append((trainer, losses, log))
        (a, losses_a, log_a), (b, losses_b, log_b) = runs
        assert np.array(losses_a).tobytes() == np.array(losses_b).tobytes()
        assert log_a == log_b
        for label in a.params:
            assert a.params[label].tobytes() == b.params[label].tobytes(), label
            assert a.velocity[label].tobytes() == b.velocity[label].tobytes(), label
        for la, lb in zip(a.backbone.layers, b.backbone.layers):
            assert la.slot_state.tobytes() == lb.slot_state.tobytes()
        return depths, a

    def test_steps_with_no_trainable_layer(self, grow_only_after_task1, monkeypatch):
        depths, _ = self.run_both(grow_only_after_task1, monkeypatch, {}, 2)
        assert depths == [2] * 6

    def test_steps_with_only_the_top_layer_trainable(self, grow_only_after_task1, monkeypatch):
        script = {0: [(1, SlotState.GROWN_TRAINING)]}
        depths, _ = self.run_both(grow_only_after_task1, monkeypatch, script, 2)
        assert depths == [1] * 6

    def test_epochs_where_a_slot_grows_and_then_detaches(self, grow_only_after_task1,
                                                         monkeypatch):
        script = {1: [(1, SlotState.GROWN_TRAINING)], 2: [(0, SlotState.GROWN_TRAINING)],
                  3: [(0, SlotState.DETACHED)], 4: [(1, SlotState.DETACHED)]}
        depths, _ = self.run_both(grow_only_after_task1, monkeypatch, script, 5)
        assert depths == [2] * 3 + [1] * 3 + [0] * 3 + [1] * 3 + [2] * 3

    def test_three_layers(self, monkeypatch):
        fixture = after_task1([{"capacity": 6, "seed_channels": 2},
                               {"capacity": 6, "seed_channels": 2},
                               {"capacity": 8, "seed_channels": 2}])
        script = {1: [(2, SlotState.GROWN_TRAINING)], 2: [(1, SlotState.GROWN_TRAINING)]}
        depths, _ = self.run_both(fixture, monkeypatch, script, 3)
        assert depths == [3] * 3 + [2] * 3 + [1] * 3

    def test_strided_layers_without_pooling(self, monkeypatch):
        strided = {"seed_channels": 2, "kernel": 4, "stride": 2, "pool": 0}
        fixture = after_task1([{"capacity": 6, **strided}, {"capacity": 8, **strided}])
        script = {1: [(1, SlotState.GROWN_TRAINING)]}
        depths, _ = self.run_both(fixture, monkeypatch, script, 2)
        assert depths == [2] * 3 + [1] * 3

    def test_one_by_one_kernels_with_a_lone_channel_trunk(self, monkeypatch):
        # conv1's one on channel is the trunk: its lone-channel products are
        # taken in other batches than the full steps take them
        fixture = after_task1([{"capacity": 6, "seed_channels": 1, "kernel": 1, "pad": 0},
                               {"capacity": 8, "seed_channels": 2, "kernel": 1, "pad": 0}],
                              target=0.0)
        assert [int((l.slot_state == SlotState.FIXED).sum()) for l in fixture[2].layers] == [1, 2]
        script = {1: [(1, SlotState.GROWN_TRAINING)]}
        depths, _ = self.run_both(fixture, monkeypatch, script, 2)
        assert depths == [2] * 3 + [1] * 3

    def test_a_released_kernel_trains_from_its_layer(self, grow_only_after_task1, monkeypatch):
        cfg, tasks, backbone = grow_only_after_task1
        bb = copy.deepcopy(backbone)
        layer = bb.layers[1]
        row = np.flatnonzero(layer.slot_state == SlotState.FIXED)[0]
        layer.kernel_owner[row, 0] = 0   # a RELEASED kernel
        depths, trained = self.run_both((cfg, tasks, bb), monkeypatch, {}, 2)
        moved = trained.backbone.layers[1].weights[row] != layer.weights[row]
        assert moved[0].all() and not moved[1:].any()
        assert depths == [1] * 6

    def test_a_frozen_layer_with_negative_weights(self, grow_only_after_task1, monkeypatch):
        # a cached step multiplies the frozen layer's +0.0 filter gradients
        # by its weights: every product is -0.0 here
        cfg, tasks, backbone = grow_only_after_task1
        bb = copy.deepcopy(backbone)
        fixed = bb.layers[0].slot_state == SlotState.FIXED
        bb.layers[0].weights[fixed] = -np.abs(bb.layers[0].weights[fixed]) - 0.01
        script = {0: [(1, SlotState.GROWN_TRAINING)]}
        depths, _ = self.run_both((cfg, tasks, bb), monkeypatch, script, 2)
        assert depths == [1] * 6

    def test_depth_is_the_lowest_layer_with_trainable_state(self, grow_only_after_task1):
        cfg, tasks, backbone = grow_only_after_task1
        bb = copy.deepcopy(backbone)
        trainer = TaskTrainer(bb, tasks[1], cfg, False, SeededRng(cfg.seed))
        assert trainer.frozen_depth() == 2
        fixed = np.flatnonzero(bb.layers[1].slot_state == SlotState.FIXED)[0]
        bb.layers[1].kernel_owner[fixed, 0] = 0   # a RELEASED kernel
        assert trainer.frozen_depth() == 1
        set_slot(trainer, 0, SlotState.GROWN_TRAINING)
        assert trainer.frozen_depth() == 0
        set_slot(trainer, 0, SlotState.DETACHED)
        assert trainer.frozen_depth() == 1
        # kernel masks learn from every layer's gradient
        assert TaskTrainer(bb, tasks[1], cfg, True, SeededRng(cfg.seed)).frozen_depth() == 0

    def test_trunk_follows_the_view_below_it(self, grow_only_after_task1):
        cfg, tasks, backbone = grow_only_after_task1
        trainer = TaskTrainer(copy.deepcopy(backbone), tasks[1], cfg, False, SeededRng(cfg.seed))
        images = tasks[1].train.images
        view = trainer.build_train_view()
        first = trainer.trunk_outputs(view, 2)
        assert first.tobytes() == forward_pass(trainer.backbone, view, images, stop=2).tobytes()
        assert trainer.trunk_outputs(view, 2) is first
        # a multiplier, then an on channel, below the start: each is a new trunk
        view.multipliers["conv2"] = view.multipliers["conv2"].copy()
        view.multipliers["conv2"][np.flatnonzero(view.channel_on["conv2"])[0], 0] = 0.0
        view.channel_on["conv1"] = view.channel_on["conv1"].copy()
        for change in ("multiplier", "channel"):
            if change == "channel":
                view.channel_on["conv1"][np.flatnonzero(view.channel_on["conv1"])[0]] = False
                view.multipliers["conv1"] = view.multipliers["conv1"] * view.channel_on["conv1"][:, None]
            got = trainer.trunk_outputs(view, 2)
            assert got.tobytes() == forward_pass(trainer.backbone, view, images, stop=2).tobytes()
            assert got.tobytes() != first.tobytes(), change
            first = got

    @pytest.mark.parametrize("mode,group_norm", [("grown", False), ("grow_only", True),
                                                 ("grow_only", False)])
    def test_only_grow_only_without_norm_builds_one_and_finalize_drops_it(
            self, mode, group_norm, monkeypatch):
        import growcl.driver as driver

        built, finalized = [], []

        class Recording(driver.TaskTrainer):
            def trunk_outputs(self, view, start):
                built.append(self.task.task_id)
                return super().trunk_outputs(view, start)

            def finalize(self):
                snapshot = super().finalize()
                finalized.append(self.trunk)
                return snapshot

        monkeypatch.setattr(driver, "TaskTrainer", Recording)
        cfg = tiny_config(n_tasks=3)
        cfg = tiny_config(n_tasks=3, arch={**cfg.resolved["arch"], "group_norm": group_norm})
        run_pipeline(cfg, mode)
        assert finalized == [None] * 3
        if mode == "grown" or group_norm:
            assert built == []
        else:
            assert built and 1 not in built


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
        tr1 = TaskTrainer(backbone, tasks[0], cfg, False, root)
        tr1.train_phase("grow", cfg.epochs["task1"], [], target=0.9)
        tr1.finalize()
        # grow-only task 1 claims everything: no released kernels exist
        assert not any(
            np.any(l.kernel_state == KernelState.RELEASED) for l in backbone.layers
        )

        # pick phase with selection machinery disabled
        tr2 = TaskTrainer(backbone, tasks[1], cfg, False, root)
        tr2.train_phase("pick", cfg.epochs["pick"], [])
        candidate = tr2.validation_accuracy()

        # independent linear probe: same frozen features, same head streams
        root2 = SeededRng(cfg.seed)
        root2.substream("growth")
        view = tr2.build_train_view()
        feats = {}
        for split in ("train", "val"):
            ds = getattr(tasks[1], split)
            h = ds.images
            for layer in backbone.layers:
                from growcl.ops import conv2d, maxpool2d, relu
                from oracles import all_channel_filters
                eff = all_channel_filters(layer, view.multipliers[layer.spec.name])
                eb = np.where(view.channel_on[layer.spec.name], layer.bias, 0.0)
                h, _ = conv2d(h, eff, eb, stride=layer.spec.stride, pad=layer.spec.pad)
                h[:, ~view.channel_on[layer.spec.name]] = 0.0
                h, _ = relu(h)
                if layer.spec.pool:
                    h, _ = maxpool2d(h, layer.spec.pool)
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


class TestDetachedSlotFreezes:
    def test_slot_detached_at_query_keeps_its_bytes_despite_velocity(self):
        # the slot trains for an epoch, so its weight and bias velocities are
        # nonzero when the next epoch's query detaches it
        cfg = tiny_config(n_tasks=1, growth_cap=1.0)
        (task,) = build_tasks(cfg)
        root = SeededRng(cfg.seed)
        backbone = BackboneState(cfg.arch)
        from growcl.driver import _grow_seed_channels
        _grow_seed_channels(backbone, root.substream("growth"))
        trainer = TaskTrainer(backbone, task, cfg, True, root)
        trainer.train_phase("grow", 1, [], target=1.0)
        layer = backbone.layers[0]
        (j, *_) = np.flatnonzero(layer.slot_state == SlotState.GROWN_TRAINING)
        assert np.any(trainer.velocity["conv1 weights"][j] != 0.0)
        assert trainer.velocity["conv1 bias"][j] != 0.0
        weights, bias = layer.weights[j].tobytes(), layer.bias[j].tobytes()

        trainer.grow_masks["conv1"].logits[j] = -5.0
        trainer.train_phase("grow", 1, [], target=1.0)
        assert layer.slot_state[j] == SlotState.DETACHED
        assert layer.weights[j].tobytes() == weights
        assert layer.bias[j].tobytes() == bias
        assert np.all(trainer.velocity["conv1 weights"][j] == 0.0)


class TestReleasedKernelFlow:
    def test_released_kernels_claimed_and_frozen_by_next_task(self):
        cfg = tiny_config(n_tasks=2)
        tasks = build_tasks(cfg)
        root = SeededRng(cfg.seed)
        backbone = BackboneState(cfg.arch)
        from growcl.driver import _grow_seed_channels
        _grow_seed_channels(backbone, root.substream("growth"))
        tr1 = TaskTrainer(backbone, tasks[0], cfg, True, root)
        tr1.train_phase("grow", cfg.epochs["task1"], [], target=0.9)
        # force some releases over a live input channel (a pruned input
        # would leave the released kernels with legitimately zero gradient)
        layers = {l.spec.name: l for l in backbone.layers}
        conv1 = layers["conv1"]
        live = int(np.flatnonzero(conv1.slot_state == SlotState.GROWN_TRAINING)[0])
        tr1.claim_masks["conv2"].logits[:, live] = -1.0
        snap1 = tr1.finalize()
        released = [
            (l.spec.name, tuple(idx))
            for l in backbone.layers
            for idx in np.argwhere(l.kernel_state == KernelState.RELEASED)
        ]
        assert released

        before = {key: layers[key[0]].weights[key[1]].copy()
                  for key in released}
        tr2 = TaskTrainer(backbone, tasks[1], cfg, True, root)
        tr2.train_phase("pick", cfg.epochs["pick"], [])
        snap2 = tr2.finalize()

        moved = 0
        for name, idx in released:
            layer = layers[name]
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
        layer.kernel_owner[0] = 1
        layer.kernel_owner[1] = 2
        layer.kernel_owner[2] = 3
        layer.kernel_owner[1, 0] = 0   # RELEASED: a FIXED row's kernel that no task owns
        from growcl.driver import TaskSnapshot
        reuse = {l.spec.name: np.full((l.spec.out_channels, l.spec.in_channels), 0.0)
                 for l in backbone.layers}
        reuse["conv1"][0, :] = 1.0
        snap = TaskSnapshot(
            task_id=2, n_classes=2, reuse_bits=reuse,
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


class TestOneTaskView:
    """``task_view`` against one reference builder per kind of task
    (``tests/oracles.py``): the view of the task in training at every train
    step, and of every finished task at every boundary.  Run directories of the benchmarked
    configs never hold a zero reuse or claim bit, so here ~30 % of the reuse
    logits go to -1 before each pick phase and ~30 % of the claim logits
    before each grow phase and each finalize."""

    @staticmethod
    def assert_same_view(view, ref):
        assert view.multipliers.keys() == ref.multipliers.keys()
        for name, mult in ref.multipliers.items():
            assert view.multipliers[name].dtype == mult.dtype
            assert view.multipliers[name].tobytes() == mult.tobytes()
            assert view.channel_on[name].tobytes() == ref.channel_on[name].tobytes()

    @pytest.mark.parametrize("group_norm", [False, True], ids=["plain", "group-norm"])
    def test_task_view_matches_both_references(self, monkeypatch, tmp_path, group_norm):
        import growcl.driver as driver
        from oracles import eval_view_reference, train_view_reference

        counts = dict.fromkeys(["steps", "released", "zero claim bits", "eval views",
                                "zero reuse bits", "saved runs", "saved released"], 0)
        same = self.assert_same_view

        def drop(logits, task_id, layer_index, phase):   # ~30 % of them to -1
            seed = [task_id, layer_index, ("pick", "grow", "expand", "finalize").index(phase)]
            logits[np.random.default_rng(seed).random(logits.shape) < 0.3] = -1.0

        class Checked(driver.TaskTrainer):
            def train_phase(self, phase, *args, **kwargs):
                masks = self.reuse_masks if phase == "pick" else self.claim_masks
                for i, mask in enumerate(masks.values()):
                    drop(mask.logits, self.task.task_id, i, phase)
                return super().train_phase(phase, *args, **kwargs)

            def train_step(self, *args, **kwargs):
                same(self.build_train_view(), train_view_reference(self))
                counts["steps"] += 1
                for l in self.backbone.layers:
                    growing = l.slot_state == SlotState.GROWN_TRAINING
                    claim = self.claim_masks[l.spec.name].hard_bits()[growing]
                    counts["zero claim bits"] += int((claim == 0.0).sum())
                    counts["released"] += int((l.kernel_state == KernelState.RELEASED).sum())
                return super().train_step(*args, **kwargs)

            def finalize(self):
                for i, mask in enumerate(self.claim_masks.values()):
                    drop(mask.logits, self.task.task_id, i, "finalize")
                return super().finalize()

        def checked_eval_view(backbone, snapshot):
            view = build_eval_view(backbone, snapshot)
            same(view, eval_view_reference(backbone, snapshot))
            counts["eval views"] += 1
            if snapshot.reuse_bits is not None:
                counts["zero reuse bits"] += sum(
                    int((snapshot.reuse_bits[l.spec.name][
                        view.channel_on[l.spec.name][:, None]
                        & (l.kernel_state == KernelState.USED)
                        & (l.kernel_owner < snapshot.task_id)] == 0.0).sum())
                    for l in backbone.layers)
            return view

        def saved_boundary(result, digests, after_task):
            # the run so far is saved at each boundary, the last one being
            # the end of the run, and must load and re-verify cold
            digests = check_boundary(result, digests, after_task)
            run_dir = save_run(result, tmp_path / f"after{after_task}")
            _, backbone, snapshots = load_run(run_dir)
            assert all(forgetting_check(snapshots, backbone).values())
            counts["saved runs"] += 1
            counts["saved released"] += sum(
                int((l.kernel_state == KernelState.RELEASED).sum()) for l in backbone.layers)
            return digests

        check_boundary = driver._check_boundary
        monkeypatch.setattr(driver, "TaskTrainer", Checked)
        monkeypatch.setattr(driver, "build_eval_view", checked_eval_view)
        monkeypatch.setattr(driver, "_check_boundary", saved_boundary)
        cfg = tiny_config(target_accuracy=1.0, growth_cap=1.0,
                          arch={"group_norm": group_norm},
                          tasks={"n_tasks": 4, "samples_per_class": 40},
                          epochs={"task1": 3, "pick": 2, "expand": 2, "scratch": 1})
        res = run_pipeline(cfg, "grown")
        assert all(all(e["passes"].values()) for e in res.forgetting_log)
        # the rules the benchmarked runs never reach were reached here
        assert counts["steps"] > 0 and counts["eval views"] > 0
        assert counts["released"] > 0 and counts["zero claim bits"] > 0
        assert counts["zero reuse bits"] > 0
        assert counts["saved runs"] == 4 and counts["saved released"] > 0


@pytest.fixture
def scratch_trainings(monkeypatch):
    """The task ids of the scratch models actually trained, in order."""
    import growcl.driver as driver
    trained = []
    train_phase = driver.TaskTrainer.train_phase

    def counting(self, phase, *args, **kwargs):
        if phase == "scratch":
            trained.append(self.task.task_id)
        return train_phase(self, phase, *args, **kwargs)

    monkeypatch.setattr(driver.TaskTrainer, "train_phase", counting)
    return trained


def one_epoch_config(seed=0):
    return tiny_config(seed=seed, n_tasks=1, epochs={"scratch": 1})


class TestScratchMemo:
    """``train_scratch_model`` memoizes its outcomes on the parsed config."""

    def test_table_trains_each_scratch_model_once(self, scratch_trainings, tmp_path):
        cfg = tiny_config(n_tasks=2)
        for mode in ("scratch", "grown", "grow_only"):
            save_run(run_pipeline(cfg, mode), tmp_path / "shared" / mode)
        assert scratch_trainings == [1, 2]
        # the same bytes as runs that train their own scratch targets
        for mode in ("grown", "grow_only"):
            save_run(run_pipeline(tiny_config(n_tasks=2), mode), tmp_path / "fresh" / mode)
            assert first_difference(tmp_path / "shared" / mode,
                                    tmp_path / "fresh" / mode) is None
        assert scratch_trainings == [1, 2] * 3

    @pytest.mark.parametrize("variant", [
        lambda task, cfg: (task, one_epoch_config()),
        lambda task, cfg: (task, dataclasses.replace(cfg, epochs={"scratch": 2})),
        lambda task, cfg: (task, dataclasses.replace(cfg, seed=cfg.seed + 1)),
        lambda task, cfg: (build_tasks(one_epoch_config(seed=5))[0], cfg),
    ], ids=["fresh-parse", "replaced-epochs", "other-seed", "same-id-other-data"])
    def test_trains_again_outside_the_key(self, scratch_trainings, variant):
        cfg = one_epoch_config()
        task = build_tasks(cfg)[0]
        first = train_scratch_model(task, cfg)
        assert train_scratch_model(task, cfg) == first
        assert scratch_trainings == [1]
        train_scratch_model(*variant(task, cfg))
        assert scratch_trainings == [1, 1]

    def test_outcome_is_a_copy(self, scratch_trainings):
        """The memo hands out its stored outcome, so no write may reach it."""
        cfg = one_epoch_config()
        task = build_tasks(cfg)[0]
        outcome = train_scratch_model(task, cfg)
        expected = copy.deepcopy(outcome)
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.val_accuracy = -1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.epoch_log[0].loss = -1.0
        with pytest.raises(AttributeError):
            outcome.epoch_log.extend(outcome.epoch_log)
        again = train_scratch_model(task, cfg)
        assert again is outcome and again == expected
        assert scratch_trainings == [1]

    def test_memo_is_no_part_of_the_config(self):
        cfg, other = one_epoch_config(), one_epoch_config()
        train_scratch_model(build_tasks(cfg)[0], cfg)
        assert cfg.scratch_outcomes and not other.scratch_outcomes
        assert "scratch_outcomes" not in cfg.resolved
        assert cfg.digest == other.digest
        assert repr(cfg) == repr(other) and "scratch_outcomes" not in repr(cfg)
        assert cfg == other
        with pytest.raises(ConfigError, match="scratch_outcomes"):
            parse_config_data({"scratch_outcomes": {}})
