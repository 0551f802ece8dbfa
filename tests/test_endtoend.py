"""Medium-weight end-to-end behavior checks (heavier runs live in
test_acceptance.py)."""

import numpy as np
import pytest

import growcl.driver
from growcl.backbone import BackboneState, SlotState, TaskView, forward_pass
from growcl.config import parse_config_data
from growcl.driver import build_tasks, run_pipeline, train_scratch_model
from growcl.persist import save_run
from growcl.rng import SeededRng

from oracles import backward_pass_full, first_difference, forward_pass_full


class TestFirstTaskAttainment:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_easy_two_class_first_task_reaches_095(self, seed):
        cfg = parse_config_data({"seed": seed, "tasks": {"n_tasks": 1}})
        result = run_pipeline(cfg, "grown")
        assert result.test_accuracies[1] >= 0.95
        for layer in result.backbone.layers:
            fixed = layer.slot_state == SlotState.FIXED
            assert np.all(layer.slot_owner[fixed] == 1)
        assert result.ratios[1] <= cfg.growth_cap + 1e-12


class TestScratchCalibration:
    def test_difficulty_one_reaches_090_per_task(self):
        cfg = parse_config_data({
            "seed": 0,
            "tasks": {"n_tasks": 5, "samples_per_class": 120},
            "epochs": {"scratch": 20},
        })
        for task in build_tasks(cfg):
            outcome = train_scratch_model(task, cfg)
            assert outcome.test_accuracy >= 0.9, f"task {task.task_id}"


class TestChanceLevelSanity:
    def test_random_weights_score_near_chance(self):
        cfg = parse_config_data({
            "seed": 0,
            "tasks": {"n_tasks": 1, "classes_per_task": 4,
                      "samples_per_class": 150},
        })
        task = build_tasks(cfg)[0]
        backbone = BackboneState(cfg.arch)
        r = SeededRng(99).substream("init")
        for layer in backbone.layers:
            layer.weights[:] = r.normal(0, 0.3, size=layer.weights.shape)
            layer.slot_state[:] = SlotState.GROWN_TRAINING
        d = cfg.arch.feature_dim
        view = TaskView(
            multipliers={l.spec.name: np.ones((l.spec.out_channels, l.spec.in_channels))
                         for l in backbone.layers},
            channel_on={l.spec.name: np.ones(l.spec.out_channels, dtype=bool)
                        for l in backbone.layers},
            head_weight=r.normal(0, 0.1, size=(4, d)),
            head_bias=np.zeros(4),
        )
        images = np.concatenate([task.train.images, task.val.images, task.test.images])
        labels = np.concatenate([task.train.labels, task.val.labels, task.test.labels])
        logits = forward_pass(backbone, view, images)
        acc = float((logits.argmax(axis=1) == labels).mean())
        assert abs(acc - 0.25) < 0.05


class TestCompactionKeepsRunBytes:
    """At the default arch, compacted passes write the run directory the
    full-width passes write, byte for byte.  Group norm is on, so the
    scatter and gather around it run through the trainer too.  Each run
    parses its own config, so the full-width one trains its own scratch
    targets instead of reading the compacted run's from the config's memo."""

    @pytest.mark.parametrize("mode", ["grown", "grow_only"])
    def test_run_directory_matches_full_width_passes(self, mode, tmp_path, monkeypatch):
        def config():
            return parse_config_data({
                "seed": 0,
                "arch": {"group_norm": True},
                "tasks": {"n_tasks": 2},
                "epochs": {"task1": 1, "pick": 1, "expand": 1, "scratch": 1},
            })

        save_run(run_pipeline(config(), mode), tmp_path / "compacted")
        monkeypatch.setattr(growcl.driver, "forward_pass", forward_pass_full)
        monkeypatch.setattr(growcl.driver, "backward_pass", backward_pass_full)
        save_run(run_pipeline(config(), mode), tmp_path / "full")
        assert first_difference(tmp_path / "compacted", tmp_path / "full") is None
