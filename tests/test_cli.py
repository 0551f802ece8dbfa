import json

import pytest

from growcl.cli import main
from growcl.config import parse_config_data
from growcl.driver import run_id

TINY = {
    "arch": {"layers": [
        {"capacity": 6, "seed_channels": 2},
        {"capacity": 8, "seed_channels": 2},
    ]},
    "tasks": {"n_tasks": 2, "samples_per_class": 40},
    "epochs": {"task1": 6, "pick": 4, "expand": 5, "scratch": 6},
}


def write_config(tmp_path, **overrides):
    data = dict(TINY)
    data.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    return p


@pytest.fixture
def out_root(tmp_path, monkeypatch):
    root = tmp_path / "out"
    monkeypatch.setenv("GROWCL_OUTPUT_ROOT", str(root))
    return root


class TestRunCommand:
    def test_grown_run_writes_directory(self, tmp_path, out_root):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--mode", "grown"]) == 0
        (run_dir,) = out_root.iterdir()
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "accuracy.csv").exists()

    def test_scratch_size_row_counts_models(self, tmp_path, out_root):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--mode", "scratch"]) == 0
        (run_dir,) = out_root.iterdir()
        lines = (run_dir / "size.csv").read_text().splitlines()
        assert lines[1].split(",")[1:3] == ["1x", "2x"]

    def test_rerun_is_byte_identical(self, tmp_path, out_root):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg), "--mode", "grown"])
        (run_dir,) = out_root.iterdir()
        before = {
            p.relative_to(run_dir): p.read_bytes()
            for p in run_dir.rglob("*") if p.is_file()
        }
        main(["run", "--config", str(cfg), "--mode", "grown"])
        after = {
            p.relative_to(run_dir): p.read_bytes()
            for p in run_dir.rglob("*") if p.is_file()
        }
        assert before == after

    @pytest.mark.parametrize("content", [
        b'{"lamda": 1}',
        b'{"tasks": 5}',
        b'{"temperature": "ab"}',
        b'{"arch": [1]}',
        b'{"epochs": null}',
        b'{"seed": "\xff"}',
        None,    # --config names a directory
        b'{"target_accuracy": [true]}',
        b'{"target_accuracy": []}',
        b'{"tasks": {"n_tasks": 2}, "target_accuracy": [0.5, 0.5, 0.5]}',
        b'{"seed": Infinity}',   # Python's json reads Infinity and NaN as floats
        b'{"epochs": {"pick": NaN}}',
    ], ids=["unknown-key", "tasks-int", "temperature-str", "arch-list", "epochs-null",
            "not-utf8", "directory", "target-bool", "target-empty", "target-count",
            "seed-infinity", "epochs-nan"])
    def test_bad_config_is_usage_error(self, tmp_path, out_root, capsys, content):
        cfg = tmp_path / "bad.json"
        if content is None:
            cfg.mkdir()
        else:
            cfg.write_bytes(content)
        assert main(["run", "--config", str(cfg), "--mode", "grown"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("via", ["output_dir", "env"])
    def test_file_as_output_root_is_usage_error_before_training(
            self, tmp_path, monkeypatch, capsys, via):
        import growcl.cli

        def no_training(*args, **kwargs):
            raise AssertionError("run_pipeline called")

        monkeypatch.setattr(growcl.cli, "run_pipeline", no_training)
        afile = tmp_path / "afile"
        afile.write_text("")
        if via == "env":
            monkeypatch.setenv("GROWCL_OUTPUT_ROOT", str(afile))
            cfg = write_config(tmp_path)
        else:
            monkeypatch.delenv("GROWCL_OUTPUT_ROOT", raising=False)
            cfg = write_config(tmp_path, output_dir=str(afile))
        assert main(["run", "--config", str(cfg), "--mode", "grown"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert afile.read_text() == ""

    def test_file_as_run_directory_is_usage_error_before_training(
            self, tmp_path, out_root, monkeypatch, capsys):
        import growcl.cli
        from growcl.config import parse_config
        from growcl.driver import run_id

        def no_training(*args, **kwargs):
            raise AssertionError("run_pipeline called")

        monkeypatch.setattr(growcl.cli, "run_pipeline", no_training)
        cfg = write_config(tmp_path)
        out_root.mkdir()
        afile = out_root / run_id("grown", parse_config(cfg))
        afile.write_text("")
        assert main(["run", "--config", str(cfg), "--mode", "grown"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert afile.read_text() == ""

    def test_unwritable_run_directory_after_training_is_usage_error(
            self, tmp_path, out_root, capsys):
        # a file named snapshots passes the check before training, but
        # save_run cannot make the directory
        from growcl.config import parse_config

        cfg = write_config(tmp_path, target_accuracy=0.5)
        run_dir = out_root / run_id("grown", parse_config(cfg))
        run_dir.mkdir(parents=True)
        (run_dir / "snapshots").write_text("")
        assert main(["run", "--config", str(cfg), "--mode", "grown"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write run directory {run_dir}: ")
        assert "Traceback" not in err and not (run_dir / "manifest.json").exists()

    @staticmethod
    def idx_config(tmp_path, groups_text="0 1\n2 3\n", size=16, **paths):
        """A config over a 4-class IDX dataset of ``size``-pixel images and a
        groups file; ``paths`` overrides the images, labels or groups path."""
        import numpy as np
        from growcl.data import Dataset
        from oracles import save_idx

        r = np.random.default_rng(0)
        n_per = 40
        images = np.clip(r.normal(0.5, 0.2, size=(4 * n_per, 1, size, size)), 0, 1)
        for c in range(4):   # give each class a distinctive bright corner
            block = images[c * n_per:(c + 1) * n_per]
            block[:, :, (c // 2) * 8:(c // 2) * 8 + 8, (c % 2) * 8:(c % 2) * 8 + 8] += 0.4
        images = np.clip(images, 0, 1)
        labels = np.repeat(np.arange(4), n_per)
        save_idx(Dataset(images, labels, 4), tmp_path / "im.idx", tmp_path / "lb.idx")
        (tmp_path / "groups.txt").write_text(groups_text)
        source = {"source": "idx", "images": str(tmp_path / "im.idx"),
                  "labels": str(tmp_path / "lb.idx"), "groups": str(tmp_path / "groups.txt")}
        source.update((key, str(path)) for key, path in paths.items())
        cfg = tmp_path / "idx_ok.json"
        cfg.write_text(json.dumps({"arch": TINY["arch"], "epochs": TINY["epochs"],
                                   "tasks": source}))
        return cfg

    def test_idx_sourced_tasks_run_end_to_end(self, tmp_path, out_root):
        cfg = self.idx_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--mode", "grown"]) == 0
        (run_dir,) = out_root.iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["n_tasks"] == 2
        assert all(all(e["passes"].values()) for e in manifest["forgetting"])

    @pytest.mark.parametrize("groups_text, paths, named", [
        ("# no groups, only comments\n\n", {}, "groups.txt"),
        ("0 1\n2 3\n", {"images": "dir"}, "dir"),
        ("0 1\n2 3\n", {"groups": "dir"}, "dir"),
        ("0 1\n2 3\n", {"images": "empty_im.idx", "labels": "empty_lb.idx"}, "empty_im.idx"),
        ("0 1\n2 3\n", {"groups": "latin1.txt"}, "latin1.txt"),
    ], ids=["empty-groups", "images-is-directory", "groups-is-directory", "zero-samples",
            "groups-not-utf8"])
    def test_unusable_idx_tasks_are_usage_error_before_run_directory(
            self, tmp_path, out_root, capsys, groups_text, paths, named):
        import struct
        from growcl.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC

        (tmp_path / "dir").mkdir()
        (tmp_path / "empty_im.idx").write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 0, 16, 16))
        (tmp_path / "empty_lb.idx").write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 0))
        (tmp_path / "latin1.txt").write_bytes("0 1\n2 3 # \u00e9\n".encode("latin-1"))
        cfg = self.idx_config(tmp_path, groups_text,
                              **{key: tmp_path / p for key, p in paths.items()})
        assert main(["run", "--config", str(cfg), "--mode", "grown"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(tmp_path / named) in err   # the file at fault is named
        assert not any(out_root.iterdir())

    @pytest.mark.parametrize("mode", ["scratch", "grown", "grow_only"])
    def test_idx_target_count_is_usage_error_before_training(
            self, tmp_path, out_root, monkeypatch, capsys, mode):
        # the groups file holds 2 tasks; no mode may train on 3 targets
        import growcl.driver

        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(growcl.driver.TaskTrainer, "train_phase", no_training)
        cfg = self.idx_config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()),
                                   "target_accuracy": [0.5, 0.5, 0.5]}))
        assert main(["run", "--config", str(cfg), "--mode", mode]) == 2
        assert capsys.readouterr().err == (
            "error: config.target_accuracy has 3 values for 2 tasks (give 1 or 2)\n")
        assert not any(out_root.iterdir())

    @pytest.mark.parametrize("mode", ["scratch", "grown", "grow_only"])
    @pytest.mark.parametrize("source, want, got", [
        ("idx-28px", (1, 16, 16), (1, 28, 28)),
        ("in-channels-2", (2, 16, 16), (1, 16, 16)),
    ], ids=["idx-28px", "in-channels-2"])
    def test_image_shape_is_usage_error_before_training(
            self, tmp_path, out_root, monkeypatch, capsys, mode, source, want, got):
        import growcl.driver

        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(growcl.driver.TaskTrainer, "train_phase", no_training)
        if source == "idx-28px":
            cfg = self.idx_config(tmp_path, size=28)
        else:
            cfg = write_config(tmp_path, arch={**TINY["arch"], "in_channels": 2})
        assert main(["run", "--config", str(cfg), "--mode", mode]) == 2
        assert capsys.readouterr().err == (
            f"error: config.arch takes images of shape {want}, but the tasks' images "
            f"have shape {got}\n")
        assert not any(out_root.iterdir())

    def test_missing_idx_files_are_usage_error(self, tmp_path, out_root):
        cfg = tmp_path / "idx.json"
        cfg.write_text(json.dumps({
            "tasks": {"source": "idx", "images": str(tmp_path / "none.idx"),
                      "labels": str(tmp_path / "none2.idx"),
                      "groups": str(tmp_path / "groups.txt")},
        }))
        assert main(["run", "--config", str(cfg), "--mode", "grown"]) == 2

    def test_unknown_mode_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--mode", "turbo"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_small_sweep_passes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["verify", "--instances", "40", "--seed", "0",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "instance_id,min_free,min_constrained,pass"
        assert len(lines) == 41
        assert all(line.endswith(",1") for line in lines[1:])

    def test_planted_identity_fault_fails(self):
        assert main(["verify", "--instances", "40", "--seed", "0",
                     "--plant-fault", "identity-mask"]) == 1

    def test_planted_gradient_fault_fails(self):
        assert main(["verify", "--instances", "10", "--seed", "0",
                     "--plant-fault", "gradient"]) == 1

    def test_zero_instances_usage_error(self):
        assert main(["verify", "--instances", "0"]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_is_usage_error(self, monkeypatch, capsys, seed):
        import growcl.cli

        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(growcl.cli, "run_sweep", no_sweep)
        assert main(["verify", "--instances", "1", "--seed", seed]) == 2
        assert capsys.readouterr().err == (
            f"error: --seed: seed must fit in 64 bits, got {seed}\n")

    def test_out_in_missing_directory_is_usage_error_before_sweep(
            self, tmp_path, monkeypatch, capsys):
        import growcl.cli

        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(growcl.cli, "run_sweep", no_sweep)
        out = tmp_path / "missing" / "sweep.csv"
        assert main(["verify", "--instances", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.parent.exists()


class TestReportCommand:
    def test_merges_runs_and_reports_deltas(self, tmp_path, out_root):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg), "--mode", "grown"])
        main(["run", "--config", str(cfg), "--mode", "grow_only"])
        run_dirs = [str(p) for p in sorted(out_root.iterdir())]
        report_dir = tmp_path / "report"
        assert main(["report", *run_dirs, "--out", str(report_dir)]) == 0
        lines = (report_dir / "consolidated.csv").read_text().splitlines()
        assert lines[0] == "method,1,2,avg,model_size"
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"grown", "grow_only"}
        deltas = (report_dir / "deltas.csv").read_text().splitlines()
        assert deltas[0] == "seed,grown_avg,grow_only_avg,delta"
        assert len(deltas) == 2

    def test_repeated_run_is_usage_error(self, tmp_path, out_root, capsys):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg), "--mode", "grown"])
        (run_dir,) = out_root.iterdir()
        report_dir = tmp_path / "report"
        assert main(["report", str(run_dir), str(run_dir),
                     "--out", str(report_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not report_dir.exists()

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        dirs = self.write_manifests(tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["report", *dirs, "--out", str(afile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert afile.read_text() == ""

    def test_missing_manifest_usage_error(self, tmp_path):
        empty = tmp_path / "not_a_run"
        empty.mkdir()
        assert main(["report", str(empty)]) == 2

    @pytest.mark.parametrize("text", ["{}", "not json {"])
    def test_malformed_manifest_usage_error(self, tmp_path, capsys, text):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(text)
        assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed manifest")
        assert "Traceback" not in err
        assert not (tmp_path / "report").exists()

    @staticmethod
    def config_keys(mode, **config):
        """The manifest keys ``read_manifest`` derives from a real config."""
        cfg = parse_config_data(config)
        return {"mode": mode, "seed": cfg.seed, "config": cfg.resolved,
                "config_digest": cfg.digest, "run_id": run_id(mode, cfg)}

    @staticmethod
    def log_keys(mode, ids):
        """The logs and targets ``read_manifest`` derives for a run of tasks
        ``ids`` whose picks all met a 0.5 target."""
        return {"forgetting": [{"after_task": t, "passes": {str(s): True for s in ids if s <= t}}
                               for t in ids],
                "targets": {str(t): 0.5 for t in ids},
                "gate_log": [{"task_id": t, "pick_accuracy": 0.75, "target_accuracy": 0.5,
                              "expanded": False} for t in ids[1:]] if mode == "grown" else []}

    def write_manifests(self, tmp_path, **changes):
        """Two run directories with the fields ``report`` reads; ``changes``
        edits the second manifest."""
        base = {"format_version": 2, **self.config_keys("grown"),
                **self.log_keys("grown", [1, 2]), "n_tasks": 2, "task_ids": [1, 2],
                "test_accuracies": {"1": 0.875, "2": 0.75}, "avg_accuracy": 0.8125,
                "val_accuracies": {"1": 0.9, "2": 0.8},
                "ratios": {"1": 0.3, "2": 0.4}}
        dirs = []
        for name, m in (("a", base), ("b", {**base, **self.config_keys("grow_only"),
                                            **self.log_keys("grow_only", [1, 2]),
                                            **changes})):
            (tmp_path / name).mkdir()
            (tmp_path / name / "manifest.json").write_text(json.dumps(m))
            dirs.append(str(tmp_path / name))
        return dirs

    def test_minimal_manifests_report(self, tmp_path):
        dirs = self.write_manifests(tmp_path, seed=0)
        assert main(["report", *dirs, "--out", str(tmp_path / "report")]) == 0
        assert (tmp_path / "report" / "deltas.csv").exists()

    def test_deltas_pair_runs_of_one_config(self, tmp_path):
        # three configs, told apart by lambda_l0
        runs = [("grown", 0.5, 0.5), ("grow_only", 0.5, 0.625),
                ("grown", 0.25, 0.875), ("grow_only", 0.25, 0.75), ("grown", 0.125, 1.0)]
        dirs = []
        for i, (mode, lambda_l0, avg) in enumerate(runs):
            m = {"format_version": 2, **self.config_keys(mode, seed=3, lambda_l0=lambda_l0),
                 **self.log_keys(mode, [1]), "n_tasks": 1, "task_ids": [1],
                 "test_accuracies": {"1": avg}, "val_accuracies": {"1": avg},
                 "avg_accuracy": avg, "ratios": {"1": 0.5}}
            (tmp_path / str(i)).mkdir()
            (tmp_path / str(i) / "manifest.json").write_text(json.dumps(m))
            dirs.append(str(tmp_path / str(i)))
        assert main(["report", *dirs, "--out", str(tmp_path / "report")]) == 0
        deltas = (tmp_path / "report" / "deltas.csv").read_text().splitlines()
        assert deltas == ["seed,grown_avg,grow_only_avg,delta",
                          "3,0.5000,0.6250,-0.1250", "3,0.8750,0.7500,+0.1250"]

    @pytest.mark.parametrize("changes", [
        {"seed": "4"}, {"avg_accuracy": "0.9"}, {"seed": True}, {"n_tasks": 2.0},
        {"mode": 3}, {"test_accuracies": {"1": 0.9, "2": None}},
        {"ratios": {"1": 0.3, "2": "0.4"}}, {"config_digest": 5},
    ])
    def test_mistyped_manifest_usage_error(self, tmp_path, capsys, changes):
        dirs = self.write_manifests(tmp_path, **changes)
        assert main(["report", *dirs, "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed manifest")
        assert "Traceback" not in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("changes", [
        {"format_version": 1}, {"mode": "x"}, {"avg_accuracy": 0.8},
        {"test_accuracies": {"1": float("nan"), "2": 0.75}, "avg_accuracy": float("nan")},
        {"test_accuracies": {"1": 1.5, "2": 0.75}, "avg_accuracy": 1.125},
        {"val_accuracies": {"1": -0.25, "2": 0.8}},
        {"seed": 1}, {"config_digest": "0" * 64}, {"run_id": "grow_only-seed0-00000000"},
        {"ratios": {"1": 0.3, "2": -0.4}}, {"note": 1},
    ], ids=["format-version-1", "unknown-mode", "avg-not-the-mean", "nan-accuracy",
            "accuracy-above-1", "negative-val-accuracy", "seed-not-the-configs",
            "digest-not-the-configs", "run-id-not-the-configs", "negative-ratio",
            "unknown-key"])
    def test_nonsense_manifest_usage_error(self, tmp_path, capsys, changes):
        # report would turn these into nan or out-of-range averages and deltas
        dirs = self.write_manifests(tmp_path, **changes)
        assert main(["report", *dirs, "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed manifest") and "ValueError" in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("changes", [
        {"task_ids": []}, {"n_tasks": 3}, {"test_accuracies": {"1": 0.9}},
    ], ids=["no-task-ids", "n-tasks-not-len-task-ids", "id-without-accuracy"])
    def test_inconsistent_manifest_usage_error(self, tmp_path, capsys, changes):
        # one run only, so no other manifest's task count can disagree
        dirs = self.write_manifests(tmp_path, **changes)
        assert main(["report", dirs[1], "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed manifest")
        assert "Traceback" not in err
        assert not (tmp_path / "report").exists()
