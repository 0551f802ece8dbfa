import json

import pytest

from growcl.cli import main

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

    def test_bad_config_is_usage_error(self, tmp_path, out_root):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"lamda": 1}')
        assert main(["run", "--config", str(cfg), "--mode", "grown"]) == 2

    def test_idx_sourced_tasks_run_end_to_end(self, tmp_path, out_root):
        import numpy as np
        from growcl.data import Dataset, save_idx

        r = np.random.default_rng(0)
        n_per = 40
        images = np.clip(r.normal(0.5, 0.2, size=(4 * n_per, 1, 16, 16)), 0, 1)
        for c in range(4):   # give each class a distinctive bright corner
            block = images[c * n_per:(c + 1) * n_per]
            block[:, :, (c // 2) * 8:(c // 2) * 8 + 8, (c % 2) * 8:(c % 2) * 8 + 8] += 0.4
        images = np.clip(images, 0, 1)
        labels = np.repeat(np.arange(4), n_per)
        save_idx(Dataset(images, labels, 4), tmp_path / "im.idx", tmp_path / "lb.idx")
        (tmp_path / "groups.txt").write_text("0 1\n2 3\n")
        cfg = tmp_path / "idx_ok.json"
        cfg.write_text(json.dumps({
            "arch": TINY["arch"],
            "epochs": TINY["epochs"],
            "tasks": {"source": "idx", "images": str(tmp_path / "im.idx"),
                      "labels": str(tmp_path / "lb.idx"),
                      "groups": str(tmp_path / "groups.txt")},
        }))
        assert main(["run", "--config", str(cfg), "--mode", "grown"]) == 0
        (run_dir,) = out_root.iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["n_tasks"] == 2
        assert all(all(e["passes"].values()) for e in manifest["forgetting"])

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

    def test_identical_runs_give_identical_rows(self, tmp_path, out_root):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg), "--mode", "grown"])
        (run_dir,) = out_root.iterdir()
        report_dir = tmp_path / "report"
        assert main(["report", str(run_dir), str(run_dir),
                     "--out", str(report_dir)]) == 0
        lines = (report_dir / "consolidated.csv").read_text().splitlines()
        assert lines[1] == lines[2]

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

    def write_manifests(self, tmp_path, **changes):
        """Two run directories with the fields ``report`` reads; ``changes``
        edits the second manifest."""
        base = {"mode": "grown", "seed": 0, "n_tasks": 2, "task_ids": [1, 2],
                "test_accuracies": {"1": 0.9, "2": 0.8}, "avg_accuracy": 0.85,
                "ratio_labels": {"1": "0.3x", "2": "0.4x"}}
        dirs = []
        for name, m in (("a", base), ("b", {**base, "mode": "grow_only", **changes})):
            (tmp_path / name).mkdir()
            (tmp_path / name / "manifest.json").write_text(json.dumps(m))
            dirs.append(str(tmp_path / name))
        return dirs

    def test_minimal_manifests_report(self, tmp_path):
        dirs = self.write_manifests(tmp_path, seed=0)
        assert main(["report", *dirs, "--out", str(tmp_path / "report")]) == 0
        assert (tmp_path / "report" / "deltas.csv").exists()

    @pytest.mark.parametrize("changes", [
        {"seed": "4"}, {"avg_accuracy": "0.9"}, {"seed": True}, {"n_tasks": 2.0},
        {"mode": 3}, {"test_accuracies": {"1": 0.9, "2": None}},
        {"ratio_labels": {"1": "0.3x", "2": 0.4}},
    ])
    def test_mistyped_manifest_usage_error(self, tmp_path, capsys, changes):
        dirs = self.write_manifests(tmp_path, **changes)
        assert main(["report", *dirs, "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed manifest")
        assert "Traceback" not in err
        assert not (tmp_path / "report").exists()
