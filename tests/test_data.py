import struct

import numpy as np
import pytest

from growcl.data import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    Dataset,
    IdxFormatError,
    load_group_file,
    load_idx,
    split_by_class,
    synth_tasks,
)
from growcl.rng import SeededRng

from oracles import save_idx, synth_tasks_per_sample


def random_dataset(n=40, k=4, size=8, seed=0):
    r = np.random.default_rng(seed)
    images = r.integers(0, 256, size=(n, 1, size, size)).astype(np.float64) / 255.0
    labels = np.concatenate([np.full(n // k, c, dtype=np.int64) for c in range(k)])
    return Dataset(images, labels, n_classes=k)


class TestDataset:
    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1, 4, 4)), np.array([0, 5]), n_classes=3)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 1, 4, 4)), np.array([0, 1]), n_classes=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=int), n_classes=2)


class TestIdx:
    def test_round_trip_is_bitwise(self, tmp_path):
        ds = random_dataset()
        save_idx(ds, tmp_path / "img.idx", tmp_path / "lab.idx")
        back = load_idx(tmp_path / "img.idx", tmp_path / "lab.idx")
        assert back.images.tobytes() == ds.images.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()

    def test_standard_magics_accepted(self, tmp_path):
        ds = random_dataset(n=4, k=2)
        save_idx(ds, tmp_path / "img.idx", tmp_path / "lab.idx")
        raw = (tmp_path / "img.idx").read_bytes()
        assert struct.unpack(">I", raw[:4])[0] == IDX_IMAGE_MAGIC == 0x00000803
        raw = (tmp_path / "lab.idx").read_bytes()
        assert struct.unpack(">I", raw[:4])[0] == IDX_LABEL_MAGIC == 0x00000801

    def test_pixel_255_maps_to_one(self, tmp_path):
        images = np.full((1, 1, 4, 4), 1.0)
        ds = Dataset(images, np.array([0]), n_classes=1)
        save_idx(ds, tmp_path / "i", tmp_path / "l")
        back = load_idx(tmp_path / "i", tmp_path / "l")
        assert np.all(back.images == 1.0)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "i").write_bytes(struct.pack(">IIII", 0xDEAD, 1, 4, 4) + bytes(16))
        (tmp_path / "l").write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 1) + bytes(1))
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(tmp_path / "i", tmp_path / "l")

    def test_truncated_payload_rejected(self, tmp_path):
        (tmp_path / "i").write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2, 4, 4) + bytes(16))
        (tmp_path / "l").write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 2) + bytes(2))
        with pytest.raises(IdxFormatError, match="payload"):
            load_idx(tmp_path / "i", tmp_path / "l")

    def test_image_label_count_mismatch_rejected(self, tmp_path):
        (tmp_path / "i").write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 1, 2, 2) + bytes(4))
        (tmp_path / "l").write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 3) + bytes(3))
        with pytest.raises(IdxFormatError, match="images but"):
            load_idx(tmp_path / "i", tmp_path / "l")

    def test_zero_samples_rejected(self, tmp_path):
        (tmp_path / "i").write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 0, 4, 4))
        (tmp_path / "l").write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 0))
        with pytest.raises(IdxFormatError) as e:
            load_idx(tmp_path / "i", tmp_path / "l")
        assert str(e.value) == f"{tmp_path / 'i'}: no samples"


class TestSynthTasks:
    def test_same_seed_bitwise_identical(self):
        a = synth_tasks(SeededRng(1).substream("data"), 3, 2, 20, 16, 1.0)
        b = synth_tasks(SeededRng(1).substream("data"), 3, 2, 20, 16, 1.0)
        for ta, tb in zip(a, b):
            assert ta.train.images.tobytes() == tb.train.images.tobytes()
            assert ta.val.labels.tobytes() == tb.val.labels.tobytes()
            assert ta.test.images.tobytes() == tb.test.images.tobytes()

    def test_per_class_counts_exact(self):
        tasks = synth_tasks(SeededRng(2).substream("data"), 2, 3, 30, 16, 1.0)
        for task in tasks:
            total = sum(np.bincount(split.labels, minlength=task.n_classes)
                        for split in (task.train, task.val, task.test))
            assert list(total) == [30, 30, 30]

    def test_splits_disjoint_and_complete(self):
        tasks = synth_tasks(SeededRng(3).substream("data"), 1, 2, 50, 16, 1.0)
        t = tasks[0]
        n = len(t.train) + len(t.val) + len(t.test)
        assert n == 100
        assert len(t.val) == 10 and len(t.test) == 10
        stack = np.concatenate([t.train.images, t.val.images, t.test.images])
        flat = {img.tobytes() for img in stack}
        assert len(flat) == n  # no sample appears twice

    def test_values_in_unit_interval(self):
        tasks = synth_tasks(SeededRng(4).substream("data"), 1, 2, 20, 16, 0.3)
        assert tasks[0].train.images.min() >= 0.0
        assert tasks[0].train.images.max() <= 1.0


class TestSynthBytes:
    """One array op per class renders the bytes of one render per sample."""

    @pytest.mark.parametrize("size", [8, 16, 20])
    @pytest.mark.parametrize("difficulty", [0.5, 1.0])
    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("samples", [10, 37])
    def test_matches_per_sample_oracle(self, size, difficulty, classes, samples):
        for seed in (0, 11):
            args = (3, classes, samples, size, difficulty)   # stripe, blob, stripe
            got = synth_tasks(SeededRng(seed), *args)
            want = synth_tasks_per_sample(SeededRng(seed), *args)
            for a, b in zip(got, want, strict=True):
                for split in ("train", "val", "test"):
                    da, db = getattr(a, split), getattr(b, split)
                    assert da.images.tobytes() == db.images.tobytes()
                    assert da.images.shape == db.images.shape
                    assert da.labels.tobytes() == db.labels.tobytes()


class TestSplitByClass:
    def test_groups_partition_classes(self):
        ds = random_dataset(n=80, k=8)
        tasks = split_by_class(ds, [[0, 1], [2, 3], [4, 5], [6, 7]], SeededRng(0))
        assert len(tasks) == 4
        for task in tasks:
            assert task.n_classes == 2
            labels = np.concatenate([task.train.labels, task.val.labels, task.test.labels])
            assert set(labels) == {0, 1}

    def test_hundred_classes_into_ten_groups(self):
        r = np.random.default_rng(0)
        images = r.random((1000, 1, 8, 8))
        labels = np.repeat(np.arange(100), 10)
        ds = Dataset(images, labels, n_classes=100)
        groups = [list(range(10 * g, 10 * g + 10)) for g in range(10)]
        tasks = split_by_class(ds, groups, SeededRng(0))
        assert len(tasks) == 10
        for task in tasks:
            assert task.n_classes == 10
            remapped = np.concatenate(
                [task.train.labels, task.val.labels, task.test.labels]
            )
            assert set(remapped) == set(range(10))

    def test_sample_conservation(self):
        ds = random_dataset(n=80, k=8)
        groups = [[0, 3], [5]]
        tasks = split_by_class(ds, groups, SeededRng(1))
        got = sum(len(t.train) + len(t.val) + len(t.test) for t in tasks)
        want = int(np.isin(ds.labels, [0, 3, 5]).sum())
        assert got == want

    def test_overlapping_groups_rejected(self):
        ds = random_dataset()
        with pytest.raises(ValueError, match="more than one group"):
            split_by_class(ds, [[0, 1], [1, 2]], SeededRng(0))

    def test_unknown_class_rejected(self):
        ds = random_dataset(k=4)
        with pytest.raises(ValueError, match="unknown class id 9"):
            split_by_class(ds, [[0, 9]], SeededRng(0))

    def test_deterministic_under_seed(self):
        ds = random_dataset(n=80, k=8)
        a = split_by_class(ds, [[0, 1, 2]], SeededRng(5))
        b = split_by_class(ds, [[0, 1, 2]], SeededRng(5))
        assert a[0].train.images.tobytes() == b[0].train.images.tobytes()


class TestGroupFile:
    def test_parse_with_comments(self, tmp_path):
        p = tmp_path / "groups.txt"
        p.write_text("# split\n0 1\n\n2 3 4\n")
        assert load_group_file(p) == [[0, 1], [2, 3, 4]]

    def test_bad_token_reports_line(self, tmp_path):
        p = tmp_path / "groups.txt"
        p.write_text("0 1\nx 2\n")
        with pytest.raises(ValueError, match=":2:"):
            load_group_file(p)
