"""Dataset ingestion and task-sequence construction.

Two sources: big-endian IDX image/label files (MNIST-style) and a seeded
synthetic generator that renders oriented stripe patterns per class.  Both
yield task sequences with disjoint class sets, per-task 80/10/10
train/validation/test splits, and pixel values in [0, 1]; every byte is a
deterministic function of the seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import SeededRng

IDX_IMAGE_MAGIC = 0x00000803   # unsigned byte, rank 3
IDX_LABEL_MAGIC = 0x00000801   # unsigned byte, rank 1


class IdxFormatError(ValueError):
    """Malformed IDX file: bad magic, truncation, or count mismatch."""


@dataclass
class Dataset:
    images: np.ndarray          # [N, C, H, W] float64 scaled to [0, 1]
    labels: np.ndarray          # [N] int64, values in [0, n_classes)
    n_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be [N,C,H,W], got {self.images.shape}")
        if len(self.labels) != len(self.images):
            raise ValueError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if len(self.images) < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError(
                f"labels outside [0, {self.n_classes}): "
                f"range {self.labels.min()}..{self.labels.max()}"
            )

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.images[idx], self.labels[idx], self.n_classes)


@dataclass
class Task:
    task_id: int
    train: Dataset
    val: Dataset
    test: Dataset

    @property
    def n_classes(self) -> int:
        return self.train.n_classes


TaskSequence = list[Task]


# ---------------------------------------------------------------------------
# IDX files
# ---------------------------------------------------------------------------

def load_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Decode an IDX image/label file pair; pixel bytes are scaled by 1/255."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    raw = images_path.read_bytes()
    if len(raw) < 16:
        raise IdxFormatError(f"{images_path}: truncated header")
    magic, n, h, w = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(
            f"{images_path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}"
        )
    if len(raw) != 16 + n * h * w:
        raise IdxFormatError(
            f"{images_path}: payload {len(raw) - 16} bytes, expected {n * h * w}"
        )
    if n == 0:
        raise IdxFormatError(f"{images_path}: no samples")
    images = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(n, 1, h, w)

    raw = labels_path.read_bytes()
    if len(raw) < 8:
        raise IdxFormatError(f"{labels_path}: truncated header")
    magic, nl = struct.unpack(">II", raw[:8])
    if magic != IDX_LABEL_MAGIC:
        raise IdxFormatError(
            f"{labels_path}: magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}"
        )
    if len(raw) != 8 + nl:
        raise IdxFormatError(f"{labels_path}: payload {len(raw) - 8} bytes, expected {nl}")
    if nl != n:
        raise IdxFormatError(f"{n} images but {nl} labels")
    labels = np.frombuffer(raw, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(images / 255.0, labels, n_classes=int(labels.max()) + 1)


# ---------------------------------------------------------------------------
# synthetic tasks
# ---------------------------------------------------------------------------

def _stripe_images(size: int, angle, freq: float, phase) -> np.ndarray:
    """Stripe gratings; an [S, 1, 1] ``angle`` or ``phase`` renders S of them."""
    ax = np.arange(size) / size
    yy, xx = ax[:, None], ax[None, :]
    t = xx * np.cos(angle) + yy * np.sin(angle)
    return 0.5 + 0.5 * np.sin(2.0 * np.pi * freq * t + phase)


def _blob_images(size: int, centers: np.ndarray, width: float,
                 dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Blob constellations, one per [S, 1, 1] entry of the shifts dx, dy."""
    ax = np.arange(size)
    yy, xx = ax[:, None], ax[None, :]
    img = np.zeros((len(dx), size, size))
    for cy, cx in centers:
        # toroidal shift keeps full blob mass in frame; each distance is
        # taken along its own axis ([S, size, 1] and [S, 1, size]) and
        # broadcast only in the sum
        ddy = (yy - (cy + dy) + size / 2) % size - size / 2
        ddx = (xx - (cx + dx) + size / 2) % size - size / 2
        img += np.exp(-(ddx**2 + ddy**2) / (2.0 * width**2))
    return np.clip(img, 0.0, 1.0)


def _layout_separation(a: np.ndarray, b: np.ndarray, size: int) -> float:
    """Mean toroidal distance from each blob in a to its nearest in b."""
    d = a[:, None, :] - b[None, :, :]
    d = (d + size / 2) % size - size / 2
    return float(np.sqrt((d**2).sum(axis=2)).min(axis=1).mean())


def _separated_layout(crng: SeededRng, earlier: list[np.ndarray], size: int,
                      n_blobs: int, min_sep: float) -> np.ndarray:
    """Best-of-several blob layout keeping distance from earlier classes."""
    best, best_sep = None, -1.0
    for _ in range(12):
        candidate = crng.uniform(0, size, size=(n_blobs, 2))
        sep = min(
            (_layout_separation(candidate, other, size) for other in earlier),
            default=min_sep,
        )
        if sep >= min_sep:
            return candidate
        if sep > best_sep:
            best, best_sep = candidate, sep
    return best


def _split_indices(n: int, rng: SeededRng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 80/10/10 split of n indices."""
    perm = rng.permutation(n)
    n_val = max(1, n // 10)
    n_test = max(1, n // 10)
    n_train = n - n_val - n_test
    return perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]


def synth_tasks(rng: SeededRng, n_tasks: int, classes_per_task: int,
                samples_per_class: int, image_size: int,
                difficulty: float) -> TaskSequence:
    """Stripe- and blob-pattern classification tasks.

    Odd tasks render oriented stripe gratings (one orientation per class);
    even tasks render constellations of Gaussian blobs (one layout per
    class) over a class-irrelevant stripe texture.  Samples get a random
    translation plus pixel noise, so features transfer well between
    same-family tasks and poorly across families.  ``difficulty`` trades
    class separation against noise: 1.0 is the calibrated easy setting.

    The arguments arrive validated: ``config.py``'s ``_SYNTHETIC`` table
    holds their defaults and bounds, and this function checks none of them.
    """
    # per-family noise, calibrated so a full-capacity model clears 0.9 test
    # accuracy at difficulty 1.0; lower difficulty scales noise up to
    # chance-level hard
    sigma_stripe = 0.55 * (2.0 - difficulty)
    sigma_blob = 0.70 * (2.0 - difficulty)
    tasks: TaskSequence = []
    for t in range(1, n_tasks + 1):
        trng = rng.substream(f"task{t}")
        stripes = t % 2 == 1
        noise_sigma = sigma_stripe if stripes else sigma_blob
        base = float(trng.uniform(0.0, np.pi))
        layouts: list[np.ndarray] = []
        images = []
        for c in range(classes_per_task):
            crng = trng.substream(f"class{c}")
            noise = crng.normal(0.0, noise_sigma,
                                size=(samples_per_class, image_size, image_size))
            if stripes:
                jitter = float(crng.uniform(-0.08, 0.08)) * difficulty
                angle = base + np.pi * c / classes_per_task + jitter
                freq = 2.0 + float(crng.integers(0, 2))
                phases = crng.uniform(0.0, 2.0 * np.pi, size=samples_per_class)
                protos = _stripe_images(image_size, angle, freq, phases[:, None, None])
            else:
                centers = _separated_layout(
                    crng, layouts, image_size, n_blobs=3,
                    min_sep=image_size / 4.0 * difficulty,
                )
                layouts.append(centers)
                width = image_size / 10.0
                shifts = crng.uniform(-2.0, 2.0, size=(samples_per_class, 2))
                # class-irrelevant stripe texture behind the blobs: stripe
                # detectors from earlier tasks fire on it, so reusing them
                # well requires masking, not just head reweighting
                angles = crng.uniform(0.0, np.pi, size=samples_per_class)
                phases = crng.uniform(0.0, 2.0 * np.pi, size=samples_per_class)
                protos = (
                    _blob_images(image_size, centers, width,
                                 shifts[:, 0, None, None], shifts[:, 1, None, None])
                    + 0.35 * (_stripe_images(image_size, angles[:, None, None], 2.0,
                                             phases[:, None, None]) - 0.5)
                )
            images.append(np.clip(protos + noise, 0.0, 1.0))
        images = np.concatenate(images)[:, None, :, :]
        labels = np.repeat(np.arange(classes_per_task, dtype=np.int64), samples_per_class)
        full = Dataset(images, labels, n_classes=classes_per_task)
        tr, va, te = _split_indices(len(full), trng.substream("split"))
        tasks.append(Task(t, full.subset(tr), full.subset(va), full.subset(te)))
    return tasks


# ---------------------------------------------------------------------------
# class-group splits
# ---------------------------------------------------------------------------

def load_group_file(path: str | Path) -> list[list[int]]:
    """Plain-text groups: one task per line, space-separated class ids."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    groups = []
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            groups.append([int(tok) for tok in line.split()])
        except ValueError as e:
            raise ValueError(f"{path}:{line_no}: {e}") from None
    if not groups:
        raise ValueError(f"{path}: no class groups: the task sequence would be empty")
    return groups


def split_by_class(dataset: Dataset, groups: list[list[int]],
                   rng: SeededRng) -> TaskSequence:
    """Route samples into tasks by class group; labels remapped to 0..K-1."""
    seen: set[int] = set()
    for group in groups:
        for cls in group:
            if cls in seen:
                raise ValueError(f"class {cls} appears in more than one group")
            if not 0 <= cls < dataset.n_classes:
                raise ValueError(f"unknown class id {cls} (dataset has "
                                 f"{dataset.n_classes} classes)")
            seen.add(cls)
    tasks: TaskSequence = []
    for t, group in enumerate(groups, start=1):
        idx = np.flatnonzero(np.isin(dataset.labels, group))
        remap = {cls: i for i, cls in enumerate(group)}
        labels = np.array([remap[int(l)] for l in dataset.labels[idx]], dtype=np.int64)
        full = Dataset(dataset.images[idx], labels, n_classes=len(group))
        tr, va, te = _split_indices(len(full), rng.substream(f"task{t}/split"))
        tasks.append(Task(t, full.subset(tr), full.subset(va), full.subset(te)))
    return tasks
