"""Synthetic image datasets for the micro benchmarks.

Three generators with different inductive-bias demands:
  * gaussian_blobs: one Gaussian mean image per class; linearly separable
    in raw pixels when noise is 0.
  * ring_classes: class-specific radial intensity rings.
  * textured_patches: oriented gratings with random phase and random sign,
    so raw-pixel linear probes sit near chance while convolution-bearing
    architectures can read out orientation energy.

All draws come from named streams under the dataset seed, so a dataset is
a pure function of (spec, seed). Classes are balanced in every fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nncore import named_rng
from .record import Record

DATASET_KINDS = ("gaussian_blobs", "ring_classes", "textured_patches")


@dataclass(frozen=True)
class SyntheticDatasetSpec(Record, label="dataset"):
    kind: str = "textured_patches"
    num_classes: int = 3
    samples_per_class: int = 150
    image_size: int = 8
    in_channels: int = 1
    noise: float = 0.35

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}; known: {DATASET_KINDS}")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.samples_per_class < 2:
            raise ValueError("need at least two samples per class")
        if self.image_size < 3:
            raise ValueError("image_size must be at least 3")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")


def ninety_ten(n: int) -> int:
    """Size of the 90% side of a 90/10 split (floor, matching 1000 -> 900)."""
    return (9 * n) // 10


def split_pool(
    x: np.ndarray,
    y: np.ndarray,
    train_portion: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Keep ceil(p * N) examples by a seeded permutation, then split 90/10."""
    if not 0.0 < train_portion <= 1.0:
        raise ValueError(f"train_portion must be in (0, 1], got {train_portion}")
    n = len(y)
    keep = math.ceil(train_portion * n)
    order = named_rng(seed, "train_portion").permutation(n)[:keep]
    n_train = ninety_ten(keep)
    if n_train < 1 or keep - n_train < 1:
        raise ValueError(f"kept portion of {keep} examples cannot be split 90/10")
    tr, va = order[:n_train], order[n_train:]
    return x[tr], y[tr], x[va], y[va]


@dataclass
class Dataset:
    """Pooled train+val examples plus a held-out test fold."""

    spec: SyntheticDatasetSpec
    seed: int
    x_pool: np.ndarray
    y_pool: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    def split(self, train_portion: float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return split_pool(self.x_pool, self.y_pool, train_portion, self.seed)

    @property
    def chance(self) -> float:
        return 1.0 / self.spec.num_classes


def _class_images(dspec: SyntheticDatasetSpec, seed: int, cls: int, count: int, stream: str) -> np.ndarray:
    s = dspec.image_size
    c_in = dspec.in_channels
    rng = named_rng(seed, "data", dspec.kind, stream, cls)
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    out = np.empty((count, c_in, s, s), dtype=np.float32)

    if dspec.kind == "gaussian_blobs":
        mean = named_rng(seed, "data", "means", cls).standard_normal((c_in, s, s))
        for i in range(count):
            out[i] = (mean + dspec.noise * rng.standard_normal((c_in, s, s))).astype(np.float32)
        return out

    if dspec.kind == "ring_classes":
        center = (s - 1) / 2.0
        dist = np.sqrt((yy - center) ** 2 + (xx - center) ** 2)
        radius = (cls + 1) * center / dspec.num_classes
        ring = np.exp(-((dist - radius) ** 2) / 1.5)
        for i in range(count):
            amp = 1.0 + 0.2 * rng.standard_normal()
            img = amp * ring + dspec.noise * rng.standard_normal((s, s))
            out[i] = np.broadcast_to(img, (c_in, s, s)).astype(np.float32)
        return out

    # textured_patches: oriented grating, random phase and sign
    theta = math.pi * cls / dspec.num_classes
    freq = 2.0 / s
    coord = xx * math.cos(theta) + yy * math.sin(theta)
    for i in range(count):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        img = sign * np.cos(2.0 * math.pi * freq * coord * 2.0 + phase)
        img = img + dspec.noise * rng.standard_normal((s, s))
        out[i] = np.broadcast_to(img, (c_in, s, s)).astype(np.float32)
    return out


def generate_dataset(dspec: SyntheticDatasetSpec, seed: int) -> Dataset:
    """Materialize the pooled examples and the held-out test fold.

    The test fold draws from a stream disjoint from the pool and is a third
    of the per-class pool size; held-out examples cost no training time, so
    a larger fold just buys finer accuracy resolution.
    """
    test_per_class = max(1, math.ceil(dspec.samples_per_class / 3))
    xs, ys, xt, yt = [], [], [], []
    for cls in range(dspec.num_classes):
        xs.append(_class_images(dspec, seed, cls, dspec.samples_per_class, "pool"))
        ys.append(np.full(dspec.samples_per_class, cls, dtype=np.int64))
        xt.append(_class_images(dspec, seed, cls, test_per_class, "test"))
        yt.append(np.full(test_per_class, cls, dtype=np.int64))
    x_pool = np.concatenate(xs)
    y_pool = np.concatenate(ys)
    x_test = np.concatenate(xt)
    y_test = np.concatenate(yt)
    order = named_rng(seed, "data", "pool-order").permutation(len(y_pool))
    return Dataset(dspec, seed, x_pool[order], y_pool[order], x_test, y_test)
