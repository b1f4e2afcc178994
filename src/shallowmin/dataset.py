"""Classified training data and its derived statistics.

A dataset holds Q classes of M-dimensional samples stored column-wise,
grouped class by class, together with a Q x Q matrix of linearly independent
target columns. Statistics (class means, deviations, the noise scales delta
and delta_p, the sample-norm scale rho) are computed in two passes: means
first, then the projector pack of the means, then the projected quantities.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateMeans, DimensionError, RankDeficient
from .linalg import ProjectorPack, as_matrix, numerical_rank, projector_pack


@dataclass(frozen=True)
class ClassifiedDataset:
    m: int
    q: int
    class_sizes: tuple[int, ...]
    x0: np.ndarray  # M x N, columns grouped class by class
    y: np.ndarray   # Q x Q, linearly independent target columns

    def __post_init__(self):
        x0 = as_matrix(self.x0, "x0")
        y = as_matrix(self.y, "y")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "class_sizes", tuple(int(s) for s in self.class_sizes))
        if self.q > self.m:
            raise DimensionError(f"need Q <= M, got Q={self.q}, M={self.m}")
        if len(self.class_sizes) != self.q or any(s <= 0 for s in self.class_sizes):
            raise DimensionError(f"need {self.q} positive class sizes, got {self.class_sizes}")
        if x0.shape != (self.m, sum(self.class_sizes)):
            raise DimensionError(f"x0 shape {x0.shape} != ({self.m}, {sum(self.class_sizes)})")
        if y.shape != (self.q, self.q):
            raise DimensionError(f"y shape {y.shape} != ({self.q}, {self.q})")
        if numerical_rank(y) < self.q:
            raise RankDeficient("target columns are not linearly independent")

    @property
    def n(self) -> int:
        return sum(self.class_sizes)

    def class_slices(self) -> list[slice]:
        """Column slice of x0 for each class, in class order."""
        edges = np.concatenate([[0], np.cumsum(self.class_sizes)])
        return [slice(int(edges[j]), int(edges[j + 1])) for j in range(self.q)]

    def inv_size_weights(self) -> np.ndarray:
        """Per-column weights 1/N_j, the diagonal of the inverse class-size matrix."""
        return np.repeat([1.0 / s for s in self.class_sizes], self.class_sizes)


@dataclass(frozen=True)
class DatasetStats:
    """Derived statistics of a ClassifiedDataset.

    means:    M x Q class means (column j is the mean of class j)
    mean_ext: M x N means repeated per class block
    dev:      M x N per-sample deviations from the class mean
    delta:    max Euclidean norm over deviation columns
    delta_p:  max Euclidean norm over columns of pen @ p @ dev (scale invariant)
    rho:      max Euclidean norm over sample columns
    n_weights: the class sizes defining the block-diagonal weight matrix
    """

    means: np.ndarray
    mean_ext: np.ndarray
    dev: np.ndarray
    delta: float
    delta_p: float
    rho: float
    n_weights: tuple[int, ...]


def block_means(x: np.ndarray, class_sizes) -> np.ndarray:
    """Per-class-block column averages of an M x N matrix, anchored at each
    block's first column so that a block of identical columns averages to that
    column exactly (zero noise gives exactly zero deviations)."""
    edges = np.concatenate([[0], np.cumsum(class_sizes)])
    cols = []
    for j in range(len(class_sizes)):
        block = x[:, int(edges[j]):int(edges[j + 1])]
        anchor = block[:, 0]
        cols.append(anchor + (block - anchor[:, None]).mean(axis=1))
    return np.stack(cols, axis=1)


def class_means(ds: ClassifiedDataset) -> np.ndarray:
    """Per-class arithmetic averages, M x Q."""
    return block_means(ds.x0, ds.class_sizes)


def y_ext(ds: ClassifiedDataset) -> np.ndarray:
    """Q x N target matrix with N_j copies of column y_j per class block."""
    return np.repeat(ds.y, ds.class_sizes, axis=1)


def compute_stats(ds: ClassifiedDataset, means: np.ndarray, pack: ProjectorPack) -> DatasetStats:
    """Compute all derived statistics from the class means of ds and
    pack = projector_pack(means).

    delta_p needs the pseudoinverse and projector of the means, hence the
    two-pass construction (means -> pack -> stats).
    """
    mean_ext = np.repeat(means, ds.class_sizes, axis=1)
    dev = ds.x0 - mean_ext
    delta = float(np.max(np.linalg.norm(dev, axis=0))) if ds.n else 0.0
    projected = pack.pen @ (pack.p @ dev)
    delta_p = float(np.max(np.linalg.norm(projected, axis=0)))
    rho = float(np.max(np.linalg.norm(ds.x0, axis=0)))
    return DatasetStats(
        means=means,
        mean_ext=mean_ext,
        dev=dev,
        delta=delta,
        delta_p=delta_p,
        rho=rho,
        n_weights=ds.class_sizes,
    )


def dataset_stats(ds: ClassifiedDataset) -> tuple[DatasetStats, ProjectorPack]:
    """Two-pass pipeline: class means, their projector pack, then the stats."""
    means = class_means(ds)
    if numerical_rank(means) < ds.q:
        raise DegenerateMeans("class means are not linearly independent")
    pack = projector_pack(means)
    return compute_stats(ds, means, pack), pack


def synthesize(
    m: int,
    q: int,
    class_sizes,
    mean_scale: float = 1.0,
    noise: float = 0.0,
    seed: int = 0,
) -> ClassifiedDataset:
    """Seeded synthetic dataset: Gaussian class means plus uniform box noise.

    Means are resampled until they are linearly independent; samples are
    mean + noise * u with u uniform in [-1, 1]^M. The PRNG is numpy's PCG64
    (default_rng), so outputs are stable across runs for a fixed seed, and the
    noise draws do not depend on the noise amplitude: rescaling `noise` rescales
    the deviations exactly.
    """
    if q > m:
        raise DimensionError(f"need q <= m, got q={q}, m={m}")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    class_sizes = tuple(int(s) for s in class_sizes)
    if len(class_sizes) != q:
        raise DimensionError(f"need {q} class sizes, got {len(class_sizes)}")
    rng = np.random.default_rng(seed)
    while True:
        means = mean_scale * rng.standard_normal((m, q))
        if numerical_rank(means) == q:
            break
    n = sum(class_sizes)
    unit = rng.uniform(-1.0, 1.0, size=(m, n))
    x0 = np.repeat(means, class_sizes, axis=1) + noise * unit
    return ClassifiedDataset(m=m, q=q, class_sizes=class_sizes, x0=x0, y=np.eye(q))


def from_samples(samples, labels, y=None) -> ClassifiedDataset:
    """Build a dataset from per-row samples and 0-based integer labels.

    Rows are regrouped class by class; within a class the original row order
    is kept. Targets default to the identity.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise DimensionError(f"samples must be 2-D, got shape {samples.shape}")
    labels = [int(l) for l in labels]
    if len(labels) != samples.shape[0]:
        raise DimensionError("one label per sample row required")
    q = max(labels) + 1
    m = samples.shape[1]
    groups: list[list[np.ndarray]] = [[] for _ in range(q)]
    for row, lab in zip(samples, labels):
        if lab < 0:
            raise DimensionError(f"labels must be 0-based non-negative, got {lab}")
        groups[lab].append(row)
    if any(not g for g in groups):
        raise DimensionError("every class between 0 and max(label) needs at least one sample")
    x0 = np.stack([row for g in groups for row in g], axis=1)
    sizes = tuple(len(g) for g in groups)
    y = np.eye(q) if y is None else np.asarray(y, dtype=float)
    return ClassifiedDataset(m=m, q=q, class_sizes=sizes, x0=x0, y=y)


def load_csv(path, has_header: bool = False) -> ClassifiedDataset:
    """Read a dataset from CSV: one sample per row, M feature columns then a
    0-based integer class label. A non-numeric feature or a non-integer label
    raises DimensionError naming the sample row and the file line."""
    rows = []
    labels = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if i == 0 and has_header:
                continue
            if not row:
                continue
            try:
                features = [float(v) for v in row[:-1]]
                label = int(row[-1])
            except ValueError as exc:
                raise DimensionError(
                    f"dataset row {len(rows)} (line {i + 1}) of {path}: {exc}") from exc
            rows.append(features)
            labels.append(label)
    if not rows:
        raise DimensionError(f"no samples found in {path}")
    return from_samples(np.array(rows), labels)


def to_json_dict(ds: ClassifiedDataset) -> dict:
    classes = [ds.x0[:, sl].T.tolist() for sl in ds.class_slices()]
    return {"m": ds.m, "q": ds.q, "classes": classes, "y": ds.y.tolist()}


def from_json_dict(d: dict) -> ClassifiedDataset:
    m = int(d["m"])
    q = int(d["q"])
    classes = d["classes"]
    if len(classes) != q:
        raise DimensionError(f"expected {q} classes, got {len(classes)}")
    cols = []
    sizes = []
    for group in classes:
        sizes.append(len(group))
        for vec in group:
            if len(vec) != m:
                raise DimensionError(f"sample length {len(vec)} != m={m}")
            cols.append(vec)
    x0 = np.array(cols, dtype=float).T
    y = np.array(d["y"], dtype=float) if "y" in d and d["y"] is not None else np.eye(q)
    return ClassifiedDataset(m=m, q=q, class_sizes=tuple(sizes), x0=x0, y=y)


def save_json(ds: ClassifiedDataset, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(ds), fh)
        fh.write("\n")


def load_json(path) -> ClassifiedDataset:
    with open(path) as fh:
        return from_json_dict(json.load(fh))


def load_dataset(path, has_header: bool = False) -> ClassifiedDataset:
    """Dispatch on file suffix: .csv or .json."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return load_csv(path, has_header=has_header)
    if suffix == ".json":
        return load_json(path)
    raise DimensionError(f"unknown dataset format {suffix!r} (want .csv or .json)")


def holdout_split(
    ds: ClassifiedDataset, fraction: float, seed: int = 0
) -> tuple[ClassifiedDataset, np.ndarray, list[int]]:
    """Seeded per-class holdout: returns (training dataset, held-out samples
    M x K, their labels). Every class keeps at least one training sample."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    train_cols: list[np.ndarray] = []
    train_sizes: list[int] = []
    held: list[np.ndarray] = []
    held_labels: list[int] = []
    for j, sl in enumerate(ds.class_slices()):
        block = ds.x0[:, sl]
        nj = block.shape[1]
        n_hold = min(int(round(fraction * nj)), nj - 1)
        idx = rng.permutation(nj)
        for i in sorted(idx[n_hold:]):
            train_cols.append(block[:, i])
        for i in sorted(idx[:n_hold]):
            held.append(block[:, i])
            held_labels.append(j)
        train_sizes.append(nj - n_hold)
    train_ds = ClassifiedDataset(
        m=ds.m, q=ds.q, class_sizes=tuple(train_sizes),
        x0=np.stack(train_cols, axis=1), y=ds.y,
    )
    held_x = np.stack(held, axis=1) if held else np.zeros((ds.m, 0))
    return train_ds, held_x, held_labels
