"""Classified training data and its derived statistics.

A dataset holds Q classes of M-dimensional samples stored column-wise,
grouped class by class, together with a Q x Q matrix of linearly independent
target columns. Statistics (class means, the noise scales delta and delta_p,
the sample-norm scale rho, and ||Y pen dev||_F^2, the square of the general
cost bound's numerator) are computed in two passes: means first, then the
projector pack of the means, then the projected quantities. The deviations
dev = X0 - mean_ext are not retained; deviations() forms them on demand.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DegenerateMeans, DimensionError, RankDeficient
from .linalg import ProjectorPack, as_matrix, numerical_rank, projector_pack, sum_squares

# Widest column block that the blocked pass over the data (the residual of the
# cost functionals, which also carries the first-layer checks of the general
# construction) hands to one product; it bounds the pass's per-chunk arrays.
_CHUNK_COLUMNS = 2048
# Most sample values that save_json turns into Python objects and text at once.
_JSON_CHUNK_VALUES = 1024
# Bytes that file_sha256 reads and hashes at once.
_HASH_CHUNK_BYTES = 1 << 20


def block_slices(class_sizes) -> list[slice]:
    """Column slice of each class block, in class order."""
    edges = np.concatenate([[0], np.cumsum(class_sizes)])
    return [slice(int(edges[j]), int(edges[j + 1])) for j in range(len(class_sizes))]


def column_chunks(sl: slice, width: int = _CHUNK_COLUMNS):
    """Consecutive sub-slices of sl, each at most width columns wide."""
    for start in range(sl.start, sl.stop, width):
        yield slice(start, min(start + width, sl.stop))


def checked_targets(y, q: int) -> np.ndarray:
    """y as a finite 2-D float array, checked to be Q x Q of full rank:
    DimensionError or RankDeficient otherwise."""
    y = as_matrix(y, "y")
    if y.shape != (q, q):
        raise DimensionError(f"y shape {y.shape} != ({q}, {q})")
    if numerical_rank(y) < q:
        raise RankDeficient("target columns are not linearly independent")
    return y


@dataclass(frozen=True)
class ClassifiedDataset:
    """x0 is kept as given. Every builder in this module makes its datasets
    through _built, which leaves x0 read-only, so no caller can change a
    dataset built here; the cost kernel reuses a measured cost only for a
    dataset whose x0 is read-only in this way."""

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
        checked_targets(y, self.q)

    @property
    def n(self) -> int:
        return sum(self.class_sizes)

    def class_slices(self) -> list[slice]:
        """Column slice of x0 for each class, in class order."""
        return block_slices(self.class_sizes)

    def inv_size_weights(self) -> np.ndarray:
        """Per-column weights 1/N_j, the diagonal of the inverse class-size matrix."""
        return np.repeat([1.0 / s for s in self.class_sizes], self.class_sizes)


@dataclass(frozen=True)
class DatasetStats:
    """Derived statistics of a ClassifiedDataset.

    means:    M x Q class means (column j is the mean of class j)
    delta:    max Euclidean norm over deviation columns
    delta_p:  max Euclidean norm over columns of pen @ dev (scale invariant)
    rho:      max Euclidean norm over sample columns
    n_weights: the class sizes defining the block-diagonal weight matrix
    y_pen_dev_sq: ||Y pen dev||_F^2, summed class block by class block; the
              general bound is bound_l2 = sqrt(y_pen_dev_sq / N), so it is
              carried here as one float rather than recomputed from dev
    mean_ext: M x N means repeated per class block, computed on access

    No M x N array is retained; deviations(ds, means) forms dev on demand.
    """

    means: np.ndarray
    delta: float
    delta_p: float
    rho: float
    n_weights: tuple[int, ...]
    y_pen_dev_sq: float

    @property
    def mean_ext(self) -> np.ndarray:
        """M x N means repeated per class block, formed on each access."""
        return np.repeat(self.means, self.n_weights, axis=1)


def block_means(x: np.ndarray, class_sizes) -> np.ndarray:
    """Per-class-block column averages of an M x N matrix, anchored at each
    block's first column so that a block of identical columns averages to that
    column exactly (zero noise gives exactly zero deviations)."""
    cols = []
    for sl in block_slices(class_sizes):
        block = x[:, sl]
        anchor = block[:, 0]
        cols.append(anchor + (block - anchor[:, None]).mean(axis=1))
    return np.stack(cols, axis=1)


def class_means(ds: ClassifiedDataset) -> np.ndarray:
    """Per-class arithmetic averages, M x Q."""
    return block_means(ds.x0, ds.class_sizes)


def y_ext(ds: ClassifiedDataset) -> np.ndarray:
    """Q x N target matrix with N_j copies of column y_j per class block."""
    return np.repeat(ds.y, ds.class_sizes, axis=1)


def deviations(ds: ClassifiedDataset, means: np.ndarray) -> np.ndarray:
    """M x N per-sample deviations dev = x0 - mean_ext from the class means,
    formed on each call as a C-ordered array, block by block."""
    dev = np.empty(ds.x0.shape)
    for sl, mean in zip(ds.class_slices(), means.T):
        np.subtract(ds.x0[:, sl], mean[:, None], out=dev[:, sl])
    return dev


def _max_column_norm(a: np.ndarray, buf: np.ndarray) -> float:
    """max over columns of ||a[:, i]||, equal bit for bit to
    np.max(np.linalg.norm(a, axis=0)): the squares go into a view of the flat
    buffer buf laid out as numpy lays out a * a (a sum along the contiguous
    axis is pairwise, along the other sequential), add.reduce sums them over
    axis 0, and sqrt, being monotone and correctly rounded, commutes with max."""
    f_order = min(a.shape) > 1 and abs(a.strides[0]) < abs(a.strides[1])
    sq = np.square(a, out=buf[:a.size].reshape(a.shape, order="F" if f_order else "C"))
    return float(np.sqrt(np.max(np.add.reduce(sq, axis=0))))


def compute_stats(ds: ClassifiedDataset, means: np.ndarray, pack: ProjectorPack) -> DatasetStats:
    """Compute all derived statistics from the class means of ds and
    pack = projector_pack(means).

    delta_p needs the pseudoinverse of the means, hence the two-pass
    construction (means -> pack -> stats). The stats pass visits each class
    block once: it subtracts the block's own mean into a reused M x max_j N_j
    row-major buffer (a strided view like a column block of the C-ordered
    deviations(ds, means), and equal to it bit for bit), takes the block's
    column norms of dev, x0 and pen @ dev (pen @ p = pen, so the projector is
    not applied), and adds ||Y (pen @ dev block)||_F^2 to y_pen_dev_sq, the
    general bound's numerator. Besides that deviation buffer, the pass
    allocates one flat work buffer of (M + Q) x max_j N_j floats, reused by
    every block, and retains no M x N array.
    """
    m, q = ds.m, ds.q
    width = max(ds.class_sizes)
    work = np.empty((m + q) * width)
    pen_out = work[m * width:]
    dev_buf = np.empty((m, width))
    delta = delta_p = rho = y_pen_dev_sq = 0.0
    for sl, mean in zip(ds.class_slices(), means.T):
        x_block = ds.x0[:, sl]
        nj = x_block.shape[1]
        block = np.subtract(x_block, mean[:, None], out=dev_buf[:, :nj])
        delta = max(delta, _max_column_norm(block, work))
        rho = max(rho, _max_column_norm(x_block, work))
        pen_block = np.matmul(pack.pen, block, out=pen_out[:q * nj].reshape(q, nj))
        delta_p = max(delta_p, _max_column_norm(pen_block, work))
        y_pen_dev_sq += sum_squares(np.matmul(ds.y, pen_block, out=work[:q * nj].reshape(q, nj)))
    return DatasetStats(
        means=means,
        delta=delta,
        delta_p=delta_p,
        rho=rho,
        n_weights=ds.class_sizes,
        y_pen_dev_sq=y_pen_dev_sq,
    )


def independent_means(ds: ClassifiedDataset) -> np.ndarray:
    """The class means of ds; DegenerateMeans unless they are linearly independent."""
    means = class_means(ds)
    if numerical_rank(means) < ds.q:
        raise DegenerateMeans("class means are not linearly independent")
    return means


def dataset_stats(ds: ClassifiedDataset) -> tuple[DatasetStats, ProjectorPack]:
    """Two-pass pipeline: class means, their projector pack, then the stats."""
    means = independent_means(ds)
    pack = projector_pack(means)
    return compute_stats(ds, means, pack), pack


def _built(x0: np.ndarray, class_sizes, y) -> ClassifiedDataset:
    """The dataset of the M x N columns x0, grouped class by class, with
    targets y. x0 and every array it is a view of are made read-only first."""
    base = x0
    while isinstance(base, np.ndarray):
        base.flags.writeable = False
        base = base.base
    return ClassifiedDataset(m=x0.shape[0], q=len(class_sizes), class_sizes=class_sizes,
                             x0=x0, y=y)


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

    X0 is built in place in the one M x N array the draws land in: scaled by
    noise, then each class block shifted by its mean. IEEE addition and
    multiplication commute, so this equals mean_ext + noise * u bit for bit.
    """
    if q > m:
        raise DimensionError(f"need q <= m, got q={q}, m={m}")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    if not np.isfinite([mean_scale, noise]).all():
        raise ValueError(f"mean_scale and noise must be finite, got {mean_scale}, {noise}")
    class_sizes = tuple(int(s) for s in class_sizes)
    if len(class_sizes) != q:
        raise DimensionError(f"need {q} class sizes, got {len(class_sizes)}")
    rng = np.random.default_rng(seed)
    while True:
        means = mean_scale * rng.standard_normal((m, q))
        if numerical_rank(means) == q:
            break
    x0 = rng.uniform(-1.0, 1.0, size=(m, sum(class_sizes)))
    x0 *= noise
    for sl, mean in zip(block_slices(class_sizes), means.T):
        x0[:, sl] += mean[:, None]
    return _built(x0, class_sizes, np.eye(q))


def from_samples(samples, labels) -> ClassifiedDataset:
    """Build a dataset with identity targets from per-row samples and 0-based
    integer labels. Rows are regrouped class by class by a stable sort of the
    labels, so within a class the original row order is kept."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise DimensionError(f"samples must be 2-D, got shape {samples.shape}")
    try:
        labels = np.asarray(labels, dtype=np.intp)
    except OverflowError as exc:
        raise DimensionError(f"labels must be machine integers: {exc}") from exc
    if labels.shape != samples.shape[:1]:
        raise DimensionError("one label per sample row required")
    negative = labels[labels < 0]
    if negative.size:
        raise DimensionError(f"labels must be 0-based non-negative, got {negative[0]}")
    # Every class up to max(label) needs a sample, so max(label) < N; that is
    # checked first, as bincount allocates max(label) + 1 counts.
    sizes = np.bincount(labels) if labels.max(initial=0) < labels.size else [0]
    if not np.all(sizes):
        raise DimensionError("every class between 0 and max(label) needs at least one sample")
    x0 = np.take(samples.T, np.argsort(labels, kind="stable"), axis=1)  # C-ordered
    return _built(x0, sizes, np.eye(sizes.size))


def csv_rows(path, has_header: bool, name, m: int | None = None, labelled: bool = False):
    """(K x M float array, K labels) of the K non-blank data rows of a CSV
    file, after its header if has_header; when labelled, each row ends in an
    integer label. M defaults to the first data row's. A row of another width
    or with a cell that does not parse raises DimensionError naming it
    name(k, line), the data row k counted from 0 and the file line from 1."""
    rows, labels = [], []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or (i == 0 and has_header):
                continue
            m = len(row) - labelled if m is None else m
            if len(row) != m + labelled:
                raise DimensionError(f"{name(len(rows), i + 1)} has {len(row)} values, "
                                     f"expected M={m}" + (" and a label" if labelled else ""))
            try:
                values = [float(v) for v in row[:m]]
                if labelled:
                    labels.append(int(row[m]))
            except ValueError as exc:
                raise DimensionError(f"{name(len(rows), i + 1)}: {exc}") from exc
            rows.append(values)
    return np.array(rows, dtype=float).reshape(len(rows), m or 0), labels


def load_csv(path, has_header: bool = False) -> ClassifiedDataset:
    """Read a dataset from CSV: one sample per row, M feature columns then a
    0-based integer class label. A row whose width differs from the first's,
    a non-numeric feature or a non-integer label raises DimensionError
    naming the sample row and the file line."""
    rows, labels = csv_rows(path, has_header, labelled=True,
                            name=lambda k, line: f"dataset row {k} (line {line}) of {path}")
    if not labels:
        raise DimensionError(f"no samples found in {path}")
    return from_samples(rows, labels)


def json_field(doc, key: str, where: str, convert=None):
    """convert(doc[key]), by default a float array, from a decoded JSON object.
    A doc that is not an object, a missing key, or a value that convert
    rejects (ragged or non-numeric) raises DimensionError naming where and key."""
    if not isinstance(doc, dict):
        raise DimensionError(f"{where} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise DimensionError(f"{where} has no field {key!r}")
    try:
        return np.array(doc[key], dtype=float) if convert is None else convert(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionError(f"{where} field {key!r}: {exc}") from exc


def from_json_dict(d: dict) -> ClassifiedDataset:
    """Dataset from its JSON document (see save_json; a missing or null "y"
    gives identity targets). A missing, ragged or non-numeric field raises
    DimensionError naming it."""
    m = json_field(d, "m", "dataset document", int)
    q = json_field(d, "q", "dataset document", int)

    def rows(classes) -> tuple[np.ndarray, list[int]]:
        if len(classes) != q:
            raise DimensionError(f"expected {q} classes, got {len(classes)}")
        samples = list(chain.from_iterable(classes))
        lengths = np.fromiter(map(len, samples), dtype=np.intp, count=len(samples))
        wrong = lengths[lengths != m]
        if wrong.size:
            raise DimensionError(f"sample length {wrong[0]} != m={m}")
        return np.array(samples, dtype=float), [len(c) for c in classes]

    x, sizes = json_field(d, "classes", "dataset document", rows)
    y = json_field(d, "y", "dataset document") if d.get("y") is not None else np.eye(q)
    return _built(x.T, sizes, y)


def save_json(ds: ClassifiedDataset, out) -> None:
    """Write ds as one line of JSON, {"m", "q", "classes", "y"}, with each
    class a list of its sample rows, to out, a path or an open text stream.
    The samples go out through json.dumps a chunk of whole samples (at most
    _JSON_CHUNK_VALUES values) at a time, so the text equals json.dumps of the
    whole document plus a newline while only one chunk is ever held as
    Python objects."""
    if not hasattr(out, "write"):
        with open(out, "w") as fh:
            save_json(ds, fh)
        return
    out.write(f'{{"m": {ds.m}, "q": {ds.q}, "classes": [')
    for j, sl in enumerate(ds.class_slices()):
        out.write(", [" if j else "[")
        for k, chunk in enumerate(column_chunks(sl, max(1, _JSON_CHUNK_VALUES // ds.m))):
            # strip the brackets of the chunk's own list of rows
            out.write((", " if k else "") + json.dumps(ds.x0[:, chunk].T.tolist())[1:-1])
        out.write("]")
    out.write(f'], "y": {json.dumps(ds.y.tolist())}}}\n')


def load_json(path, sha256=None) -> ClassifiedDataset:
    """Dataset from a JSON file (see from_json_dict). The file is read once as
    bytes and decoded as open(path) in text mode decodes it; sha256, a hashlib
    object if given, is fed exactly those bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if sha256 is not None:
        sha256.update(raw)
    # Each form is dropped once the next exists, as json.load on a text-mode
    # file drops them: the bytes before the parse, the text before the build.
    text = io.TextIOWrapper(io.BytesIO(raw)).read()
    del raw
    doc = json.loads(text)
    del text
    return from_json_dict(doc)


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, read _HASH_CHUNK_BYTES at a time."""
    import hashlib  # loads OpenSSL (~4 MB of RSS), so only where a digest is taken

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_HASH_CHUNK_BYTES), b""):
            digest.update(chunk)
    return digest.hexdigest()


def reads_as_json(path) -> bool:
    """Whether load_dataset reads path as JSON (by its suffix, in any case)."""
    return Path(path).suffix.lower() == ".json"


def load_dataset(path, has_header: bool = False) -> ClassifiedDataset:
    """Dispatch on file suffix: .csv or .json."""
    if reads_as_json(path):
        return load_json(path)
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return load_csv(path, has_header=has_header)
    raise DimensionError(f"unknown dataset format {suffix!r} (want .csv or .json)")


def holdout_split(
    ds: ClassifiedDataset, fraction: float, seed: int = 0
) -> tuple[ClassifiedDataset, np.ndarray, list[int]]:
    """Seeded per-class holdout: returns (training dataset, held-out samples
    M x K, their labels). Every class keeps at least one training sample;
    both parts keep each class's columns in their original order."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    kept, held = [], []
    for sl in ds.class_slices():
        nj = sl.stop - sl.start
        n_hold = min(int(round(fraction * nj)), nj - 1)
        idx = sl.start + rng.permutation(nj)
        kept.append(np.sort(idx[n_hold:]))
        held.append(np.sort(idx[:n_hold]))
    # np.take gathers into a new C-ordered array whatever the order of x0.
    train_x0 = np.take(ds.x0, np.concatenate(kept), axis=1)
    held_x = np.take(ds.x0, np.concatenate(held), axis=1)
    held_labels = np.repeat(np.arange(ds.q), [h.size for h in held]).tolist()
    return _built(train_x0, [k.size for k in kept], ds.y), held_x, held_labels
