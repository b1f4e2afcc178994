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

import contextlib
import csv
import io
import json
import warnings
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
# Bytes of the data lines that csv_rows may hand to np.loadtxt: digits, signs,
# points, exponents, the letters of nan/inf/infinity, commas, blanks and line
# ends. loadtxt drops characters from a cell's end (\x0b, \x1c-\x1f, \x85, ...)
# that float() may reject, and csv.reader alone reads quotes: neither is here.
_PLAIN_BYTES = b"0123456789+-.eEnNaAiIfFtTyY, \t\r\n"


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
    """x0 and y are kept as given. Every builder in this module makes its
    datasets through _built, which seals x0 and y (is_sealed), so no caller
    can change a dataset built here; the cost kernel reuses a measured cost
    only for sealed inputs."""

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
        if self.q < 1:
            raise DimensionError(f"need at least one class, got Q={self.q}")
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
    y_pen_dev_sq: ||Y pen dev||_F^2, summed class block by class block; the
              general bound is bound_l2 = sqrt(y_pen_dev_sq / N), so it is
              carried here as one float rather than recomputed from dev

    No M x N array is retained; deviations(ds, means) forms dev on demand.
    """

    means: np.ndarray
    delta: float
    delta_p: float
    rho: float
    y_pen_dev_sq: float


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


def _root_max_column_sum(sq: np.ndarray) -> float:
    """sqrt of the largest column sum of sq, the columns summed by add.reduce
    over axis 0; sqrt, being monotone and correctly rounded, commutes with max."""
    return float(np.sqrt(np.max(np.add.reduce(sq, axis=0))))


def _max_column_norm(a: np.ndarray, buf: np.ndarray) -> float:
    """max over columns of ||a[:, i]||, equal bit for bit to
    np.max(np.linalg.norm(a, axis=0)) for a read-only a of either layout: the
    squares go into a view of the flat buffer buf laid out as numpy lays out
    a * a (a sum along the contiguous axis is pairwise, along the other
    sequential)."""
    f_order = min(a.shape) > 1 and abs(a.strides[0]) < abs(a.strides[1])
    return _root_max_column_sum(
        np.square(a, out=buf[:a.size].reshape(a.shape, order="F" if f_order else "C")))


def compute_stats(ds: ClassifiedDataset, means: np.ndarray, pack: ProjectorPack) -> DatasetStats:
    """All derived statistics of ds from its class means and
    pack = projector_pack(means), in one visit per class block.

    The block's deviations go into a reused row-major M x max_j N_j buffer
    (equal bit for bit to that block of deviations(ds, means)) and their
    projection pen @ dev (pen @ p = pen) into a reused Q x max_j N_j one; each
    buffer is squared in place after its last product and summed column by
    column. x0's squares use the deviation buffer before it is refilled. No
    M x N array is retained.
    """
    width = max(ds.class_sizes)
    dev_buf = np.empty((ds.m, width))
    pen_buf = np.empty((ds.q, width))
    delta = delta_p = rho = y_pen_dev_sq = 0.0
    for sl, mean in zip(ds.class_slices(), means.T):
        x_block = ds.x0[:, sl]
        nj = x_block.shape[1]
        rho = max(rho, _max_column_norm(x_block, dev_buf.reshape(-1)))
        dev = np.subtract(x_block, mean[:, None], out=dev_buf[:, :nj])
        pen_dev = np.matmul(pack.pen, dev, out=pen_buf[:, :nj])
        delta = max(delta, _root_max_column_sum(np.square(dev, out=dev)))
        y_pen_dev_sq += sum_squares(ds.y @ pen_dev)  # C-contiguous Q x N_j
        delta_p = max(delta_p, _root_max_column_sum(np.square(pen_dev, out=pen_dev)))
    return DatasetStats(
        means=means,
        delta=delta,
        delta_p=delta_p,
        rho=rho,
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


def seal(a: np.ndarray) -> np.ndarray:
    """Make a and every array it is a view of read-only; returns a."""
    base = a
    while isinstance(base, np.ndarray):
        base.flags.writeable = False
        base = base.base
    return a


def is_sealed(a: np.ndarray) -> bool:
    """True when no writable array shares a's memory: a and every array it is
    a view of are read-only, down to one that owns its data."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        if a.base is None:
            return True
        a = a.base
    return False


def _built(x0: np.ndarray, class_sizes, y) -> ClassifiedDataset:
    """The dataset of the M x N columns x0, grouped class by class, with
    targets y, both sealed: x0 in place, y as a Q x Q copy, so that no array
    a caller passed in (holdout_split's source targets) is sealed."""
    return ClassifiedDataset(m=x0.shape[0], q=len(class_sizes), class_sizes=class_sizes,
                             x0=seal(x0), y=seal(np.array(y, dtype=float)))


def synthesize(
    m: int,
    q: int,
    class_sizes,
    mean_scale: float = 1.0,
    noise: float = 0.0,
    seed: int = 0,
) -> ClassifiedDataset:
    """Seeded synthetic dataset: Gaussian class means plus uniform box noise.

    mean_scale must be nonzero (it may be negative). Means are resampled until
    they are linearly independent; samples are mean + noise * u with u
    uniform in [-1, 1]^M. The PRNG is numpy's PCG64 (default_rng), so outputs
    are stable across runs for a fixed seed, and the noise draws do not depend
    on the noise amplitude: rescaling `noise` rescales the deviations exactly.

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
    if mean_scale == 0:
        raise ValueError("mean_scale must be nonzero: zero means never reach rank q")
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
    file, after its header record if has_header; when labelled, each row ends
    in an integer label. M defaults to the first data row's. A row of another
    width, a cell that does not parse or a cell over csv.field_size_limit()
    raises DimensionError naming it name(k, line), the data row k counted from
    0 and its file line from 1.

    Unlabelled data of plain ASCII text (_PLAIN_BYTES) that numpy's C reader
    parses into M columns takes that reader, which gives the same values as
    float(); everything else, and every error message, comes from the csv
    row walk."""
    with open(path, newline="") as fh:
        if labelled:  # a label must parse as int() parses it
            return _csv_walk(fh, has_header, name, m, labelled)
        text = fh.read()
    data = io.StringIO(text, newline="")
    # A UnicodeEncodeError (non-ASCII text) is a ValueError, as is loadtxt's.
    with warnings.catch_warnings(), contextlib.suppress(ValueError, csv.Error):
        warnings.simplefilter("ignore", UserWarning)  # loadtxt's "no data" warning
        if has_header:  # the header record, which a quoted cell may carry over lines
            next(csv.reader(data), None)
        if not text[data.tell():].encode("ascii").translate(None, _PLAIN_BYTES):
            rows = np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
            if rows.shape[1] == m:
                return rows, []
    return _csv_walk(io.StringIO(text, newline=""), has_header, name, m, labelled)


def _csv_walk(lines, has_header: bool, name, m: int | None, labelled: bool):
    """csv_rows of a text stream opened with newline="", by csv.reader and
    float()/int() per cell."""
    rows, labels = [], []
    reader = csv.reader(lines)
    try:
        for i, row in enumerate(reader):
            if not row or (i == 0 and has_header):
                continue
            m = len(row) - labelled if m is None else m
            if len(row) != m + labelled:
                raise DimensionError(f"{name(len(rows), reader.line_num)} has {len(row)} values, "
                                     f"expected M={m}" + (" and a label" if labelled else ""))
            try:
                values = [float(v) for v in row[:m]]
                if labelled:
                    labels.append(int(row[m]))
            except ValueError as exc:
                raise DimensionError(f"{name(len(rows), reader.line_num)}: {exc}") from exc
            rows.append(values)
    except csv.Error as exc:
        raise DimensionError(f"{name(len(rows), reader.line_num)}: {exc}") from exc
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


def _sample_rows(classes, m: int, q: int) -> tuple[np.ndarray, list[int]]:
    """(N x M float array, class sizes) of the decoded "classes" field."""
    if len(classes) != q:
        raise DimensionError(f"expected {q} classes, got {len(classes)}")
    samples = list(chain.from_iterable(classes))
    lengths = np.fromiter(map(len, samples), dtype=np.intp, count=len(samples))
    wrong = lengths[lengths != m]
    if wrong.size:
        raise DimensionError(f"sample length {wrong[0]} != m={m}")
    return np.array(samples, dtype=float), [len(c) for c in classes]


def _block_rows(blocks, m: int, q: int) -> tuple[np.ndarray, list[int]]:
    """_sample_rows of classes already converted to one 2-D float block each
    (_streamed_document): the same checks, messages and C-ordered values."""
    if len(blocks) != q:
        raise DimensionError(f"expected {q} classes, got {len(blocks)}")
    wrong = [b.shape[1] for b in blocks if b.shape[1] != m]
    if wrong:
        raise DimensionError(f"sample length {wrong[0]} != m={m}")
    return np.concatenate(blocks), [len(b) for b in blocks]


def _from_document(d, rows) -> ClassifiedDataset:
    """from_json_dict, with the "classes" field turned into (N x M samples,
    class sizes) by rows(classes, m, q)."""
    m = json_field(d, "m", "dataset document", int)
    q = json_field(d, "q", "dataset document", int)
    x, sizes = json_field(d, "classes", "dataset document", lambda c: rows(c, m, q))
    y = json_field(d, "y", "dataset document") if d.get("y") is not None else np.eye(q)
    return _built(x.T, sizes, y)


def from_json_dict(d: dict) -> ClassifiedDataset:
    """Dataset from its JSON document (see save_json; a missing or null "y"
    gives identity targets). A missing, ragged or non-numeric field raises
    DimensionError naming it."""
    return _from_document(d, _sample_rows)


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


class _Unstreamable(Exception):
    """The streamed JSON reader does not decide this document; from_json_dict
    of json.loads of the whole text does."""


class _HashedReader(io.RawIOBase):
    """Raw reader of the binary file fh that feeds every byte it reads to
    sha256, a hashlib object or None."""

    def __init__(self, fh, sha256):
        self._fh, self._sha256 = fh, sha256

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._fh.readinto(buf)
        if n and self._sha256 is not None:
            self._sha256.update(memoryview(buf)[:n])
        return n

    def drain(self) -> None:
        """Feed the bytes of fh not yet read to sha256."""
        if self._sha256 is not None:
            for chunk in iter(lambda: self._fh.read(_HASH_CHUNK_BYTES), b""):
                self._sha256.update(chunk)


_DECODER = json.JSONDecoder()  # configured as json.loads decodes
_BLANKS = json.decoder.WHITESPACE  # the blanks json.loads skips between tokens


def _char(text: str, pos: int, chars: str) -> tuple[str, int]:
    """(c, end): c, the first non-blank character at or after pos, one of chars."""
    pos = _BLANKS.match(text, pos).end()
    c = text[pos:pos + 1]
    if not c or c not in chars:
        raise ValueError(f"expected one of {chars!r} at {pos}")
    return c, pos + 1


def _value(text: str, pos: int):
    """(value, end) of the JSON value at the first non-blank character at or after pos."""
    return _DECODER.raw_decode(text, _BLANKS.match(text, pos).end())


def _key(text: str, pos: int) -> tuple[str, int]:
    """(key, end) of an object member's key and the colon after it."""
    _char(text, pos, '"')
    key, end = _value(text, pos)
    return key, _char(text, end, ":")[1]


def _member_value(text: str, pos: int):
    """((value, c), end) of an object member's value and the "," or "}" after
    it. A number cut by the window's end parses as a shorter one, but then no
    separator follows it, so the window refills and parses it again."""
    value, end = _value(text, pos)
    c, end = _char(text, end, ",}")
    return (value, c), end


class _TextWindow:
    """The unparsed text of a stream, text[pos:], read _HASH_CHUNK_BYTES
    characters or more at a time.

    take(parse) returns the value of (value, end) = parse(text, pos) and moves
    pos to end. While parse raises ValueError (the window may end inside the
    value) and the stream has text left, it reads more and parses again from
    pos. Each read at least doubles the unparsed text, so a value of L >
    _HASH_CHUNK_BYTES characters is parsed at most 2 + ceil(log2(L /
    _HASH_CHUNK_BYTES)) times, a shorter one at most twice. A parse that
    fails on the whole rest of the stream raises _Unstreamable."""

    def __init__(self, stream):
        self._stream, self._eof = stream, False
        self.text, self.pos, self._dropped = "", 0, 0

    @property
    def offset(self) -> int:
        """Characters of the stream before pos."""
        return self._dropped + self.pos

    def _read(self) -> bool:
        """Read more text behind the unparsed text; False at the end of the stream."""
        if not self._eof:
            try:
                more = self._stream.read(max(_HASH_CHUNK_BYTES, len(self.text) - self.pos))
            except UnicodeDecodeError:
                raise _Unstreamable from None
            self._dropped += self.pos
            self.text, self.pos, self._eof = self.text[self.pos:] + more, 0, not more
        return not self._eof

    def reserve(self, n: int) -> None:
        """Read until n characters are unparsed or the stream ends."""
        while len(self.text) - self.pos < n and self._read():
            pass

    def take(self, parse, *args):
        while True:
            try:
                value, self.pos = parse(self.text, self.pos, *args)
                return value
            except ValueError:  # json.JSONDecodeError included
                if not self._read():
                    raise _Unstreamable from None
            except RecursionError:
                raise _Unstreamable from None

    def at_end(self) -> bool:
        """Whether only blanks are left."""
        while True:
            self.pos = _BLANKS.match(self.text, self.pos).end()
            if self.pos < len(self.text):
                return False
            if not self._read():
                return True


def _class_blocks(window: _TextWindow) -> list[np.ndarray]:
    """The "classes" array at the window's position as one 2-D float block per
    class; each class's lists are dropped before the next class is decoded.
    A class that is empty or not rectangular raises _Unstreamable."""
    window.take(_char, "[")
    blocks, length = [], 0
    while True:
        # Classes of one file are alike in length: reading a little more than
        # the last one's text first saves parsing a class cut by the window.
        window.reserve(length + length // 4)
        start = window.offset
        cls = window.take(_value)
        length = window.offset - start
        try:
            block = np.array(cls, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise _Unstreamable from None
        del cls
        if block.ndim != 2 or not block.size:
            raise _Unstreamable
        blocks.append(block)
        if window.take(_char, ",]") == "]":
            return blocks


def _streamed_document(stream) -> dict:
    """The top-level JSON object of a text stream, with "classes" as
    _class_blocks. Raises _Unstreamable for any other document, or a stream
    that does not decode."""
    window = _TextWindow(stream)
    window.take(_char, "{")
    doc, c = {}, ","  # {} has no fields, so from_json_dict decides it too
    while c == ",":
        key = window.take(_key)
        if key == "classes":
            doc[key] = _class_blocks(window)
            c = window.take(_char, ",}")
        else:
            doc[key], c = window.take(_member_value)
    if not window.at_end():
        raise _Unstreamable
    return doc


def load_json(path, sha256=None) -> ClassifiedDataset:
    """Dataset from a JSON file (see from_json_dict), decoded as open(path) in
    text mode decodes it; sha256, a hashlib object if given, is fed the
    file's bytes exactly once.

    The text is read once, _HASH_CHUNK_BYTES characters at a time, and the
    "classes" field is decoded and converted one class at a time, so the
    reader holds the float blocks, one class as Python lists and a window of
    text, never the whole text or document. x0 is the concatenation of the
    blocks, transposed: the values and layout of from_json_dict's. A document
    that this streamed walk does not decide (it does not parse, does not
    decode, or has a class that is not a non-empty rectangle of values) is
    read again whole by from_json_dict, which raises its error."""
    with open(path, "rb") as fh:
        reader = _HashedReader(fh, sha256)
        try:
            doc = _streamed_document(io.TextIOWrapper(reader))
        except _Unstreamable:
            doc = None
        if doc is None:
            reader.drain()
    if doc is None:  # outside the except block, whose traceback holds the walk's text
        with open(path) as fh:
            return from_json_dict(json.load(fh))
    return _from_document(doc, _block_rows)


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
