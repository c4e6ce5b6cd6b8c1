"""Datasets, worker partitioning, and mini-batch sampling.

A Dataset is an in-memory matrix of float64 features scaled to [0, 1] plus an
int64 label per row.  It stores its features once, as `rows`: each feature
row followed by a 1.0, the input that nn multiplies by a layer's [W; b] in a
single matmul.  `features` is the (n, d_in) view of `rows` without that
column, so an in-place edit of either is seen by both.  A Shard is simply an
index array into a Dataset, so partitions never copy feature rows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IdxFormatError

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049

# A shard is an index array into a Dataset.
Shard = np.ndarray

PARTITION_MODES = ("iid", "by_class")


def with_ones_column(x: np.ndarray) -> np.ndarray:
    """A float64 copy of (..., n) `x` with a trailing column of 1.0, (..., n + 1)."""
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., :-1] = x
    out[..., -1] = 1.0
    return out


@dataclass
class Dataset:
    features: np.ndarray  # (n, d_in) float64 in [0, 1]; a view into `rows`
    labels: np.ndarray  # (n,) int64 in [0, n_classes)
    n_classes: int
    # (n, d_in + 1): each feature row followed by 1.0
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or len(features) != len(self.labels):
            raise ValueError("features must be (n, d_in) with one label per row")
        if len(features) < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite values")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError("labels outside [0, n_classes)")
        self.rows = with_ones_column(features)
        self.features = self.rows[:, :-1]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def d_in(self) -> int:
        return self.features.shape[1]


@dataclass
class MiniBatch:
    features: np.ndarray  # (b, d_in)
    labels: np.ndarray  # (b,)


def gen_synthetic(
    classes: int, per_class: int, d_in: int, spread: float, rng: np.random.Generator
) -> Dataset:
    """Gaussian blobs around random unit-sphere centers, min-max scaled to [0, 1].

    Rows come out grouped by class: all `per_class` samples of class 0 first,
    then class 1, and so on.
    """
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if d_in < 1:
        raise ValueError(f"d_in must be >= 1, got {d_in}")
    if not spread >= 0:
        raise ValueError(f"spread must be >= 0, got {spread}")
    centers = rng.standard_normal((classes, d_in))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    features = np.repeat(centers, per_class, axis=0)
    if spread > 0:
        features = features + spread * rng.standard_normal(features.shape)
    labels = np.repeat(np.arange(classes), per_class)
    lo = features.min(axis=0)
    span = features.max(axis=0) - lo
    flat = span < 1e-12
    span[flat] = 1.0
    features = (features - lo) / span
    features[:, flat] = 0.0
    return Dataset(features, labels, n_classes=classes)


def take(ds: Dataset, indices: np.ndarray) -> Dataset:
    """Sub-dataset at the given row indices, keeping the class count."""
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(ds.features[idx], ds.labels[idx], n_classes=ds.n_classes)


def split_per_class(ds: Dataset, train_per_class: int) -> tuple[Dataset, Dataset]:
    """Stratified split: the first `train_per_class` rows of every class go to
    the train set, the rest to the test set."""
    train_idx, test_idx = [], []
    for c in range(ds.n_classes):
        rows = np.flatnonzero(ds.labels == c)
        if len(rows) <= train_per_class:
            raise ValueError(
                f"class {c} has {len(rows)} samples, need more than {train_per_class} to split"
            )
        train_idx.append(rows[:train_per_class])
        test_idx.append(rows[train_per_class:])
    return take(ds, np.concatenate(train_idx)), take(ds, np.concatenate(test_idx))


def _read_be_i32(f, path: str, offset: int) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise IdxFormatError(
            f"{path}: truncated at byte offset {offset}: expected 4 bytes, got {len(raw)}"
        )
    return struct.unpack(">i", raw)[0]


def _read_idx(path: str, magic: int, ndim: int) -> tuple[tuple[int, ...], bytes]:
    """The `ndim` dimensions and the data bytes of one big-endian IDX file of
    unsigned bytes, refused unless its magic number is `magic`, every
    dimension is positive and the data bytes number their product."""
    with open(path, "rb") as f:
        found = _read_be_i32(f, path, 0)
        if found != magic:
            raise IdxFormatError(f"{path}: bad magic {found} at byte offset 0 (expected {magic})")
        dims = tuple(_read_be_i32(f, path, 4 * axis) for axis in range(1, ndim + 1))
        if min(dims) < 1:
            raise IdxFormatError(f"{path}: non-positive dimensions {dims}")
        payload = f.read()
    expected = math.prod(dims)
    if len(payload) != expected:
        raise IdxFormatError(
            f"{path}: expected {expected} data bytes after byte offset {4 * (ndim + 1)},"
            f" got {len(payload)}"
        )
    return dims, payload


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label pair (the classic big-endian MNIST format)."""
    (count, rows, cols), payload = _read_idx(images_path, IMAGE_MAGIC, 3)
    (n_labels,), label_bytes = _read_idx(labels_path, LABEL_MAGIC, 1)
    if n_labels != count:
        raise IdxFormatError(
            f"label count {n_labels} in {labels_path} does not match image count {count}"
        )
    features = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    features = features.reshape(count, rows * cols)
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    return Dataset(features, labels, n_classes=int(labels.max()) + 1)


def partition(ds: Dataset, mode: str, workers: int, rng: np.random.Generator,
              classes_per_worker: int | None = None) -> list[Shard]:
    """Split a dataset into `workers` shards.

    Mode "iid" deals out a uniform shuffle in contiguous runs; mode "by_class"
    gives each worker samples from `classes_per_worker` classes only, drawn
    round-robin from a seed-shuffled class list so that every class is held by
    some worker.  ExperimentConfig validates these plain values (config
    imports this module); only the checks that need the dataset are made here.

    Shards are always pairwise disjoint and their sizes differ by at most one.
    In iid mode every sample is used, and there must be at least one sample
    per worker.  In by_class mode a worker only ever sees its assigned
    classes; when class supplies cannot fill every worker's quota, the
    surplus samples are dropped to keep shard sizes balanced (a run's
    summary.json counts them as `dropped_samples`).
    """
    m = workers
    base, extra = divmod(ds.n, m)
    quota = [base + (1 if j < extra else 0) for j in range(m)]
    if mode == "iid":
        if m > ds.n:
            raise ConfigError(
                f"workers={m} exceeds the {ds.n} training rows: an iid partition"
                " would leave a worker without samples"
            )
        return np.split(rng.permutation(ds.n), np.cumsum(quota[:-1]))

    c = classes_per_worker
    n_classes = ds.n_classes
    if c > n_classes:
        raise ConfigError(f"classes_per_worker={c} exceeds the {n_classes} dataset classes")
    if m * c < n_classes:
        raise ConfigError(
            f"classes_per_worker={c} with workers={m} cannot cover all {n_classes} classes"
        )
    shuffled = rng.permutation(n_classes)
    class_sets = [[int(shuffled[(j * c + t) % n_classes]) for t in range(c)] for j in range(m)]
    pools = {int(cls): list(rng.permutation(np.flatnonzero(ds.labels == cls))) for cls in range(n_classes)}
    shards: list[list[int]] = [[] for _ in range(m)]
    # each pass deals one sample, from its fullest class, to every worker still
    # open, in index order; a worker at its quota or out of samples closes for
    # good, since pools only shrink
    open_workers = range(m)
    while open_workers:
        still_open = []
        for j in open_workers:
            if len(shards[j]) < quota[j] and any(pools[cls] for cls in class_sets[j]):
                cls = max(class_sets[j], key=lambda cc: len(pools[cc]))
                shards[j].append(pools[cls].pop())
                still_open.append(j)
        open_workers = still_open
    floor = min(len(s) for s in shards)
    if floor == 0:
        raise ConfigError(
            "by_class partition left at least one worker without samples;"
            " check classes_per_worker against the class supplies"
        )
    return [np.asarray(s[: floor + 1], dtype=np.int64) for s in shards]


def sample_indices(shard: Shard, steps: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Dataset rows of `steps` uniform draws of `batch_size` with replacement
    from a shard, shape (steps, batch_size).

    One generator call: it returns the same values, and leaves `rng` in the
    same state, as `steps` calls of `batch_size` draws each.
    """
    if len(shard) == 0:
        raise ValueError("cannot sample from an empty shard")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return shard[rng.integers(0, len(shard), size=(steps, batch_size))]


def sample_minibatch(shard: Shard, ds: Dataset, batch_size: int, rng: np.random.Generator) -> MiniBatch:
    """Uniform sampling with replacement from one shard."""
    picks = sample_indices(shard, 1, batch_size, rng)[0]
    return MiniBatch(ds.features[picks], ds.labels[picks])
