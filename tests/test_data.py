import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fflsim import data, nn
from fflsim.config import ExperimentConfig
from fflsim.errors import ConfigError
from fflsim.rng import substream
from oracles import partition_by_class_greedy


# ---- synthetic generation ---- #

def test_gen_synthetic_shapes_and_ranges():
    ds = data.gen_synthetic(classes=4, per_class=50, d_in=16, spread=0.3,
                            rng=substream(0, "data"))
    assert ds.features.shape == (200, 16)
    assert ds.labels.shape == (200,)
    assert ds.n_classes == 4
    assert ds.features.dtype == np.float64
    assert ds.labels.dtype == np.int64
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    counts = np.bincount(ds.labels, minlength=4)
    assert (counts == 50).all()


def test_gen_synthetic_rows_grouped_by_class():
    ds = data.gen_synthetic(3, 10, 4, 0.2, substream(1, "data"))
    assert np.array_equal(ds.labels, np.repeat(np.arange(3), 10))


def test_gen_synthetic_zero_spread_collapses_classes():
    ds = data.gen_synthetic(3, 20, 8, 0.0, substream(2, "data"))
    for c in range(3):
        rows = ds.features[ds.labels == c]
        assert np.array_equal(rows, np.tile(rows[0], (20, 1)))


def test_gen_synthetic_deterministic():
    a = data.gen_synthetic(4, 25, 6, 0.5, substream(7, "data"))
    b = data.gen_synthetic(4, 25, 6, 0.5, substream(7, "data"))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_gen_synthetic_rejects_bad_args():
    rng = substream(0, "data")
    for args in ((0, 5, 4, 0.1), (2, 0, 4, 0.1), (2, 5, 0, 0.1), (2, 5, 4, -0.5)):
        with pytest.raises(ValueError):
            data.gen_synthetic(*args, rng)


def test_gen_synthetic_rejects_a_nan_spread():
    with pytest.raises(ValueError, match="spread must be >= 0"):
        data.gen_synthetic(2, 5, 4, math.nan, substream(0, "data"))


def test_synthetic_task_is_learnable():
    # frozen sanity bound: moderate-spread clusters are separable by a tiny
    # MLP well inside 500 plain SGD steps (empirically ~25 with this recipe)
    ds = data.gen_synthetic(4, 100, 16, 0.1, substream(3, "data"))
    spec = nn.MlpSpec((16, 32, 4))
    params = nn.init_params(spec, substream(3, "init"))
    rng = substream(3, "train")
    shard = np.arange(ds.n)
    velocity = params.from_flat(np.zeros(params.dim))
    reached = None
    for step in range(500):
        mb = data.sample_minibatch(shard, ds, 64, rng)
        _, grad = nn.loss_and_grad(params, mb)
        params, velocity = nn.sgd_step(params, grad, 0.05, 0.9, velocity)
        if step % 10 == 9:
            logits = nn.forward_rows(params, ds.rows)
            acc = float((logits.argmax(axis=1) == ds.labels).mean())
            if acc >= 0.99:
                reached = step + 1
                break
    assert reached is not None and reached <= 500


def test_dataset_rows_end_in_ones_and_features_is_their_view():
    ds = data.Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 0]), n_classes=2)
    assert ds.rows.shape == (3, 3) and (ds.rows[:, -1] == 1.0).all()
    assert np.shares_memory(ds.features, ds.rows)
    ds.features[1] = 0.5  # an in-place edit leaves no stale copy
    assert ds.rows[1].tolist() == [0.5, 0.5, 1.0]


# ---- take / split ---- #

def test_take_subsets():
    ds = data.gen_synthetic(3, 10, 4, 0.2, substream(4, "data"))
    sub = data.take(ds, np.array([0, 10, 20, 1]))
    assert np.array_equal(sub.labels, [0, 1, 2, 0])
    assert np.array_equal(sub.features[0], ds.features[0])
    assert sub.n_classes == 3


def test_split_per_class_counts_and_disjointness():
    ds = data.gen_synthetic(4, 30, 5, 0.3, substream(5, "data"))
    train, test = data.split_per_class(ds, train_per_class=20)
    assert np.array_equal(np.bincount(train.labels, minlength=4), [20] * 4)
    assert np.array_equal(np.bincount(test.labels, minlength=4), [10] * 4)
    seen = {tuple(row) for row in train.features}
    assert all(tuple(row) not in seen for row in test.features)


def test_split_per_class_rejects_oversized_train():
    ds = data.gen_synthetic(2, 5, 3, 0.1, substream(6, "data"))
    with pytest.raises(ValueError):
        data.split_per_class(ds, train_per_class=5)


# ---- partition ---- #

def test_partition_iid_sizes_and_coverage():
    ds = data.gen_synthetic(4, 26, 4, 0.2, substream(8, "data"))  # n = 104
    ds = data.take(ds, np.arange(103))  # deliberately uneven: 103 rows
    shards = data.partition(ds, "iid", 4, substream(8, "partition"))
    sizes = sorted(len(s) for s in shards)
    assert sizes == [25, 26, 26, 26]
    merged = np.sort(np.concatenate(shards))
    assert np.array_equal(merged, np.arange(103))


def test_partition_iid_deterministic():
    ds = data.gen_synthetic(3, 30, 4, 0.2, substream(9, "data"))
    a = data.partition(ds, "iid", 5, substream(9, "partition"))
    b = data.partition(ds, "iid", 5, substream(9, "partition"))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("n, workers", [(103, 4), (104, 4), (7, 7), (10, 3)])
def test_partition_iid_deals_the_permutation_in_contiguous_runs(n, workers):
    # the reference deals one run per worker, the first n % workers runs one
    # row longer
    ds = data.take(data.gen_synthetic(4, 26, 4, 0.2, substream(8, "data")), np.arange(n))
    perm = substream(8, "partition").permutation(n)
    want, pos = [], 0
    for j in range(workers):
        size = n // workers + (1 if j < n % workers else 0)
        want.append(perm[pos : pos + size])
        pos += size
    got = data.partition(ds, "iid", workers, substream(8, "partition"))
    assert [s.tolist() for s in got] == [s.tolist() for s in want]


def test_partition_by_class_singleton_labels():
    ds = data.gen_synthetic(4, 40, 4, 0.2, substream(10, "data"))
    shards = data.partition(ds, "by_class", 4, substream(10, "partition"), 1)
    label_sets = [set(ds.labels[s].tolist()) for s in shards]
    assert all(len(ls) == 1 for ls in label_sets)
    assert set().union(*label_sets) == {0, 1, 2, 3}


def test_partition_by_class_coverage_and_balance():
    ds = data.gen_synthetic(6, 60, 4, 0.2, substream(11, "data"))
    shards = data.partition(ds, "by_class", 4, substream(11, "partition"), 2)
    label_sets = [set(ds.labels[s].tolist()) for s in shards]
    assert all(len(ls) <= 2 for ls in label_sets)
    assert set().union(*label_sets) == set(range(6))
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1


def test_partition_iid_rejects_more_workers_than_rows():
    ds = data.gen_synthetic(2, 2, 4, 0.2, substream(12, "data"))
    with pytest.raises(ConfigError, match="^workers=5 exceeds the 4 training rows"):
        data.partition(ds, "iid", 5, substream(12, "partition"))
    assert [len(s) for s in data.partition(ds, "iid", 4, substream(12, "partition"))] == [1] * 4


def test_partition_by_class_infeasible():
    ds = data.gen_synthetic(8, 10, 4, 0.2, substream(12, "data"))
    with pytest.raises(ConfigError, match="cannot cover all 8 classes"):
        data.partition(ds, "by_class", 3, substream(12, "partition"), 2)


def test_partition_by_class_rejects_more_classes_than_the_dataset_has():
    ds = data.gen_synthetic(3, 10, 4, 0.2, substream(12, "data"))
    with pytest.raises(ConfigError, match="exceeds the 3 dataset classes"):
        data.partition(ds, "by_class", 4, substream(12, "partition"), 4)


def test_partition_by_class_rejects_a_worker_left_without_samples():
    # two classes of 1 sample each cannot fill 3 single-class workers
    ds = data.gen_synthetic(2, 1, 4, 0.2, substream(12, "data"))
    with pytest.raises(ConfigError, match="without samples"):
        data.partition(ds, "by_class", 3, substream(12, "partition"), 1)


def test_partition_settings_are_validated_by_the_config():
    cases = [
        (dict(partition_mode="striped"), "partition_mode must be one of"),
        (dict(partition_mode="by_class"), "classes_per_worker must be >= 1"),
        (dict(partition_mode="by_class", classes_per_worker=0), "classes_per_worker must be >= 1"),
        (dict(workers=0), "workers must be >= 1"),
    ]
    for overrides, message in cases:
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**overrides).validate()


@settings(max_examples=25, deadline=None)
@given(workers=st.integers(1, 9), n_classes=st.integers(2, 6),
       per_class=st.integers(3, 20))
def test_partition_iid_property(workers, n_classes, per_class):
    ds = data.gen_synthetic(n_classes, per_class, 3, 0.2, substream(13, "data"))
    if workers > ds.n:
        with pytest.raises(ConfigError, match=f"workers={workers} exceeds the {ds.n} training rows"):
            data.partition(ds, "iid", workers, substream(13, "partition"))
        return
    shards = data.partition(ds, "iid", workers, substream(13, "partition"))
    assert len(shards) == workers
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1
    merged = np.sort(np.concatenate(shards))
    assert np.array_equal(merged, np.arange(ds.n))


@settings(max_examples=25, deadline=None)
@given(workers=st.integers(2, 8), cpw=st.integers(1, 4))
def test_partition_by_class_property(workers, cpw):
    n_classes = 5
    if workers * cpw < n_classes:
        return
    ds = data.gen_synthetic(n_classes, 24, 3, 0.2, substream(14, "data"))
    shards = data.partition(ds, "by_class", workers, substream(14, "partition"), cpw)
    label_sets = [set(ds.labels[s].tolist()) for s in shards]
    assert all(0 < len(ls) <= cpw for ls in label_sets)
    assert set().union(*label_sets) == set(range(n_classes))
    flat = np.concatenate(shards)
    assert len(np.unique(flat)) == len(flat)  # no index duplicated across shards


@settings(max_examples=200, deadline=None)
@given(supplies=st.lists(st.integers(0, 30), min_size=2, max_size=7), workers=st.integers(1, 9),
       cpw=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_partition_by_class_deals_the_greedy_references_shards(supplies, workers, cpw, seed):
    # uneven class supplies, an empty class and classes shared between
    # workers; the labels arrive in a seed-shuffled order
    n_classes = len(supplies)
    labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(n_classes), supplies))
    assume(labels.size > 0 and n_classes <= workers * cpw and cpw <= n_classes)
    ds = data.Dataset(np.zeros((labels.size, 1)), labels, n_classes)
    want = partition_by_class_greedy(ds, workers, substream(seed, "partition"), cpw)
    if min(len(s) for s in want) == 0:
        with pytest.raises(ConfigError, match="without samples"):
            data.partition(ds, "by_class", workers, substream(seed, "partition"), cpw)
        return
    got = data.partition(ds, "by_class", workers, substream(seed, "partition"), cpw)
    assert [s.tobytes() for s in got] == [s.tobytes() for s in want]


# ---- minibatch sampling ---- #

def test_sample_minibatch_indices_within_shard():
    ds = data.gen_synthetic(3, 20, 4, 0.2, substream(15, "data"))
    shard = np.array([5, 7, 42])
    allowed_rows = {tuple(ds.features[i]) for i in shard}
    mb = data.sample_minibatch(shard, ds, 10, substream(15, "worker", 0))
    assert mb.features.shape == (10, 4)
    assert all(tuple(row) in allowed_rows for row in mb.features)


def test_sample_minibatch_with_replacement():
    ds = data.gen_synthetic(2, 2, 3, 0.2, substream(16, "data"))
    shard = np.array([0, 1])
    mb = data.sample_minibatch(shard, ds, 64, substream(16, "worker", 0))
    assert mb.features.shape == (64, 3)  # only possible with replacement


def test_sample_minibatch_errors():
    ds = data.gen_synthetic(2, 5, 3, 0.2, substream(17, "data"))
    with pytest.raises(ValueError):
        data.sample_minibatch(np.array([], dtype=np.int64), ds, 4, substream(0, "w"))
    with pytest.raises(ValueError):
        data.sample_minibatch(np.arange(5), ds, 0, substream(0, "w"))


# One integers(size=(steps, batch)) call must give the values and leave the
# generator state of `steps` calls of size `batch`.  The local SGD runner and
# the desk golden hashes rely on it, and pyproject allows any numpy >= 1.24,
# so a numpy release that broke it fails here by name.
@pytest.mark.parametrize("shard_size", [1, 37, 500, 4000])
@pytest.mark.parametrize("batch_size", [1, 37, 64])
def test_one_draw_of_all_steps_equals_one_draw_per_step(shard_size, batch_size):
    shard = np.arange(shard_size) * 3 + 1
    for steps in range(1, 31):
        together = substream(steps, "worker", shard_size, batch_size)
        per_step = substream(steps, "worker", shard_size, batch_size)
        block = data.sample_indices(shard, steps, batch_size, together)
        rows = [shard[per_step.integers(0, shard_size, size=batch_size)] for _ in range(steps)]
        assert block.shape == (steps, batch_size)
        assert np.array_equal(block, np.array(rows))
        assert together.bit_generator.state == per_step.bit_generator.state


def test_sample_indices_errors():
    rng = substream(0, "w")
    with pytest.raises(ValueError, match="empty shard"):
        data.sample_indices(np.array([], dtype=np.int64), 3, 4, rng)
    with pytest.raises(ValueError, match="steps"):
        data.sample_indices(np.arange(5), 0, 4, rng)
    with pytest.raises(ValueError, match="batch_size"):
        data.sample_indices(np.arange(5), 3, 0, rng)
