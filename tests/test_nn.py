import math

import numpy as np
import pytest

from fflsim import nn
from fflsim.data import (MiniBatch, gen_synthetic, partition, sample_indices, sample_minibatch,
                         with_ones_column)
from fflsim.errors import ConfigError
from fflsim.rng import substream

from oracles import cross_entropy_reference, finite_diff_gradient, mlp_forward_reference


def make_params(sizes, activation="relu", seed=0):
    return nn.init_params(nn.MlpSpec(sizes, activation), substream(seed, "init"))


# ---- spec and container ---- #

def test_mlp_spec_validation():
    with pytest.raises(ValueError):
        nn.MlpSpec((5,))
    with pytest.raises(ValueError):
        nn.MlpSpec((5, 0, 2))
    with pytest.raises(ValueError):
        nn.MlpSpec((5, 3), "sigmoid")


def test_init_params_bounds_and_zero_biases():
    params = make_params((7, 11, 4))
    for w, (fan_in, fan_out) in zip(params.weights, ((7, 11), (11, 4))):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert w.shape == (fan_in, fan_out)
        assert np.abs(w).max() <= limit
    for b in params.biases:
        assert not b.any()


def test_flatten_round_trip_exact():
    params = make_params((3, 5, 2), seed=9)
    flat = params.flatten()
    assert flat.shape == (params.dim,)
    back = params.from_flat(flat)
    assert all(np.shares_memory(a, flat) for a in back.weights + back.biases)
    for a, b in zip(back.weights, params.weights):
        assert np.array_equal(a, b)
    for a, b in zip(back.biases, params.biases):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        params.from_flat(flat[:-1])


def test_blocks_cover_flat_vector():
    params = make_params((4, 6, 3), seed=2)
    flat = params.flatten()
    for offset, arr in params.blocks():
        assert np.array_equal(flat[offset : offset + arr.size], arr.ravel())
    assert sum(arr.size for _, arr in params.blocks()) == params.dim


@pytest.mark.parametrize("sizes", [(5, 3), (5, 6, 3), (5, 6, 4, 3)],
                         ids=lambda sizes: "-".join(map(str, sizes)))
def test_each_layer_is_a_view_of_weights_over_bias(sizes):
    rng = np.random.default_rng(len(sizes))
    fans = list(zip(sizes[:-1], sizes[1:]))
    weights = [rng.standard_normal(fan) for fan in fans]
    biases = [rng.standard_normal(fan[1]) for fan in fans]
    params = nn.ParameterSet(weights, biases)
    pos = 0
    for i, (w, b, (fan_in, fan_out)) in enumerate(zip(weights, biases, fans)):
        layer = params.layers[i]
        assert layer.shape == (fan_in + 1, fan_out)
        assert np.shares_memory(layer, params.flat)
        assert layer[:-1].tobytes() == params.weights[i].tobytes() == w.tobytes()
        assert layer[-1].tobytes() == params.biases[i].tobytes() == b.tobytes()
        # W then b, back to back in the flat vector
        assert layer.tobytes() == params.flat[pos : pos + layer.size].tobytes()
        pos += layer.size
    assert pos == params.dim


# ---- forward ---- #

def test_forward_zero_weights_zero_logits():
    params = make_params((4, 3, 2))
    for w in params.weights:
        w[:] = 0.0
    assert not nn.forward_rows(params, with_ones_column(np.ones((5, 4)))).any()


def test_forward_identity_single_layer():
    params = nn.ParameterSet([np.eye(2)], [np.zeros(2)])
    logits = nn.forward_rows(params, with_ones_column(np.array([[0.5, -0.5]])))
    assert np.allclose(logits, [[0.5, -0.5]], atol=0)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_forward_matches_reference(activation):
    rng = np.random.default_rng(31)
    params = make_params((6, 9, 5, 3), activation, seed=31)
    x = rng.standard_normal((8, 6))
    got = nn.forward_rows(params, with_ones_column(x))
    want = mlp_forward_reference(params.weights, params.biases, activation, x)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_the_ones_column_stays_exactly_one_after_the_activation(activation):
    # the activation runs over the whole buffer: relu(1) is 1, tanh(1) is not
    rng = np.random.default_rng(17)
    params = make_params((6, 9, 5, 3), activation, seed=17)
    x = with_ones_column(rng.standard_normal((4, 7, 6)))
    stack = np.tile(params.flat, (4, 1))
    acts, _ = nn._forward(nn._layer_views(stack, params.shapes), activation, x)
    assert [a.shape for a in acts] == [(4, 7, 7), (4, 7, 10), (4, 7, 6)]
    for a in acts:
        assert (a[..., -1] == 1.0).all()


def test_forward_rows_reads_dataset_rows_as_features_given_their_ones_column():
    ds, _ = small_task(2)
    params = make_params((5, 6, 3), "tanh", seed=2)
    want = nn.forward_rows(params, with_ones_column(ds.features[10:30]))
    assert nn.forward_rows(params, ds.rows[10:30]).tobytes() == want.tobytes()
    with pytest.raises(ConfigError):
        nn.forward_rows(params, ds.features[10:30])


def test_forward_dimension_mismatch_is_config_error():
    params = make_params((4, 3))
    with pytest.raises(ConfigError):
        nn.forward_rows(params, with_ones_column(np.ones((2, 5))))


# ---- loss ---- #

def test_uniform_logits_loss_is_log_classes():
    params = make_params((3, 6, 5))
    for w in params.weights:
        w[:] = 0.0
    batch = MiniBatch(np.random.default_rng(0).random((10, 3)), np.arange(10) % 5)
    loss, _ = nn.loss_and_grad(params, batch)
    assert loss == pytest.approx(math.log(5), rel=1e-12)


def test_loss_matches_naive_reference():
    rng = np.random.default_rng(5)
    params = make_params((4, 7, 3), "tanh", seed=5)
    batch = MiniBatch(rng.standard_normal((9, 4)), rng.integers(0, 3, 9))
    loss, _ = nn.loss_and_grad(params, batch)
    ref = cross_entropy_reference(nn.forward_rows(params, with_ones_column(batch.features)),
                                  batch.labels)
    assert loss == pytest.approx(ref, rel=1e-12)


def test_loss_stable_for_huge_logits():
    params = nn.ParameterSet([np.array([[1000.0, -1000.0]])], [np.zeros(2)])
    batch = MiniBatch(np.array([[1.0]]), np.array([0]))
    loss, grad = nn.loss_and_grad(params, batch)
    assert math.isfinite(loss) and loss >= 0.0
    assert np.isfinite(grad.flatten()).all()


def plain_cross_entropy(logits, labels):
    """The loss as plain numpy calls: the class-axis max and sum, a fancy
    index pick and mean."""
    z = logits - logits.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    classes = logits.shape[-1]
    rows, cols = np.arange(labels.size), labels.ravel()
    loss = -log_probs.reshape(-1, classes)[rows, cols].reshape(labels.shape).mean(axis=-1)
    dlogits = np.exp(log_probs)
    dlogits.reshape(-1, classes)[rows, cols] -= 1.0
    dlogits /= labels.shape[-1]
    return loss, dlogits


def kernel_cross_entropy(logits, labels):
    """The loss and dlogits of the runner's kernel, _cross_entropy, in a
    one-step _Buffers set with no hidden layer, read with _mean_loss."""
    bufs = nn._Buffers(logits.shape[:-1], logits.shape[-1:], "relu", 1)
    dlogits = nn._cross_entropy(logits, nn._label_index(labels[None])[0], bufs, 0)
    return nn._mean_loss(bufs.picked[..., 0, :]), dlogits


# _cross_entropy works on a class-major copy of the logits: it reduces the
# class max, and below 8 classes the class sum, over that copy's outer axis,
# and replaces the fancy index and mean with a flat index and np.add.reduce.
# All must give the plain composition's bits; numpy sums 8 or more classes in
# pairwise lanes, so class counts on both sides of 8 are covered, and a numpy
# release that regroups a reduction fails here.
@pytest.mark.parametrize("classes", [1, 2, 4, 7, 8, 10, 33])
@pytest.mark.parametrize("lead", [(1,), (37,), (512,), (8, 64), (3, 1), (2, 9)],
                         ids=lambda lead: "x".join(map(str, lead)))
def test_loss_equals_the_plain_numpy_composition_bitwise(classes, lead):
    rng = np.random.default_rng(classes * 1000 + sum(lead))
    scale = np.exp(3.0 * rng.standard_normal(lead))[..., None]  # rows from tiny to huge logits
    logits = rng.standard_normal((*lead, classes)) * scale
    labels = rng.integers(0, classes, lead)
    loss, dlogits = kernel_cross_entropy(logits, labels)
    want_loss, want_dlogits = plain_cross_entropy(logits, labels)
    assert np.shape(loss) == np.shape(want_loss) and dlogits.shape == logits.shape
    assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
    assert dlogits.tobytes() == want_dlogits.tobytes()
    if len(lead) == 1:  # evaluation's loss, over one set of rows of any size
        assert nn.cross_entropy(logits, labels).tobytes() == np.asarray(want_loss).tobytes()


@pytest.mark.parametrize("classes", [1, 4, 10])
@pytest.mark.parametrize("lead", [(1,), (37,), (8, 64), (3, 1)], ids=lambda lead: "x".join(map(str, lead)))
def test_softmax_cross_entropy_returns_dlogits_in_the_layout_of_its_logits(classes, lead):
    # the loss works on a class-major copy of the logits; the gradient comes
    # back C-ordered in the logits' shape, and the logits are left as they
    # were
    rng = np.random.default_rng(classes + sum(lead))
    logits = rng.standard_normal((*lead, classes))
    before = logits.copy()
    _, dlogits = kernel_cross_entropy(logits, rng.integers(0, classes, lead))
    assert dlogits.shape == logits.shape and dlogits.flags.c_contiguous
    assert logits.tobytes() == before.tobytes()


def plain_backprop(layers, x, labels):
    """Loss and flat gradient of one worker's relu model as plain 2-D numpy
    calls: each layer is [a 1] @ [W; b], dlogits come from
    plain_cross_entropy, each layer's gradient is [a 1].T @ dz, and the
    hidden gradient is dz @ [W; b].T without its last column.  As in the
    stacked step, the weight gradient's transpose is a view and the hidden
    gradient's [W; b].T a C-ordered copy: BLAS may round a product of a
    transposed view and of a copy differently."""
    ones = np.ones((len(x), 1))
    acts = [np.concatenate([x, ones], axis=1)]
    for layer in layers[:-1]:
        acts.append(np.concatenate([np.maximum(np.matmul(acts[-1], layer), 0.0), ones], axis=1))
    loss, dz = plain_cross_entropy(np.matmul(acts[-1], layers[-1]), labels)
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        grads[:0] = [np.matmul(acts[i].T, dz)]
        if i > 0:
            dz = np.matmul(dz, np.ascontiguousarray(layers[i].T))
            dz = dz[:, :-1] * (acts[i][:, :-1] > 0.0)
    return loss, np.concatenate([g.ravel() for g in grads])


# The stacked step runs each layer as one batched matmul by the [W; b] views
# of the (M, d) buffer, reads the hidden gradient without its spare column
# through a strided view and writes every gradient straight into its rows.
# All must give the bits of separate 2-D calls per worker; class counts on
# both sides of 8 and a batch of one are covered.
@pytest.mark.parametrize("classes", [2, 3, 4, 7, 8, 10, 33])
@pytest.mark.parametrize("workers", [1, 3, 8])
@pytest.mark.parametrize("batch", [1, 37, 64])
def test_stacked_gradient_equals_the_worker_major_calls_bitwise(classes, workers, batch):
    rng = np.random.default_rng(classes * 100 + workers * 10 + batch)
    params = make_params((5, 6, classes), seed=classes)
    stack = np.tile(params.flat, (workers, 1)) + 0.3 * rng.standard_normal((workers, params.dim))
    x = rng.standard_normal((workers, batch, 5))
    labels = rng.integers(0, classes, (workers, batch))
    grad = np.empty_like(stack)
    stacked = nn._layer_views(stack, params.shapes)
    bufs = nn._Buffers(x.shape[:-1], [layer.shape[-1] for layer in stacked], "relu", 1)
    nn._backprop(stacked, "relu", with_ones_column(x), nn._label_index(labels[None])[0],
                 nn._layer_views(grad, params.shapes), bufs, 0)
    loss = nn._mean_loss(bufs.picked[..., 0, :])
    for j in range(workers):
        layers = [layer.copy() for layer in nn._layer_views(stack[j], params.shapes)]
        want_loss, want = plain_backprop(layers, x[j], labels[j])
        assert loss[j].tobytes() == want_loss.tobytes()
        assert grad[j].tobytes() == want.tobytes()


def test_single_layer_analytic_gradient():
    # one sample through a linear softmax layer: grad_W = x^T (softmax(z) - onehot)
    rng = np.random.default_rng(12)
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    params = nn.ParameterSet([w.copy()], [b.copy()])
    x = rng.standard_normal(4)
    y = 1
    _, grad = nn.loss_and_grad(params, MiniBatch(x[None, :], np.array([y])))
    z = x @ w + b
    probs = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
    delta = probs.copy()
    delta[y] -= 1.0
    assert np.allclose(grad.weights[0], np.outer(x, delta), atol=1e-12)
    assert np.allclose(grad.biases[0], delta, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for sizes in ((4, 6, 3), (5, 8, 8, 2), (3, 4, 2)):
        params = make_params(sizes, "tanh", seed=int(rng.integers(1 << 30)))
        batch = MiniBatch(rng.standard_normal((6, sizes[0])), rng.integers(0, sizes[-1], 6))
        _, grad = nn.loss_and_grad(params, batch)

        def loss_at(flat, params=params, batch=batch):
            return nn.loss_and_grad(params.from_flat(flat), batch)[0]

        fd = finite_diff_gradient(loss_at, params.flatten())
        got = grad.flatten()
        rel = np.abs(fd - got) / np.maximum.reduce([np.abs(fd), np.abs(got), np.full_like(fd, 1e-6)])
        assert rel.max() < 1e-4


def test_loss_and_grad_errors():
    params = make_params((3, 2))
    with pytest.raises(ValueError):
        nn.loss_and_grad(params, MiniBatch(np.empty((0, 3)), np.empty(0, dtype=np.int64)))
    with pytest.raises(ValueError):
        nn.loss_and_grad(params, MiniBatch(np.ones((2, 3)), np.array([0, 2])))


# ---- sgd_step ---- #

def test_sgd_step_no_momentum_exact():
    params = make_params((3, 4, 2), seed=3)
    grad = make_params((3, 4, 2), seed=4)  # any congruent bundle works as a gradient
    new, _ = nn.sgd_step(params, grad, eta=0.1)
    for w_new, w_old, g in zip(new.weights, params.weights, grad.weights):
        assert np.array_equal(w_new, w_old - 0.1 * g)


def test_sgd_step_momentum_two_steps_constant_gradient():
    w0 = np.array([[1.0]])
    params = nn.ParameterSet([w0.copy()], [np.zeros(1)])
    grad = nn.ParameterSet([np.array([[2.0]])], [np.zeros(1)])
    eta, mu = 0.01, 0.9
    p1, v1 = nn.sgd_step(params, grad, eta, mu)
    p2, v2 = nn.sgd_step(p1, grad, eta, mu, v1)
    g = 2.0
    assert p2.weights[0][0, 0] == pytest.approx(1.0 - eta * (g + (mu * g + g)), abs=0)
    assert v2.weights[0][0, 0] == pytest.approx(mu * g + g, abs=0)


def test_sgd_step_does_not_mutate_inputs():
    params = make_params((3, 2), seed=8)
    grad = make_params((3, 2), seed=9)
    before = params.flatten()
    v0 = params.from_flat(np.zeros(params.dim))
    nn.sgd_step(params, grad, 0.5, 0.9, v0)
    assert np.array_equal(params.flatten(), before)
    assert not v0.flatten().any()


def test_sgd_step_rejects_bad_eta_and_momentum():
    params = make_params((2, 2))
    grad = params.from_flat(np.zeros(params.dim))
    with pytest.raises(ValueError):
        nn.sgd_step(params, grad, 0.0)
    with pytest.raises(ValueError):
        nn.sgd_step(params, grad, 0.1, momentum=1.0)


def test_sgd_step_rejects_a_nan_eta():
    params = make_params((2, 2))
    with pytest.raises(ValueError, match="eta must be > 0"):
        nn.sgd_step(params, params.from_flat(np.zeros(params.dim)), math.nan)


# ---- local_update_run ---- #

def small_task(seed=0):
    ds = gen_synthetic(3, 30, 5, 0.2, substream(seed, "data"))
    shard = np.arange(ds.n)
    return ds, shard


def run_one(params, ds, shard, tau, eta, batch_size, rng):
    """The runner with a single worker: (gradient sum, losses) of row 0."""
    g_sum, losses = nn.local_update_run(params, ds, [shard], tau, eta, batch_size, [rng])
    return g_sum[0], list(losses[0])


def replay(params, ds, shard, tau, eta, batch_size, rng):
    """The same worker one loss_and_grad and sgd_step at a time: (final
    parameters, gradient sum, losses)."""
    cur = params
    total = np.zeros(params.dim)
    losses = []
    for _ in range(tau):
        loss, grad = nn.loss_and_grad(cur, sample_minibatch(shard, ds, batch_size, rng))
        losses.append(loss)
        total += grad.flatten()
        cur, _ = nn.sgd_step(cur, grad, eta)
    return cur.flatten(), total, losses


def test_local_update_tau_one_is_single_step():
    ds, shard = small_task()
    params = make_params((5, 6, 3), seed=1)
    g_agg, losses = run_one(
        params, ds, shard, tau=1, eta=0.05, batch_size=4, rng=substream(7, "worker", 0)
    )
    mb = sample_minibatch(shard, ds, 4, substream(7, "worker", 0))
    loss, grad = nn.loss_and_grad(params, mb)
    assert losses == [loss]
    assert np.array_equal(g_agg, grad.flatten())


def test_local_update_replay_oracle():
    ds, shard = small_task(3)
    params = make_params((5, 4, 3), seed=2)
    g_agg, losses = run_one(
        params, ds, shard, tau=3, eta=0.02, batch_size=5, rng=substream(11, "worker", 2)
    )
    # replay the exact same stream step by step; each step's loss is taken
    # at the parameters the previous steps reached
    _, total, want = replay(params, ds, shard, 3, 0.02, 5, substream(11, "worker", 2))
    assert losses == want
    assert np.array_equal(g_agg, total)


def test_local_update_scalar_hand_computed():
    # one feature, two classes, a single repeated sample: the whole two-step
    # trajectory is computable by hand through the softmax.
    ds = gen_synthetic(2, 1, 1, 0.0, substream(0, "data"))
    ds.features[:] = np.array([[1.0], [1.0]])
    ds.labels[:] = np.array([0, 0])
    shard = np.array([0])
    w = 0.3
    params = nn.ParameterSet([np.array([[w, 0.0]])], [np.zeros(2)])
    eta = 0.01
    g_agg, losses = run_one(
        params, ds, shard, tau=2, eta=eta, batch_size=1, rng=substream(1, "worker", 0)
    )
    expected_losses = []
    expected_g = 0.0
    w_cur = np.array([0.3, 0.0])
    b_cur = np.zeros(2)
    for _ in range(2):
        z0, z1 = w_cur[0] + b_cur[0], w_cur[1] + b_cur[1]
        p0 = math.exp(z0) / (math.exp(z0) + math.exp(z1))
        expected_losses.append(-math.log(p0))
        dz = np.array([p0 - 1.0, 1.0 - p0])
        expected_g += dz[0]
        w_cur -= eta * dz
        b_cur -= eta * dz
    assert losses == pytest.approx(expected_losses, rel=1e-12)
    # W0[0, 0] is the first entry of the flat layout
    assert params.from_flat(g_agg).weights[0][0, 0] == pytest.approx(expected_g, rel=1e-12)


def test_aggregation_identity():
    # g_agg == (start - final) / eta up to rounding, with the final
    # parameters, which the runner does not form, from a step-by-step replay
    ds, shard = small_task(5)
    for tau in (1, 2, 5):
        params = make_params((5, 7, 3), seed=tau)
        g_agg, _ = run_one(
            params, ds, shard, tau=tau, eta=0.03, batch_size=6, rng=substream(13, "worker", tau)
        )
        final, _, _ = replay(params, ds, shard, tau, 0.03, 6, substream(13, "worker", tau))
        displacement = (params.flatten() - final) / 0.03
        denom = np.maximum(np.abs(g_agg), 1e-12)
        assert (np.abs(displacement - g_agg) / denom).max() < 1e-9


def test_local_update_rejects_bad_tau():
    ds, shard = small_task()
    params = make_params((5, 3, 3))
    with pytest.raises(ValueError):
        run_one(params, ds, shard, tau=0, eta=0.1, batch_size=2, rng=substream(0, "worker", 0))


def test_identical_seeds_identical_runs():
    ds, shard = small_task(9)
    params = make_params((5, 6, 3), seed=9)
    out = []
    for _ in range(2):
        out.append(run_one(
            params, ds, shard, tau=4, eta=0.02, batch_size=5, rng=substream(23, "worker", 1)
        ))
    assert np.array_equal(out[0][0], out[1][0])
    assert out[0][1] == out[1][1]


# ---- all workers in one stacked pass ---- #

def three_workers(ds):
    """Shards of unequal length, one a single row, and a generator maker."""
    shards = [np.arange(0, 50), np.arange(50, 87), np.array([88])]
    return shards, lambda: [substream(29, "worker", j) for j in range(len(shards))]


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [(32,), (32, 16), ()])
@pytest.mark.parametrize("start_bias", [0.0, 0.5])
@pytest.mark.parametrize("tau", [1, 3])
def test_stacked_workers_equal_separate_runs_bitwise(activation, hidden, start_bias, tau):
    # init_params starts every bias at 0; start_bias 0.5 also runs the
    # stacked bias rows nonzero from the first step; hidden () is a model
    # whose only layer maps the inputs to the logits.  From 8 classes on the
    # class sum runs in pairwise lanes, so class counts on both sides of 8
    # are covered; every task holds the 89 rows three_workers deals
    for classes in (3, 2, 8, 10):
        ds = gen_synthetic(classes, max(30, -(-89 // classes)), 5, 0.2, substream(4, "data"))
        params = make_params((5, *hidden, classes), activation, seed=4)
        for b in params.biases:
            b += start_bias
        shards, rngs = three_workers(ds)
        g_sum, losses = nn.local_update_run(params, ds, shards, tau, 0.05, 8, rngs())
        assert g_sum.shape == (3, params.dim)
        assert losses.shape == (3, tau) and losses.flags.c_contiguous
        for j, (shard, rng) in enumerate(zip(shards, rngs())):
            alone = run_one(params, ds, shard, tau, 0.05, 8, rng)
            assert np.array_equal(g_sum[j], alone[0]), classes
            assert list(losses[j]) == alone[1], classes


def test_every_step_of_a_round_writes_into_the_same_buffers(monkeypatch):
    # the runner makes its buffers once per round and hands the same arrays
    # to every step; two identical calls still return the same bytes
    ds, _ = small_task(4)
    params = make_params((5, 6, 4, 3), "tanh", seed=6)
    shards, rngs = three_workers(ds)
    tau = 4
    calls = []
    real_backprop = nn._backprop

    def backprop(layers, activation, x, label_index, grads, bufs, step):
        arrays = [a for a in vars(bufs).values() for a in (a if isinstance(a, list) else [a])]
        calls.append((step, id(bufs), [id(a) for a in arrays + layers + grads]))
        return real_backprop(layers, activation, x, label_index, grads, bufs, step)

    monkeypatch.setattr(nn, "_backprop", backprop)
    first = nn.local_update_run(params, ds, shards, tau, 0.05, 8, rngs())
    assert [step for step, _, _ in calls] == list(range(tau))
    assert len({(bufs, tuple(ids)) for _, bufs, ids in calls}) == 1
    assert len(calls[0][2]) == len(set(calls[0][2]))  # no two buffers share an object
    second = nn.local_update_run(params, ds, shards, tau, 0.05, 8, rngs())
    assert [a.tobytes() for a in first] == [a.tobytes() for a in second]


def test_stacked_run_leaves_params_untouched():
    ds, _ = small_task(4)
    params = make_params((5, 6, 3), seed=5)
    before = params.flatten()
    shards, rngs = three_workers(ds)
    nn.local_update_run(params, ds, shards, 3, 0.05, 8, rngs())
    assert np.array_equal(params.flat, before)


def test_one_worker_with_a_bad_label_raises():
    ds, _ = small_task(4)
    params = make_params((5, 6, 3), seed=5)
    shards, rngs = three_workers(ds)
    ds.labels[88] = 3  # only the last worker's shard holds this row
    with pytest.raises(ValueError, match="labels outside"):
        nn.local_update_run(params, ds, shards, 2, 0.05, 8, rngs())


def test_one_worker_with_non_finite_weights_raises():
    # the middle worker's rows are so large that one step with a zero start
    # would take its weights past the float range.  A one-step run makes no
    # update, so it neither overflows nor warns (a RuntimeWarning fails the
    # test); a two-step run makes that update, and its second step's check
    # sees it
    ds, _ = small_task(4)
    shards, rngs = three_workers(ds)
    ds.features[shards[1]] = 1e308
    params = nn.ParameterSet([np.zeros((5, 3))], [np.zeros(3)])
    g_sum, losses = nn.local_update_run(params, ds, shards, 1, 10.0, 4, rngs())
    assert np.isfinite(g_sum).all() and np.isfinite(losses).all()
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(params.flat - 10.0 * g_sum[1]).all()
        with pytest.raises(FloatingPointError):
            nn.local_update_run(params, ds, shards, 2, 10.0, 4, rngs())


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_gradient_sum_that_overflows_raises():
    # output weights of +-1e307 over hidden units near 1e-3 keep every
    # step's logits and gradient finite, but thirty steps of them sum past
    # the float range (eta 1e-320 leaves the weights all but unmoved).  With
    # overflow warnings ignored, as `fflsim run` ignores them, the sum must
    # still not leave the runner
    ds = gen_synthetic(4, 200, 16, 0.3, substream(0, "data"))
    shards = partition(ds, "iid", 2, substream(0, "partition"))
    params = make_params((16, 32, 4))
    params.layers[0][...] *= 1e-3
    out = params.layers[1]
    out[:-1] = substream(0, "signs").choice([-1e307, 1e307], size=out[:-1].shape)
    out[-1] = 0.0
    rngs = [substream(0, "worker", j) for j in range(2)]
    with pytest.raises(FloatingPointError, match="non-finite values in gradient"):
        nn.local_update_run(params, ds, shards, 30, 1e-320, 64, rngs)


def test_stacked_run_keeps_sampling_and_step_checks():
    ds, _ = small_task(4)
    params = make_params((5, 6, 3), seed=5)
    shards, rngs = three_workers(ds)
    with pytest.raises(ValueError, match="empty shard"):
        nn.local_update_run(params, ds, [shards[0], np.array([], dtype=np.int64)],
                            1, 0.05, 8, rngs()[:2])
    with pytest.raises(ValueError, match="batch_size"):
        nn.local_update_run(params, ds, shards, 1, 0.05, 0, rngs())
    with pytest.raises(ValueError, match="eta"):
        nn.local_update_run(params, ds, shards, 1, 0.0, 8, rngs())
    with pytest.raises(ValueError, match="generator"):
        nn.local_update_run(params, ds, shards, 1, 0.05, 8, rngs()[:2])
    with pytest.raises(ConfigError):
        nn.local_update_run(make_params((4, 6, 3)), ds, shards, 1, 0.05, 8, rngs())


def test_checks_fire_once_before_the_first_step(monkeypatch):
    # the batches of all tau steps are drawn and checked before any step
    # runs, so a bad label first drawn at a later step, an empty shard and a
    # bad batch size all raise with no backprop done and params untouched
    ds, _ = small_task(4)
    params = make_params((5, 6, 3), seed=5)
    before = params.flatten()
    shards, rngs = three_workers(ds)
    tau = 4
    picks = sample_indices(shards[1], tau, 8, rngs()[1])  # worker 1's draws
    step = next(t for t in range(1, tau) if not np.isin(picks[t], picks[:t]).all())
    bad_row = next(r for r in picks[step] if r not in picks[:step])
    ds.labels[bad_row] = 3  # outside [0, 3); only worker 1's shard holds the row
    steps = []
    real_backprop = nn._backprop

    def backprop(*args):
        steps.append(args[2].shape)
        return real_backprop(*args)

    monkeypatch.setattr(nn, "_backprop", backprop)
    with pytest.raises(ValueError, match="labels outside"):
        nn.local_update_run(params, ds, shards, tau, 0.05, 8, rngs())
    with pytest.raises(ValueError, match="empty shard"):
        nn.local_update_run(params, ds, [shards[0], shards[1][:0], shards[2]], tau, 0.05, 8, rngs())
    with pytest.raises(ValueError, match="batch_size"):
        nn.local_update_run(params, ds, shards, tau, 0.05, 0, rngs())
    assert steps == []
    assert np.array_equal(params.flat, before)
    ds.labels[bad_row] = 0
    nn.local_update_run(params, ds, shards, tau, 0.05, 8, rngs())
    assert steps == [(3, 8, 6)] * tau  # one (M, batch, d_in + 1) gather per step
