import math

import numpy as np
import pytest

from fflsim import nn
from fflsim.data import MiniBatch, gen_synthetic, sample_indices, sample_minibatch
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


# ---- forward ---- #

def test_forward_zero_weights_zero_logits():
    params = make_params((4, 3, 2))
    for w in params.weights:
        w[:] = 0.0
    batch = MiniBatch(np.ones((5, 4)), np.zeros(5, dtype=np.int64))
    assert not nn.forward(params, batch).any()


def test_forward_identity_single_layer():
    params = nn.ParameterSet([np.eye(2)], [np.zeros(2)])
    batch = MiniBatch(np.array([[0.5, -0.5]]), np.array([0]))
    logits = nn.forward(params, batch)
    assert np.allclose(logits, [[0.5, -0.5]], atol=0)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_forward_matches_reference(activation):
    rng = np.random.default_rng(31)
    params = make_params((6, 9, 5, 3), activation, seed=31)
    x = rng.standard_normal((8, 6))
    got = nn.forward(params, MiniBatch(x, np.zeros(8, dtype=np.int64)))
    want = mlp_forward_reference(params.weights, params.biases, activation, x)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_forward_dimension_mismatch_is_config_error():
    params = make_params((4, 3))
    with pytest.raises(ConfigError):
        nn.forward(params, MiniBatch(np.ones((2, 5)), np.zeros(2, dtype=np.int64)))


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
    ref = cross_entropy_reference(nn.forward(params, batch), batch.labels)
    assert loss == pytest.approx(ref, rel=1e-12)


def test_loss_stable_for_huge_logits():
    params = nn.ParameterSet([np.array([[1000.0, -1000.0]])], [np.zeros(2)])
    batch = MiniBatch(np.array([[1.0]]), np.array([0]))
    loss, grad = nn.loss_and_grad(params, batch)
    assert math.isfinite(loss) and loss >= 0.0
    assert np.isfinite(grad.flatten()).all()


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
    v0 = nn.zeros_like(params)
    nn.sgd_step(params, grad, 0.5, 0.9, v0)
    assert np.array_equal(params.flatten(), before)
    assert not v0.flatten().any()


def test_sgd_step_rejects_bad_eta_and_momentum():
    params = make_params((2, 2))
    grad = nn.zeros_like(params)
    with pytest.raises(ValueError):
        nn.sgd_step(params, grad, 0.0)
    with pytest.raises(ValueError):
        nn.sgd_step(params, grad, 0.1, momentum=1.0)


# ---- local_update_run ---- #

def small_task(seed=0):
    ds = gen_synthetic(3, 30, 5, 0.2, substream(seed, "data"))
    shard = np.arange(ds.n)
    return ds, shard


def run_one(params, ds, shard, tau, eta, batch_size, rng, momentum=0.0):
    """The runner with a single worker: (final, gradient sum, losses) of row 0."""
    final, g_sum, losses = nn.local_update_run(
        params, ds, [shard], tau, eta, batch_size, [rng], momentum=momentum
    )
    return final[0], g_sum[0], list(losses[0])


def test_local_update_tau_one_is_single_step():
    ds, shard = small_task()
    params = make_params((5, 6, 3), seed=1)
    final, g_agg, losses = run_one(
        params, ds, shard, tau=1, eta=0.05, batch_size=4, rng=substream(7, "worker", 0)
    )
    mb = sample_minibatch(shard, ds, 4, substream(7, "worker", 0))
    loss, grad = nn.loss_and_grad(params, mb)
    expected, _ = nn.sgd_step(params, grad, 0.05)
    assert losses == [loss]
    assert np.array_equal(final, expected.flatten())
    assert np.array_equal(g_agg, grad.flatten())


def test_local_update_replay_oracle():
    ds, shard = small_task(3)
    params = make_params((5, 4, 3), seed=2)
    final, g_agg, losses = run_one(
        params, ds, shard, tau=3, eta=0.02, batch_size=5, rng=substream(11, "worker", 2)
    )
    # replay the exact same stream step by step
    rng = substream(11, "worker", 2)
    cur = params
    total = np.zeros(params.dim)
    for step in range(3):
        mb = sample_minibatch(shard, ds, 5, rng)
        loss, grad = nn.loss_and_grad(cur, mb)
        assert loss == losses[step]
        total += grad.flatten()
        cur, _ = nn.sgd_step(cur, grad, 0.02)
    assert np.array_equal(final, cur.flatten())
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
    _, g_agg, losses = run_one(
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
    # g_agg == (start - final) / eta when momentum is zero
    ds, shard = small_task(5)
    for tau in (1, 2, 5):
        params = make_params((5, 7, 3), seed=tau)
        final, g_agg, _ = run_one(
            params, ds, shard, tau=tau, eta=0.03, batch_size=6, rng=substream(13, "worker", tau)
        )
        displacement = (params.flatten() - final) / 0.03
        denom = np.maximum(np.abs(g_agg), 1e-12)
        assert (np.abs(displacement - g_agg) / denom).max() < 1e-9


def test_worker_momentum_changes_trajectory_but_keeps_gradient_sum():
    ds, shard = small_task(6)
    params = make_params((5, 4, 3), seed=6)
    final_a, g_a, _ = run_one(
        params, ds, shard, tau=4, eta=0.05, batch_size=4, rng=substream(17, "worker", 0)
    )
    final_b, g_b, _ = run_one(
        params, ds, shard, tau=4, eta=0.05, batch_size=4, rng=substream(17, "worker", 0),
        momentum=0.5,
    )
    assert not np.array_equal(final_a, final_b)
    # same first-step batch, so the first gradient agrees; sums then diverge
    assert not np.array_equal(g_a, g_b)


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
    assert np.array_equal(out[0][1], out[1][1])
    assert out[0][2] == out[1][2]


# ---- all workers in one stacked pass ---- #

def three_workers(ds):
    """Shards of unequal length, one a single row, and a generator maker."""
    shards = [np.arange(0, 50), np.arange(50, 87), np.array([88])]
    return shards, lambda: [substream(29, "worker", j) for j in range(len(shards))]


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [(32,), (32, 16)])
@pytest.mark.parametrize("momentum", [0.0, 0.5])
@pytest.mark.parametrize("tau", [1, 3])
def test_stacked_workers_equal_separate_runs_bitwise(activation, hidden, momentum, tau):
    ds, _ = small_task(4)
    params = make_params((5, *hidden, 3), activation, seed=4)
    shards, rngs = three_workers(ds)
    final, g_sum, losses = nn.local_update_run(
        params, ds, shards, tau, 0.05, 8, rngs(), momentum=momentum
    )
    assert final.shape == g_sum.shape == (3, params.dim)
    assert losses.shape == (3, tau)
    for j, (shard, rng) in enumerate(zip(shards, rngs())):
        alone = run_one(params, ds, shard, tau, 0.05, 8, rng, momentum=momentum)
        assert np.array_equal(final[j], alone[0])
        assert np.array_equal(g_sum[j], alone[1])
        assert list(losses[j]) == alone[2]


def test_stacked_run_leaves_params_untouched():
    ds, _ = small_task(4)
    params = make_params((5, 6, 3), seed=5)
    before = params.flatten()
    shards, rngs = three_workers(ds)
    nn.local_update_run(params, ds, shards, 3, 0.05, 8, rngs(), momentum=0.5)
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
    # takes its weights past the float range; the next step's check sees it
    ds, _ = small_task(4)
    shards, rngs = three_workers(ds)
    ds.features[shards[1]] = 1e308
    params = nn.ParameterSet([np.zeros((5, 3))], [np.zeros(3)])
    with np.errstate(over="ignore", invalid="ignore"):
        final, g_sum, _ = nn.local_update_run(params, ds, shards, 1, 10.0, 4, rngs())
        assert np.isfinite(final[[0, 2]]).all() and np.isfinite(g_sum).all()
        assert not np.isfinite(final[1]).all()
        with pytest.raises(FloatingPointError):
            nn.local_update_run(params, ds, shards, 2, 10.0, 4, rngs())


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
    with pytest.raises(ValueError, match="momentum"):
        nn.local_update_run(params, ds, shards, 1, 0.05, 8, rngs(), momentum=1.0)
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
        steps.append(args[3].shape)
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
    assert steps == [(3, 8, 5)] * tau  # one (M, batch, d_in) gather per step
