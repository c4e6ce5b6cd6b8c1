"""Dense feed-forward network with manual backpropagation.

All tensors are float64 numpy arrays in C order.  A ParameterSet keeps the
whole model in one flat vector, in block order W0, b0, W1, b1, ..., and
exposes each layer's weight matrix (fan_in x fan_out) and bias vector as a
view into it; gradients use the same container, so layer blocks keep stable
offsets in the flat vector.

Local SGD runs all M workers of a round in one stacked pass: their
parameters, velocities and gradient sums are (M, d) buffers whose row j is
laid out like a flat vector, and each step does one batched matmul per layer
for every worker at once.  Before the first step each worker draws all tau
of its mini-batches in one call on its own generator, giving a (tau, M,
batch) index array; the drawn labels and the step arguments are checked
once, and each step gathers only its own (M, batch, d_in) features.  The
forward and backward pass is written once, over arrays with an optional
leading worker axis, so a single 2-D batch is simply the unstacked case of
the same code.  No function here mutates its inputs, and randomness only
enters through explicit generators.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# sample_minibatch stays importable from this module, where perfbench's tracer
# tests look it up; the runner itself draws with sample_indices.
from .data import Dataset, MiniBatch, Shard, sample_indices, sample_minibatch  # noqa: F401
from .errors import ConfigError

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer sizes from input to logits plus the hidden activation."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_sizes", tuple(int(n) for n in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least an input and an output entry")
        if any(n < 1 for n in self.layer_sizes):
            raise ValueError(f"all layer sizes must be >= 1, got {self.layer_sizes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")


def _layer_views(buf: np.ndarray, shapes: tuple[tuple[int, ...], ...]) -> tuple[list, list]:
    """(weights, biases) as views into the last axis of `buf`.

    Block i of a (..., d) buffer is viewed with shape (..., *shapes[i]), so a
    flat vector gives the plain layers and an (M, d) buffer gives every
    layer stacked over M.  Writing through a view writes `buf`.
    """
    lead = buf.shape[:-1]
    views, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[..., pos : pos + size].reshape(lead + shape))
        pos += size
    return views[0::2], views[1::2]


class ParameterSet:
    """Per-layer weights and biases as views into one flat vector; also the
    container for gradients.

    `flat` is that vector in block order W0, b0, W1, b1, ...; writing
    through `weights` or `biases` writes it.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray], activation: str = "relu"):
        blocks = [np.asarray(a, dtype=np.float64) for pair in zip(weights, biases) for a in pair]
        self.shapes = tuple(a.shape for a in blocks)
        self.activation = activation
        self._bind(np.concatenate([a.ravel() for a in blocks]))

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        self.weights, self.biases = _layer_views(flat, self.shapes)

    @property
    def dim(self) -> int:
        return self.flat.shape[-1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "ParameterSet":
        return self.from_flat(self.flat.copy())

    def flatten(self) -> np.ndarray:
        """A copy of the flat vector, block order W0, b0, W1, b1, ..."""
        return self.flat.copy()

    def from_flat(self, vec: np.ndarray) -> "ParameterSet":
        """This layout over `vec`, which is not copied: the new set's layers
        are views into it.  `vec` is one flat vector, or a stack of them
        (..., d) whose layers then carry the same leading axes."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.ndim < 1 or vec.shape[-1] != self.dim:
            raise ValueError(f"expected flat vectors of length {self.dim}, got shape {vec.shape}")
        out = object.__new__(ParameterSet)
        out.shapes = self.shapes
        out.activation = self.activation
        out._bind(vec)
        return out

    def blocks(self) -> list[tuple[int, np.ndarray]]:
        """(flat offset, array) per block in flatten() order; a stack's
        arrays carry its leading axes."""
        arrays = [a for pair in zip(self.weights, self.biases) for a in pair]
        offsets = np.cumsum([0, *(math.prod(shape) for shape in self.shapes)]).tolist()
        return list(zip(offsets, arrays))


def zeros_like(params: ParameterSet) -> ParameterSet:
    return params.from_flat(np.zeros(params.dim))


def init_params(spec: MlpSpec, rng: np.random.Generator) -> ParameterSet:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ParameterSet(weights, biases, spec.activation)


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values in {what}")


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _check_batch(params: ParameterSet, features, labels) -> tuple[np.ndarray, np.ndarray]:
    """Features of shape (rows, d_in) with at least one row, and every label
    in [0, classes)."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    d_in = params.weights[0].shape[0]
    if x.ndim != 2 or x.shape[-1] != d_in:
        raise ConfigError(f"batch features have shape {x.shape}, expected 2 axes ending in {d_in}")
    if x.shape[-2] == 0:
        raise ValueError("empty batch")
    classes = params.weights[-1].shape[1]
    if y.min() < 0 or y.max() >= classes:
        raise ValueError(f"labels outside [0, {classes})")
    return x, y


def _forward(weights: list, biases: list, activation: str, x: np.ndarray) -> tuple[list, np.ndarray]:
    """Hidden activations (input first) and logits; every array may carry
    a leading worker axis, matched between the layers and x."""
    acts = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        acts.append(_activate(np.matmul(acts[-1], w) + b[..., None, :], activation))
    logits = np.matmul(acts[-1], weights[-1]) + biases[-1][..., None, :]
    _require_finite(logits, "logits")
    return acts, logits


def forward(params: ParameterSet, batch: MiniBatch) -> np.ndarray:
    """Logits (batch x classes); raw affine output, no softmax applied."""
    x, _ = _check_batch(params, batch.features, batch.labels)
    return _forward(params.weights, params.biases, params.activation, x)[1]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    logits are (..., batch, classes) and labels (..., batch); the loss has
    the leading shape (a numpy scalar for one 2-D batch).  Stabilized with
    the log-sum-exp shift so large logits cannot overflow.
    """
    z = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    log_probs = z - log_norm
    classes = logits.shape[-1]
    rows, cols = np.arange(labels.size), labels.ravel()
    picked = log_probs.reshape(-1, classes)[rows, cols].reshape(labels.shape)
    loss = -picked.mean(axis=-1)
    dlogits = np.exp(log_probs)
    dlogits.reshape(-1, classes)[rows, cols] -= 1.0
    dlogits /= labels.shape[-1]
    return loss, dlogits


def _backprop(
    weights: list, biases: list, activation: str, x: np.ndarray, y: np.ndarray,
    grad_w: list, grad_b: list,
) -> np.ndarray:
    """Loss of each batch in the stack; writes its exact gradient through
    the grad_w / grad_b views.  Shapes as in _forward."""
    acts, logits = _forward(weights, biases, activation, x)
    loss, dz = softmax_cross_entropy(logits, y)
    for layer in range(len(weights) - 1, -1, -1):
        if layer < len(weights) - 1:
            a = acts[layer + 1]
            dz = upstream * ((a > 0.0) if activation == "relu" else (1.0 - a * a))
        grad_w[layer][...] = np.matmul(acts[layer].swapaxes(-1, -2), dz)
        grad_b[layer][...] = dz.sum(axis=-2)
        if layer > 0:
            upstream = np.matmul(dz, weights[layer].swapaxes(-1, -2))
    return loss


def loss_and_grad(params: ParameterSet, batch: MiniBatch) -> tuple[float, ParameterSet]:
    """Mean softmax cross-entropy and its exact gradient via backprop."""
    x, y = _check_batch(params, batch.features, batch.labels)
    grad = zeros_like(params)
    loss = _backprop(
        params.weights, params.biases, params.activation, x, y, grad.weights, grad.biases
    )
    _require_finite(grad.flat, "gradient")
    return float(loss), grad


def _check_step(eta: float, momentum: float) -> None:
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")


def sgd_step(
    params: ParameterSet,
    grad: ParameterSet,
    eta: float,
    momentum: float = 0.0,
    velocity: ParameterSet | None = None,
) -> tuple[ParameterSet, ParameterSet]:
    """One SGD step: v <- momentum * v + grad; params <- params - eta * v.

    With momentum 0 this is exactly params - eta * grad.  Returns the new
    parameters and the new velocity; inputs are left untouched.
    """
    _check_step(eta, momentum)
    previous = np.zeros(params.dim) if velocity is None else velocity.flat
    new_v = momentum * previous + grad.flat
    return params.from_flat(params.flat - eta * new_v), params.from_flat(new_v)


def local_update_run(
    params: ParameterSet,
    ds: Dataset,
    shards: Sequence[Shard],
    tau: int,
    eta: float,
    batch_size: int,
    rngs: Sequence[np.random.Generator],
    momentum: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run tau local SGD steps for M workers at once, all from `params`.

    Worker j draws all tau of its mini-batches from shards[j] with one call
    on rngs[j]; the batches and the step arguments are checked once, before
    the first step, so a bad input raises before any work is done.  Returns
    (final parameters, summed gradients, per-step losses) with shapes
    (M, d), (M, d) and (M, tau); row j is laid out like params.flatten()
    and is bit for bit what worker j would get on its own.  The summed
    gradient is the plain sum of the per-step mini-batch gradients, so with
    momentum 0 it equals (start - final) / eta coordinate-wise.
    """
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if len(shards) < 1 or len(shards) != len(rngs):
        raise ValueError(f"need one generator per shard and >= 1 shard, got {len(shards)} "
                         f"shards and {len(rngs)} generators")
    _check_step(eta, momentum)
    # (tau, M, batch): row picks[t, j] is worker j's mini-batch at step t
    picks = np.array([sample_indices(s, tau, batch_size, r) for s, r in zip(shards, rngs)])
    picks = picks.swapaxes(0, 1)
    # every step gathers from ds.features, so checking it and the drawn
    # labels here covers all tau steps
    features, labels = _check_batch(params, ds.features, ds.labels[picks])
    current = np.tile(params.flat, (len(shards), 1))
    velocity = np.zeros_like(current)
    g_sum = np.zeros_like(current)
    grad = np.empty_like(current)
    losses = np.empty((len(shards), tau))
    weights, biases = _layer_views(current, params.shapes)
    grad_w, grad_b = _layer_views(grad, params.shapes)
    for step in range(tau):
        x = features[picks[step]]
        losses[:, step] = _backprop(
            weights, biases, params.activation, x, labels[step], grad_w, grad_b
        )
        _require_finite(grad, "gradient")
        g_sum += grad
        velocity *= momentum
        velocity += grad
        current -= eta * velocity
    return current, g_sum, losses
