"""Dense feed-forward network with manual backpropagation.

All tensors are float64 numpy arrays in C order.  A ParameterSet keeps the
whole model in one flat vector, in block order W0, b0, W1, b1, ...; gradients
use the same container, so layer blocks keep stable offsets in the flat
vector.  Each layer's bias is stored right after its weights, so the two
blocks together are one (fan_in + 1, fan_out) matrix [W; b] whose last row is
the bias, and a ParameterSet exposes that view as `layers[i]` (and its rows
as `weights[i]` and `biases[i]`).

Every layer is one matmul.  The input rows and every hidden activation end in
a column of ones, so [a 1] @ [W; b] is the layer's affine map, and in the
backward pass [a 1]^T @ dz writes the weight and bias gradients in one call,
straight into the gradient buffer; nothing adds or reduces a bias on its own.
A Dataset stores its features with that column once (Dataset.rows), so each
step gathers its input in one contiguous take; loss_and_grad adds the
column to a MiniBatch itself.

The elementwise passes run over whole contiguous buffers, never over the
strided view without the ones column.  A hidden activation is computed into
the first columns of a (..., batch, H + 1) buffer whose last column is 1.0,
and the activation runs over all of it: relu(1) is 1, so relu keeps the
column, while tanh(1) is not, so tanh sets the column to 1.0 again.  The
hidden gradient dz @ [W; b]^T carries a spare last column, the gradient of
the ones, which nothing reads: the activation's mask multiplies the whole
buffer, and the next weight-gradient matmul reads dz[..., :-1], a stride
BLAS takes as it is.  Its right factor is a C-ordered copy of [W; b]^T,
refreshed each step: OpenBLAS multiplies by the transposed view on a
slower path (13.0 us, against 1.6 us for the copy and 6.1 us for the
product, at the desk config's shapes on a 2-vCPU Xeon with one BLAS
thread).

Local SGD runs all M workers of a round in one stacked pass: their
parameters and gradient sums are (M, d) buffers whose row j is laid out like
a flat vector, each step does one batched matmul per layer for every worker
at once, and a local step is plain SGD, current -= eta * grad.  The runner
returns only the gradient sums and the losses, so each step applies the
previous step's update first, and the update after the last step, which
nothing would read, is never made.  Before the first step each worker
draws all tau of its mini-batches in one call on its own generator, and the
draws form one contiguous (tau, M, batch) index array; the drawn labels and
the step arguments are checked once, and each step gathers only its own
(M, batch, d_in + 1) rows.  Every other array a step writes is made once per
round, as one _Buffers set, and each step writes into it: the hidden
activations, whose ones column is set there, the logits, their class-major
log-probabilities and exp, dlogits, each hidden gradient and activation
mask, the transposed copy of each [W; b] after the first, eta * grad and
both finiteness masks.  Each step also writes its
picked log-probabilities into an (M, tau, batch) buffer, so the (M, tau)
losses are one reduce after the last step, adding each batch as the step's
own reduce would.  The forward and backward pass is written once, over
arrays with an optional leading worker axis, so a single 2-D batch is simply
the unstacked case of the same code, run in a one-step set of buffers, and
each worker's rows get the bits of that worker's own 2-D calls.  No
function here mutates its inputs, and randomness only enters through
explicit generators.

The loss works on one class-major copy of the logits, their transpose
(classes, batch, M): the max, the shifts, both exps and the label pick run
over whole rows there, where the logits' own layout gives numpy inner loops
only as long as the class count.  Below 8 classes the class sum is an
outer-axis reduce of that copy as well.  numpy adds fewer than 8 values in
sequence, as an outer-axis reduce does, so the bits hold; from 8 classes up
it adds in pairwise lanes, so there the sum stays a last-axis reduce of a
class-last copy.  Each label is picked, and its 1 subtracted from the
exp, by its flat position in the class-major copy, which local_update_run
builds once per round for all tau steps, and the batch mean is
np.add.reduce over the batch size, which is what ndarray.mean computes.
The gradient goes back in the logits' layout, (M, batch, classes), one
C-ordered matrix per worker for both output-layer matmuls.
cross_entropy runs the same log-softmax, label pick and batch mean and
stops before the gradient; evaluation runs it once over the logits of the
whole test set.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# sample_minibatch stays importable from this module, where perfbench's tracer
# tests look it up; the runner itself draws with sample_indices.
from .data import (  # noqa: F401
    Dataset, MiniBatch, Shard, sample_indices, sample_minibatch, with_ones_column,
)
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


def _layer_views(buf: np.ndarray, shapes: tuple[tuple[int, ...], ...]) -> list[np.ndarray]:
    """Each layer's [W; b] as a view into the last axis of `buf`.

    Layer i's weights and bias are blocks 2i and 2i + 1, stored back to back,
    so together they are one (fan_in + 1, fan_out) matrix whose last row is
    the bias.  A flat vector gives the plain layers and an (M, d) buffer
    gives every layer stacked over M.  Writing through a view writes `buf`.
    """
    lead = buf.shape[:-1]
    views, pos = [], 0
    for fan_in, fan_out in shapes[0::2]:
        size = (fan_in + 1) * fan_out
        views.append(buf[..., pos : pos + size].reshape(lead + (fan_in + 1, fan_out)))
        pos += size
    return views


class ParameterSet:
    """Per-layer weights and biases as views into one flat vector; also the
    container for gradients.

    `flat` is that vector in block order W0, b0, W1, b1, ...; `layers` holds
    each layer's [W; b] matrix, and `weights` and `biases` its rows above
    and its last row.  Writing through any of them writes `flat`.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray], activation: str = "relu"):
        blocks = [np.asarray(a, dtype=np.float64) for pair in zip(weights, biases) for a in pair]
        self.shapes = tuple(a.shape for a in blocks)
        self.activation = activation
        self._bind(np.concatenate([a.ravel() for a in blocks]))

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        self.layers = _layer_views(flat, self.shapes)
        self.weights = [layer[..., :-1, :] for layer in self.layers]
        self.biases = [layer[..., -1, :] for layer in self.layers]

    @property
    def dim(self) -> int:
        return self.flat.shape[-1]

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


def init_params(spec: MlpSpec, rng: np.random.Generator) -> ParameterSet:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ParameterSet(weights, biases, spec.activation)


def _require_finite(arr: np.ndarray, what: str, mask: np.ndarray | None = None) -> None:
    """Raise unless every entry of `arr` is finite; `mask`, a bool array of
    its shape, takes the isfinite mask in place of a new array."""
    if not np.logical_and.reduce(np.isfinite(arr, out=mask), axis=None):
        raise FloatingPointError(f"non-finite values in {what}")


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


def _activation(lead: tuple[int, ...], width: int) -> np.ndarray:
    """An empty (*lead, width + 1) hidden activation whose last column, the
    ones, is set."""
    act = np.empty(lead + (width + 1,))
    act[..., -1] = 1.0
    return act


class _Buffers:
    """Every array one forward and backward pass writes, for inputs of
    leading shape `lead` (..., batch) through layers of `widths` outputs.

    The local SGD runner makes one set per round and each of its `steps`
    writes into it; a single batch makes its own.  `picked` takes each
    step's picked log-probabilities, (..., steps, batch), so the batch
    losses of all steps can be reduced at once.  `layers_t` holds a
    C-ordered copy of [W; b]^T for every layer after the first, which each
    step refreshes before its hidden-gradient matmul.
    """

    def __init__(self, lead: tuple[int, ...], widths: Sequence[int], activation: str,
                 steps: int):
        *hidden, classes = widths
        self.acts = [_activation(lead, width) for width in hidden]
        shape = lead + (classes,)
        self.logits, self.dlogits = np.empty(shape), np.empty(shape)
        self.finite = np.empty(shape, dtype=bool)
        # the class-major log-probabilities and their exp, and flat views
        self.z, self.e = np.empty(shape[::-1]), np.empty(shape[::-1])
        self.z_flat, self.e_flat = self.z.reshape(-1), self.e.reshape(-1)
        self.picked = np.empty(lead[:-1] + (steps,) + lead[-1:])
        # per hidden layer: the gradient, and relu's mask a > 0 or tanh's
        # slope 1 - a^2
        self.dh = [np.empty(act.shape) for act in self.acts]
        mask_type = bool if activation == "relu" else np.float64
        self.masks = [np.empty(act.shape, dtype=mask_type) for act in self.acts]
        # per layer after the first: a C-ordered copy of [W; b]^T, the
        # right factor of the hidden gradient, (..., fan_out, fan_in + 1)
        self.layers_t = [np.empty(lead[:-1] + (fan_out, fan_in + 1))
                         for fan_in, fan_out in zip(hidden, widths[1:])]


def _forward(layers: list, activation: str, x: np.ndarray,
             bufs: _Buffers | None = None) -> tuple[list, np.ndarray]:
    """Hidden activations (input first) and logits, written into `bufs`, or
    into new arrays for a forward pass alone.  x and every hidden activation
    end in a column of ones, so each layer is one matmul by its [W; b];
    every array may carry a leading worker axis, matched between the layers
    and x."""
    acts = [x]
    for i, layer in enumerate(layers[:-1]):
        h = _activation(x.shape[:-1], layer.shape[-1]) if bufs is None else bufs.acts[i]
        np.matmul(acts[-1], layer, out=h[..., :-1])
        # the activation runs over the whole contiguous buffer: relu keeps
        # the ones, tanh(1) does not, so its column is set again
        if activation == "relu":
            np.maximum(h, 0.0, out=h)
        else:
            np.tanh(h, out=h)
            h[..., -1] = 1.0
        acts.append(h)
    logits = np.matmul(acts[-1], layers[-1], out=None if bufs is None else bufs.logits)
    _require_finite(logits, "logits", None if bufs is None else bufs.finite)
    return acts, logits


def forward_rows(params: ParameterSet, rows: np.ndarray) -> np.ndarray:
    """Logits of input rows that already end in a column of ones, such as a
    slice of Dataset.rows, which is read without a copy."""
    d_in = params.weights[0].shape[0]
    if rows.ndim != 2 or rows.shape[-1] != d_in + 1:
        raise ConfigError(f"rows have shape {rows.shape}, expected 2 axes ending in {d_in + 1}")
    return _forward(params.layers, params.activation, rows)[1]


def _label_index(labels: np.ndarray) -> np.ndarray:
    """Flat position of each label in its step's class-major logits.

    `labels` is a (steps, ..., batch) stack.  Step t's logits are (...,
    batch, classes), and _cross_entropy works on a C-ordered copy of their
    transpose, (classes, batch, ...reversed), where a row's label y sits in
    class y's block at the row's position within a block.
    """
    shape = labels.shape[1:]
    rows = np.arange(math.prod(shape)).reshape(shape[::-1]).T
    index = labels * rows.size
    index += rows
    return index


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The loss of _cross_entropy read with _mean_loss, bit for bit, without
    its gradient, for 2-D logits (batch, classes) of any batch size."""
    z = logits.T.copy()
    _log_softmax(z, np.empty_like(z))
    return _mean_loss(z.reshape(-1)[_label_index(np.asarray(labels)[None])[0]])


def _mean_loss(picked: np.ndarray) -> np.ndarray:
    """The batch mean of minus the picked log-probabilities (..., batch);
    np.add.reduce over the batch size is what ndarray.mean computes."""
    return -(np.add.reduce(picked, axis=-1) / picked.shape[-1])


def _log_softmax(z: np.ndarray, e: np.ndarray) -> None:
    """Turns z, a class-major copy of the logits (classes, batch,
    ...reversed), into their log-probabilities; e, of z's shape, takes
    their shifted exp.  In that layout every class pass runs over whole
    rows."""
    z -= np.maximum.reduce(z, axis=0)
    np.exp(z, out=e)
    if len(z) < 8:  # numpy adds fewer than 8 values in order, as this does
        total = np.add.reduce(e, axis=0)
    else:  # and 8 or more in pairwise lanes, which need the classes last
        total = np.add.reduce(np.ascontiguousarray(e.T), axis=-1).T
    z -= np.log(total)


def _cross_entropy(logits: np.ndarray, label_index: np.ndarray, bufs: _Buffers,
                   step: int) -> np.ndarray:
    """The gradient w.r.t. the logits, in bufs.dlogits; the picked
    log-probabilities go to bufs.picked[..., step, :].  label_index holds each
    label's flat position in the class-major logits (see _label_index)."""
    bufs.z[...] = logits.T
    _log_softmax(bufs.z, bufs.e)
    bufs.picked[..., step, :] = bufs.z_flat[label_index]
    np.exp(bufs.z, out=bufs.e)
    bufs.e_flat[label_index] -= 1.0
    return np.divide(bufs.e.T, label_index.shape[-1], out=bufs.dlogits)


def _backprop(
    layers: list, activation: str, x: np.ndarray, label_index: np.ndarray, grads: list,
    bufs: _Buffers, step: int,
) -> None:
    """One step's pass over the stack, in the caller's buffer set `bufs`:
    writes its exact gradient into the [W; b] views `grads` and its picked
    log-probabilities into bufs.picked[..., step, :], from which the caller
    reduces the losses.  Shapes as in _forward; label_index as in
    _cross_entropy."""
    acts, logits = _forward(layers, activation, x, bufs)
    dz = _cross_entropy(logits, label_index, bufs, step)
    for layer in range(len(layers) - 1, -1, -1):
        # [a 1]^T dz: the weight rows and, from the ones, the bias row
        np.matmul(acts[layer].swapaxes(-1, -2), dz, out=grads[layer])
        if layer == 0:
            break
        # the gradient of [a 1]; its last column, that of the ones, is
        # spare, and the mask runs over the whole contiguous buffer; the
        # right factor is a copy of [W; b]^T, not the slower view
        layer_t = bufs.layers_t[layer - 1]
        np.copyto(layer_t, layers[layer].swapaxes(-1, -2))
        dz = np.matmul(dz, layer_t, out=bufs.dh[layer - 1])
        a, mask = acts[layer], bufs.masks[layer - 1]
        if activation == "relu":
            np.greater(a, 0.0, out=mask)
        else:
            np.multiply(a, a, out=mask)
            np.subtract(1.0, mask, out=mask)
        np.multiply(dz, mask, out=dz)
        dz = dz[..., :-1]


def loss_and_grad(params: ParameterSet, batch: MiniBatch) -> tuple[float, ParameterSet]:
    """Mean softmax cross-entropy and its exact gradient via backprop."""
    x, y = _check_batch(params, batch.features, batch.labels)
    grad = params.from_flat(np.zeros(params.dim))
    x, label_index = with_ones_column(x), _label_index(y[None])[0]
    bufs = _Buffers(x.shape[:-1], [layer.shape[-1] for layer in params.layers],
                    params.activation, 1)
    _backprop(params.layers, params.activation, x, label_index, grad.layers, bufs, 0)
    _require_finite(grad.flat, "gradient")
    return float(_mean_loss(bufs.picked[..., 0, :])), grad


def _check_step(eta: float, momentum: float = 0.0) -> None:
    if not eta > 0:
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
) -> tuple[np.ndarray, np.ndarray]:
    """Run tau local SGD steps for M workers at once, all from `params`.

    Worker j draws all tau of its mini-batches from shards[j] with one call
    on rngs[j]; the batches and the step arguments are checked once, before
    the first step, so a bad input raises before any work is done.  Returns
    (summed gradients, per-step losses) with shapes (M, d) and (M, tau);
    row j is laid out like params.flatten() and is bit for bit what worker
    j would get on its own.  The summed gradient is the plain sum of the
    per-step mini-batch gradients, so the final parameters, which are not
    formed, would be params - eta * g_sum up to rounding.
    """
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if len(shards) < 1 or len(shards) != len(rngs):
        raise ValueError(f"need one generator per shard and >= 1 shard, got {len(shards)} "
                         f"shards and {len(rngs)} generators")
    _check_step(eta)
    # (tau, M, batch), contiguous: row picks[t, j] is worker j's mini-batch at step t
    picks = np.array([sample_indices(s, tau, batch_size, r) for s, r in zip(shards, rngs)])
    picks = np.ascontiguousarray(picks.swapaxes(0, 1))
    # every step gathers from ds.rows, so checking its features and the
    # drawn labels here covers all tau steps
    _, labels = _check_batch(params, ds.features, ds.labels[picks])
    label_index = _label_index(labels)
    current = np.empty((len(shards), params.dim))
    current[...] = params.flat
    g_sum = np.zeros_like(current)
    grad = np.empty_like(current)
    update = np.empty_like(current)
    finite = np.empty(current.shape, dtype=bool)
    layers = _layer_views(current, params.shapes)
    grad_layers = _layer_views(grad, params.shapes)
    bufs = _Buffers(picks.shape[1:], [layer.shape[-1] for layer in layers], params.activation,
                    tau)
    for step in range(tau):
        if step:  # the previous step's update; the last step's feeds nothing
            current -= np.multiply(eta, grad, out=update)
        x = ds.rows.take(picks[step], axis=0)
        _backprop(layers, params.activation, x, label_index[step], grad_layers, bufs, step)
        _require_finite(grad, "gradient", finite)
        g_sum += grad
    # finite steps can still give a sum that overflows
    _require_finite(g_sum, "gradient", finite)
    # (M, tau) losses from the (M, tau, batch) picks, each added as one step would
    losses = _mean_loss(bufs.picked)
    # finite logits can still give a batch loss whose sum overflows
    _require_finite(losses, "loss")
    return g_sum, losses
