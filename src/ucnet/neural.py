"""Minimal dense/LSTM machinery with hand-written gradients.

Model parameters and their gradients are float64 and live in one contiguous
vector each (:class:`FlatParameters`); every parameter is exposed as a named
view into it, so the Adam optimizer updates the whole model with a handful
of in-place vector operations and the finite-difference gradient checker
treats every architecture uniformly. A :class:`DenseLayer` is an affine map
whose nonlinearity is fixed where it is used: :class:`Mlp` puts ReLU between
its layers and a softmax on top. A "network" is any object with two methods::

    parameters()                       -> live dict of named arrays
    batch_loss_and_gradients(*batch)   -> (mean loss, dict of named arrays)

The gradient checker perturbs the live parameter arrays in place, so
``parameters()`` must return the arrays the forward pass actually reads.
The gradient arrays may be the network's own buffer, overwritten by its next
call: copy them to keep them.

The LSTM computes in the dtype of the cell it is given. UCNet hands it a
float32 copy of its float64 master weights (mixed precision, Micikevicius et
al. 2018, arXiv:1710.03740); gradient checks hand it the float64 weights.
Everything else computes in float64.

The batched LSTM reads token ids, not vectors: its input is a padded
``(n, t_max)`` integer array of row ids into a ``(V, input_dim)`` float64
matrix (an embedding table's), plus each row's true length. It runs a
packed recurrence (sequence packing and input-projection hoisting, as in
Appleyard et al. 2016, arXiv:1604.01946). Rows are stable-sorted by
descending length, so the rows still running at step t are a prefix of size
b_t. Only real (row, step) cells are stored, time-major: step t owns packed
rows ``bounds[t]:bounds[t + 1]`` of every cache array. The input projection
is one GEMM before the loop over the distinct ids among the real cells
only, scattered to the cells by index, since a cell's projection depends
only on its token; each step then adds ``h[:b_t] @ wh.T``. The backward
pass fills one packed gate-gradient array in its reverse loop and then forms
the weight gradients with three GEMMs over all cells, gathering the cells'
input vectors from the distinct rows for ``wx``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

def sigmoid(x):
    z = np.array(x, dtype=np.float64)
    _sigmoid_inplace(z)
    return z


def _sigmoid_inplace(z: np.ndarray) -> None:
    """Overwrite z with 1 / (1 + exp(-z)); exp overflow correctly gives 0."""
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(probs, labels) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of the labels under (n, k) softmax
    outputs, each probability floored at 1e-12, and its gradient with
    respect to the softmax logits."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    n, k = probs.shape
    if labels.shape != (n,) or np.any((labels < 0) | (labels >= k)):
        raise IndexError(f"labels must be {n} class indices in [0, {k})")
    rows = np.arange(n)
    loss = float(-np.log(np.clip(probs[rows, labels], 1e-12, None)).mean())
    delta = probs.copy()
    delta[rows, labels] -= 1.0
    delta /= n
    return loss, delta


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int,
                   shape: tuple[int, ...] | None = None) -> np.ndarray:
    bound = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=shape or (out_dim, in_dim))


@dataclass
class DenseLayer:
    """The affine map ``x @ weights.T + bias``."""

    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray     # (out_dim,)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("dense layer shapes are inconsistent")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("dense layer parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


def init_dense(rng: np.random.Generator, out_dim: int, in_dim: int) -> DenseLayer:
    return DenseLayer(glorot_uniform(rng, out_dim, in_dim), np.zeros(out_dim))


@dataclass
class LSTMCell:
    """Single LSTM cell with gate matrices stacked as (input, forget, candidate, output)."""

    wx: np.ndarray    # (4 * hidden_dim, input_dim)
    wh: np.ndarray    # (4 * hidden_dim, hidden_dim)
    bias: np.ndarray  # (4 * hidden_dim,)

    def __post_init__(self) -> None:
        # float32 weights make a float32 cell; anything else computes in float64.
        dtype = np.float32 if np.asarray(self.wx).dtype == np.float32 else np.float64
        self.wx = np.asarray(self.wx, dtype=dtype)
        self.wh = np.asarray(self.wh, dtype=dtype)
        self.bias = np.asarray(self.bias, dtype=dtype)
        hidden = self.wh.shape[1]
        if self.wx.shape[0] != 4 * hidden or self.wh.shape[0] != 4 * hidden \
                or self.bias.shape != (4 * hidden,):
            raise ValueError("LSTM cell shapes are inconsistent")
        for arr in (self.wx, self.wh, self.bias):
            if not np.all(np.isfinite(arr)):
                raise ValueError("LSTM parameters must be finite")

    @property
    def input_dim(self) -> int:
        return self.wx.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.wh.shape[1]


def init_lstm(rng: np.random.Generator, input_dim: int,
              hidden_dim: int) -> LSTMCell:
    """Glorot-uniform gate matrices, zero biases, forget-gate bias 1."""
    wx = glorot_uniform(rng, hidden_dim, input_dim, (4 * hidden_dim, input_dim))
    wh = glorot_uniform(rng, hidden_dim, hidden_dim, (4 * hidden_dim, hidden_dim))
    bias = np.zeros(4 * hidden_dim)
    bias[hidden_dim:2 * hidden_dim] = 1.0
    return LSTMCell(wx, wh, bias)


def _rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with each output row's bits independent of the other rows.

    numpy hands a one-row product to BLAS gemv, which sums in a different
    order from gemm, so a row computed alone would not match the same row
    computed in company; pooling relies on that match for its exact
    permutation and duplication invariance.
    """
    if a.shape[0] == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


@dataclass
class PackedLSTMCache:
    """Real (row, step) cells of one forward pass, packed time-major.

    Rows are stable-sorted by descending length (``order``), so the rows
    still running at step t are the prefix of size ``bounds[t + 1] -
    bounds[t]``, and step t owns packed rows ``bounds[t]:bounds[t + 1]``.
    """

    order: np.ndarray    # (n,) sorted position -> original row
    bounds: np.ndarray   # (t_real + 1,) packed offset of each step
    cell_of: np.ndarray  # (P,) row of ``inputs`` each cell reads
    inputs: np.ndarray   # (U, input_dim) distinct input vectors, compute dtype
    gates: np.ndarray    # (P, 4 * hidden) activated i, f, g, o
    h_prev: np.ndarray   # (P, hidden) hidden state entering the step
    c_prev: np.ndarray   # (P, hidden) cell state entering the step
    tanh_c: np.ndarray   # (P, hidden) tanh of the cell state leaving it


def lstm_forward_batch(cell: LSTMCell, xs: np.ndarray, lengths: np.ndarray,
                       matrix: np.ndarray) -> tuple[np.ndarray, PackedLSTMCache]:
    """Run ``n`` padded token-id sequences through the recurrence at once.

    xs is an (n, t_max) integer array of row ids into matrix, a
    (V, input_dim) array of input vectors, and lengths gives each row's
    true length; ids past it are padding and never read. Only the real
    cells are computed: the input projection is one GEMM over the distinct
    ids among them, and each step multiplies the hidden states of the rows
    still running by ``wh``. Returns the (n, hidden_dim) final states in
    the caller's row order (zeros for empty rows) and the cache the
    backward pass needs, both in the cell's dtype: the distinct input rows
    are cast to it before the projection.
    """
    xs = np.asarray(xs)
    matrix = np.asarray(matrix, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if xs.ndim != 2 or not np.issubdtype(xs.dtype, np.integer):
        raise ValueError(f"LSTM expects an (n, t) integer id array, got "
                         f"{xs.dtype} of shape {xs.shape}")
    if matrix.ndim != 2 or matrix.shape[1] != cell.input_dim:
        raise ValueError(f"LSTM expects a (V, {cell.input_dim}) input matrix, "
                         f"got shape {matrix.shape}")
    n, t_max = xs.shape
    if lengths.shape != (n,) or np.any(lengths < 0) or np.any(lengths > t_max):
        raise ValueError(f"lengths must be {n} values in [0, {t_max}]")
    hidden, dtype = cell.hidden_dim, cell.wx.dtype
    order = np.argsort(-lengths, kind="stable")
    t_real = int(lengths.max(initial=0))
    steps, rows = np.nonzero(np.arange(t_real)[:, None] < lengths[order])
    bounds = np.searchsorted(steps, np.arange(t_real + 1))
    ids = xs[order[rows], steps]
    if ids.size and (ids.min() < 0 or ids.max() >= matrix.shape[0]):
        raise ValueError(f"token ids must lie in [0, {matrix.shape[0]})")
    distinct, cell_of = np.unique(ids, return_inverse=True)
    inputs = matrix[distinct].astype(dtype, copy=False)
    projected = _rowwise_matmul(inputs, cell.wx.T)
    projected += cell.bias
    gates = projected[cell_of]
    p = gates.shape[0]
    h_prev = np.empty((p, hidden), dtype)
    c_prev = np.empty((p, hidden), dtype)
    tanh_c = np.empty((p, hidden), dtype)
    h = np.zeros((n, hidden), dtype)
    c = np.zeros((n, hidden), dtype)
    wh_t = cell.wh.T
    for t in range(len(bounds) - 1):
        lo, hi = bounds[t], bounds[t + 1]
        b = hi - lo
        h_prev[lo:hi] = h[:b]
        c_prev[lo:hi] = c[:b]
        z = gates[lo:hi]
        if t:
            z += _rowwise_matmul(h[:b], wh_t)
        _sigmoid_inplace(z[:, :2 * hidden])
        np.tanh(z[:, 2 * hidden:3 * hidden], out=z[:, 2 * hidden:3 * hidden])
        _sigmoid_inplace(z[:, 3 * hidden:])
        gi, gf = z[:, :hidden], z[:, hidden:2 * hidden]
        gg, go = z[:, 2 * hidden:3 * hidden], z[:, 3 * hidden:]
        c[:b] = gf * c[:b] + gi * gg
        np.tanh(c[:b], out=tanh_c[lo:hi])
        np.multiply(go, tanh_c[lo:hi], out=h[:b])
    finals = np.empty((n, hidden), dtype)
    finals[order] = h
    return finals, PackedLSTMCache(order, bounds, cell_of, inputs, gates,
                                   h_prev, c_prev, tanh_c)


def lstm_backward_batch(cell: LSTMCell, cache: PackedLSTMCache,
                        dh_final: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagation through time; returns gradients for wx, wh and bias
    in the cell's dtype.

    The reverse loop writes each step's gate gradients into one packed
    array; the weight gradients are then three GEMMs over all cells.
    """
    hidden = cell.hidden_dim
    bounds = cache.bounds
    dh = np.asarray(dh_final, dtype=cell.wh.dtype)[cache.order]
    dc = np.zeros_like(dh)
    dz_all = np.empty_like(cache.gates)
    for t in range(len(bounds) - 2, -1, -1):
        lo, hi = bounds[t], bounds[t + 1]
        b = hi - lo
        g = cache.gates[lo:hi]
        gi, gf = g[:, :hidden], g[:, hidden:2 * hidden]
        gg, go = g[:, 2 * hidden:3 * hidden], g[:, 3 * hidden:]
        tanh_c = cache.tanh_c[lo:hi]
        dh_b = dh[:b]
        dc_cand = dc[:b] + dh_b * go * (1.0 - tanh_c ** 2)
        dz = dz_all[lo:hi]
        dz[:, :hidden] = dc_cand * gg * gi * (1.0 - gi)
        dz[:, hidden:2 * hidden] = dc_cand * cache.c_prev[lo:hi] * gf * (1.0 - gf)
        dz[:, 2 * hidden:3 * hidden] = dc_cand * gi * (1.0 - gg ** 2)
        dz[:, 3 * hidden:] = dh_b * tanh_c * go * (1.0 - go)
        if t:
            dh[:b] = dz @ cell.wh
            dc[:b] = dc_cand * gf
    return {"wx": dz_all.T @ cache.inputs[cache.cell_of],
            "wh": dz_all.T @ cache.h_prev,
            "bias": dz_all.sum(axis=0)}


def segment_views(vector: np.ndarray, shapes: Mapping[str, tuple[int, ...]]
                  ) -> dict[str, np.ndarray]:
    """Named views of consecutive segments of a 1-D vector, in order."""
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = vector[offset:offset + size].reshape(shape)
        offset += size
    return views


@dataclass
class FlatParameters:
    """A model's float64 parameters as one contiguous vector, with a gradient
    vector of the same layout; ``params`` and ``grads`` name views into them."""

    vector: np.ndarray
    gradient: np.ndarray
    params: dict[str, np.ndarray]
    grads: dict[str, np.ndarray]

    @classmethod
    def pack(cls, arrays: Mapping[str, np.ndarray]) -> "FlatParameters":
        """Copy the named arrays, in order, into a new vector."""
        shapes = {name: np.shape(a) for name, a in arrays.items()}
        vector = np.concatenate([np.ravel(a) for a in arrays.values()],
                                dtype=np.float64)
        gradient = np.zeros_like(vector)
        return cls(vector, gradient, segment_views(vector, shapes),
                   segment_views(gradient, shapes))


class Mlp:
    """ReLU hidden layers under a softmax output, trained on mean
    cross-entropy. The title scorer is one; UCNet's classification head is
    another, over the model's own :class:`FlatParameters`.

    Layer ``name`` is the affine map of the views ``name.weights`` and
    ``name.bias`` of ``flat``, into whose gradient vector the backward pass
    writes.
    """

    def __init__(self, flat: FlatParameters, names: Sequence[str]):
        self.names = tuple(names)
        if not self.names:
            raise ValueError("Mlp needs at least one layer")
        self.layers = [DenseLayer(flat.params[f"{name}.weights"],
                                  flat.params[f"{name}.bias"])
                       for name in self.names]
        self.flat = flat

    @classmethod
    def init(cls, rng: np.random.Generator, dims: Sequence[int]) -> "Mlp":
        """Glorot-uniform layers ``layer0``, ``layer1``, ... in a new vector."""
        names = [f"layer{i}" for i in range(len(dims) - 1)]
        arrays = {}
        for name, in_dim, out_dim in zip(names, dims, dims[1:]):
            layer = init_dense(rng, out_dim, in_dim)
            arrays[f"{name}.weights"] = layer.weights
            arrays[f"{name}.bias"] = layer.bias
        return cls(FlatParameters.pack(arrays), names)

    def parameters(self) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        for name, layer in zip(self.names, self.layers):
            params[f"{name}.weights"] = layer.weights
            params[f"{name}.bias"] = layer.bias
        return params

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities of one row or of a batch of rows."""
        return self._forward_cached(x)[0]

    def _forward_cached(self, xs):
        """Class probabilities of a batch of rows, plus each layer's input
        for ``_backward_from_delta``."""
        inputs = []
        out = np.asarray(xs, dtype=np.float64)
        for i, layer in enumerate(self.layers):
            if i:
                out = np.maximum(out, 0.0)
            inputs.append(out)
            out = out @ layer.weights.T + layer.bias
        return softmax(out), inputs

    def _backward_from_delta(self, delta, inputs) -> np.ndarray:
        """Write the parameter gradients into ``flat.grads`` and return the
        input gradient, given the gradient with respect to the output
        logits of a batch."""
        grads = self.flat.grads
        for i in range(len(self.layers) - 1, -1, -1):
            if i < len(self.layers) - 1:
                # ReLU passes the gradient where its output is positive.
                delta = delta * (inputs[i + 1] > 0)
            np.matmul(delta.T, inputs[i], out=grads[f"{self.names[i]}.weights"])
            delta.sum(axis=0, out=grads[f"{self.names[i]}.bias"])
            delta = delta @ self.layers[i].weights
        return delta

    def batch_loss_and_gradients(self, xs: np.ndarray, ys: np.ndarray):
        """Mean cross-entropy over a batch of rows and its gradients (views
        into ``flat.gradient``)."""
        out, inputs = self._forward_cached(xs)
        loss, delta = softmax_cross_entropy(out, ys)
        self._backward_from_delta(delta, inputs)
        return loss, self.flat.grads


@dataclass
class AdamState:
    """Adam accumulators; ``m``/``v`` have the flat parameter vector's shape.
    ``scratch`` holds two more such vectors, reused by every step so that
    a step allocates nothing."""

    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    scratch: np.ndarray = field(default_factory=lambda: np.zeros((2, 0)),
                                repr=False)

    @classmethod
    def for_params(cls, vector: np.ndarray, learning_rate: float = 1e-4,
                   beta1: float = 0.9, beta2: float = 0.999,
                   epsilon: float = 1e-8) -> "AdamState":
        return cls(learning_rate=learning_rate, beta1=beta1, beta2=beta2,
                   epsilon=epsilon, t=0, m=np.zeros_like(vector),
                   v=np.zeros_like(vector),
                   scratch=np.empty((2,) + np.shape(vector)))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of a flat float64 parameter vector.

    Updates ``params``, ``state.m`` and ``state.v`` in place and advances
    ``state.t``. Every element goes through the same operations, in the
    same order, as the textbook expressions
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
    ``p - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)``.
    """
    if not (params.shape == grads.shape == state.m.shape == state.v.shape
            == state.scratch.shape[1:]):
        raise ValueError(
            f"parameter, gradient and moment shapes differ: {params.shape}, "
            f"{grads.shape}, {state.m.shape}, {state.v.shape}")
    state.t += 1
    scratch, step = state.scratch
    m, v = state.m, state.v
    m *= state.beta1
    np.multiply(grads, 1.0 - state.beta1, out=scratch)
    m += scratch
    v *= state.beta2
    np.multiply(grads, 1.0 - state.beta2, out=scratch)
    scratch *= grads
    v += scratch
    np.divide(v, 1.0 - state.beta2 ** state.t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.epsilon
    np.divide(m, 1.0 - state.beta1 ** state.t, out=step)
    step *= state.learning_rate
    step /= scratch
    params -= step


def gradient_check(network, *batch, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    of ``network.batch_loss_and_gradients(*batch)``.

    Perturbs every parameter entry in place by +-h, so only use on networks
    small enough to afford 2 passes per parameter.
    """
    loss0, analytic = network.batch_loss_and_gradients(*batch)
    # A snapshot: the network may overwrite its gradient buffer on each call.
    analytic = {name: np.array(g, dtype=np.float64) for name, g in analytic.items()}
    if not math.isfinite(loss0):
        raise ValueError("loss is not finite")
    worst = 0.0
    for name, array in network.parameters().items():
        grad = analytic[name].reshape(-1)
        flat = array.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            plus = network.batch_loss_and_gradients(*batch)[0]
            flat[i] = original - h
            minus = network.batch_loss_and_gradients(*batch)[0]
            flat[i] = original
            if not (math.isfinite(plus) and math.isfinite(minus)):
                raise ValueError("loss is not finite during perturbation")
            numeric = (plus - minus) / (2.0 * h)
            err = abs(numeric - grad[i]) / max(abs(numeric), abs(grad[i]), 1e-8)
            worst = max(worst, err)
    return worst
