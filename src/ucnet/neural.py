"""Minimal dense/LSTM machinery with hand-written gradients.

Model parameters and their gradients are float64 and live in one contiguous
vector each (:class:`FlatParameters`); every parameter is exposed as a named
view into it, so the Adam optimizer updates the whole model with a handful
of in-place vector operations and the finite-difference gradient checker
treats every architecture uniformly. The gradient vector is allocated by
its first reader, a backward pass, so a model that only predicts holds its
parameters once. :meth:`FlatParameters.pack`, which copies, and
:meth:`FlatParameters.adopt`, which takes a vector as it is (a model file's
payload), are where parameters enter a model, and the one place their
finiteness is checked. A dense layer is a pair of views ``name.weights``
and ``name.bias``, read as the
affine map ``x @ weights.T + bias``; its nonlinearity is fixed where it is
used: :class:`Mlp` is two layers, ReLU between them and a two-class
softmax on top, and trains through one pass, :meth:`Mlp.step`, which the
title scorer and UCNet's classification head share. A
"network" is any object with two methods::

    parameters()                       -> live dict of named arrays
    batch_loss_and_gradients(*batch)   -> (mean loss, dict of named arrays)

The gradient checker perturbs the live parameter arrays in place, so
``parameters()`` must return the arrays the forward pass actually reads.
The gradient arrays may be the network's own buffer, overwritten by its next
call: copy them to keep them.

The LSTM computes in the compute dtype of the cell it is given, and casts
each weight where the pass reads it. UCNet hands it views of its float64
master weights with float32 as the compute dtype (mixed precision,
Micikevicius et al. 2018, arXiv:1710.03740); gradient checks hand it a
float64 cell. The forward pass casts ``wx`` and the bias for the input
projection alone and drops the copies before the recurrence, and casts
``wh`` straight into its staged ``wh.T``; the backward pass casts ``wh``
itself, for its ``dh`` products, and drops it before the weight
gradients. So no pass holds a cast copy of all the LSTM's weights, and a
training step holds one float32 ``(4 * hidden, hidden)`` array at a time.
Everything else computes in float64.

The batched LSTM reads token ids, not vectors: its input is a padded
``(n, t_max)`` integer array of row ids into a ``(V, input_dim)`` float64
matrix (an embedding table's), plus each row's true length. It runs a packed
recurrence (sequence packing and input-projection hoisting, as in Appleyard
et al. 2016, arXiv:1604.01946). Rows are stable-sorted by descending
length, so the rows still running at step t are a prefix of size b_t. Only
real (row, step) cells are stored, time-major: step t owns packed rows
``bounds[t]:bounds[t + 1]`` of every cache array. The gates are stored
gate-planar, ``(4, cells, hidden)``, so each gate of each step is one
contiguous ``(b_t, hidden)`` block, on which numpy's element-wise passes
run two to four times faster than on column slices. The input projection
is one GEMM, before the loop, over the distinct ids among the real cells,
gathered into the compute dtype; each step takes its cells' rows of it by
index, then adds ``h[:b_t] @ wh.T``. Each pass copies ``wh.T`` once, cast
and C-ordered (OpenBLAS is several times slower on the transposed view at
small row counts), gate by gate, ``(4, hidden, hidden)``, and a step
multiplies ``h[:b_t]`` by each gate's block into that gate's plane: late
in a long thread, where a few rows still run, one gate's block (360 KB at
hidden 300) stays in a 2 MB L2 cache where the whole operand does not
(Goto and van de Geijn 2008, "Anatomy of High-Performance Matrix
Multiplication"). Every product is a plain ``np.matmul``, in both dtypes,
so a one-row step runs gemv; a row's bits may depend on its batch mates
and on the BLAS kernel, and nothing here needs them not to
(:func:`ucnet.network.prepare_video` makes pooling invariant by
construction). Only a pass given a workspace keeps this cache, six planes
of cells: the four activated gates, ``h_prev`` and ``c``, each cell's cell
state after its step. The caller reserves the workspace once and passes it
to every pass, as ``network.train`` does, so a training step allocates no
large array. Such a pass takes every cell's projection rows into the gate
planes at once and frees the projection before it stages ``wh.T``. A pass
without one is an inference pass: it takes each step's gate rows in one
call into a buffer of ``b_0`` rows, which the next step overwrites, and
returns no cache; both kinds give the same finals, bit for bit. The
backward pass recomputes ``tanh(c)`` into its step scratch, and reads the
cell state entering step t from the first b_t rows of step t - 1's block of
``c``, as the forward pass did (trading a little recomputation for stored
planes, as Chen et al. 2016, arXiv:1604.06174, do for whole layers). It
writes each step's gate gradients over that step's activated gates, so a
cache is backpropagated at most once, with the operations per element of
the textbook expressions; the weight gradients are then stacked per-gate
GEMMs over all cells (``wh``'s leaves out step 0, whose cells enter with
``h = 0``). The layout changes no bits: every operation computes what it
would on a row-major ``(cells, 4 * hidden)`` cache.

:class:`AdamState` is built for one parameter vector, with its two moments
as the rows of one array and its step scratch; Adam's β1, β2 and ε are
module constants. :func:`adam_step` is eleven element-wise numpy calls,
three of them over both moments at once, which is nearly all the cost of
a step of the title scorer's 90 parameters; a vector longer than one
block, such as UCNet's, takes them block by block, so that a block stays
in cache between passes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax_cross_entropy(probs, labels) -> float:
    """Mean negative log-likelihood of the labels under (n, k) softmax
    outputs, each probability floored at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    n, k = probs.shape
    if labels.shape != (n,) or np.any((labels < 0) | (labels >= k)):
        raise IndexError(f"labels must be {n} class indices in [0, {k})")
    return float(-np.log(np.clip(probs[np.arange(n), labels], 1e-12,
                                 None)).mean())


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int,
                   shape: tuple[int, ...] | None = None) -> np.ndarray:
    bound = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=shape or (out_dim, in_dim))


@dataclass
class LSTMCell:
    """Single LSTM cell with gate matrices stacked as (input, forget, candidate, output).

    ``dtype`` is the compute dtype, float32 or float64; left out, it is
    float32 for float32 weights and float64 otherwise. The weights are
    kept as given, and the passes cast them where they read them, so a
    cell over views of float64 master weights computing in float32 holds
    no copy of them.
    Building one checks shapes only: the weights were checked where they
    entered the model, so a forward pass does not scan them again.
    """

    wx: np.ndarray    # (4 * hidden_dim, input_dim)
    wh: np.ndarray    # (4 * hidden_dim, hidden_dim)
    bias: np.ndarray  # (4 * hidden_dim,)
    dtype: np.dtype | None = None

    def __post_init__(self) -> None:
        self.wx, self.wh, self.bias = map(np.asarray,
                                          (self.wx, self.wh, self.bias))
        if self.dtype is None:
            self.dtype = np.float32 if self.wx.dtype == np.float32 \
                else np.float64
        self.dtype = np.dtype(self.dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ValueError(
                f"compute dtype must be float32 or float64, got {self.dtype}")
        hidden = self.wh.shape[1]
        if self.wx.shape[0] != 4 * hidden or self.wh.shape[0] != 4 * hidden \
                or self.bias.shape != (4 * hidden,):
            raise ValueError("LSTM cell shapes are inconsistent")

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


@dataclass
class PackedLSTMCache:
    """Real (row, step) cells of one forward pass, packed time-major.

    Rows are stable-sorted by descending length (``order``), so the rows
    still running at step t are the prefix of size ``bounds[t + 1] -
    bounds[t]``, and step t owns packed rows ``bounds[t]:bounds[t + 1]``.
    The cache holds six planes of cells: ``gates``, gate-planar ``(4,
    cells, hidden)`` so that each gate of each step is one contiguous
    ``(b_t, hidden)`` block, then ``h_prev`` and ``c``, each cell's state
    after its step. A row enters step t with its ``c`` of step t - 1, among
    the first b_t rows of that step's block (zeros at step 0), and the
    backward pass recomputes ``tanh(c)``, so neither has a plane. Only a
    forward pass given a workspace (:func:`lstm_workspace`) makes a cache:
    ``gates``, ``h_prev``, ``c`` and ``scratch`` are consecutive views of
    it, which the next pass over it overwrites; ``scratch`` holds no state.
    The cache keeps no cast of ``wh``: :func:`lstm_backward_batch` casts
    the cell's own, so it must be given the cell the forward pass read. It
    overwrites ``gates`` with the gate gradients, so a cache can be
    backpropagated once.
    """

    order: np.ndarray    # (n,) sorted position -> original row
    bounds: np.ndarray   # (t_real + 1,) packed offset of each step
    cell_of: np.ndarray  # (P,) row of ``inputs`` each cell reads
    inputs: np.ndarray   # (U, input_dim) distinct input vectors, compute dtype
    gates: np.ndarray    # (4, P, hidden) activated i, f, g, o
    h_prev: np.ndarray   # (P, hidden) hidden state entering the step
    c: np.ndarray        # (P, hidden) cell state leaving the step
    scratch: np.ndarray  # (4 * b_0 * hidden,) step buffers, b_0 = bounds[1]


# Entries each real cell needs in a workspace, in multiples of the hidden
# size: the packed cache arrays (four gate planes, h_prev and c), then the
# step scratch, sized for the worst case of one cell per row.
_WORKSPACE_WIDTH = 4 + 1 + 1 + 4


def lstm_workspace(cells: int, hidden_dim: int, dtype) -> np.ndarray:
    """Room for the packed cache arrays (six planes: four gates, ``h_prev``
    and ``c``) and the step scratch (four planes of step 0's rows) of
    forward and backward passes over up to ``cells`` real cells; pass it to
    :func:`lstm_forward_batch` as ``workspace``, with a cell of this hidden
    size and dtype. Only the part a pass uses is ever written."""
    return np.empty(cells * _WORKSPACE_WIDTH * hidden_dim, dtype)


def lstm_forward_batch(cell: LSTMCell, xs: np.ndarray, lengths: np.ndarray,
                       matrix: np.ndarray, *, workspace: np.ndarray | None = None
                       ) -> tuple[np.ndarray, PackedLSTMCache | None]:
    """Run ``n`` padded token-id sequences through the recurrence at once.

    xs is an (n, t_max) integer array of row ids into matrix, a
    (V, input_dim) array of input vectors, and lengths gives each row's
    true length; ids past it are padding and never read. Only the real
    cells are computed: the input projection is one GEMM over the distinct
    ids among them, laid out gate-planar, ``(4, U, hidden)``, and each step
    takes its cells' rows of it into the step's gate block, multiplies the
    hidden states of the rows still running by each gate's block of a
    C-ordered copy of ``wh.T``, ``(4, hidden, hidden)``, into that gate's
    plane of the step scratch, and adds that to the gates. Returns the
    (n, hidden_dim) final states in the caller's row order (zeros for empty
    rows), in the cell's dtype, and the cache the backward pass needs.

    A pass given a ``workspace`` (from :func:`lstm_workspace`, large enough
    for the batch's real cells) keeps that cache, in views of it: the
    projection's rows of every cell are taken into ``gates`` at once, and
    the projection is freed before ``wh.T`` is staged, so the pass never
    holds both; step t's gates and states land in packed rows
    ``bounds[t]:bounds[t + 1]``. A pass without one keeps none and returns
    None for it: step t's gates land in ``b_t`` rows of a buffer sized for
    step 0, taken in one call, and its cell state in the rows' running
    state, so inference holds one step of state rather than every cell's.
    Both give the same finals, bit for bit.
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
    hidden, dtype = cell.hidden_dim, cell.dtype
    order = np.argsort(-lengths, kind="stable")
    t_real = int(lengths.max(initial=0))
    steps, rows = np.nonzero(np.arange(t_real)[:, None] < lengths[order])
    bounds = np.searchsorted(steps, np.arange(t_real + 1))
    ids = xs[order[rows], steps]
    if ids.size and (ids.min() < 0 or ids.max() >= matrix.shape[0]):
        raise ValueError(f"token ids must lie in [0, {matrix.shape[0]})")
    cells, first = ids.size, int(bounds[1]) if t_real else 0
    keep = workspace is not None
    if not keep:
        # Step t's gates fill the first 4 * b_t * hidden entries.
        step_gates, scratch = np.empty((2, 4 * first * hidden), dtype)
    elif workspace.dtype == dtype and \
            workspace.size >= cells * _WORKSPACE_WIDTH * hidden:
        gates, h_prev, c_cells, scratch = segment_views(workspace, {
            "gates": (4, cells, hidden), "h_prev": (cells, hidden),
            "c": (cells, hidden), "scratch": (4 * first * hidden,)}).values()
    else:
        raise ValueError(f"a workspace of {workspace.size} {workspace.dtype} "
                         f"entries cannot hold {cells} cells of hidden "
                         f"size {hidden} in {dtype}")
    distinct, cell_of = np.unique(ids, return_inverse=True)
    inputs = matrix[distinct].astype(dtype, copy=False)
    # wx and the bias in the compute dtype serve this one product only.
    wx, bias = (cell.wx.astype(dtype, copy=False),
                cell.bias.astype(dtype, copy=False))
    wide = (inputs @ wx.T).reshape(-1, 4, hidden)
    # Gate-planar, with the bias added on the way, so that rows are taken
    # from contiguous tables: np.take copies a non-contiguous source whole
    # on every call.
    projected = np.empty((4, distinct.size, hidden), dtype)
    np.add(wide.transpose(1, 0, 2), bias.reshape(4, 1, hidden), out=projected)
    del wide, wx, bias
    if keep:
        # cell_of indexes projected by construction; under the default
        # mode="raise", take would fill a temporary and copy it into gates.
        np.take(projected, cell_of, axis=1, out=gates, mode="clip")
        del projected
    h = np.zeros((n, hidden), dtype)
    c = None if keep else np.zeros((n, hidden), dtype)
    # Gate k's block of wh.T in wh_t[k]: one copy casts and transposes it.
    wh_t = np.empty((4, hidden, hidden), dtype)
    np.copyto(wh_t, cell.wh.reshape(4, hidden, hidden).transpose(0, 2, 1),
              casting="same_kind")
    for t in range(len(bounds) - 1):
        lo, hi = bounds[t], bounds[t + 1]
        b = hi - lo
        if keep:
            h_prev[lo:hi] = h[:b]
            z, c_new = gates[:, lo:hi], c_cells[lo:hi]
            # The rows' states from step t - 1; h is still zeros at step 0.
            c_old = c_cells[bounds[t - 1]:bounds[t - 1] + b] if t else h[:b]
        else:
            z = step_gates[:4 * b * hidden].reshape(4, b, hidden)
            np.take(projected, cell_of[lo:hi], axis=1, out=z, mode="clip")
            c_new = c_old = c[:b]
        if t:
            recurrent = scratch[:4 * b * hidden].reshape(4, b, hidden)
            z += np.matmul(h[:b], wh_t, out=recurrent)
        _sigmoid_inplace(z[:2])
        np.tanh(z[2], out=z[2])
        _sigmoid_inplace(z[3])
        gi, gf, gg, go = z
        # c = gf * c + gi * gg, one rounding per operation as written
        product, tanh_c = scratch[:2 * b * hidden].reshape(2, b, hidden)
        np.multiply(gf, c_old, out=c_new)
        np.multiply(gi, gg, out=product)
        c_new += product
        np.tanh(c_new, out=tanh_c)
        np.multiply(go, tanh_c, out=h[:b])
    finals = np.empty((n, hidden), dtype)
    finals[order] = h
    if not keep:
        return finals, None
    return finals, PackedLSTMCache(order, bounds, cell_of, inputs, gates,
                                   h_prev, c_cells, scratch)


def lstm_backward_batch(cell: LSTMCell, cache: PackedLSTMCache | None,
                        dh_final: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagation through time; returns gradients for wx, wh and bias
    in the cell's dtype.

    ``cell`` must carry the weights the forward pass that made ``cache``
    read: the cache keeps no copy of ``wh``, so this pass casts the cell's
    own into the compute dtype, and drops the cast before the weight
    gradients' products. The reverse loop writes each step's gate gradients
    over that step's blocks of ``cache.gates``, so the cache cannot be
    backpropagated again; every element goes through the operations of the
    textbook expressions, in their order, with the temporaries in
    ``cache.scratch``: each step recomputes ``tanh(c)`` there from
    ``cache.c`` and reads the cell state entering it from the first b_t
    rows of step t - 1's block of ``cache.c`` (zeros at step 0). The step's
    ``dh`` is one GEMM of the gate gradients, copied side by side into the
    scratch, by ``wh``. The weight gradients are then stacked per-gate
    GEMMs over all cells; the ``wh`` GEMM skips step 0, whose cells enter
    with ``h = 0``.
    """
    if cache is None:
        raise ValueError("no LSTM cache to backpropagate: the forward pass "
                         "ran without a workspace, so it kept none")
    hidden = cell.hidden_dim
    bounds, gates, c, scratch = cache.bounds, cache.gates, cache.c, \
        cache.scratch
    dh = np.asarray(dh_final, dtype=cell.dtype)[cache.order]
    dc = np.zeros_like(dh)
    wh = cell.wh.astype(cell.dtype, copy=False)
    for t in range(len(bounds) - 2, -1, -1):
        lo, hi = bounds[t], bounds[t + 1]
        b = hi - lo
        gi, gf, gg, go = gates[:, lo:hi]
        # Cells enter step 0 with h = c = 0, so its block of h_prev is zeros.
        c_prev = c[bounds[t - 1]:bounds[t - 1] + b] if t \
            else cache.h_prev[lo:hi]
        dh_b, dc_cand = dh[:b], dc[:b]
        a, e, tanh_c = scratch[:3 * b * hidden].reshape(3, b, hidden)
        np.tanh(c[lo:hi], out=tanh_c)
        # dc_cand = dc + dh * go * (1 - tanh_c ** 2), kept in dc
        np.square(tanh_c, out=a)
        np.subtract(1.0, a, out=a)
        np.multiply(dh_b, go, out=e)
        e *= a
        dc_cand += e
        # gg <- dc_cand * gi * (1 - gg ** 2), once dz_i has read gg;
        # gi <- dz_i = dc_cand * gg * gi * (1 - gi)
        np.square(gg, out=a)
        np.subtract(1.0, a, out=a)
        np.multiply(dc_cand, gg, out=e)
        e *= gi
        np.multiply(dc_cand, gi, out=gg)
        gg *= a
        np.subtract(1.0, gi, out=a)
        np.multiply(e, a, out=gi)
        # gf <- dc_cand * c_prev * gf * (1 - gf); dc <- dc_cand * gf first
        np.multiply(dc_cand, c_prev, out=a)
        a *= gf
        np.subtract(1.0, gf, out=e)
        if t:
            dc_cand *= gf
        np.multiply(a, e, out=gf)
        # go <- dh * tanh_c * go * (1 - go)
        np.multiply(dh_b, tanh_c, out=a)
        a *= go
        np.subtract(1.0, go, out=e)
        np.multiply(a, e, out=go)
        if t:
            dz = scratch[:4 * b * hidden].reshape(b, 4, hidden)
            np.copyto(dz, gates[:, lo:hi].transpose(1, 0, 2))
            np.matmul(dz.reshape(b, 4 * hidden), wh, out=dh_b)
    del wh
    first = bounds[1] if len(bounds) > 1 else 0  # past step 0's rows
    dz_t = gates.transpose(0, 2, 1)  # (4, hidden, P)
    return {"wx": np.matmul(dz_t, cache.inputs[cache.cell_of]).reshape(
                4 * hidden, -1),
            "wh": np.matmul(dz_t[:, :, first:], cache.h_prev[first:]).reshape(
                4 * hidden, hidden),
            "bias": gates.sum(axis=1).reshape(4 * hidden)}


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
    """A model's float64 parameters as one contiguous vector; ``params``
    names views into it.

    ``gradient``, a vector of the same layout, and ``grads``, its named
    views (the same dict on every access), are allocated zero-filled on
    first access, which is a backward pass or an optimizer step: a model
    that only loads and predicts never holds a gradient."""

    vector: np.ndarray
    params: dict[str, np.ndarray]

    @classmethod
    def pack(cls, arrays: Mapping[str, np.ndarray]) -> "FlatParameters":
        """Copy the named arrays, in order, into a new vector; every value
        must be finite."""
        vector = np.concatenate([np.ravel(a) for a in arrays.values()],
                                dtype=np.float64)
        return cls.adopt(vector, {name: np.shape(a)
                                  for name, a in arrays.items()})

    @classmethod
    def adopt(cls, vector: np.ndarray, shapes: Mapping[str, tuple[int, ...]]
              ) -> "FlatParameters":
        """Parameters of ``shapes``, in order, as views of ``vector`` itself,
        a float64 vector of exactly their size; every value must be finite."""
        params = segment_views(vector, shapes)
        if not np.isfinite(vector).all():
            bad = next(n for n, a in params.items() if not np.isfinite(a).all())
            raise ValueError(f"parameter {bad!r} is not finite")
        return cls(vector, params)

    @functools.cached_property
    def gradient(self) -> np.ndarray:
        return np.zeros(self.vector.shape)

    @functools.cached_property
    def grads(self) -> dict[str, np.ndarray]:
        return segment_views(self.gradient, {name: a.shape for name, a
                                             in self.params.items()})


class Mlp:
    """A ReLU hidden layer under a two-class softmax, trained on mean
    cross-entropy. The title scorer is one; UCNet's classification head is
    another, over the model's own :class:`FlatParameters`.

    Its two layers, ``names``, are the affine maps of the views
    ``name.weights`` and ``name.bias`` of ``flat``, into whose gradient
    vector :meth:`step` writes. :meth:`forward` scores and predicts;
    :meth:`step` is the one training pass.
    """

    def __init__(self, flat: FlatParameters, names: Sequence[str]):
        self.names = tuple(names)
        if len(self.names) != 2:
            raise ValueError(f"an Mlp has two layers, got {len(self.names)}")
        classes = flat.params[f"{self.names[1]}.bias"].shape
        if classes != (2,):
            raise ValueError(f"an Mlp has two classes, got {classes}")
        self.flat = flat
        self._steps = {}

    @classmethod
    def init(cls, rng: np.random.Generator, dims: Sequence[int]) -> "Mlp":
        """Glorot-uniform layers ``layer0`` and ``layer1`` with zero biases
        in a new vector, for ``dims`` = (inputs, hidden units, 2)."""
        inputs, units, classes = dims
        return cls(FlatParameters.pack({
            "layer0.weights": glorot_uniform(rng, units, inputs),
            "layer0.bias": np.zeros(units),
            "layer1.weights": glorot_uniform(rng, classes, units),
            "layer1.bias": np.zeros(classes)}), ("layer0", "layer1"))

    def parameters(self) -> dict[str, np.ndarray]:
        return {f"{name}.{part}": self.flat.params[f"{name}.{part}"]
                for name in self.names for part in ("weights", "bias")}

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities of one row or of a batch of rows."""
        w0, b0, w1, b1 = self.parameters().values()
        hidden = np.maximum(np.asarray(x, dtype=np.float64) @ w0.T + b0, 0.0)
        return softmax(hidden @ w1.T + b1)

    def step(self, n: int):
        """The forward and backward pass over a batch of ``n`` rows, as a
        function ``step(x, one_hot)`` of the float64 rows and their one-hot
        labels. It writes the gradient of the mean cross-entropy into
        ``flat.grads`` and returns the class probabilities and the gradient
        at the input, in buffers that its next call overwrites. The first
        call for ``n`` reserves them, and later calls return the same
        function.

        Each element goes through the operations of ``forward`` and of the
        textbook gradient, in their order: the bias is added in place, the
        softmax's max and sum are taken over the two columns, and the
        logits' gradient is the probabilities less the one-hot labels
        (exact where a label is 0), divided by ``n``. The products go
        through ``np.dot``, which for these shapes gives ``np.matmul``'s
        bits with less overhead a call.
        """
        if n in self._steps:
            return self._steps[n]
        params = self.parameters()
        w0, b0, w1, b1 = params.values()
        g_w0, g_b0, g_w1, g_b1 = (self.flat.grads[name] for name in params)
        w0_t, w1_t = w0.T, w1.T
        hidden, relu = np.empty((2, n, len(b0)))
        positive = np.empty((n, len(b0)), dtype=bool)
        logits, probs = np.empty((2, n, 2))
        left, right = logits.T
        column = np.empty((n, 1))
        row = column[:, 0]
        dx = np.empty((n, w0.shape[1]))

        def step(x: np.ndarray, one_hot: np.ndarray):
            np.dot(x, w0_t, out=hidden)
            np.add(hidden, b0, out=hidden)
            np.maximum(hidden, 0.0, out=relu)
            np.dot(relu, w1_t, out=logits)
            np.add(logits, b1, out=logits)
            np.maximum(left, right, out=row)
            np.subtract(logits, column, out=logits)
            np.exp(logits, out=logits)
            np.add(left, right, out=row)
            np.divide(logits, column, out=probs)
            # logits becomes their gradient
            np.subtract(probs, one_hot, out=logits)
            np.divide(logits, n, out=logits)
            np.dot(logits.T, relu, out=g_w1)
            np.add.reduce(logits, axis=0, out=g_b1)
            # hidden becomes the gradient at the ReLU's output
            np.dot(logits, w1, out=hidden)
            np.greater(relu, 0.0, out=positive)
            np.multiply(hidden, positive, out=hidden)
            np.dot(hidden.T, x, out=g_w0)
            np.add.reduce(hidden, axis=0, out=g_b0)
            np.dot(hidden, w0, out=dx)
            return probs, dx

        self._steps[n] = step
        return step

    def batch_loss_and_gradients(self, xs: np.ndarray, ys: np.ndarray):
        """Mean cross-entropy over a batch of rows and its gradients (views
        into ``flat.gradient``), by :meth:`step`."""
        xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys)
        probs, _ = self.step(len(xs))(xs, np.eye(2)[ys])
        return softmax_cross_entropy(probs, ys), self.flat.grads


# Elements per block of an Adam step: a block's slices of the six vectors
# it touches (1.5 MB) stay in cache through its eleven passes.
_ADAM_BLOCK = 1 << 15

# Adam's decay rates and denominator floor, the defaults of Kingma and Ba
# 2015 (arXiv:1412.6980); both trainers use them.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# The two decay rates and their complements as columns, one row per
# moment, so that one call updates both rows of ``AdamState.moments``.
_ADAM_DECAY = np.array([[ADAM_BETA1], [ADAM_BETA2]])
_ADAM_GAIN = np.array([[1.0 - ADAM_BETA1], [1.0 - ADAM_BETA2]])


class AdamState:
    """Adam's state for one flat parameter vector: the learning rate, the
    step count ``t`` and the two moments, zero-filled, as the rows of
    ``moments``; ``m`` and ``v`` are views of them. ``scratch`` holds two
    more rows of one step block each, reused by every step so that a step
    allocates nothing."""

    def __init__(self, vector: np.ndarray, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.moments = np.zeros((2, *np.shape(vector)))
        self.m, self.v = self.moments
        self.scratch = np.empty((2, min(np.size(vector), _ADAM_BLOCK)))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of a flat float64 parameter vector.

    Updates ``params`` and ``state.moments`` in place and advances
    ``state.t``. Every element goes through the same operations, in the
    same order, as the textbook expressions
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
    ``p - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)``, with ``b1``,
    ``b2`` and ``eps`` the module's ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPSILON``: eleven passes, three of them over both moments at
    once. A vector that fits in one block takes them whole; a longer one
    takes them block by block, which changes no element's result.
    """
    if not (params.ndim == 1
            and params.shape == grads.shape == state.m.shape):
        raise ValueError(
            f"parameter, gradient and moment shapes do not fit: "
            f"{params.shape}, {grads.shape}, {state.m.shape}")
    state.t += 1
    scalars = (1.0 - ADAM_BETA1 ** state.t, 1.0 - ADAM_BETA2 ** state.t,
               state.learning_rate)
    if params.size <= _ADAM_BLOCK:
        _adam_block(params, grads, state.moments, state.scratch, *scalars)
        return
    for lo in range(0, params.size, _ADAM_BLOCK):
        block = slice(lo, lo + _ADAM_BLOCK)
        g = grads[block]
        _adam_block(params[block], g, state.moments[:, block],
                    state.scratch[:, :g.size], *scalars)


def _adam_block(params, grads, moments, scratch, m_correction, v_correction,
                learning_rate) -> None:
    """:func:`adam_step`'s passes over one block; ``moments`` and
    ``scratch`` are ``(2, size)``. The rows of ``scratch`` hold each
    moment's increment, then the step and its denominator."""
    step, denominator = scratch[0], scratch[1]
    moments *= _ADAM_DECAY
    np.multiply(grads, _ADAM_GAIN, out=scratch)
    denominator *= grads
    moments += scratch
    np.divide(moments[0], m_correction, out=step)
    np.divide(moments[1], v_correction, out=denominator)
    np.sqrt(denominator, out=denominator)
    denominator += ADAM_EPSILON
    step *= learning_rate
    step /= denominator
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
