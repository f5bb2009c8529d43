"""Unified-comments network: weighted comment pooling over LSTM embeddings.

Per comment, a binary fakeness-indicator vector is mapped through a sigmoid
dense head to a scalar weight in (0, 1); the comment's word-vector sequence
runs through an LSTM whose final hidden state is the comment embedding. A
comment travels as the token ids of its words, and a batch as a padded id
array plus the embedding table's matrix, which the LSTM reads. The
mean of the weight-scaled embeddings is the video's unified embedding,
which is concatenated with the selected simple features and classified by a
ReLU dense layer into a 2-way softmax over (real, fake).

The unified embedding is a function of the comment multiset (a set
function, Zaheer et al. 2017, "Deep Sets"). ``prepare_video`` alone decides
what a video sends to the LSTM: its distinct (token ids, fakeness vector)
pairs, once each, in one total order, with a count each. So a video's LSTM,
weight-head and pooling calls, and its unified embedding, do not depend on
the order or repetition of its comments, on any BLAS kernel.

There is one forward pass, ``_forward_batch`` over a ``_collate``d batch of
prepared videos, and one backward pass, ``_backward_batch``. A video
without comments, and a batch without any, runs the same passes over zero
LSTM cells: its unified embedding is the zero vector, and the weight
head's and the LSTM's gradients from it are +0.0. The forward pass pools
the batch with ``_pool``: each distinct comment's weight-scaled embedding,
times its count, is added to its video's sum in ``prepare_video``'s order
from +0.0, and the sum is divided by the video's kept-comment total. The
order is the canonical one, so the sum is a function of the multiset too.
The backward pass scales each distinct comment's share of the mean by its
count. The weight head is ``_comment_weights``, and the classifier is a
:class:`ucnet.neural.Mlp` over the layers ``hidden`` and ``output``.
``UCNetModel.batch_loss_and_gradients`` chains them over labelled videos,
with the LSTM caching into the workspace it is passed: ``train`` reserves
one for the run and passes it with every shuffled mini-batch. Called
without one, as :func:`ucnet.neural.gradient_check` calls it, the method
reserves a workspace of the batch's size; the model itself holds none.
Inference (``predict``, ``predict_record``, ``unified_embedding`` and so
:func:`extract_unified_embeddings`) runs the forward pass on one video per
call and without a workspace, so the LSTM keeps no backpropagation cache
and holds one time step of state; its outputs are the bits the cached pass
gives.

The model's nine tensors, their names, shapes and order, are set in one
place, ``_layout``: ``init_params`` draws them in that order, the
constructor refuses any other mapping, and ``UCNetModel.load`` reads a file
through it. The weight head has one weight per fakeness-indicator phrase,
so the phrase list is part of the model: ``save`` writes it into the file's
meta and ``load`` reads it back. A model keeps all its parameters, and
their gradients, in one flat float64 vector each
(:class:`ucnet.neural.FlatParameters`), which Adam updates in place; the
LSTM's tensors come first, so they are a prefix of the vector. The
gradient vector is allocated by the first backward pass, and ``load``
adopts the file's payload vector as the parameter vector, so a model that
is loaded to predict or embed holds its parameters once. The LSTM runs in
the model's compute dtype, float32 by default: each forward pass hands it
views of the float64 master weights, which it casts where it reads them
(see :mod:`ucnet.neural`), so no pass holds a cast copy of the LSTM's
tensors; the LSTM's final states are widened to float64, and its gradients
are widened into the flat gradient vector. Pooling, both dense heads and
the softmax stay float64.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from . import neural, serialize
from .corpus import (Comment, Dataset, VideoRecord, fake_indicators, fold,
                     phrase_hits)
from .embeddings import EmbeddingTable, embed_comment
from .lexical import FEATURE_NAMES, LexiconSet, TitleScorer, extract_features

logger = logging.getLogger(__name__)

DEFAULT_LSTM_HIDDEN = 300
DEFAULT_HIDDEN_UNITS = 4
N_CLASSES = 2  # (real, fake)


def fakeness_vector(comment_text: str, phrases: Sequence[str]) -> np.ndarray:
    """Binary presence vector of the indicator phrases in one comment, by
    :func:`ucnet.corpus.phrase_hits`: entry i is 1.0 when phrase i occurs in
    the folded comment. A call folds only the comment."""
    if not phrases:
        raise ValueError("phrase list must be non-empty")
    return np.fromiter(phrase_hits(fold(comment_text), phrases), np.float64,
                       len(phrases))


@dataclass
class TrainingConfig:
    """Training settings. A model file's meta records every field by its
    annotated type: a float in ``.17g``, an int in decimal."""

    learning_rate: float = 1e-4
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    max_comments_per_video: int = 200
    max_tokens_per_comment: int = 100

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be a positive finite number, "
                             f"got {self.learning_rate}")
        for name in ("batch_size", "max_comments_per_video",
                     "max_tokens_per_comment"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def _layout(embedding_dim: int, n_phrases: int, n_features: int,
            lstm_hidden: int, hidden_units: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor, in flat-vector order: the
    LSTM, the sigmoid weight head, then the ReLU ``hidden`` and softmax
    ``output`` layers of the classifier."""
    gates = 4 * lstm_hidden
    return {
        "lstm.wx": (gates, embedding_dim),
        "lstm.wh": (gates, lstm_hidden),
        "lstm.bias": (gates,),
        "weight_head.weights": (1, n_phrases),
        "weight_head.bias": (1,),
        "hidden.weights": (hidden_units, lstm_hidden + n_features),
        "hidden.bias": (hidden_units,),
        "output.weights": (N_CLASSES, hidden_units),
        "output.bias": (N_CLASSES,),
    }


def _check_layout(shapes: Mapping[str, tuple[int, ...]],
                  layout: Mapping[str, tuple[int, ...]]) -> None:
    """Refuse tensors whose names, order or shapes differ from the layout,
    naming the first tensor that differs."""
    for i, (name, want) in enumerate(itertools.zip_longest(shapes, layout)):
        if name != want:
            raise ValueError(
                f"tensor {i} is {name!r}, the model needs {want!r}")
    for name, want in layout.items():
        if shapes[name] != want:
            raise ValueError(f"tensor {name!r} has shape {shapes[name]}, "
                             f"the model needs {want}")


def init_params(rng: np.random.Generator, embedding_dim: int, n_phrases: int,
                n_features: int, lstm_hidden: int = DEFAULT_LSTM_HIDDEN,
                hidden_units: int = DEFAULT_HIDDEN_UNITS
                ) -> dict[str, np.ndarray]:
    """Initial tensors in layout order: the LSTM from
    :func:`ucnet.neural.init_lstm`, then each dense layer's Glorot-uniform
    weights and zero bias, drawn in that order from rng."""
    for name, value in (("lstm_hidden", lstm_hidden),
                        ("hidden_units", hidden_units)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    layout = _layout(embedding_dim, n_phrases, n_features, lstm_hidden,
                     hidden_units)
    lstm = neural.init_lstm(rng, embedding_dim, lstm_hidden)
    params = {}
    for name, shape in layout.items():
        if name.startswith("lstm."):
            params[name] = getattr(lstm, name.removeprefix("lstm."))
        elif name.endswith(".weights"):
            params[name] = neural.glorot_uniform(rng, *shape)
        else:
            params[name] = np.zeros(shape)
    return params


@dataclass(frozen=True)
class Prediction:
    p_real: float
    p_fake: float

    def __post_init__(self) -> None:
        # NaN fails every comparison, so finiteness is checked on its own.
        if not (math.isfinite(self.p_real) and math.isfinite(self.p_fake)) \
                or abs(self.p_real + self.p_fake - 1.0) > 1e-12:
            raise ValueError("class probabilities must sum to 1")


@dataclass
class PreparedVideo:
    """One video's distinct comments (token ids and fakeness vector), ready
    to batch; ``counts`` gives the kept comments each one stands for."""

    comment_ids: list[np.ndarray]   # (length_i,) int64 rows of matrix each
    matrix: np.ndarray              # (vocab_size, embedding_dim) word vectors
    fvs: np.ndarray                 # (n_distinct, n_phrases)
    counts: np.ndarray              # (n_distinct,) int64, each >= 1
    features: np.ndarray            # (n_features,)
    label: int | None = None


def _select_comments(comments: Sequence[Comment],
                     max_comments: int) -> Sequence[Comment]:
    if len(comments) <= max_comments:
        return comments
    # Keep the most recent comments by instant, then by id.
    ranked = sorted(comments, key=lambda c: (c.instant, c.id), reverse=True)
    return ranked[:max_comments]


def prepare_video(comments: Sequence[Comment], features: np.ndarray,
                  table: EmbeddingTable, phrases: Sequence[str],
                  max_comments: int, max_tokens: int,
                  label: int | None = None) -> PreparedVideo:
    """What a video sends to the LSTM: each kept comment is embedded and its
    fakeness vector taken once, and comments with equal (token ids,
    fakeness vector) merge into one with a count, sorted by that pair."""
    chosen = _select_comments(comments, max_comments)
    groups: dict[bytes, list] = {}
    for comment in chosen:
        row_ids = embed_comment(comment.text, table, max_tokens)
        fv = fakeness_vector(comment.text, phrases)
        # The vector's size is fixed, so the key splits back into the pair.
        groups.setdefault(fv.tobytes() + row_ids.tobytes(),
                          [row_ids, fv, 0])[2] += 1
    distinct = [groups[key] for key in sorted(groups)]
    ids, fvs, counts = ([group[i] for group in distinct] for i in range(3))
    return PreparedVideo(
        comment_ids=ids, matrix=table.matrix,
        fvs=np.array(fvs, np.float64).reshape(len(ids), len(phrases)),
        counts=np.array(counts, np.int64),
        features=np.asarray(features, dtype=np.float64), label=label)


@dataclass
class _Batch:
    ids: np.ndarray       # (n_distinct_total, t_max) int64, 0 past each length
    lengths: np.ndarray   # (n_distinct_total,)
    matrix: np.ndarray    # (vocab_size, embedding_dim) rows the ids index
    fvs: np.ndarray       # (n_distinct_total, n_phrases)
    counts: np.ndarray    # (n_distinct_total,) kept comments per distinct one
    distinct: np.ndarray  # (n_videos,) distinct comments per video
    totals: np.ndarray    # (n_videos,) kept comments per video
    features: np.ndarray  # (n_videos, n_features)
    labels: np.ndarray | None


def _collate(videos: Sequence[PreparedVideo]) -> _Batch:
    """One batch of ``videos``, which share one embedding matrix. A video
    without comments has no distinct comments and a total of 0; a batch
    without comments has zero rows of ``ids`` and ``fvs``, which the
    forward and backward passes take like any other."""
    matrix = videos[0].matrix
    if any(v.matrix is not matrix for v in videos):
        raise ValueError("videos in one batch must share one embedding matrix")
    seqs = [seq for v in videos for seq in v.comment_ids]
    counts = np.concatenate([np.zeros(0, np.int64),
                             *(v.counts for v in videos)])
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    t_max = int(lengths.max(initial=0))
    ids = np.zeros((len(seqs), t_max), dtype=np.int64)
    # Row-major order of the mask is the order of the concatenated ids; the
    # leading empty array lets a batch without comments concatenate too.
    ids[np.arange(t_max) < lengths[:, None]] = np.concatenate(
        [np.zeros(0, np.int64), *seqs])
    fvs = np.concatenate([v.fvs for v in videos])
    features = np.stack([v.features for v in videos])
    labels = None
    if all(v.label is not None for v in videos):
        labels = np.array([v.label for v in videos], dtype=np.int64)
    return _Batch(ids=ids, lengths=lengths, matrix=matrix, fvs=fvs,
                  counts=counts,
                  distinct=np.array([len(v.counts) for v in videos], np.int64),
                  totals=np.array([v.counts.sum() for v in videos], np.int64),
                  features=features, labels=labels)


def _pool(rows: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """Each video's sum of its ``distinct`` consecutive ``rows``, added one
    row at a time in their order, starting from +0.0; a video without rows
    sums to +0.0. The loop fixes the order: ``sum`` over a padded axis goes
    pairwise at some widths, which would make a video's bits depend on its
    batch mates' row counts. A non-finite sum raises ``ValueError``."""
    # Videos stable-sorted by row count, descending, so the videos with a
    # k-th row are a prefix; their k-th rows are gathered rank-major, as
    # the LSTM packs its cells, and each rank is one addition.
    by_count = np.argsort(-distinct, kind="stable")
    k_max = int(distinct.max(initial=0))
    ranks, slots = np.nonzero(np.arange(k_max)[:, None] < distinct[by_count])
    bounds = np.searchsorted(ranks, np.arange(k_max + 1))
    firsts = np.cumsum(distinct) - distinct
    ranked = rows[firsts[by_count[slots]] + ranks]
    sums = np.zeros((distinct.size, rows.shape[1]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sums[:hi - lo] += ranked[lo:hi]
    if not np.isfinite(sums).all():
        raise ValueError("a pooled comment embedding is not finite")
    pooled = np.empty_like(sums)
    pooled[by_count] = sums
    return pooled


def _comment_weights(fvs: np.ndarray, weights: np.ndarray,
                     bias: np.ndarray) -> np.ndarray:
    """The sigmoid weight head's weight for each fakeness vector in ``fvs``."""
    return neural.sigmoid(fvs @ weights.T + bias)


def _forward_batch(model: UCNetModel, batch: _Batch,
                   workspace: np.ndarray | None = None):
    """Class probabilities of the batch's videos and the cache
    ``_backward_batch`` reads; only a pass given an LSTM ``workspace``
    keeps the LSTM's part of it."""
    params = model.flat.params
    cell = neural.LSTMCell(params["lstm.wx"], params["lstm.wh"],
                           params["lstm.bias"], model.dtype)
    finals, lstm_cache = neural.lstm_forward_batch(
        cell, batch.ids, batch.lengths, batch.matrix, workspace=workspace)
    finals = finals.astype(np.float64, copy=False)
    weights = _comment_weights(batch.fvs, params["weight_head.weights"],
                               params["weight_head.bias"])  # (n_distinct, 1)
    unified = _pool(weights * finals * batch.counts[:, None], batch.distinct)
    # A video without comments sums to +0.0, so its mean is the zero vector.
    unified /= np.maximum(batch.totals, 1)[:, None]
    x = np.concatenate([unified, batch.features], axis=1)
    probs, head_inputs = model.head._forward_cached(x)
    cache = (cell, lstm_cache, finals, weights, head_inputs)
    return probs, cache


def _backward_batch(model: UCNetModel, batch: _Batch, cache,
                    delta: np.ndarray) -> None:
    """Write the gradient of every parameter into ``model.flat.grads``,
    given the gradient of the loss with respect to the output logits. With
    no comments in the batch, the sums over zero rows write +0.0 into the
    weight head's and the LSTM's gradients."""
    cell, lstm_cache, finals, weights, head_inputs = cache
    grads = model.flat.grads
    dx = model.head._backward_from_delta(delta, head_inputs)
    # Each kept comment's share of its video's mean, times the kept
    # comments that a distinct one stands for.
    d_weighted = np.repeat(dx[:, :model.lstm_hidden]
                           / np.maximum(batch.totals, 1)[:, None],
                           batch.distinct, axis=0)
    d_weighted *= batch.counts[:, None]
    d_w = (finals * d_weighted).sum(axis=1, keepdims=True)
    d_finals = np.multiply(weights, d_weighted, out=d_weighted)
    d_pre = d_w * weights * (1.0 - weights)
    np.matmul(d_pre.T, batch.fvs, out=grads["weight_head.weights"])
    d_pre.sum(axis=0, out=grads["weight_head.bias"])
    lstm_grads = neural.lstm_backward_batch(cell, lstm_cache, d_finals)
    for name in ("wx", "wh", "bias"):
        grads[f"lstm.{name}"][...] = lstm_grads[name]  # widened to float64


class UCNetModel:
    """Trained parameters bundled with the phrase list and feature selection.

    Implements the network protocol of :mod:`ucnet.neural` (``parameters``,
    ``batch_loss_and_gradients``) over labelled :class:`PreparedVideo`s, so
    the finite-difference gradient checker applies to the full architecture.
    ``params`` maps the tensor names of ``_layout`` to arrays, in layout
    order; they are copied into ``self.flat``. It may instead be a
    :class:`ucnet.neural.FlatParameters` of that layout, which becomes
    ``self.flat`` itself, as ``load`` passes a file's payload. ``dtype`` is
    the LSTM's compute dtype: float32 by default, float64 for checks
    against float64 references.
    """

    def __init__(self, params: Mapping[str, np.ndarray] | neural.FlatParameters,
                 phrases: Sequence[str], feature_names: Sequence[str],
                 embedding_dim: int, config: TrainingConfig | None = None,
                 *, dtype=np.float32):
        if not phrases:
            raise ValueError("a model needs at least one fakeness phrase")
        flat = params if isinstance(params, neural.FlatParameters) else None
        shapes = {name: np.shape(array) for name, array
                  in (params if flat is None else flat.params).items()}
        wh, bias = shapes.get("lstm.wh", ()), shapes.get("hidden.bias", ())
        self.lstm_hidden = wh[-1] if wh else 0
        layout = _layout(embedding_dim, len(phrases), len(feature_names),
                         self.lstm_hidden, bias[0] if bias else 0)
        _check_layout(shapes, layout)
        self.flat = flat if flat is not None \
            else neural.FlatParameters.pack(params)
        # np.abs's temporary costs no peak RSS, and freeing it keeps later
        # training temporaries on the heap: a min/max check measured more
        # page faults and a slower paper-train.
        for name in ("lstm.wx", "lstm.wh", "lstm.bias"):
            if np.abs(self.flat.params[name]).max(initial=0.0) \
                    > np.finfo(np.float32).max:
                raise ValueError(f"tensor {name!r} overflows float32")
        self.head = neural.Mlp(self.flat, ("hidden", "output"))
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ValueError(
                f"compute dtype must be float32 or float64, got {self.dtype}")
        self.phrases = tuple(phrases)
        self.feature_names = tuple(feature_names)
        self.embedding_dim = embedding_dim
        self.config = config if config is not None else TrainingConfig()
        self.loss_history: list[float] = []

    def parameters(self) -> dict[str, np.ndarray]:
        return dict(self.flat.params)

    def _workspace_for(self, videos: Sequence[PreparedVideo],
                       batch_size: int) -> np.ndarray:
        """An LSTM workspace for passes over at most ``batch_size`` of
        ``videos``, sized for the ``batch_size`` with the most real cells."""
        cells = sorted((sum(map(len, v.comment_ids)) for v in videos),
                       reverse=True)
        return neural.lstm_workspace(sum(cells[:batch_size]),
                                     self.lstm_hidden, self.dtype)

    def prepare(self, comments: Sequence[Comment], features: np.ndarray,
                table: EmbeddingTable, label: int | None = None) -> PreparedVideo:
        features = np.asarray(features, dtype=np.float64)
        if features.shape != (len(self.feature_names),):
            raise ValueError(f"expected {len(self.feature_names)} features, "
                             f"got shape {features.shape}")
        return prepare_video(comments, features, table, self.phrases,
                             self.config.max_comments_per_video,
                             self.config.max_tokens_per_comment, label)

    def batch_loss_and_gradients(self, videos: Sequence[PreparedVideo],
                                 workspace: np.ndarray | None = None):
        """Mean cross-entropy over labelled videos and its gradients. The
        LSTM caches into ``workspace`` (from ``_workspace_for``, large
        enough for the batch), or into one reserved for this batch when
        none is given."""
        if workspace is None:
            workspace = self._workspace_for(videos, len(videos))
        batch = _collate(videos)
        probs, cache = _forward_batch(self, batch, workspace)
        if batch.labels is None:
            raise ValueError("every video in a loss batch needs a label")
        loss, delta = neural.softmax_cross_entropy(probs, batch.labels)
        _backward_batch(self, batch, cache, delta)
        return loss, self.flat.grads

    def predict(self, comments: Sequence[Comment], features: np.ndarray,
                table: EmbeddingTable) -> Prediction:
        """Class probabilities for one video given its selected features."""
        batch = _collate([self.prepare(comments, features, table)])
        probs, _ = _forward_batch(self, batch)
        return Prediction(p_real=float(probs[0, 0]), p_fake=float(probs[0, 1]))

    def predict_record(self, record: VideoRecord, table: EmbeddingTable,
                       lexicons: LexiconSet, scorer: TitleScorer) -> Prediction:
        features = _select_features(record, lexicons, scorer, self.feature_names)
        return self.predict(record.comments, features, table)

    def unified_embedding(self, comments: Sequence[Comment],
                          table: EmbeddingTable) -> np.ndarray:
        """Mean of weight-scaled comment embeddings; zero vector for no comments."""
        prepared = self.prepare(comments, np.zeros(len(self.feature_names)), table)
        _, (_, _, _, _, (x, _)) = _forward_batch(self, _collate([prepared]))
        return x[0, :self.lstm_hidden].copy()

    def save(self, path) -> None:
        tensors = self.parameters()
        meta = {
            "kind": "ucnet",
            "embedding_dim": str(self.embedding_dim),
            "lstm_hidden": str(self.lstm_hidden),
            "phrases": json.dumps(self.phrases, ensure_ascii=False),
            "feature_names": ",".join(self.feature_names),
        }
        for field in fields(TrainingConfig):
            value = getattr(self.config, field.name)
            meta[field.name] = f"{value:.17g}" if field.type == "float" \
                else str(value)
        serialize.save_tensors(path, tensors, meta)

    @classmethod
    def load(cls, path) -> "UCNetModel":
        """The model saved at ``path``, with the phrase list it records.
        The file's payload vector becomes the model's parameter vector, so
        the file's tensors must come in layout order."""
        tensors, meta = serialize.load_tensors(path)
        if meta.get("kind") != "ucnet":
            raise ValueError(f"{path}: not a ucnet model file")
        phrases = _read_phrases(meta)
        names = meta["feature_names"]
        feature_names = tuple(names.split(",")) if names else ()
        embedding_dim = meta.integer("embedding_dim")
        units = tensors.shaped("hidden.weights", None, None).shape[0]
        layout = _layout(embedding_dim, len(phrases), len(feature_names),
                         meta.integer("lstm_hidden"), units)
        for name, shape in layout.items():
            tensors.shaped(name, *shape)
        settings = {field.name: meta.real(field.name) if field.type == "float"
                    else meta.integer(field.name)
                    for field in fields(TrainingConfig)}
        try:
            flat = neural.FlatParameters.adopt(
                tensors.payload, {name: a.shape for name, a in tensors.items()})
            return cls(flat, phrases, feature_names, embedding_dim,
                       TrainingConfig(**settings))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_phrases(meta: serialize.Meta) -> tuple[str, ...]:
    """The ``phrases`` meta entry: a JSON list of non-empty strings."""
    text = meta["phrases"]
    try:
        phrases = json.loads(text)
    except (ValueError, RecursionError):
        phrases = None
    if not (isinstance(phrases, list) and phrases
            and all(isinstance(p, str) and p for p in phrases)):
        raise ValueError(f"{meta.path}: meta 'phrases' is not a non-empty "
                         f"list of non-empty strings: {text[:40]!r}")
    return tuple(phrases)


def comment_weight(fv: np.ndarray, model: UCNetModel) -> float:
    """Learned scalar importance of one comment, strictly inside (0, 1)."""
    params = model.flat.params
    return float(_comment_weights(fv, params["weight_head.weights"],
                                  params["weight_head.bias"])[0])


def _select_features(record: VideoRecord, lexicons: LexiconSet,
                     scorer: TitleScorer,
                     feature_names: Sequence[str]) -> np.ndarray:
    full = extract_features(record, lexicons, scorer).as_array()
    index = {name: i for i, name in enumerate(FEATURE_NAMES)}
    return np.array([full[index[name]] for name in feature_names])


def train(train_set: Dataset, table: EmbeddingTable, lexicons: LexiconSet,
          scorer: TitleScorer, config: TrainingConfig | None = None,
          feature_indices: Sequence[int] | None = None,
          lstm_hidden: int = DEFAULT_LSTM_HIDDEN) -> UCNetModel:
    """Mini-batch Adam training with cross-entropy over shuffled epochs.

    The fakeness vectors run over ``lexicons.fakeness_phrases``, which the
    model keeps as ``model.phrases``. feature_indices selects a subset of
    the eight simple features (the post-pruning selection); None feeds all
    eight. Deterministic for a fixed config seed; per-epoch mean loss lands
    in model.loss_history. The mini-batches' LSTM caches share one
    workspace, reserved here for the run. A step whose values leave the
    float range raises a ValueError naming its epoch and batch.
    """
    config = config if config is not None else TrainingConfig()
    if feature_indices is None:
        feature_indices = tuple(range(len(FEATURE_NAMES)))
    feature_names = tuple(FEATURE_NAMES[i] for i in feature_indices)

    labels = fake_indicators([r.label for r in train_set], "training set")
    if len(set(labels)) < 2:
        raise ValueError("training set must contain both classes")

    rng = np.random.default_rng(config.seed)
    phrases = lexicons.fakeness_phrases
    # The model packs its own copy; no name keeps the drawn arrays alive.
    model = UCNetModel(init_params(rng, table.dimension, len(phrases),
                                   len(feature_names), lstm_hidden),
                       phrases, feature_names, table.dimension, config)

    prepared = []
    for record, label in zip(train_set, labels):
        features = _select_features(record, lexicons, scorer, feature_names)
        prepared.append(model.prepare(record.comments, features, table, label))

    state = neural.AdamState(model.flat.vector, config.learning_rate)
    workspace = model._workspace_for(prepared, config.batch_size)
    n = len(prepared)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            chunk = [prepared[i]
                     for i in order[start:start + config.batch_size]]
            try:
                with np.errstate(over="raise", divide="raise",
                                 invalid="raise"):
                    loss, _ = model.batch_loss_and_gradients(chunk, workspace)
                    if not math.isfinite(loss):
                        raise FloatingPointError(f"the loss is {loss}")
                    neural.adam_step(model.flat.vector, model.flat.gradient,
                                     state)
            except FloatingPointError as exc:
                raise ValueError(
                    f"training diverged at epoch {epoch + 1}, batch "
                    f"{start // config.batch_size + 1} (learning rate "
                    f"{config.learning_rate:g}): {exc}") from None
            epoch_loss += loss * len(chunk)
        mean_loss = epoch_loss / n
        model.loss_history.append(mean_loss)
        logger.info("epoch %d/%d: mean loss %.6f", epoch + 1,
                    config.epochs, mean_loss)
    return model


def extract_unified_embeddings(dataset: Dataset, table: EmbeddingTable,
                               model: UCNetModel) -> np.ndarray:
    """One unified-embedding row per video, in dataset order (feeds PCA)."""
    rows = [model.unified_embedding(r.comments, table) for r in dataset]
    return np.stack(rows) if rows else np.zeros((0, model.lstm_hidden))
