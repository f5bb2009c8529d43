"""Unified-comments network: weighted comment pooling over LSTM embeddings.

Per comment, a binary fakeness-indicator vector is mapped through a sigmoid
dense head to a scalar weight in (0, 1); the comment's word-vector sequence
runs through an LSTM whose final hidden state is the comment embedding. A
comment travels as the token ids of its words, and a batch as a padded id
array plus the embedding table's matrix, which the LSTM reads. The
mean of the weight-scaled embeddings is the video's unified embedding,
which is concatenated with the selected simple features and classified by a
ReLU dense layer into a 2-way softmax over (real, fake).

There is one forward pass, ``_forward_batch`` over a ``_collate``d batch of
prepared videos, and one backward pass, ``_backward_batch``. The weight
head is ``_comment_weights``, and the classifier is a :class:`ucnet.neural.Mlp`
over the layers ``hidden`` and ``output``. ``UCNetModel.batch_loss_and_gradients``
chains them over labelled videos: ``train`` calls it on shuffled mini-batches
and :func:`ucnet.neural.gradient_check` on any batch. Inference (``predict``,
``predict_record``, ``unified_embedding`` and so
:func:`extract_unified_embeddings`) runs the forward pass on one video per
call, so it holds the LSTM state of one video at a time.

The model's nine tensors, their names, shapes and order, are set in one
place, ``_layout``: ``init_params`` draws them in that order, the
constructor refuses any other mapping, and ``UCNetModel.load`` reads a file
through it. The weight head has one weight per fakeness-indicator phrase,
so the phrase list is part of the model: ``save`` writes it into the file's
meta and ``load`` reads it back. A model keeps all its parameters, and
their gradients, in one flat float64 vector each
(:class:`ucnet.neural.FlatParameters`), which Adam updates in place; the
LSTM's tensors come first, so they are a prefix of the vector. The LSTM
runs in the model's compute dtype, float32 by default: each forward pass
casts the LSTM's master weights once, the LSTM's final states are widened
to float64, and its gradients are widened into the flat gradient vector.
Pooling, both dense heads and the softmax stay float64.
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
from .corpus import Comment, Dataset, VideoRecord, nfc
from .embeddings import EmbeddingTable, embed_comment
from .lexical import FEATURE_NAMES, LexiconSet, TitleScorer, extract_features

logger = logging.getLogger(__name__)

DEFAULT_LSTM_HIDDEN = 300
DEFAULT_HIDDEN_UNITS = 4
N_CLASSES = 2  # (real, fake)


def fakeness_vector(comment_text: str, phrases: Sequence[str]) -> np.ndarray:
    """Binary presence vector of the indicator phrases in one comment."""
    if not phrases:
        raise ValueError("phrase list must be non-empty")
    folded = nfc(comment_text).casefold()
    return np.array([1.0 if nfc(p).casefold() in folded else 0.0
                     for p in phrases], dtype=np.float64)


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
        for name in ("learning_rate", "batch_size", "max_comments_per_video",
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
        if abs(self.p_real + self.p_fake - 1.0) > 1e-12:
            raise ValueError("class probabilities must sum to 1")


@dataclass
class PreparedVideo:
    """Token-id sequences and fakeness vectors for one video, ready to batch."""

    comment_ids: list[np.ndarray]   # (length_i,) int64 rows of matrix each
    matrix: np.ndarray              # (vocab_size, embedding_dim) word vectors
    fvs: np.ndarray                 # (n_comments, n_phrases)
    features: np.ndarray            # (n_features,)
    label: int | None = None


def _select_comments(comments: Sequence[Comment],
                     max_comments: int) -> Sequence[Comment]:
    if len(comments) <= max_comments:
        return comments
    # Keep the most recent comments; ISO-8601 strings sort chronologically.
    ranked = sorted(comments, key=lambda c: (c.published_at, c.id), reverse=True)
    return ranked[:max_comments]


def prepare_video(comments: Sequence[Comment], features: np.ndarray,
                  table: EmbeddingTable, phrases: Sequence[str],
                  max_comments: int = 200, max_tokens: int = 100,
                  label: int | None = None) -> PreparedVideo:
    chosen = _select_comments(comments, max_comments)
    ids = [embed_comment(c.text, table, max_tokens) for c in chosen]
    if chosen:
        fvs = np.stack([fakeness_vector(c.text, phrases) for c in chosen])
    else:
        fvs = np.zeros((0, len(phrases)))
    return PreparedVideo(comment_ids=ids, matrix=table.matrix, fvs=fvs,
                         features=np.asarray(features, dtype=np.float64),
                         label=label)


@dataclass
class _Batch:
    ids: np.ndarray       # (n_comments_total, t_max) int64, 0 past each length
    lengths: np.ndarray   # (n_comments_total,)
    matrix: np.ndarray    # (vocab_size, embedding_dim) rows the ids index
    fvs: np.ndarray       # (n_comments_total, n_phrases)
    offsets: np.ndarray   # (n_videos + 1,) comment segment boundaries
    features: np.ndarray  # (n_videos, n_features)
    labels: np.ndarray | None


def _collate(videos: Sequence[PreparedVideo], n_phrases: int) -> _Batch:
    matrix = videos[0].matrix
    if any(v.matrix is not matrix for v in videos):
        raise ValueError("videos in one batch must share one embedding matrix")
    seqs = [seq for v in videos for seq in v.comment_ids]
    counts = [len(v.comment_ids) for v in videos]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    total = int(offsets[-1])
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    t_max = int(lengths.max(initial=0))
    ids = np.zeros((total, t_max), dtype=np.int64)
    if total:
        # Row-major order of the mask is the order of the concatenated ids.
        ids[np.arange(t_max) < lengths[:, None]] = np.concatenate(seqs)
        fvs = np.concatenate([v.fvs for v in videos if len(v.fvs)])
    else:
        fvs = np.zeros((0, n_phrases))
    features = np.stack([v.features for v in videos])
    labels = None
    if all(v.label is not None for v in videos):
        labels = np.array([v.label for v in videos], dtype=np.int64)
    return _Batch(ids=ids, lengths=lengths, matrix=matrix, fvs=fvs,
                  offsets=offsets, features=features, labels=labels)


def _exact_mean(rows: np.ndarray) -> np.ndarray:
    """Column means via exactly-rounded summation, so the result is
    invariant under row permutation and duplication."""
    k, width = rows.shape
    return np.fromiter(map(math.fsum, rows.T.tolist()), np.float64, width) / k


def _comment_weights(fvs: np.ndarray, weights: np.ndarray,
                     bias: np.ndarray) -> np.ndarray:
    """The sigmoid weight head's weight for each fakeness vector in ``fvs``."""
    return neural.sigmoid(fvs @ weights.T + bias)


def _forward_batch(model: UCNetModel, batch: _Batch):
    params = model.flat.params
    hidden_dim = model.lstm_hidden
    n_videos = batch.features.shape[0]
    if batch.ids.shape[0]:
        cell = model._compute_cell()
        finals, lstm_cache = neural.lstm_forward_batch(
            cell, batch.ids, batch.lengths, batch.matrix)
        finals = finals.astype(np.float64, copy=False)
        weights = _comment_weights(batch.fvs, params["weight_head.weights"],
                                   params["weight_head.bias"])  # (n_comments, 1)
        weighted = weights * finals
    else:
        cell = lstm_cache = None
        finals = np.zeros((0, hidden_dim))
        weights = np.zeros((0, 1))
        weighted = finals
    unified = np.zeros((n_videos, hidden_dim))
    for v in range(n_videos):
        start, end = batch.offsets[v], batch.offsets[v + 1]
        if end > start:
            unified[v] = _exact_mean(weighted[start:end])
    x = np.concatenate([unified, batch.features], axis=1)
    probs, head_inputs = model.head._forward_cached(x)
    cache = (cell, lstm_cache, finals, weights, head_inputs)
    return probs, cache


def _backward_batch(model: UCNetModel, batch: _Batch, cache,
                    delta: np.ndarray) -> None:
    """Write the gradient of every parameter into ``model.flat.grads``,
    given the gradient of the loss with respect to the output logits."""
    cell, lstm_cache, finals, weights, head_inputs = cache
    grads = model.flat.grads
    n_videos = batch.features.shape[0]
    dx = model.head._backward_from_delta(delta, head_inputs)
    d_unified = dx[:, :model.lstm_hidden]

    d_weighted = np.zeros_like(finals)
    for v in range(n_videos):
        start, end = batch.offsets[v], batch.offsets[v + 1]
        if end > start:
            d_weighted[start:end] = d_unified[v] / (end - start)
    if finals.shape[0]:
        d_finals = weights * d_weighted
        d_w = (finals * d_weighted).sum(axis=1, keepdims=True)
        d_pre = d_w * weights * (1.0 - weights)
        np.matmul(d_pre.T, batch.fvs, out=grads["weight_head.weights"])
        d_pre.sum(axis=0, out=grads["weight_head.bias"])
        lstm_grads = neural.lstm_backward_batch(cell, lstm_cache, d_finals)
        for name in ("wx", "wh", "bias"):
            grads[f"lstm.{name}"][...] = lstm_grads[name]  # widened to float64
    else:
        for name in ("weight_head.weights", "weight_head.bias",
                     "lstm.wx", "lstm.wh", "lstm.bias"):
            grads[name][...] = 0.0


class UCNetModel:
    """Trained parameters bundled with the phrase list and feature selection.

    Implements the network protocol of :mod:`ucnet.neural` (``parameters``,
    ``batch_loss_and_gradients``) over labelled :class:`PreparedVideo`s, so
    the finite-difference gradient checker applies to the full architecture.
    ``params`` maps the tensor names of ``_layout`` to arrays, in layout
    order; they are copied into ``self.flat``. ``dtype`` is the LSTM's
    compute dtype: float32 by default, float64 for checks against float64
    references.
    """

    def __init__(self, params: Mapping[str, np.ndarray],
                 phrases: Sequence[str], feature_names: Sequence[str],
                 embedding_dim: int, config: TrainingConfig | None = None,
                 *, dtype=np.float32):
        if not phrases:
            raise ValueError("a model needs at least one fakeness phrase")
        shapes = {name: np.shape(array) for name, array in params.items()}
        wh, bias = shapes.get("lstm.wh", ()), shapes.get("hidden.bias", ())
        self.lstm_hidden = wh[-1] if wh else 0
        layout = _layout(embedding_dim, len(phrases), len(feature_names),
                         self.lstm_hidden, bias[0] if bias else 0)
        _check_layout(shapes, layout)
        self.flat = neural.FlatParameters.pack(params)
        for name in ("lstm.wx", "lstm.wh", "lstm.bias"):
            if np.abs(self.flat.params[name]).max(initial=0.0) \
                    > np.finfo(np.float32).max:
                raise ValueError(f"tensor {name!r} overflows float32")
        self._lstm_shapes = {name.removeprefix("lstm."): shape
                             for name, shape in layout.items()
                             if name.startswith("lstm.")}
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

    def _compute_cell(self) -> neural.LSTMCell:
        """The LSTM cell in the compute dtype, built from views of one cast
        copy of the LSTM prefix of the flat vector (the master weights
        themselves at float64)."""
        size = sum(math.prod(shape) for shape in self._lstm_shapes.values())
        cast = self.flat.vector[:size].astype(self.dtype, copy=False)
        return neural.LSTMCell(**neural.segment_views(cast, self._lstm_shapes))

    def prepare(self, comments: Sequence[Comment], features: np.ndarray,
                table: EmbeddingTable, label: int | None = None) -> PreparedVideo:
        features = np.asarray(features, dtype=np.float64)
        if features.shape != (len(self.feature_names),):
            raise ValueError(f"expected {len(self.feature_names)} features, "
                             f"got shape {features.shape}")
        return prepare_video(comments, features, table, self.phrases,
                             self.config.max_comments_per_video,
                             self.config.max_tokens_per_comment, label)

    def _forward(self, videos: Sequence[PreparedVideo]):
        batch = _collate(videos, len(self.phrases))
        probs, cache = _forward_batch(self, batch)
        return batch, probs, cache

    def batch_loss_and_gradients(self, videos: Sequence[PreparedVideo]):
        """Mean cross-entropy over labelled videos and its gradients."""
        batch, probs, cache = self._forward(videos)
        if batch.labels is None:
            raise ValueError("every video in a loss batch needs a label")
        loss, delta = neural.softmax_cross_entropy(probs, batch.labels)
        _backward_batch(self, batch, cache, delta)
        return loss, self.flat.grads

    def predict(self, comments: Sequence[Comment], features: np.ndarray,
                table: EmbeddingTable) -> Prediction:
        """Class probabilities for one video given its selected features."""
        _, probs, _ = self._forward([self.prepare(comments, features, table)])
        return Prediction(p_real=float(probs[0, 0]), p_fake=float(probs[0, 1]))

    def predict_record(self, record: VideoRecord, table: EmbeddingTable,
                       lexicons: LexiconSet, scorer: TitleScorer) -> Prediction:
        features = _select_features(record, lexicons, scorer, self.feature_names)
        return self.predict(record.comments, features, table)

    def unified_embedding(self, comments: Sequence[Comment],
                          table: EmbeddingTable) -> np.ndarray:
        """Mean of weight-scaled comment embeddings; zero vector for no comments."""
        prepared = self.prepare(comments, np.zeros(len(self.feature_names)), table)
        _, _, (_, _, _, _, (x, _)) = self._forward([prepared])
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
        """The model saved at ``path``, with the phrase list it records."""
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
        params = {name: tensors.shaped(name, *shape)
                  for name, shape in layout.items()}
        settings = {field.name: meta.real(field.name) if field.type == "float"
                    else meta.integer(field.name)
                    for field in fields(TrainingConfig)}
        try:
            return cls(params, phrases, feature_names, embedding_dim,
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
          lstm_hidden: int = DEFAULT_LSTM_HIDDEN,
          hidden_units: int = DEFAULT_HIDDEN_UNITS) -> UCNetModel:
    """Mini-batch Adam training with cross-entropy over shuffled epochs.

    The fakeness vectors run over ``lexicons.fakeness_phrases``, which the
    model keeps as ``model.phrases``. feature_indices selects a subset of
    the eight simple features (the post-pruning selection); None feeds all
    eight. Deterministic for a fixed config seed; per-epoch mean loss lands
    in model.loss_history.
    """
    config = config if config is not None else TrainingConfig()
    if feature_indices is None:
        feature_indices = tuple(range(len(FEATURE_NAMES)))
    feature_names = tuple(FEATURE_NAMES[i] for i in feature_indices)

    bad = [r.label for r in train_set if r.label not in ("fake", "real")]
    if bad:
        raise ValueError(
            f"training set contains {len(bad)} records without fake/real labels")
    labels = [1 if r.label == "fake" else 0 for r in train_set]
    if len(set(labels)) < 2:
        raise ValueError("training set must contain both classes")

    rng = np.random.default_rng(config.seed)
    phrases = lexicons.fakeness_phrases
    params = init_params(rng, table.dimension, len(phrases), len(feature_names),
                         lstm_hidden, hidden_units)
    model = UCNetModel(params, phrases, feature_names, table.dimension, config)

    prepared = []
    for record, label in zip(train_set, labels):
        features = _select_features(record, lexicons, scorer, feature_names)
        prepared.append(model.prepare(record.comments, features, table, label))

    state = neural.AdamState.for_params(model.flat.vector,
                                        learning_rate=config.learning_rate)
    n = len(prepared)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            chunk = [prepared[i] for i in order[start:start + config.batch_size]]
            loss, _ = model.batch_loss_and_gradients(chunk)
            if not math.isfinite(loss):
                raise ValueError(
                    f"training loss is {loss} at epoch {epoch + 1}, batch "
                    f"{start // config.batch_size + 1}; aborting")
            neural.adam_step(model.flat.vector, model.flat.gradient, state)
            epoch_loss += loss * len(chunk)
        mean_loss = epoch_loss / n
        model.loss_history.append(mean_loss)
        logger.info("epoch %d/%d: mean loss %.6f", epoch + 1, config.epochs,
                    mean_loss)
    return model


def extract_unified_embeddings(dataset: Dataset, table: EmbeddingTable,
                               model: UCNetModel) -> np.ndarray:
    """One unified-embedding row per video, in dataset order (feeds PCA)."""
    rows = [model.unified_embedding(r.comments, table) for r in dataset]
    return np.stack(rows) if rows else np.zeros((0, model.lstm_hidden))
