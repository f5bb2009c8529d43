r"""The eight metadata/comment features plus correlation-based pruning.

Tokenization rule used throughout the package: a token is a maximal run of
alphanumeric characters (str.isalnum), taken after Unicode NFC
normalization. :func:`tokenize` finds the runs with one compiled pattern,
``[^\W_]+``. Phrases match by the one rule of :mod:`ucnet.corpus`: ``fold``
(NFC, then case-folding) and ``phrase_hits`` (a folded-substring test).

A lexicon directory holds the five lists of ``LEXICON_FILES``: four for the
features, and the fakeness-indicator phrases that the network trains on.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
import string
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from . import neural
from .corpus import (Comment, VideoRecord, _dislike_like_ratio_unbounded,
                     content_lines, fake_indicators, fold, nfc, phrase_hits)

DISLIKE_RATIO_CAP = 1000.0


_TOKEN = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    r"""Maximal runs of alphanumeric characters (str.isalnum), after NFC
    normalization.

    One ``findall`` of the compiled ``[^\W_]+`` finds them: CPython's
    ``\w`` in a str pattern matches the characters ``str.isalnum`` accepts
    plus ``_``, so the class is ``str.isalnum`` itself, and the maximal runs
    of one scan are the tokens of a character-by-character split.
    """
    return _TOKEN.findall(nfc(text))


def load_lexicon_lines(path) -> tuple[str, ...]:
    """One entry per line; blank lines and '#' comment lines are skipped."""
    return tuple(line.strip() for _, line in content_lines(path))


def _compile_pattern(pattern: str) -> re.Pattern:
    try:
        return re.compile(pattern, re.IGNORECASE)
    except (re.error, OverflowError, RecursionError) as exc:
        raise ValueError(
            f"invalid regular expression {pattern!r}: {exc}") from None


# The flags of a pattern that _compile_pattern compiled and that sets none
# of its own.
_PATTERN_FLAGS = re.compile("", re.IGNORECASE).flags

# What can change a pattern's meaning inside an alternation: a group
# reference by number (\1), by name ((?P=name)) or in a conditional
# ((?(1)...)), which the other patterns' groups would renumber or shadow,
# and an inline global flag ((?x)), which would act on every pattern. The
# test is textual and errs towards refusing: an escaped backslash before a
# digit refuses too, and costs only the one-scan path.
_NOT_ALTERNABLE = re.compile(r"\\[1-9]|\(\?P=|\(\?\(|\(\?[aiLmsux]+\)")


def lexicon_digest(entries: Sequence[str]) -> str:
    joined = "\n".join(fold(e) for e in entries)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LexiconSet:
    clickbait_phrases: tuple[str, ...]  # as written, in file order
    violent_words: frozenset[str]
    fakeness_patterns: tuple[re.Pattern, ...]
    swear_words: frozenset[str]
    fakeness_phrases: tuple[str, ...]  # as written, in file order

    @classmethod
    def from_entries(cls, clickbait: Sequence[str], violent: Sequence[str],
                     patterns: Sequence[str], swear: Sequence[str],
                     phrases: Sequence[str]) -> "LexiconSet":
        for name, entries in (("clickbait", clickbait), ("violent", violent),
                              ("patterns", patterns), ("swear", swear),
                              ("fakeness phrases", phrases)):
            if any(not e for e in entries):
                raise ValueError(f"{name} lexicon contains an empty entry")
        return cls(
            clickbait_phrases=tuple(clickbait),
            violent_words=frozenset(fold(w) for w in violent),
            fakeness_patterns=tuple(_compile_pattern(p) for p in patterns),
            swear_words=frozenset(fold(w) for w in swear),
            fakeness_phrases=tuple(phrases),
        )

    @classmethod
    def from_directory(cls, directory) -> "LexiconSet":
        """The five lists of ``LEXICON_FILES``, all read from ``directory``."""
        directory = Path(directory)
        lists = {name: [(lineno, line.strip()) for lineno, line
                        in content_lines(directory / name)]
                 for name in LEXICON_FILES}
        patterns = directory / "fakeness_patterns.txt"
        for lineno, pattern in lists[patterns.name]:
            try:
                _compile_pattern(pattern)
            except ValueError as exc:
                raise ValueError(f"{patterns}: line {lineno}: {exc}") from None
        return cls.from_entries(*([entry for _, entry in entries]
                                  for entries in lists.values()))

    @classmethod
    def default(cls) -> "LexiconSet":
        return cls.from_directory(default_lexicon_dir())

    @functools.cached_property
    def fakeness_scan(self) -> re.Pattern | None:
        """The fakeness patterns as one compiled alternation, which finds a
        match in a text exactly when one of them does, so a comment is
        scanned once; None when that cannot be trusted (no patterns, flags
        of their own, a group reference or an inline global flag, or an
        alternation that does not compile with their summed groups), and
        :func:`comments_fakeness` then tries them one by one. Not a field:
        the lexicon files follow the fields."""
        patterns = self.fakeness_patterns
        if not patterns or any(p.flags != _PATTERN_FLAGS
                               or _NOT_ALTERNABLE.search(p.pattern)
                               for p in patterns):
            return None
        try:
            scan = re.compile("|".join(f"(?:{p.pattern})" for p in patterns),
                              re.IGNORECASE)
        except (re.error, OverflowError, RecursionError):
            return None
        return scan if scan.groups == sum(p.groups for p in patterns) \
            else None


# The files of a lexicon directory, one per field of LexiconSet.
LEXICON_FILES = tuple(f"{f.name}.txt" for f in fields(LexiconSet))


def default_lexicon_dir() -> Path:
    return Path(resources.files("ucnet") / "lexicons")


def load_fakeness_phrases() -> tuple[str, ...]:
    """The bundled fakeness-indicator phrase list (30 entries)."""
    return load_lexicon_lines(default_lexicon_dir() / "fakeness_phrases.txt")


def has_clickbait_phrase(title: str, lex: LexiconSet) -> int:
    return int(any(phrase_hits(fold(title), lex.clickbait_phrases)))


def ratio_violent_words(title: str, lex: LexiconSet) -> float:
    return _violent_share(tokenize(title), lex)


def ratio_caps(title: str) -> float:
    return _caps_share(tokenize(title))


def _violent_share(tokens: Sequence[str], lex: LexiconSet) -> float:
    if not tokens:
        return 0.0
    hits = sum(1 for t in tokens if t.casefold() in lex.violent_words)
    return hits / len(tokens)


def _caps_share(tokens: Sequence[str]) -> float:
    if not tokens:
        return 0.0
    return sum(1 for t in tokens if t.isupper()) / len(tokens)


def dislike_like_ratio(video: VideoRecord) -> float:
    """Mining's dislike:like ratio capped at DISLIKE_RATIO_CAP so it stays
    finite: dislikes without likes give the cap, no votes at all give 0."""
    return min(_dislike_like_ratio_unbounded(video), DISLIKE_RATIO_CAP)


def comments_fakeness(comments: Sequence[Comment], lex: LexiconSet) -> float:
    if not comments:
        return 0.0
    texts = [nfc(c.text) for c in comments]
    scan = lex.fakeness_scan
    if scan is not None:
        hits = sum(1 for text in texts if scan.search(text))
    else:
        hits = sum(1 for text in texts
                   if any(p.search(text) for p in lex.fakeness_patterns))
    return hits / len(comments)


def comments_inappropriateness(comments: Sequence[Comment],
                               lex: LexiconSet) -> float:
    if not comments:
        return 0.0
    hits = sum(1 for c in comments
               if any(t.casefold() in lex.swear_words for t in tokenize(c.text)))
    return hits / len(comments)


def comments_conversation_ratio(comments: Sequence[Comment]) -> float:
    if not comments:
        return 0.0
    return sum(1 for c in comments if c.reply_count >= 1) / len(comments)


TITLE_SCORER_FEATURES = (
    "token_count", "char_count", "ratio_caps", "punctuation_count",
    "question_count", "exclamation_count", "has_clickbait_phrase",
    "ratio_violent_words",
)


def title_linguistic_features(title: str, lex: LexiconSet) -> np.ndarray:
    tokens = tokenize(title)
    return np.array([
        len(tokens),
        len(title),
        _caps_share(tokens),
        sum(1 for ch in title if ch in string.punctuation),
        title.count("?"),
        title.count("!"),
        has_clickbait_phrase(title, lex),
        _violent_share(tokens, lex),
    ], dtype=np.float64)


# The title scorer's hidden width and its training: mini-batch Adam at this
# learning rate, epochs and batch size.
_SCORER_HIDDEN = 8
_SCORER_LEARNING_RATE = 0.01
_SCORER_EPOCHS = 300
_SCORER_BATCH = 16


class TitleScorer:
    """Feed-forward fakeness scorer over simple linguistic title features:
    an :class:`ucnet.neural.Mlp` whose inputs are standardized with the
    training set's ``mean`` and ``std``. Class order is (real, fake), so
    score() returns the probability of the fake class. A scorer is built
    trained, by :func:`train_title_scorer` or :meth:`load`; ``source``
    names it in errors, as the file it was loaded from.
    """

    def __init__(self, lexicons: LexiconSet, mlp: neural.Mlp,
                 mean: np.ndarray, std: np.ndarray,
                 source: str = "trained title scorer"):
        self.lexicons = lexicons
        self.mlp = mlp
        self.mean = mean
        self.std = std
        self.source = source

    def score(self, title: str) -> float:
        """The title's probability of fake. A title whose arithmetic leaves
        the float range raises a ValueError naming the scorer."""
        features = title_linguistic_features(title, self.lexicons)
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return float(self.mlp.forward(
                    (features - self.mean) / self.std)[1])
        except FloatingPointError as exc:
            raise ValueError(f"{self.source}: scoring the title "
                             f"{title[:40]!r} leaves the float range "
                             f"({exc})") from None

    def save(self, path) -> None:
        from .serialize import save_tensors
        tensors = {"feature_mean": self.mean, "feature_std": self.std}
        tensors.update(self.mlp.parameters())
        meta = {
            "kind": "title-scorer",
            "hidden_dim": str(len(self.mlp.flat.params["layer0.bias"])),
            "clickbait_digest": lexicon_digest(self.lexicons.clickbait_phrases),
            "violent_digest": lexicon_digest(sorted(self.lexicons.violent_words)),
        }
        save_tensors(path, tensors, meta)

    @classmethod
    def load(cls, path, lexicons: LexiconSet) -> "TitleScorer":
        from .serialize import load_tensors
        tensors, meta = load_tensors(path)
        if meta.get("kind") != "title-scorer":
            raise ValueError(f"{path}: not a title-scorer file")
        if meta.get("clickbait_digest") != lexicon_digest(lexicons.clickbait_phrases) \
                or meta.get("violent_digest") != lexicon_digest(sorted(lexicons.violent_words)):
            raise ValueError(
                f"{path}: lexicons differ from the ones the scorer was trained with")
        n_inputs = len(TITLE_SCORER_FEATURES)
        mean = tensors.shaped("feature_mean", n_inputs)
        std = tensors.shaped("feature_std", n_inputs)
        if not (std > 0).all():
            raise ValueError(f"{path}: tensor 'feature_std' holds "
                             f"{float(std.min())!r}; a trained scorer's "
                             "entries are all positive")
        weights = tensors.shaped("layer0.weights", None, n_inputs)
        units = weights.shape[0]
        flat = neural.FlatParameters.pack({
            "layer0.weights": weights,
            "layer0.bias": tensors.shaped("layer0.bias", units),
            "layer1.weights": tensors.shaped("layer1.weights", 2, units),
            "layer1.bias": tensors.shaped("layer1.bias", 2)})
        return cls(lexicons, neural.Mlp(flat, ("layer0", "layer1")), mean, std,
                   str(path))


def train_title_scorer(titles: Sequence[tuple[str, str]],
                       lexicons: LexiconSet | None = None,
                       seed: int = 0) -> TitleScorer:
    """Train the feed-forward title scorer on (title, label) pairs.

    Labels are "fake"/"real" and both classes must be present. Training is
    mini-batch Adam on cross-entropy and deterministic for a fixed seed.
    """
    lexicons = lexicons if lexicons is not None else LexiconSet.default()
    if not titles:
        raise ValueError("no training titles given")
    ys = fake_indicators([label for _, label in titles], "training titles")
    if len(set(ys)) < 2:
        raise ValueError("training titles must contain both classes")

    xs = np.stack([title_linguistic_features(t, lexicons) for t, _ in titles])
    mean = xs.mean(axis=0)
    std = xs.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    xs = (xs - mean) / std

    rng = np.random.default_rng(seed)
    mlp = neural.Mlp.init(rng, [xs.shape[1], _SCORER_HIDDEN, 2])
    state = neural.AdamState(mlp.flat.vector, _SCORER_LEARNING_RATE)
    one_hot = np.eye(2)[ys]
    # Each batch with the step for its size: all but perhaps the last are
    # full.
    batches = [(slice(start, start + _SCORER_BATCH),
                mlp.step(min(_SCORER_BATCH, len(xs) - start)))
               for start in range(0, len(xs), _SCORER_BATCH)]
    vector, gradient = mlp.flat.vector, mlp.flat.gradient
    for _ in range(_SCORER_EPOCHS):
        # One gather an epoch; each batch is a view of it.
        order = rng.permutation(len(xs))
        epoch_xs, epoch_labels = xs[order], one_hot[order]
        for batch, step in batches:
            step(epoch_xs[batch], epoch_labels[batch])
            neural.adam_step(vector, gradient, state)
    return TitleScorer(lexicons, mlp, mean, std)


@dataclass(frozen=True)
class FeatureVector:
    has_clickbait_phrase: float
    ratio_violent_words: float
    ratio_caps: float
    title_fakeness_score: float
    dislike_like_ratio: float
    comments_fakeness: float
    comments_inappropriateness: float
    comments_conversation_ratio: float

    def __post_init__(self) -> None:
        for name in FEATURE_NAMES:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"feature {name} is not finite")
        for name in ("ratio_violent_words", "ratio_caps", "title_fakeness_score",
                     "comments_fakeness", "comments_inappropriateness",
                     "comments_conversation_ratio"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"feature {name} outside [0, 1]")
        if not 0.0 <= self.dislike_like_ratio <= DISLIKE_RATIO_CAP:
            raise ValueError("dislike_like_ratio outside [0, cap]")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES],
                        dtype=np.float64)


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))


def extract_features(video: VideoRecord, lex: LexiconSet,
                     scorer: TitleScorer) -> FeatureVector:
    """All eight simple features for one video."""
    return FeatureVector(
        has_clickbait_phrase=float(has_clickbait_phrase(video.title, lex)),
        ratio_violent_words=ratio_violent_words(video.title, lex),
        ratio_caps=ratio_caps(video.title),
        title_fakeness_score=scorer.score(video.title),
        dislike_like_ratio=dislike_like_ratio(video),
        comments_fakeness=comments_fakeness(video.comments, lex),
        comments_inappropriateness=comments_inappropriateness(video.comments, lex),
        comments_conversation_ratio=comments_conversation_ratio(video.comments),
    )


def feature_matrix(videos: Sequence[VideoRecord], lex: LexiconSet,
                   scorer: TitleScorer) -> np.ndarray:
    return np.stack([extract_features(v, lex, scorer).as_array()
                     for v in videos]) if videos else np.zeros((0, len(FEATURE_NAMES)))


def pearson_correlation(features: np.ndarray) -> np.ndarray:
    """Pairwise Pearson r; zero-variance columns correlate as 0 by definition.

    Each column is first scaled by the power of two that brings its largest
    magnitude into [0.5, 1), so values near the float64 maximum cannot
    overflow when squared; the scaling is exact and r does not depend on it.
    """
    x = np.asarray(features, dtype=np.float64)
    x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=0))[1])
    centered = x - x.mean(axis=0)
    std = centered.std(axis=0)
    denom = np.outer(std, std)
    cov = centered.T @ centered / x.shape[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def prune_correlated(features: np.ndarray, importances: Sequence[float],
                     threshold: float = 0.2) -> tuple[int, ...]:
    """Drop the less important feature of every |r| > threshold pair.

    For each correlated pair the lower-importance member is marked for
    removal (importance ties keep the lower index); the returned tuple holds
    the indices that survived, in ascending order.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-d feature matrix with at least 2 rows")
    imp = np.asarray(importances, dtype=np.float64)
    if imp.shape != (x.shape[1],):
        raise ValueError("one importance per feature column required")
    if not np.all(np.isfinite(imp)):
        raise ValueError("importances must be finite")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")

    corr = pearson_correlation(x)
    marked: set[int] = set()
    for i in range(x.shape[1]):
        for j in range(i + 1, x.shape[1]):
            if abs(corr[i, j]) > threshold:
                if imp[i] == imp[j]:
                    marked.add(j)
                else:
                    marked.add(i if imp[i] < imp[j] else j)
    return tuple(i for i in range(x.shape[1]) if i not in marked)
