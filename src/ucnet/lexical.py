"""The eight metadata/comment features plus correlation-based pruning.

Tokenization rule used throughout the package: a token is a maximal run of
alphanumeric characters (str.isalnum), taken after Unicode NFC
normalization. Phrase matching is case-insensitive substring matching.

A lexicon directory holds the five lists of ``LEXICON_FILES``: four for the
features, and the fakeness-indicator phrases that the network trains on.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
import string
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from . import neural
from .corpus import Comment, VideoRecord, content_lines, nfc

DISLIKE_RATIO_CAP = 1000.0

FEATURE_NAMES = (
    "has_clickbait_phrase",
    "ratio_violent_words",
    "ratio_caps",
    "title_fakeness_score",
    "dislike_like_ratio",
    "comments_fakeness",
    "comments_inappropriateness",
    "comments_conversation_ratio",
)


def tokenize(text: str) -> list[str]:
    """Maximal runs of alphanumeric characters, after NFC normalization."""
    return ["".join(group) for is_alnum, group
            in itertools.groupby(nfc(text), key=str.isalnum) if is_alnum]


def _fold(text: str) -> str:
    return nfc(text).casefold()


def load_lexicon_lines(path) -> tuple[str, ...]:
    """One entry per line; blank lines and '#' comment lines are skipped."""
    return tuple(line.strip() for _, line in content_lines(path))


def _compile_pattern(pattern: str) -> re.Pattern:
    try:
        return re.compile(pattern, re.IGNORECASE)
    except (re.error, OverflowError, RecursionError) as exc:
        raise ValueError(
            f"invalid regular expression {pattern!r}: {exc}") from None


def lexicon_digest(entries: Sequence[str]) -> str:
    joined = "\n".join(_fold(e) for e in entries)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


# The files of a lexicon directory, in the order of LexiconSet's fields.
LEXICON_FILES = ("clickbait_phrases.txt", "violent_words.txt",
                 "fakeness_patterns.txt", "swear_words.txt",
                 "fakeness_phrases.txt")


@dataclass(frozen=True)
class LexiconSet:
    clickbait_phrases: tuple[str, ...]
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
            clickbait_phrases=tuple(_fold(p) for p in clickbait),
            violent_words=frozenset(_fold(w) for w in violent),
            fakeness_patterns=tuple(_compile_pattern(p) for p in patterns),
            swear_words=frozenset(_fold(w) for w in swear),
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


def default_lexicon_dir() -> Path:
    return Path(resources.files("ucnet") / "lexicons")


def load_fakeness_phrases() -> tuple[str, ...]:
    """The bundled fakeness-indicator phrase list (30 entries)."""
    return load_lexicon_lines(default_lexicon_dir() / "fakeness_phrases.txt")


def has_clickbait_phrase(title: str, lex: LexiconSet) -> int:
    folded = _fold(title)
    return int(any(phrase in folded for phrase in lex.clickbait_phrases))


def ratio_violent_words(title: str, lex: LexiconSet) -> float:
    tokens = tokenize(title)
    if not tokens:
        return 0.0
    hits = sum(1 for t in tokens if t.casefold() in lex.violent_words)
    return hits / len(tokens)


def ratio_caps(title: str) -> float:
    tokens = tokenize(title)
    if not tokens:
        return 0.0
    return sum(1 for t in tokens if t.isupper()) / len(tokens)


def dislike_like_ratio(video: VideoRecord) -> float:
    """Dislike:like ratio capped at DISLIKE_RATIO_CAP so it stays finite."""
    if video.like_count == 0:
        return DISLIKE_RATIO_CAP if video.dislike_count > 0 else 0.0
    return min(video.dislike_count / video.like_count, DISLIKE_RATIO_CAP)


def comments_fakeness(comments: Sequence[Comment], lex: LexiconSet) -> float:
    if not comments:
        return 0.0
    hits = sum(1 for c in comments
               if any(p.search(nfc(c.text)) for p in lex.fakeness_patterns))
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
        ratio_caps(title),
        sum(1 for ch in title if ch in string.punctuation),
        title.count("?"),
        title.count("!"),
        has_clickbait_phrase(title, lex),
        ratio_violent_words(title, lex),
    ], dtype=np.float64)


@dataclass
class TitleScorerConfig:
    hidden_dim: int = 8
    learning_rate: float = 0.01
    epochs: int = 300
    batch_size: int = 16
    seed: int = 0


class TitleScorer:
    """Feed-forward fakeness scorer over simple linguistic title features.

    Inputs are standardized with the training-set mean/std; class order is
    (real, fake) so score() returns the probability of the fake class.
    """

    def __init__(self, lexicons: LexiconSet):
        self.lexicons = lexicons
        self.mlp: neural.Mlp | None = None
        self.mean = np.zeros(len(TITLE_SCORER_FEATURES))
        self.std = np.ones(len(TITLE_SCORER_FEATURES))

    @property
    def trained(self) -> bool:
        return self.mlp is not None

    def score(self, title: str) -> float:
        if not self.trained:
            raise ValueError("title scorer has not been trained")
        x = (title_linguistic_features(title, self.lexicons) - self.mean) / self.std
        return float(self.mlp.forward(x)[1])

    def save(self, path) -> None:
        from .serialize import save_tensors
        if not self.trained:
            raise ValueError("cannot save an untrained title scorer")
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
        scorer = cls(lexicons)
        n_inputs = len(TITLE_SCORER_FEATURES)
        scorer.mean = tensors.shaped("feature_mean", n_inputs)
        scorer.std = tensors.shaped("feature_std", n_inputs)
        weights = tensors.shaped("layer0.weights", None, n_inputs)
        units = weights.shape[0]
        flat = neural.FlatParameters.pack({
            "layer0.weights": weights,
            "layer0.bias": tensors.shaped("layer0.bias", units),
            "layer1.weights": tensors.shaped("layer1.weights", 2, units),
            "layer1.bias": tensors.shaped("layer1.bias", 2)})
        scorer.mlp = neural.Mlp(flat, ("layer0", "layer1"))
        return scorer


def train_title_scorer(titles: Sequence[tuple[str, str]],
                       lexicons: LexiconSet | None = None,
                       config: TitleScorerConfig | None = None) -> TitleScorer:
    """Train the feed-forward title scorer on (title, label) pairs.

    Labels are "fake"/"real" and both classes must be present. Training is
    mini-batch Adam on cross-entropy and deterministic for a fixed seed.
    """
    lexicons = lexicons if lexicons is not None else LexiconSet.default()
    config = config if config is not None else TitleScorerConfig()
    if not titles:
        raise ValueError("no training titles given")
    labels = {label for _, label in titles}
    if not labels <= {"fake", "real"}:
        raise ValueError(f"title labels must be fake/real, got {sorted(labels)}")
    if len(labels) < 2:
        raise ValueError("training titles must contain both classes")

    xs = np.stack([title_linguistic_features(t, lexicons) for t, _ in titles])
    ys = np.array([1 if label == "fake" else 0 for _, label in titles])
    scorer = TitleScorer(lexicons)
    scorer.mean = xs.mean(axis=0)
    std = xs.std(axis=0)
    scorer.std = np.where(std > 0, std, 1.0)
    xs = (xs - scorer.mean) / scorer.std

    rng = np.random.default_rng(config.seed)
    mlp = neural.Mlp.init(rng, [xs.shape[1], config.hidden_dim, 2])
    state = neural.AdamState.for_params(mlp.flat.vector,
                                        learning_rate=config.learning_rate)
    for _ in range(config.epochs):
        order = rng.permutation(len(xs))
        for start in range(0, len(xs), config.batch_size):
            batch = order[start:start + config.batch_size]
            mlp.batch_loss_and_gradients(xs[batch], ys[batch])
            neural.adam_step(mlp.flat.vector, mlp.flat.gradient, state)
    scorer.mlp = mlp
    return scorer


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
    """Pairwise Pearson r; zero-variance columns correlate as 0 by definition."""
    x = np.asarray(features, dtype=np.float64)
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
