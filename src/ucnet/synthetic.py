"""Seeded synthetic corpus with a planted fake/real signal.

Fake videos carry fakeness-indicator phrases in a large share of their
comments, clickbait-flavored titles and high dislike:like ratios; real
videos get generic comments with a small noise rate of skeptical remarks.
Also builds a small embedding table covering the synthetic vocabulary and a
labeled-title file for the title scorer. Everything is deterministic for a
fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Comment, Dataset, VideoRecord, fold, phrase_hits
from .embeddings import EmbeddingTable
from .lexical import LexiconSet, tokenize

GENERIC_WORDS = (
    "the", "this", "that", "video", "music", "song", "channel", "great",
    "nice", "love", "loved", "amazing", "cool", "really", "very", "good",
    "thanks", "please", "subscribe", "watch", "watching", "again", "best",
    "ever", "wow", "funny", "laugh", "moment", "camera", "quality", "sound",
    "audio", "first", "second", "view", "share", "friend", "family", "today",
    "yesterday", "morning", "night", "beautiful", "awesome", "perfect",
    "incredible", "nobody", "everyone", "people", "world", "news", "story",
    "true", "interesting", "boring", "long", "short", "editing", "effect",
    "light", "dark", "slow", "fast", "clip", "scene", "part", "episode",
    "series", "favorite", "old", "new", "classic", "remix", "cover", "live",
    "concert", "tour", "intro", "outro", "tutorial", "review",
)

def _iso_timestamp(day: int, minute: int) -> str:
    return f"2015-{1 + day // 28:02d}-{1 + day % 28:02d}T{minute // 60:02d}:{minute % 60:02d}:00Z"


def _generic_words(phrases) -> tuple[str, ...]:
    """Filler vocabulary, minus words an indicator phrase would substring-match
    (e.g. 'subscribe' contains 'bs')."""
    return tuple(w for w in GENERIC_WORDS
                 if not any(phrase_hits(fold(w), phrases)))


def _phrase_vocabulary(lexicons: LexiconSet) -> list[str]:
    vocab: dict[str, None] = {}
    for word in _generic_words(lexicons.fakeness_phrases):
        vocab[word] = None
    for phrase in lexicons.fakeness_phrases:
        for token in tokenize(phrase):
            vocab[token.lower()] = None
    for word in sorted(lexicons.swear_words):
        vocab[word] = None
    for word in sorted(lexicons.violent_words):
        vocab[word] = None
    return list(vocab)


def make_embedding_table(seed: int = 7, dimension: int = 16,
                         lexicons: LexiconSet | None = None) -> EmbeddingTable:
    """Random unit-scale vectors for every token the corpus can produce.

    Tokens that only occur inside fakeness-indicator phrases share a common
    direction plus noise, mimicking how pretrained embeddings cluster
    semantically related words.
    """
    if dimension < 1:
        raise ValueError(f"embedding dimension must be >= 1, got {dimension}")
    lexicons = lexicons if lexicons is not None else LexiconSet.default()
    phrases = lexicons.fakeness_phrases
    vocab = _phrase_vocabulary(lexicons)
    generic = set(_generic_words(phrases))
    phrase_only = {token.lower() for phrase in phrases
                   for token in tokenize(phrase)} - generic
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    scale = 1.0 / np.sqrt(dimension)
    shared = rng.normal(0.0, scale, size=dimension)
    vectors = {}
    for token in vocab:
        noise = rng.normal(0.0, scale, size=dimension)
        if token in phrase_only:
            # Content words cluster and carry larger norms, as in word2vec.
            vectors[token] = 0.9 * shared + 0.6 * noise
        else:
            vectors[token] = 0.5 * noise
    return EmbeddingTable(dimension=dimension, vectors=vectors)


def _pick(rng: np.random.Generator, pool) -> str:
    return pool[int(rng.integers(0, len(pool)))]


def _words(rng: np.random.Generator, pool, low: int, high: int) -> list[str]:
    count = int(rng.integers(low, high + 1))
    # One call draws what `count` scalar calls would, in the same order.
    return [pool[i] for i in rng.integers(0, len(pool), size=count).tolist()]


@dataclass(frozen=True)
class _Pools:
    """Every list the generator draws from, derived once per lexicon set."""

    words: tuple[str, ...]      # filler vocabulary
    phrases: tuple[str, ...]    # fakeness-indicator phrases, as written
    matching: tuple[str, ...]   # the phrases that also trip a fakeness regex
    clickbait: tuple[str, ...]
    swear: tuple[str, ...]      # sorted
    violent: tuple[str, ...]    # sorted

    @classmethod
    def of(cls, lexicons: LexiconSet) -> "_Pools":
        phrases = lexicons.fakeness_phrases
        return cls(
            words=_generic_words(phrases),
            phrases=phrases,
            # e.g. phrases that contain 'fake'
            matching=tuple(p for p in phrases if any(
                pat.search(p) for pat in lexicons.fakeness_patterns)),
            clickbait=lexicons.clickbait_phrases,
            swear=tuple(sorted(lexicons.swear_words)),
            violent=tuple(sorted(lexicons.violent_words)))


def _make_comment(rng, pools: _Pools, video_id, index, fake: bool,
                  plant_phrase: bool) -> Comment:
    words = _words(rng, pools.words, 3, 9)
    if plant_phrase:
        if pools.matching and rng.random() < 0.75:
            phrase = _pick(rng, pools.matching)
        else:
            phrase = _pick(rng, pools.phrases)
        style = rng.random()
        if style < 0.4:
            # skeptical comments are often just the phrase itself
            words = [phrase]
        elif style < 0.7:
            words = [phrase] + _words(rng, pools.words, 1, 4)
        else:
            words = words + [phrase]
    swear_rate = 0.3 if fake else 0.05
    if rng.random() < swear_rate:
        words.append(_pick(rng, pools.swear))
    reply_rate = 0.3 if fake else 0.8
    reply_count = int(rng.poisson(reply_rate))
    return Comment(
        id=f"{video_id}-c{index:03d}",
        text=" ".join(words),
        like_count=int(rng.integers(0, 50)),
        reply_count=reply_count,
        published_at=_iso_timestamp(int(rng.integers(0, 300)),
                                    int(rng.integers(0, 1440))),
    )


def _make_title(rng, pools: _Pools, fake: bool) -> str:
    words = _words(rng, pools.words, 4, 8)
    clickbait_rate = 0.7 if fake else 0.05
    if rng.random() < clickbait_rate:
        phrase = _pick(rng, pools.clickbait)
        slot = int(rng.integers(0, len(words) + 1))
        words = words[:slot] + [phrase] + words[slot:]
    caps_rate = 0.5 if fake else 0.1
    if rng.random() < caps_rate:
        pos = int(rng.integers(0, len(words)))
        words[pos] = words[pos].upper()
    violent_rate = 0.3 if fake else 0.05
    if rng.random() < violent_rate:
        words.append(_pick(rng, pools.violent))
    return " ".join(words)


def _make_video(rng, pools: _Pools, index: int, fake: bool) -> VideoRecord:
    video_id = f"vid{index:04d}"
    n_comments = int(rng.integers(6, 13))
    if fake:
        plant_fraction = rng.uniform(0.4, 0.8)
        n_planted = max(int(np.ceil(0.35 * n_comments)),
                        int(round(plant_fraction * n_comments)))
        planted = set(rng.choice(n_comments, size=min(n_planted, n_comments),
                                 replace=False).tolist())
    else:
        planted = {i for i in range(n_comments) if rng.random() < 0.01}
    comments = tuple(
        _make_comment(rng, pools, video_id, i, fake, i in planted)
        for i in range(n_comments))

    likes = int(rng.integers(50, 2000))
    ratio = rng.uniform(0.35, 0.9) if fake else rng.uniform(0.02, 0.2)
    dislikes = max(1, int(round(ratio * likes)))
    return VideoRecord(
        id=video_id,
        title=_make_title(rng, pools, fake),
        description=" ".join(_words(rng, pools.words, 5, 15)),
        tags=tuple(_words(rng, pools.words, 1, 4)),
        view_count=int(rng.integers(15_000, 300_000)),
        like_count=likes,
        dislike_count=dislikes,
        channel_subscriber_count=int(rng.integers(100, 1_000_000)),
        comments=comments,
        label="fake" if fake else "real",
    )


def make_synthetic_corpus(n_videos: int = 200, seed: int = 7,
                          lexicons: LexiconSet | None = None) -> Dataset:
    """Half fake / half real labeled corpus with the planted signal."""
    if n_videos < 2:
        raise ValueError("need at least 2 videos")
    lexicons = lexicons if lexicons is not None else LexiconSet.default()
    pools = _Pools.of(lexicons)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    n_fake = n_videos // 2
    records = []
    for index in range(n_videos):
        fake = index < n_fake
        records.append(_make_video(rng, pools, index, fake))
    return Dataset(name=f"synthetic-{n_videos}-seed{seed}", records=tuple(records))


def make_labeled_titles(n_titles: int = 240, seed: int = 7,
                        lexicons: LexiconSet | None = None) -> list[tuple[str, str]]:
    """Separable (title, label) pairs for training the title scorer."""
    lexicons = lexicons if lexicons is not None else LexiconSet.default()
    pools = _Pools.of(lexicons)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    titles = []
    for i in range(n_titles):
        fake = i % 2 == 0
        titles.append((_make_title(rng, pools, fake), "fake" if fake else "real"))
    return titles
