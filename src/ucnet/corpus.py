"""Video/comment data model plus dataset mining, splitting and agreement stats.

Records are ingested from line-delimited JSON files (one video per line);
there is no network crawling anywhere in this package. All container types
are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import json
import logging
import math
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

LABELS = ("fake", "real", "not_sure", "unlabeled")
ANNOTATION_LABELS = ("spam", "legitimate", "not_sure")
_RECORD_KEYS = (
    "id", "title", "description", "tags", "view_count", "like_count",
    "dislike_count", "channel_subscriber_count", "comments", "label",
)
_COMMENT_KEYS = ("id", "text", "like_count", "reply_count", "published_at")


def read_utf8(path) -> str:
    """A text file's contents; bytes that are not UTF-8 raise a ValueError
    naming the file and the line they are on."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {lineno}: not UTF-8 text") from None


def content_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line of a UTF-8 text file that is not
    blank or a '#' comment; the line keeps its whitespace."""
    for lineno, line in enumerate(read_utf8(path).splitlines(), 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line


def nfc(text: str) -> str:
    """Unicode NFC normalization used before any phrase matching."""
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class Comment:
    id: str
    text: str
    like_count: int
    reply_count: int
    published_at: str

    def __post_init__(self) -> None:
        if self.like_count < 0:
            raise ValueError(f"comment {self.id!r}: like_count must be >= 0")
        if self.reply_count < 0:
            raise ValueError(f"comment {self.id!r}: reply_count must be >= 0")


@dataclass(frozen=True)
class VideoRecord:
    id: str
    title: str
    description: str
    tags: tuple[str, ...]
    view_count: int
    like_count: int
    dislike_count: int
    channel_subscriber_count: int
    comments: tuple[Comment, ...]
    label: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("video id must be non-empty")
        object.__setattr__(self, "tags", tuple(self.tags))
        object.__setattr__(self, "comments", tuple(self.comments))
        for name in ("view_count", "like_count", "dislike_count",
                     "channel_subscriber_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"video {self.id!r}: {name} must be >= 0")
        if self.label not in LABELS:
            raise ValueError(
                f"video {self.id!r}: unknown label {self.label!r}; "
                f"expected one of {LABELS}")


@dataclass(frozen=True)
class Dataset:
    name: str
    records: tuple[VideoRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        seen: set[str] = set()
        for rec in self.records:
            if rec.id in seen:
                raise ValueError(f"duplicate video id {rec.id!r}")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[VideoRecord]:
        return iter(self.records)

    def ids(self) -> tuple[str, ...]:
        return tuple(rec.id for rec in self.records)

    def with_label(self, label: str) -> tuple[VideoRecord, ...]:
        return tuple(rec for rec in self.records if rec.label == label)


def _require(obj: Mapping, key: str, kind, where: str):
    if key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    value = obj[key]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{where}: key {key!r} must be an integer")
    elif not isinstance(value, kind):
        raise ValueError(f"{where}: key {key!r} has wrong type")
    return value


def _parse_comment(obj, where: str) -> Comment:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: comment entries must be objects")
    for key in obj:
        if key not in _COMMENT_KEYS:
            logger.warning("%s: ignoring unknown comment key %r", where, key)
    return Comment(
        id=_require(obj, "id", str, where),
        text=_require(obj, "text", str, where),
        like_count=_require(obj, "like_count", int, where),
        reply_count=_require(obj, "reply_count", int, where),
        published_at=_require(obj, "published_at", str, where),
    )


def _parse_record(obj, where: str) -> VideoRecord:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: record must be a JSON object")
    for key in obj:
        if key not in _RECORD_KEYS:
            logger.warning("%s: ignoring unknown key %r", where, key)
    tags = _require(obj, "tags", list, where)
    if not all(isinstance(t, str) for t in tags):
        raise ValueError(f"{where}: tags must be strings")
    comments = _require(obj, "comments", list, where)
    return VideoRecord(
        id=_require(obj, "id", str, where),
        title=_require(obj, "title", str, where),
        description=_require(obj, "description", str, where),
        tags=tuple(tags),
        view_count=_require(obj, "view_count", int, where),
        like_count=_require(obj, "like_count", int, where),
        dislike_count=_require(obj, "dislike_count", int, where),
        channel_subscriber_count=_require(
            obj, "channel_subscriber_count", int, where),
        comments=tuple(_parse_comment(c, where) for c in comments),
        label=_require(obj, "label", str, where),
    )


def load_dataset(path, name: str) -> Dataset:
    """Read a line-delimited JSON dataset file.

    Each non-blank line is one video record; malformed lines raise a
    ValueError naming the line number, duplicate video ids raise a
    ValueError naming the id.
    """
    path = Path(path)
    records: list[VideoRecord] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_utf8(path).splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: invalid JSON ({exc.msg})") from None
        except (ValueError, RecursionError) as exc:  # too many digits or too deep
            raise ValueError(f"{where}: invalid JSON ({exc})") from None
        try:
            record = _parse_record(obj, where)
        except ValueError as exc:
            if str(exc).startswith(where):
                raise
            raise ValueError(f"{where}: {exc}") from None
        if record.id in seen:
            raise ValueError(f"{where}: duplicate video id {record.id!r}")
        seen.add(record.id)
        records.append(record)
    return Dataset(name=name, records=tuple(records))


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset in the same line-delimited JSON schema load_dataset reads."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for rec in dataset.records:
            obj = {
                "id": rec.id,
                "title": rec.title,
                "description": rec.description,
                "tags": list(rec.tags),
                "view_count": rec.view_count,
                "like_count": rec.like_count,
                "dislike_count": rec.dislike_count,
                "channel_subscriber_count": rec.channel_subscriber_count,
                "comments": [
                    {
                        "id": c.id,
                        "text": c.text,
                        "like_count": c.like_count,
                        "reply_count": c.reply_count,
                        "published_at": c.published_at,
                    }
                    for c in rec.comments
                ],
                "label": rec.label,
            }
            fh.write(json.dumps(obj, ensure_ascii=True) + "\n")


def split_dataset(dataset: Dataset, test_fraction: float,
                  seed: int) -> tuple[Dataset, Dataset]:
    """Stratified train/test partition.

    The test set holds round(test_fraction * len(dataset)) records and each
    label class keeps its fake/real ratio to within one record. Every class
    present must have at least 2 records. Deterministic for a fixed seed.
    """
    if not dataset.records:
        raise ValueError("cannot split an empty dataset")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")

    by_class: dict[str, list[int]] = {}
    for idx, rec in enumerate(dataset.records):
        by_class.setdefault(rec.label, []).append(idx)
    for label, idxs in by_class.items():
        if len(idxs) < 2:
            raise ValueError(
                f"class {label!r} has {len(idxs)} record(s); "
                "at least 2 are needed to stratify")

    total_test = int(math.floor(test_fraction * len(dataset.records) + 0.5))
    labels = sorted(by_class)
    ideal = {lab: test_fraction * len(by_class[lab]) for lab in labels}
    counts = {lab: int(math.floor(ideal[lab])) for lab in labels}
    # Largest-remainder rounding keeps every per-class count within one
    # record of the exact proportion while hitting the global test size.
    leftover = total_test - sum(counts.values())
    order = sorted(labels,
                   key=lambda lab: (-(ideal[lab] - counts[lab]),
                                    -len(by_class[lab]), lab))
    for lab in order:
        if leftover <= 0:
            break
        if counts[lab] < len(by_class[lab]):
            counts[lab] += 1
            leftover -= 1
    if leftover > 0:
        raise ValueError("test_fraction leaves no room for a valid split")

    rng = np.random.default_rng(seed)
    test_idx: set[int] = set()
    for lab in labels:
        idxs = by_class[lab]
        perm = rng.permutation(len(idxs))
        test_idx.update(idxs[i] for i in perm[:counts[lab]])

    train_records = tuple(rec for i, rec in enumerate(dataset.records)
                          if i not in test_idx)
    test_records = tuple(rec for i, rec in enumerate(dataset.records)
                         if i in test_idx)
    return (Dataset(f"{dataset.name}-train", train_records),
            Dataset(f"{dataset.name}-test", test_records))


def balance_subset(dataset: Dataset, seed: int) -> Dataset:
    """Equal-sized fake/real subset, sampled without replacement.

    not_sure and unlabeled records are dropped; the output keeps the input
    record order and is deterministic for a fixed seed.
    """
    fake_idx = [i for i, r in enumerate(dataset.records) if r.label == "fake"]
    real_idx = [i for i, r in enumerate(dataset.records) if r.label == "real"]
    if not fake_idx or not real_idx:
        raise ValueError("balance_subset needs at least one fake and one real record")
    size = min(len(fake_idx), len(real_idx))
    rng = np.random.default_rng(seed)
    keep: set[int] = set()
    for idxs in (fake_idx, real_idx):
        perm = rng.permutation(len(idxs))
        keep.update(idxs[i] for i in perm[:size])
    records = tuple(rec for i, rec in enumerate(dataset.records) if i in keep)
    return Dataset(f"{dataset.name}-balanced", records)


def _dislike_like_ratio_unbounded(record: VideoRecord) -> float:
    """Mining-side ratio: zero likes with any dislikes counts as infinite."""
    if record.like_count == 0:
        return math.inf if record.dislike_count > 0 else 0.0
    return record.dislike_count / record.like_count


def mine_candidates(dataset: Dataset,
                    seed_phrases: Sequence[str],
                    min_views: int = 10_000,
                    min_comments: int = 120,
                    min_dislike_like_ratio: float = 0.3,
                    rounds: int = 3,
                    expansion_lexicon: Sequence[str] = ()) -> Dataset:
    """Heuristic candidate mining to boost the share of misleading videos.

    Pipeline: (1) keep only popular videos (view and comment floors);
    (2) bootstrap: repeatedly select videos with a comment containing any
    current phrase (case-insensitive substring after NFC normalization) and
    grow the phrase set with expansion-lexicon phrases found in the selected
    videos' comments; (3) keep videos whose dislike:like ratio exceeds the
    floor, sorted by that ratio, highest first.
    """
    if not seed_phrases:
        raise ValueError("seed_phrases must be non-empty")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if min_views < 0 or min_comments < 0 or min_dislike_like_ratio < 0:
        raise ValueError("thresholds must be >= 0")

    pool = [rec for rec in dataset.records
            if rec.view_count >= min_views and len(rec.comments) >= min_comments]
    comment_texts = {rec.id: [nfc(c.text).casefold() for c in rec.comments]
                     for rec in pool}

    phrases = {nfc(p).casefold() for p in seed_phrases if p}
    expansion = [nfc(p).casefold() for p in expansion_lexicon if p]
    matched: set[str] = set()
    for _ in range(rounds):
        matched = {
            rec.id for rec in pool
            if any(p in text for text in comment_texts[rec.id] for p in phrases)
        }
        for rec in pool:
            if rec.id not in matched:
                continue
            for phrase in expansion:
                if any(phrase in text for text in comment_texts[rec.id]):
                    phrases.add(phrase)

    candidates = [rec for rec in pool
                  if rec.id in matched
                  and _dislike_like_ratio_unbounded(rec) > min_dislike_like_ratio]
    candidates.sort(key=_dislike_like_ratio_unbounded, reverse=True)
    return Dataset(f"{dataset.name}-candidates", tuple(candidates))


def load_annotation_round(path) -> dict[str, str]:
    """Read a `video_id<TAB>label` annotation file into a mapping."""
    path = Path(path)
    round_: dict[str, str] = {}
    for lineno, line in content_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected video_id<TAB>label")
        video_id, label = parts[0].strip(), parts[1].strip()
        if label not in ANNOTATION_LABELS:
            raise ValueError(
                f"{path}: line {lineno}: unknown annotation label {label!r}")
        if video_id in round_:
            raise ValueError(f"{path}: line {lineno}: duplicate video id {video_id!r}")
        round_[video_id] = label
    return round_


def agreement_matrix(round1: Mapping[str, str],
                     round2: Mapping[str, str]) -> np.ndarray:
    """3x3 inter-annotator count matrix over (spam, legitimate, not_sure).

    Cell (i, j) counts videos labeled ANNOTATION_LABELS[i] in round 1 and
    ANNOTATION_LABELS[j] in round 2. Both rounds must cover the same videos.
    """
    keys1, keys2 = set(round1), set(round2)
    if keys1 != keys2:
        diff = sorted(keys1.symmetric_difference(keys2))
        raise ValueError(f"annotation rounds cover different videos: {diff}")
    index = {label: i for i, label in enumerate(ANNOTATION_LABELS)}
    matrix = np.zeros((3, 3), dtype=np.int64)
    for video_id in round1:
        a, b = round1[video_id], round2[video_id]
        if a not in index or b not in index:
            raise ValueError(f"unknown annotation label for video {video_id!r}")
        matrix[index[a], index[b]] += 1
    return matrix
