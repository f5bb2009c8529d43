"""Video/comment data model plus dataset mining, splitting and agreement stats.

Records are ingested from line-delimited JSON files (one video per line);
there is no network crawling anywhere in this package. All container types
are immutable after construction and safe to share across workers.

The JSON schema of a line is declared once, in ``_RECORD_KEYS`` and
``_COMMENT_KEYS``: each key of a video and of a comment, with its JSON kind,
in the order ``save_dataset`` writes them. ``load_dataset`` checks and
reads a line, and ``save_dataset`` writes one, from those two tables; the
keys are the ``init`` fields of ``VideoRecord`` and ``Comment``.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import logging
import math
import re
import unicodedata
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

LABELS = ("fake", "real", "not_sure", "unlabeled")
ANNOTATION_LABELS = ("spam", "legitimate", "not_sure")
# Key -> JSON kind of a video record and of a comment, in the written order.
_RECORD_KEYS = {
    "id": str, "title": str, "description": str, "tags": list,
    "view_count": int, "like_count": int, "dislike_count": int,
    "channel_subscriber_count": int, "comments": list, "label": str,
}
_COMMENT_KEYS = {"id": str, "text": str, "like_count": int,
                 "reply_count": int, "published_at": str}


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


def read_csv(path, *headers: Sequence[str]) -> Iterator[tuple[str, list[str]]]:
    """("<path>: line N", fields) of each row of a UTF-8 CSV file whose
    first row is one of ``headers``. Every row has its header's field count
    and a first field no earlier row has; any other file raises a
    ValueError naming it and, past the header, the line."""
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    seen: set[str] = set()
    try:
        header = next(reader, None)
        if header not in [list(h) for h in headers]:
            expected = " or ".join(",".join(h) for h in headers)
            raise ValueError(f"{path}: expected the header {expected}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: expected {len(header)} fields, "
                                 f"got {len(row)}")
            if row[0] in seen:
                raise ValueError(f"{where}: duplicate {header[0]} "
                                 f"{row[0][:40]!r}")
            seen.add(row[0])
            yield where, row
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def csv_number(where: str, column: str, text: str, kind=float):
    """``text`` as a finite ``kind`` (float or int); anything else raises a
    ValueError that starts with ``where`` and names ``column``."""
    try:
        value = kind(text)
        if math.isfinite(value):  # an int beyond the float range overflows
            return value
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"{where}: {column} {text[:40]!r} is not a finite "
                     f"{kind.__name__}")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 CSV file with ``\\n`` line endings: the header, then
    the rows. A float is written to 17 significant digits (``.17g``), which
    read back to the same value."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v
                          for v in row] for row in rows)


def fake_indicators(labels: Sequence[str], context: str) -> np.ndarray:
    """1 for each "fake" label and 0 for each "real" one; any other label
    raises a ValueError that starts with ``context``."""
    bad = sorted(set(labels) - {"fake", "real"})
    if bad:
        raise ValueError(f"{context}: labels must be fake/real, got {bad[:5]}")
    return np.array([label == "fake" for label in labels], dtype=np.int64)


_TIMESTAMP = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(?:\.(\d{1,6}))?"
                        r"(?:Z|([+-])\d{2}:[0-5]\d)?", re.ASCII)


def parse_timestamp(text: str) -> datetime:
    """The instant an ISO-8601 ``YYYY-MM-DDTHH:MM:SS[.ffffff]`` stamp names,
    as an aware datetime: a ``Z`` or ``+hh:mm``/``-hh:mm`` suffix gives the
    offset from UTC, and a stamp without one is read as UTC. Anything else
    raises a ValueError."""
    match = _TIMESTAMP.fullmatch(text)
    if match:
        # The one form datetime.fromisoformat reads on every supported
        # Python: six fraction digits, an explicit +hh:mm or -hh:mm offset.
        fraction, sign = match.groups()
        stamp = text[:19] + ("." + fraction.ljust(6, "0") if fraction else "")
        try:
            return datetime.fromisoformat(
                stamp + (text[-6:] if sign else "+00:00"))
        except ValueError:  # no such day or time, or an offset of 24 h+
            pass
    raise ValueError(f"published_at {text!r} is not an ISO-8601 timestamp "
                     f"(YYYY-MM-DDTHH:MM:SS[.ffffff][Z|+hh:mm|-hh:mm])")


def nfc(text: str) -> str:
    """Unicode NFC normalization used before any phrase matching."""
    return unicodedata.normalize("NFC", text)


def fold(text: str) -> str:
    """The form phrase matching compares: NFC, then case-folded."""
    return nfc(text).casefold()


@functools.lru_cache(maxsize=8)
def _folded(phrases: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(fold(p) for p in phrases)


def phrase_hits(folded_text: str, phrases: Sequence[str]) -> list[bool]:
    """The package's phrase rule: entry i is true when phrase i, folded, is a
    substring of ``folded_text``, a :func:`fold` result. The phrases are
    folded once per distinct list, cached by its tuple."""
    return [p in folded_text for p in _folded(tuple(phrases))]


@dataclass(frozen=True)
class Comment:
    """One comment; ``instant`` is ``published_at`` parsed by
    :func:`parse_timestamp`, so a comment with a malformed stamp cannot be
    built."""

    id: str
    text: str
    like_count: int
    reply_count: int
    published_at: str
    instant: datetime = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "instant",
                               parse_timestamp(self.published_at))
        except ValueError as exc:
            raise ValueError(f"comment {self.id!r}: {exc}") from None
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


def _fields(obj, keys: Mapping[str, type], where: str, key_name: str,
            not_object: str) -> dict:
    """The values of ``keys`` in a JSON object, each checked for its kind;
    any other key is ignored with a warning."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: {not_object}")
    for key in obj:
        if key not in keys:
            logger.warning("%s: ignoring unknown %s %r", where, key_name, key)
    return {key: _require(obj, key, kind, where) for key, kind in keys.items()}


def _parse_record(obj, where: str) -> VideoRecord:
    values = _fields(obj, _RECORD_KEYS, where, "key",
                     "record must be a JSON object")
    if not all(isinstance(t, str) for t in values["tags"]):
        raise ValueError(f"{where}: tags must be strings")
    values["comments"] = [
        Comment(**_fields(c, _COMMENT_KEYS, where, "comment key",
                          "comment entries must be objects"))
        for c in values["comments"]]
    return VideoRecord(**values)


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
            # json writes the tags tuple as a list; comments become objects.
            obj = {key: getattr(rec, key) for key in _RECORD_KEYS}
            obj["comments"] = [{key: getattr(c, key) for key in _COMMENT_KEYS}
                               for c in rec.comments]
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
    """Mining-side ratio: zero likes with any dislikes, or a quotient beyond
    the float range, counts as infinite; ``lexical.dislike_like_ratio``
    caps it for the features."""
    if record.like_count == 0:
        return math.inf if record.dislike_count > 0 else 0.0
    try:
        return record.dislike_count / record.like_count
    except OverflowError:
        return math.inf


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
    current phrase (by :func:`phrase_hits`, the package's phrase rule) and
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
    if not math.isfinite(min_dislike_like_ratio):
        raise ValueError(f"min_dislike_like_ratio must be finite, got "
                         f"{min_dislike_like_ratio}")

    pool = [rec for rec in dataset.records
            if rec.view_count >= min_views and len(rec.comments) >= min_comments]
    seeds = tuple(p for p in seed_phrases if p)
    phrases = seeds + tuple(p for p in expansion_lexicon if p)
    # Each video's phrase indices, from one fold and match of each comment.
    found = {}
    for rec in pool:
        hits = map(any, zip(*(phrase_hits(fold(c.text), phrases)
                              for c in rec.comments)))
        found[rec.id] = {i for i, hit in enumerate(hits) if hit}
    active = set(range(len(seeds)))
    for _ in range(rounds):
        matched = {vid for vid, hits in found.items() if hits & active}
        for vid in matched:
            active |= found[vid]

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
