"""Fake/real readout, confusion counts, macro precision/recall/F1 and 2-D PCA.

Macro averages are unweighted means of the two per-class values, and F1 is
averaged per class (not recomputed from mean P and R). Zero-denominator
precision/recall are defined as 0.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .corpus import csv_number, read_csv, write_csv

EVAL_LABELS = ("fake", "real")
REPORT_HEADER = ("class", "precision", "recall", "f1", "support")


def classify(p_fake: float) -> str:
    """The label for a probability of fake, for the network and the classic
    models alike; the 0.5 tie goes to fake (conservative flagging)."""
    return "fake" if p_fake >= 0.5 else "real"


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary counts with fake as the positive class."""

    tp: int
    fp: int
    fn: int
    tn: int

    @classmethod
    def from_labels(cls, y_true: Sequence[str],
                    y_pred: Sequence[str]) -> "ConfusionMatrix":
        _validate_labels(y_true, y_pred)
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == "fake" and p == "fake")
        fp = sum(1 for t, p in zip(y_true, y_pred) if t == "real" and p == "fake")
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == "fake" and p == "real")
        tn = sum(1 for t, p in zip(y_true, y_pred) if t == "real" and p == "real")
        return cls(tp=tp, fp=fp, fn=fn, tn=tn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvaluationReport:
    fake: ClassMetrics
    real: ClassMetrics
    macro_precision: float
    macro_recall: float
    macro_f1: float

    @property
    def total_support(self) -> int:
        return self.fake.support + self.real.support

    def per_class(self, label: str) -> ClassMetrics:
        if label == "fake":
            return self.fake
        if label == "real":
            return self.real
        raise ValueError(f"unknown class {label!r}")


def _validate_labels(y_true, y_pred) -> None:
    if len(y_true) != len(y_pred):
        raise ValueError(
            f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted")
    if len(y_true) == 0:
        raise ValueError("cannot evaluate zero predictions")
    for value in list(y_true) + list(y_pred):
        if value not in EVAL_LABELS:
            raise ValueError(f"unknown label {value!r}; expected fake or real")


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def evaluate(y_true: Sequence[str], y_pred: Sequence[str]) -> EvaluationReport:
    """Per-class and macro-averaged precision/recall/F1 over fake and real."""
    cm = ConfusionMatrix.from_labels(y_true, y_pred)
    fake_p, fake_r, fake_f = _prf(cm.tp, cm.fp, cm.fn)
    real_p, real_r, real_f = _prf(cm.tn, cm.fn, cm.fp)
    fake = ClassMetrics(fake_p, fake_r, fake_f, cm.tp + cm.fn)
    real = ClassMetrics(real_p, real_r, real_f, cm.tn + cm.fp)
    return EvaluationReport(
        fake=fake, real=real,
        macro_precision=(fake_p + real_p) / 2.0,
        macro_recall=(fake_r + real_r) / 2.0,
        macro_f1=(fake_f + real_f) / 2.0,
    )


def pca_project(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Project rows onto the top-k principal axes.

    Columns are centered, the sample covariance (divisor n-1) is
    eigendecomposed, and eigenvalues come back in non-increasing order. The
    sign convention makes each axis's largest-magnitude component positive
    so projections are byte-stable across runs.

    The whole matrix is first divided by one power of two (one for all
    columns, as PCA is not scale-free per column), exactly, so that the
    covariance's sums of squares stay finite; it is 1 unless the largest
    magnitude nears 2**500, and the results are scaled back. When it is
    not 1, the columns are centred twice. A projection or variance beyond
    the float64 range raises ``OverflowError``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("PCA needs a 2-d matrix with at least 2 rows")
    n, d = X.shape
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    if not np.isfinite(X).all():
        raise ValueError("PCA needs finite values")
    # Centered values stay below 2**(exponent + 1), so the n squares a
    # covariance entry sums stay below 2**1022.
    exponent = int(np.frexp(np.abs(X).max())[1])
    shift = max(exponent - (1020 - n.bit_length()) // 2, 0)
    X = np.ldexp(X, -shift)
    centered = X - X.mean(axis=0)
    if shift:
        # A scaled column's mean can be off by an ulp of values near 2**500,
        # a residue whose square overflows once scaled back; a second pass
        # removes it (a constant column centres to zeros).
        centered -= centered.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:k]
    values = eigenvalues[order]
    vectors = eigenvectors[:, order]
    for col in range(vectors.shape[1]):
        pivot = int(np.argmax(np.abs(vectors[:, col])))
        if vectors[pivot, col] < 0:
            vectors[:, col] = -vectors[:, col]
    with np.errstate(over="ignore"):
        projected = np.ldexp(centered @ vectors, shift)
        values = np.ldexp(values, 2 * shift)
    if not (np.isfinite(projected).all() and np.isfinite(values).all()):
        raise OverflowError("a principal component's projection or variance "
                            "exceeds the float64 range")
    return projected, values


def export_report(obj, path, video_ids: Sequence[str] | None = None,
                  labels: Sequence[str] | None = None) -> None:
    """Write an EvaluationReport or a projection matrix as deterministic CSV.

    Reports become `class,precision,recall,f1,support` rows followed by the
    macro row; projections become `video_id,pc1,...,label` rows and then
    need video_ids and labels.
    """
    if isinstance(obj, EvaluationReport):
        rows = [[label, *astuple(obj.per_class(label))]
                for label in EVAL_LABELS]
        rows.append(["macro", obj.macro_precision, obj.macro_recall,
                     obj.macro_f1, obj.total_support])
        write_csv(path, REPORT_HEADER, rows)
        return
    projection = np.asarray(obj, dtype=np.float64)
    if projection.ndim != 2:
        raise ValueError("projection must be a 2-d matrix")
    if video_ids is None or labels is None:
        raise ValueError("projection export needs video_ids and labels")
    if not len(video_ids) == len(labels) == projection.shape[0]:
        raise ValueError("projection rows, video_ids and labels must align")
    header = ["video_id", *(f"pc{i + 1}" for i in range(projection.shape[1])),
              "label"]
    write_csv(path, header, ([vid, *row, label] for vid, row, label
                             in zip(video_ids, projection, labels)))


def read_report(path) -> EvaluationReport:
    """Parse a report CSV written by export_report. A file that is not one,
    or whose values no evaluation gives, raises ``ValueError`` naming it
    and, for a bad row, the line: a precision, recall or F1 outside [0, 1],
    a negative support, or a macro row that is not the class rows' mean
    (exactly, as ``.17g`` round-trips) with their summed support."""
    rows: dict[str, tuple[str, tuple[float, float, float, int]]] = {}
    for where, row in read_csv(path, REPORT_HEADER):
        values = tuple(
            csv_number(where, name, text, kind) for name, text, kind
            in zip(REPORT_HEADER[1:], row[1:], (float, float, float, int)))
        for name, value in zip(REPORT_HEADER[1:4], values):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{where}: {name} {value!r} is outside [0, 1]")
        if values[3] < 0:
            raise ValueError(f"{where}: support {values[3]} is negative")
        rows[row[0]] = where, values
    for label in (*EVAL_LABELS, "macro"):
        if label not in rows:
            raise ValueError(f"{path}: no {label!r} row")
    (_, fake), (_, real) = rows["fake"], rows["real"]
    where, macro = rows["macro"]
    for name, f, r, m in zip(REPORT_HEADER[1:4], fake, real, macro):
        if m != (f + r) / 2.0:
            raise ValueError(f"{where}: macro {name} {m!r} is not the mean "
                             f"of the class rows, {(f + r) / 2.0!r}")
    if macro[3] != fake[3] + real[3]:
        raise ValueError(f"{where}: macro support {macro[3]} is not the sum "
                         f"of the class supports, {fake[3] + real[3]}")
    return EvaluationReport(fake=ClassMetrics(*fake), real=ClassMetrics(*real),
                            macro_precision=macro[0], macro_recall=macro[1],
                            macro_f1=macro[2])
