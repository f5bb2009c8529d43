"""Fake/real readout, confusion counts, macro precision/recall/F1 and 2-D PCA.

Macro averages are unweighted means of the two per-class values, and F1 is
averaged per class (not recomputed from mean P and R). Zero-denominator
precision/recall are defined as 0.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import read_utf8

EVAL_LABELS = ("fake", "real")


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
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("PCA needs a 2-d matrix with at least 2 rows")
    n, d = X.shape
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:k]
    values = eigenvalues[order]
    vectors = eigenvectors[:, order]
    for col in range(vectors.shape[1]):
        pivot = int(np.argmax(np.abs(vectors[:, col])))
        if vectors[pivot, col] < 0:
            vectors[:, col] = -vectors[:, col]
    return centered @ vectors, values


def export_report(obj, path, video_ids: Sequence[str] | None = None,
                  labels: Sequence[str] | None = None) -> None:
    """Write an EvaluationReport or a projection matrix as deterministic CSV.

    Reports become `class,precision,recall,f1,support` rows followed by the
    macro row; projections become `video_id,pc1,...,label` rows and then
    need video_ids and labels.
    """
    path = Path(path)
    if isinstance(obj, EvaluationReport):
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["class", "precision", "recall", "f1", "support"])
            for label in EVAL_LABELS:
                m = obj.per_class(label)
                writer.writerow([label, f"{m.precision:.17g}", f"{m.recall:.17g}",
                                 f"{m.f1:.17g}", m.support])
            writer.writerow(["macro", f"{obj.macro_precision:.17g}",
                             f"{obj.macro_recall:.17g}", f"{obj.macro_f1:.17g}",
                             obj.total_support])
        return
    projection = np.asarray(obj, dtype=np.float64)
    if projection.ndim != 2:
        raise ValueError("projection must be a 2-d matrix")
    if video_ids is None or labels is None:
        raise ValueError("projection export needs video_ids and labels")
    if not len(video_ids) == len(labels) == projection.shape[0]:
        raise ValueError("projection rows, video_ids and labels must align")
    k = projection.shape[1]
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["video_id"] + [f"pc{i + 1}" for i in range(k)] + ["label"])
        for vid, row, label in zip(video_ids, projection, labels):
            writer.writerow([vid] + [f"{v:.17g}" for v in row] + [label])


def read_report(path) -> EvaluationReport:
    """Parse a report CSV written by export_report. A file that is not one
    raises ``ValueError`` naming it and, for a bad row, the line."""
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty report")
    if header != ["class", "precision", "recall", "f1", "support"]:
        raise ValueError(f"{path}: unexpected report header {header}")
    rows: dict[str, tuple[float, float, float, int]] = {}
    for row in reader:
        where = f"{path}: line {reader.line_num}"
        if len(row) != 5:
            raise ValueError(f"{where}: expected 5 fields, got {len(row)}")
        try:
            rows[row[0]] = (float(row[1]), float(row[2]), float(row[3]),
                            int(row[4]))
        except ValueError:
            raise ValueError(f"{where}: non-numeric cell in {row}") from None
    for label in (*EVAL_LABELS, "macro"):
        if label not in rows:
            raise ValueError(f"{path}: no {label!r} row")
    metrics = {label: ClassMetrics(*rows[label]) for label in EVAL_LABELS}
    macro = rows["macro"]
    return EvaluationReport(fake=metrics["fake"], real=metrics["real"],
                            macro_precision=macro[0], macro_recall=macro[1],
                            macro_f1=macro[2])
