"""Binary confusion counts and the derived classification metrics.

Class 1 is the positive class throughout. Zero-denominator metrics are
reported as 0.0 and flagged by name in MetricReport.degenerate rather than
raising, so callers can render honest tables for degenerate predictors.
"""

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class MetricReport:
    recall: float
    precision: float
    f1: float
    accuracy: float
    epochs_to_converge: int | None = None
    degenerate: tuple = ()


_CELLS = ("tn", "fp", "fn", "tp")  # the count a (predicted, actual) pair adds to, at 2 * actual + predicted


def accumulate(counts: ConfusionCounts, predicted: int, actual: int) -> ConfusionCounts:
    """Fold one (predicted, actual) pair into the counts; classes are 0/1."""
    if predicted not in (0, 1) or actual not in (0, 1):
        raise ValueError(f"class labels must be 0 or 1, got predicted={predicted} actual={actual}")
    cell = _CELLS[2 * int(actual) + int(predicted)]
    return replace(counts, **{cell: getattr(counts, cell) + 1})


def count_batch(counts: ConfusionCounts, predicted, actual) -> ConfusionCounts:
    """Accumulate aligned sequences of predictions and labels, each label cast by int()."""
    if len(predicted) != len(actual):
        raise ValueError(f"prediction/label length mismatch: {len(predicted)} vs {len(actual)}")
    p, a = np.asarray(predicted).astype(np.int64), np.asarray(actual).astype(np.int64)
    for i in np.flatnonzero((p < 0) | (p > 1) | (a < 0) | (a > 1))[:1]:
        accumulate(counts, predicted[i], actual[i])  # raises, naming the first bad pair
    added = np.bincount(2 * a + p, minlength=4)
    return replace(counts, **{cell: getattr(counts, cell) + int(k) for cell, k in zip(_CELLS, added)})


def compute_metrics(counts: ConfusionCounts, epochs_to_converge: int | None = None) -> MetricReport:
    """Recall, precision, F1, accuracy from the counts.

    recall    = TP / (TP + FN)
    precision = TP / (TP + FP)
    f1        = 2 * precision * recall / (precision + recall)
    accuracy  = (TP + TN) / total
    """
    if counts.total <= 0:
        raise ValueError("metrics need at least one counted sample")
    degenerate = []

    if counts.tp + counts.fn > 0:
        recall = counts.tp / (counts.tp + counts.fn)
    else:
        recall = 0.0
        degenerate.append("recall")
    if counts.tp + counts.fp > 0:
        precision = counts.tp / (counts.tp + counts.fp)
    else:
        precision = 0.0
        degenerate.append("precision")
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
        degenerate.append("f1")
    accuracy = (counts.tp + counts.tn) / counts.total

    return MetricReport(
        recall=recall,
        precision=precision,
        f1=f1,
        accuracy=accuracy,
        epochs_to_converge=epochs_to_converge,
        degenerate=tuple(degenerate),
    )
