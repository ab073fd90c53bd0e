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

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total


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

    def ratio(name: str, num, den) -> float:
        if den > 0:
            return num / den
        degenerate.append(name)
        return 0.0

    recall = ratio("recall", counts.tp, counts.tp + counts.fn)
    precision = ratio("precision", counts.tp, counts.tp + counts.fp)
    f1 = ratio("f1", 2.0 * precision * recall, precision + recall)

    return MetricReport(
        recall=recall,
        precision=precision,
        f1=f1,
        accuracy=counts.accuracy,
        epochs_to_converge=epochs_to_converge,
        degenerate=tuple(degenerate),
    )
