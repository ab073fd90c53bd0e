"""Classification losses over softmax scores and one-hot targets.

All three losses share one summation skeleton: elementwise t * log(s) summed
over classes, negated, then reduced over the batch. Scores are clamped to
[1e-12, 1] before the log so certain-wrong predictions yield a large finite
penalty instead of an overflow. The focal loss weights each term by
(1 - s)^gamma using the raw scores; gamma = 0 skips the weighting entirely
and therefore computes bit-for-bit the same value and gradient as binary
cross-entropy.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import DomainError, ShapeError, Tensor

SCORE_FLOOR = 1e-12

_KINDS = ("cross_entropy", "binary_cross_entropy", "focal")
_REDUCTIONS = ("mean", "sum")


@dataclass
class LossSpec:
    """Which loss to run and how to reduce it over the batch."""

    kind: str = "cross_entropy"
    gamma: float = 2.0
    reduction: str = "mean"

    def validate(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "focal" and not self.gamma >= 0:
            raise ValueError(f"focal gamma must be >= 0, got {self.gamma}")
        if self.reduction not in _REDUCTIONS:
            raise ValueError(f"unknown reduction {self.reduction!r}; expected one of {_REDUCTIONS}")


def _check_batch(scores: Tensor, targets: Tensor, want_binary: bool) -> None:
    if scores.ndim != 2 or targets.ndim != 2:
        raise ShapeError(f"loss: expected (N, C) tensors, got {scores.shape} and {targets.shape}")
    if scores.shape != targets.shape:
        raise ShapeError(f"loss: scores {scores.shape} vs targets {targets.shape}")
    n, c = scores.shape
    if n < 1 or c < 2:
        raise ShapeError(f"loss: need N >= 1 and C >= 2, got {scores.shape}")
    if want_binary and c != 2:
        raise ShapeError(f"loss: binary form needs exactly 2 classes, got {c}")
    sd, td = scores.data, targets.data
    if not (np.all(sd >= 0) and np.all(sd <= 1)):  # phrased so that NaN fails
        raise DomainError("loss: scores must lie in [0, 1]")
    if not np.abs(sd.sum(axis=1) - 1.0).max() <= 1e-5:
        raise DomainError("loss: each scores row must sum to 1 (within 1e-5)")
    if not (np.all((td == 0) | (td == 1)) and np.all(td.sum(axis=1) == 1)):
        raise DomainError("loss: targets must be one-hot rows")


def _reduce(total: Tensor, n: int, reduction: str) -> Tensor:
    if reduction == "mean":
        return total / float(n)
    return total


def cross_entropy(scores: Tensor, targets: Tensor, reduction: str = "mean") -> Tensor:
    """-sum_i t_i log(s_i) per sample, reduced over the batch."""
    _check_batch(scores, targets, want_binary=False)
    logs = scores.clamp(SCORE_FLOOR, 1.0).log()
    total = -((targets * logs).sum())
    return _reduce(total, scores.shape[0], reduction)


def binary_cross_entropy(scores: Tensor, targets: Tensor, reduction: str = "mean") -> Tensor:
    """Two-class cross-entropy, summed over both class columns.

    With one-hot targets this equals -t log(s) - (1 - t) log(1 - s) written
    in terms of the positive-class column, since the columns are complements.
    """
    _check_batch(scores, targets, want_binary=True)
    logs = scores.clamp(SCORE_FLOOR, 1.0).log()
    total = -((targets * logs).sum())
    return _reduce(total, scores.shape[0], reduction)


def focal_loss(scores: Tensor, targets: Tensor, gamma: float = 2.0, reduction: str = "mean") -> Tensor:
    """Cross-entropy with each term down-weighted by (1 - s)^gamma.

    Well-classified samples (s near 1) contribute vanishingly, which shifts
    training pressure onto hard or minority samples. gamma = 0 is exactly
    binary cross-entropy: the weighting is skipped, not multiplied by 1, so
    the computation graph is identical.
    """
    if not gamma >= 0:
        raise ValueError(f"focal gamma must be >= 0, got {gamma}")
    _check_batch(scores, targets, want_binary=True)
    logs = scores.clamp(SCORE_FLOOR, 1.0).log()
    weighted = targets * logs
    if gamma != 0:
        weighted = (1.0 - scores) ** gamma * weighted
    total = -(weighted.sum())
    return _reduce(total, scores.shape[0], reduction)


def make_loss(spec: LossSpec):
    """Bind a LossSpec into a loss_fn(scores, targets) -> scalar Tensor."""
    spec.validate()
    if spec.kind == "cross_entropy":
        return lambda s, t: cross_entropy(s, t, reduction=spec.reduction)
    if spec.kind == "binary_cross_entropy":
        return lambda s, t: binary_cross_entropy(s, t, reduction=spec.reduction)
    return lambda s, t: focal_loss(s, t, gamma=spec.gamma, reduction=spec.reduction)
