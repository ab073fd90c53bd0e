"""Classification losses over softmax scores and one-hot targets.

cross_entropy, binary_cross_entropy and focal_loss are three names for one
kernel that records one tape node: -sum t * log(clamp(s, 1e-12, 1)) over
classes and batch, over N for the mean; the clamp keeps a certain-wrong
score's penalty finite. focal_loss (Lin et al. 2017, arXiv:1708.02002)
weights each term by (1 - s)^gamma; gamma = 0 skips that, giving binary
cross-entropy bit for bit. The kernel replays the ufuncs of the Tensor-op
chain clamp, log, mul, [pow, mul,] sum, neg, div in the chain's order, so
its bytes are the chain's, but where s == 1 the (1 - s)^gamma path adds 0
(its limit) where the chain gave NaN for 0 < gamma < 1. Of the chain's
first-gradient writes (x + 0, which turns -0.0 into +0.0) it keeps only the
one before the clamp mask. A zero whose sign another write would fix is
either fixed by that one or added to a gradient that is not -0.0, so
scores.grad keeps the chain's bytes (tests/test_losses.py checks this with
the upstream gradient varied).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import DomainError, ShapeError, Tensor

SCORE_FLOOR = 1e-12

LOSS_KINDS = ("cross_entropy", "binary_cross_entropy", "focal")
REDUCTIONS = ("mean", "sum")


@dataclass
class LossSpec:
    """Which loss to run and how to reduce it over the batch."""

    kind: str = "cross_entropy"
    gamma: float = 2.0
    reduction: str = "mean"

    def validate(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")
        if not abs(self.gamma) <= float(np.finfo(np.float32).max):  # NaN fails too
            raise ConfigError(f"loss gamma must be finite in float32, got {self.gamma}")
        if self.kind == "focal" and self.gamma < 0:
            raise ConfigError(f"focal gamma must be >= 0, got {self.gamma}")
        if self.reduction not in REDUCTIONS:
            raise ConfigError(f"unknown reduction {self.reduction!r}; expected one of {REDUCTIONS}")


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
    if not (sd.min() >= 0 and sd.max() <= 1):  # phrased so that NaN fails
        raise DomainError("loss: scores must lie in [0, 1]")
    if not abs(sd.sum(axis=1) - 1.0).max() <= 1e-5:
        raise DomainError("loss: each scores row must sum to 1 (within 1e-5)")
    if not (((td == 0) | (td == 1)).all() and (td.sum(axis=1) == 1).all()):
        raise DomainError("loss: targets must be one-hot rows")
    if targets.dtype != scores.dtype:
        raise TypeError(f"loss: mixed dtypes {scores.dtype.name} vs {targets.dtype.name}")


def _loss(scores: Tensor, targets: Tensor, reduction: str, gamma: float = 0.0, want_binary: bool = True) -> Tensor:
    """-sum t * log(clamp(s)) [* (1 - s)^gamma], divided by N for "mean", as one tape node."""
    _check_batch(scores, targets, want_binary)
    n, dt, a, t = scores.shape[0], scores.dtype.type, scores.data, targets.data
    c = np.clip(a, dt(SCORE_FLOOR), dt(1.0))
    logs = np.log(c)
    w = tlog = t * logs
    if gamma != 0:
        om = dt(1.0) - a
        pw = om ** dt(gamma)
        w = pw * tlog
    total = -w.sum()
    out = total / dt(n) if reduction == "mean" else total

    def backward(g):
        g = -(g / dt(n)) if reduction == "mean" else -g
        if gamma != 0:
            gp, g = g * tlog, g * pw
        gc = g * t / c + 0  # + 0 turns -0.0 into +0.0, as the chain's first gradient write did
        scores.accumulate_grad(gc * ((a >= SCORE_FLOOR) & (a <= 1.0)))  # clamp path first
        if gamma != 0:
            with np.errstate(divide="ignore"):  # 0 ** (gamma - 1) for gamma < 1, zeroed next
                dpow = om ** dt(gamma - 1.0)
            dpow[om == 0] = 0
            scores.accumulate_grad(-(gp * dt(gamma) * dpow))

    return Tensor.from_op(out, (scores,), backward)


def cross_entropy(scores: Tensor, targets: Tensor, reduction: str = "mean") -> Tensor:
    """-sum_i t_i log(s_i) per sample, reduced over the batch; any class count >= 2."""
    return _loss(scores, targets, reduction, want_binary=False)


def binary_cross_entropy(scores: Tensor, targets: Tensor, reduction: str = "mean") -> Tensor:
    """Two-class cross-entropy: with one-hot rows, -t log(s) - (1 - t) log(1 - s)."""
    return _loss(scores, targets, reduction)


def focal_loss(scores: Tensor, targets: Tensor, gamma: float = 2.0, reduction: str = "mean") -> Tensor:
    """Cross-entropy with each term down-weighted by (1 - s)^gamma, to favour hard samples."""
    if not gamma >= 0:
        raise ValueError(f"focal gamma must be >= 0, got {gamma}")
    return _loss(scores, targets, reduction, gamma)


def make_loss(spec: LossSpec):
    """Bind a LossSpec into loss_fn(scores, targets), which looks the loss up by name per call."""
    spec.validate()
    if spec.kind == "cross_entropy":
        return lambda s, t: cross_entropy(s, t, reduction=spec.reduction)
    if spec.kind == "binary_cross_entropy":
        return lambda s, t: binary_cross_entropy(s, t, reduction=spec.reduction)
    return lambda s, t: focal_loss(s, t, gamma=spec.gamma, reduction=spec.reduction)
