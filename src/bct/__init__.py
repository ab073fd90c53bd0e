"""bct: a small, fully deterministic CNN training toolkit.

Reverse-mode autodiff over numpy arrays, convolutional layers, classification
losses, three optimizers, staged transfer-learning schedules, and a CLI for
running reproducible experiments on binary building-image datasets.
"""

from .tensor import Tensor, no_grad, ShapeError, DomainError
from .rng import Rng, derive
from .layers import (
    Conv2d,
    MaxPool2d,
    Flatten,
    Dense,
    Activation,
    Model,
    sigmoid,
    relu,
    softmax,
    build_cnn,
    build_backbone,
)
from .losses import LossSpec, cross_entropy, binary_cross_entropy, focal_loss, make_loss
from .optim import OptimizerConfig, Optimizer
from .metrics import ConfusionCounts, MetricReport, accumulate, compute_metrics
from .checkpoint import save_checkpoint, read_checkpoint, load_subset, CheckpointError

__version__ = "0.1.0"
