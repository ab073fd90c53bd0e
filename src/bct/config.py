"""Run configuration: the dataclasses, the flat key=value file format, and
command-line overrides.

Config files are plain text, one `key = value` per line, full-line comments
starting with '#'. Keys use dotted section prefixes (data., model., loss.,
optim., paradigm., train.). Every key has a typed registry entry; unknown
keys fail with a nearest-name suggestion, duplicates fail citing both lines,
and bad values fail naming the expected type. Validation runs before any
work starts.
"""

import difflib
import math
from dataclasses import dataclass, field
from pathlib import Path

from .data import DatasetManifest, ensure_manifest
from .errors import ConfigError
from .losses import LOSS_KINDS, REDUCTIONS, LossSpec
from .optim import OPTIMIZER_KINDS, OptimizerConfig
from .staging import PARADIGMS

MODEL_KINDS = ("cnn", "backbone")


@dataclass
class ModelConfig:
    kind: str = "cnn"  # one of MODEL_KINDS
    channels: tuple = (8, 16, 32)
    dense_width: int = 64
    kernel_size: int = 3
    pool_size: int = 2

    def validate(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"model.kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if not self.channels or any(c < 1 for c in self.channels):
            raise ConfigError(f"model.channels must be positive ints, got {self.channels}")
        for name in ("dense_width", "kernel_size", "pool_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1")


@dataclass
class TrainConfig:
    """Everything a training run needs; see the key registry for file names."""

    data_root: str | None = None
    image_size: int = 64
    ratios: tuple = (0.8, 0.1, 0.1)
    data_seed: int | None = None  # explicit: force this split seed; None: pinned manifest wins, run seed if absent
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossSpec = field(default_factory=LossSpec)
    optim: OptimizerConfig = field(default_factory=OptimizerConfig)
    paradigm: str = "baseline"
    pretrain_checkpoint: str | None = None
    source_root: str | None = None  # paradigm ablations pretrain from here
    batch_size: int = 16
    max_epochs: int = 200
    acc_threshold: float = 0.99
    loss_threshold: float = 0.001
    seed: int = 0
    out_dir: str | None = None

    def validate(self, pretrain_pending: bool = False) -> None:
        """Reject bad values before any work starts. pretrain_pending skips the
        check that paradigm.pretrain_checkpoint exists, for a suite arm whose
        checkpoint an earlier job of the suite writes."""
        self.model.validate()
        try:
            self.loss.validate()
            self.optim.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        if self.paradigm not in PARADIGMS:
            raise ConfigError(f"paradigm.kind must be one of {tuple(PARADIGMS)}, got {self.paradigm!r}")
        if self.paradigm != "baseline":
            if self.model.kind != "backbone":
                raise ConfigError(f"paradigm {self.paradigm} needs model.kind = backbone")
            if not self.pretrain_checkpoint:
                raise ConfigError(f"paradigm {self.paradigm} needs paradigm.pretrain_checkpoint")
            if not pretrain_pending and not Path(self.pretrain_checkpoint).is_file():
                raise ConfigError(f"paradigm.pretrain_checkpoint {self.pretrain_checkpoint} is not a file")
        elif self.pretrain_checkpoint:
            raise ConfigError("paradigm baseline does not take a pretrain checkpoint")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"train.max_epochs must be >= 1, got {self.max_epochs}")
        if not 0 < self.acc_threshold <= 1:
            raise ConfigError(f"train.acc_threshold must be in (0, 1], got {self.acc_threshold}")
        if not 0 < self.loss_threshold < math.inf:
            raise ConfigError(f"train.loss_threshold must be finite and > 0, got {self.loss_threshold}")
        if self.image_size < 2:
            raise ConfigError(f"data.image_size must be >= 2, got {self.image_size}")
        r = self.ratios  # the comparisons are written so that NaN fails them
        if len(r) != 3 or not all(x >= 0 for x in r) or not abs(sum(r) - 1) <= 1e-9:
            raise ConfigError(f"data.ratios must be three non-negative values summing to 1, got {self.ratios}")
        if self.out_dir:
            check_out_dir(self.out_dir, "train.out_dir")

    def split_seed(self) -> int:
        return self.seed if self.data_seed is None else self.data_seed

    def manifest(self, root=None) -> DatasetManifest:
        """The pinned split of root (default data.root) for this config; see ensure_manifest."""
        return ensure_manifest(root or self.data_root, self.image_size, tuple(self.ratios), self.split_seed(),
                               resplit=self.data_seed is not None)


def check_out_dir(path, name: str) -> None:
    """Reject a directory that mkdir would fail to create after the work: its nearest existing path is not a directory."""
    out = Path(path)
    nearest = next((p for p in (out, *out.parents) if p.exists()), None)
    if nearest is not None and not nearest.is_dir():
        raise ConfigError(f"{name} {out}: {nearest} exists and is not a directory")


# ---------------------------------------------------------------- registry

def _parse_int(s):
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}") from None


def _parse_float(s):
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}") from None


def _parse_int_list(s):
    try:
        return tuple(int(x.strip()) for x in s.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {s!r}") from None


def _parse_ratios(s):
    try:
        parts = tuple(float(x.strip()) for x in s.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {s!r}") from None
    if len(parts) != 3:
        raise ConfigError(f"expected three ratios, got {len(parts)} in {s!r}")
    return parts


def _choice(*options):
    def parse(s):
        if s not in options:
            raise ConfigError(f"expected one of {options}, got {s!r}")
        return s

    return parse


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


# key -> (parser, getter path "attr" or "sub.attr", default-source)
_REGISTRY: dict[str, tuple] = {
    "data.root": (str, "data_root"),
    "data.image_size": (_parse_int, "image_size"),
    "data.ratios": (_parse_ratios, "ratios"),
    "data.seed": (_parse_int, "data_seed"),
    "model.kind": (_choice(*MODEL_KINDS), "model.kind"),
    "model.channels": (_parse_int_list, "model.channels"),
    "model.dense_width": (_parse_int, "model.dense_width"),
    "model.kernel_size": (_parse_int, "model.kernel_size"),
    "model.pool_size": (_parse_int, "model.pool_size"),
    "loss.kind": (_choice(*LOSS_KINDS), "loss.kind"),
    "loss.gamma": (_parse_float, "loss.gamma"),
    "loss.reduction": (_choice(*REDUCTIONS), "loss.reduction"),
    "optim.kind": (_choice(*OPTIMIZER_KINDS), "optim.kind"),
    "optim.learning_rate": (_parse_float, "optim.learning_rate"),
    "optim.momentum": (_parse_float, "optim.momentum"),
    "optim.beta1": (_parse_float, "optim.beta1"),
    "optim.beta2": (_parse_float, "optim.beta2"),
    "optim.epsilon": (_parse_float, "optim.epsilon"),
    "paradigm.kind": (_choice(*PARADIGMS), "paradigm"),
    "paradigm.pretrain_checkpoint": (str, "pretrain_checkpoint"),
    "paradigm.source_root": (str, "source_root"),
    "train.batch_size": (_parse_int, "batch_size"),
    "train.max_epochs": (_parse_int, "max_epochs"),
    "train.acc_threshold": (_parse_float, "acc_threshold"),
    "train.loss_threshold": (_parse_float, "loss_threshold"),
    "train.seed": (_parse_int, "seed"),
    "train.out_dir": (str, "out_dir"),
}

KEYS = tuple(_REGISTRY)


def _get_path(config: TrainConfig, path: str):
    obj = config
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _set_path(config: TrainConfig, path: str, value) -> None:
    parts = path.split(".")
    obj = config
    for part in parts[:-1]:
        obj = getattr(obj, part)
    setattr(obj, parts[-1], value)


def flatten(config: TrainConfig) -> dict[str, str]:
    """Canonical flat rendering of every key, for config echo files."""
    return {key: _fmt(_get_path(config, path)) for key, (_, path) in _REGISTRY.items()}


def read_config_file(path) -> list[tuple[str, str, int]]:
    """(key, raw value, line number) triples; syntax errors only, no typing."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not UTF-8 text ({e})") from e
    out = []
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {line.rstrip()!r}")
        out.append((key.strip(), value.strip(), ln))
    return out


def _reject_unknown(key: str, where: str) -> None:
    if key in _REGISTRY:
        return
    hint = difflib.get_close_matches(key, KEYS, n=1)
    suffix = f"; did you mean {hint[0]!r}?" if hint else ""
    raise ConfigError(f"{where}: unknown config key {key!r}{suffix}")


def build_config(path=None, overrides=()) -> TrainConfig:
    """Defaults <- config file <- command-line overrides, validated.

    overrides is a sequence of (key, value-string) pairs applied in order
    after the file; later overrides of the same key win.
    """
    config = TrainConfig()
    if path is not None:
        seen: dict[str, int] = {}
        for key, value, ln in read_config_file(path):
            _reject_unknown(key, f"{path}:{ln}")
            if key in seen:
                raise ConfigError(
                    f"{path}:{ln}: duplicate key {key!r}, first set on line {seen[key]}"
                )
            seen[key] = ln
            parser, attr = _REGISTRY[key]
            try:
                _set_path(config, attr, parser(value))
            except ConfigError as e:
                raise ConfigError(f"{path}:{ln}: {key}: {e}") from None
    for key, value in overrides:
        _reject_unknown(key, "command line")
        parser, attr = _REGISTRY[key]
        try:
            _set_path(config, attr, parser(value))
        except ConfigError as e:
            raise ConfigError(f"--{key}: {e}") from None
    config.validate()
    return config
