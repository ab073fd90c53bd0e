"""Run configuration: the dataclasses, the flat key=value file format, and
command-line overrides.

Config files are plain text, one `key = value` per line, full-line comments
starting with '#'. Keys use dotted section prefixes (data., model., loss.,
optim., paradigm., train.). Every key has a typed registry entry; unknown
keys fail with a nearest-name suggestion, duplicates fail citing both lines,
and bad values fail naming the expected type. Validation runs before any
work starts. flatten() renders a config in the same format, so a run's
manifest.txt reads back as its config.
"""

import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .data import DatasetManifest, check_ratios, ensure_manifest, fmt_float, read_key_values
from .errors import ConfigError, read_input
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

    def validate(self) -> None:
        """Reject bad values before any work starts; reading paradigm.pretrain_checkpoint checks that it exists."""
        self.model.validate()
        self.loss.validate()
        self.optim.validate()
        if self.paradigm not in PARADIGMS:
            raise ConfigError(f"paradigm.kind must be one of {tuple(PARADIGMS)}, got {self.paradigm!r}")
        if self.paradigm != "baseline":
            if self.model.kind != "backbone":
                raise ConfigError(f"paradigm {self.paradigm} needs model.kind = backbone")
            if not self.pretrain_checkpoint:
                raise ConfigError(f"paradigm {self.paradigm} needs paradigm.pretrain_checkpoint")
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
        check_ratios(self.ratios)
        if self.out_dir:
            check_out_dir(self.out_dir, "train.out_dir")

    def split_seed(self) -> int:
        return self.seed if self.data_seed is None else self.data_seed

    def manifest(self, root=None) -> DatasetManifest:
        """The pinned split of root (default data.root) for this config; see ensure_manifest."""
        if not (root := root or self.data_root):
            raise ConfigError("data.root is required")
        return ensure_manifest(root, self.image_size, tuple(self.ratios), self.split_seed(),
                               resplit=self.data_seed is not None)


def check_out_dir(path, name: str) -> None:
    """Reject a directory that mkdir would fail to create after the work: its nearest existing path is not a directory."""
    out = Path(path)
    nearest = next((p for p in (out, *out.parents) if p.exists()), None)
    if nearest is not None and not nearest.is_dir():
        raise ConfigError(f"{name} {out}: {nearest} exists and is not a directory")


# ---------------------------------------------------------------- registry

def _parser(convert, expected: str):
    """A value parser: convert(s), with its ValueError turned into a ConfigError naming what was expected."""
    def parse(s):
        try:
            return convert(s)
        except ValueError:
            raise ConfigError(f"expected {expected}, got {s!r}") from None

    return parse


_parse_int = _parser(int, "an integer")
_parse_float = _parser(float, "a number")
_parse_int_list = _parser(lambda s: tuple(map(int, s.split(","))), "comma-separated integers")
_parse_ratios = _parser(lambda s: tuple(map(float, s.split(","))), "comma-separated numbers")  # validate() checks them with check_ratios


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
        return fmt_float(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


# key -> (parser, attribute path "attr" or "sub.attr")
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


def _set_path(config: TrainConfig, path: str, value) -> None:
    owner, _, name = path.rpartition(".")
    setattr(attrgetter(owner)(config) if owner else config, name, value)


def flatten(config: TrainConfig) -> dict[str, str]:
    """Canonical flat rendering of every key, for config echo files."""
    return {key: _fmt(attrgetter(path)(config)) for key, (_, path) in _REGISTRY.items()}


def _reject_unknown(key: str, where: str) -> None:
    if key in _REGISTRY:
        return
    import difflib  # only a rejected key needs it
    hint = difflib.get_close_matches(key, KEYS, n=1)
    suffix = f"; did you mean {hint[0]!r}?" if hint else ""
    raise ConfigError(f"{where}: unknown config key {key!r}{suffix}")


def build_config(path=None, overrides=()) -> TrainConfig:
    """Defaults <- config file <- command-line overrides, validated.

    overrides is a sequence of (key, value-string) pairs applied in order
    after the file; later overrides of the same key win. An empty value sets
    a key whose default is None back to None, so a flatten() echo, such as a
    run's manifest.txt, reads back as the config that wrote it.
    """
    config, defaults = TrainConfig(), TrainConfig()
    entries = []  # (key, value, where an unknown key is reported, label of a bad value)
    if path is not None:
        lines = enumerate(read_input(path, ConfigError, text=True).splitlines(), start=1)
        kept = [(ln, line) for ln, line in lines if line.strip() and not line.strip().startswith("#")]
        for key, (value, ln) in read_key_values(kept, path, ConfigError).items():
            entries.append((key, value, f"{path}:{ln}", f"{path}:{ln}: {key}"))
    entries += [(key, value, "command line", f"--{key}") for key, value in overrides]
    for key, value, where, label in entries:
        _reject_unknown(key, where)
        parser, attr = _REGISTRY[key]
        unset = value == "" and attrgetter(attr)(defaults) is None
        try:
            _set_path(config, attr, None if unset else parser(value))
        except ConfigError as e:
            raise ConfigError(f"{label}: {e}") from None
    config.validate()
    return config
