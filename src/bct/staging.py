"""Training paradigms as staged freeze schedules.

PARADIGMS maps each paradigm to its stages in order. A stage is a pair
(name, prefix): the parameters whose registry names start with the prefix
train, and every other parameter stays frozen. The prefix "" matches every
name. The three paradigms:

    baseline  one stage, everything trainable
    tl        one stage, head.* trains on top of a loaded backbone
    etl       tl followed by a second stage that freezes head.* and
              fine-tunes backbone.*

A stage ends when the convergence criterion fires or its epoch cap runs
out; the driver then flips the optimizer's frozen set and the run continues
counting epochs cumulatively.
"""

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .optim import Optimizer

PARADIGMS = {
    "baseline": (("all", ""),),
    "tl": (("head", "head."),),
    "etl": (("head", "head."), ("backbone", "backbone.")),
}


@dataclass
class StageTransition:
    """What changed when one stage handed over to the next."""

    epoch: int  # global epoch after which the switch happened
    from_stage: str
    to_stage: str
    from_index: int
    to_index: int
    reason: str  # "converged" or "cap"
    newly_trainable: tuple = ()
    newly_frozen: tuple = ()
    # moments of newly unfrozen params are zeros (never stepped), so nothing
    # is ever reset; recorded so the update dynamics are auditable
    moments_reset: bool = False


class StagedDriver:
    """Applies a paradigm's stages to an optimizer across a training run."""

    def __init__(self, model, paradigm: str, optimizer: Optimizer, stage_cap: int):
        if paradigm not in PARADIGMS:
            raise ConfigError(f"unknown paradigm {paradigm!r}; expected one of {tuple(PARADIGMS)}")
        if stage_cap < 1:
            raise ConfigError(f"stage epoch cap must be >= 1, got {stage_cap}")
        self.stages = PARADIGMS[paradigm]
        self.optimizer = optimizer
        self.stage_cap = stage_cap
        names = list(model.params)
        # registry names that train in each stage, in registry order
        self._trainable = [[n for n in names if n.startswith(prefix)] for _, prefix in self.stages]
        for (stage, prefix), trainable in zip(self.stages, self._trainable):
            if not trainable:
                raise ConfigError(f"{paradigm} stage {stage!r}: prefix {prefix!r} matches no parameters")
        self._frozen = [[n for n in names if n not in set(t)] for t in self._trainable]
        self.stage_idx = 0
        self.epochs_in_stage = 0
        self.per_stage_epochs: list[int] = []
        self.done = False
        self.exit_reason: str | None = None
        optimizer.set_freeze(self._frozen[0])

    @property
    def stage_number(self) -> int:
        return self.stage_idx + 1

    def record_epoch(self, epoch: int, converged: bool) -> StageTransition | None:
        """Count one finished epoch; switch stages or finish as appropriate."""
        if self.done:
            raise RuntimeError("driver already finished")
        self.epochs_in_stage += 1
        capped = self.epochs_in_stage >= self.stage_cap
        if not converged and not capped:
            return None
        reason = "converged" if converged else "cap"
        self.per_stage_epochs.append(self.epochs_in_stage)
        if self.stage_idx == len(self.stages) - 1:
            self.done = True
            self.exit_reason = reason
            return None
        prev = self.stage_idx
        self.stage_idx += 1
        self.epochs_in_stage = 0
        old_trainable = set(self._trainable[prev])
        new_trainable = set(self._trainable[self.stage_idx])
        self.optimizer.set_freeze(self._frozen[self.stage_idx])
        return StageTransition(
            epoch=epoch,
            from_stage=self.stages[prev][0],
            to_stage=self.stages[self.stage_idx][0],
            from_index=prev,
            to_index=self.stage_idx,
            reason=reason,
            newly_trainable=tuple(sorted(new_trainable - old_trainable)),
            newly_frozen=tuple(sorted(old_trainable - new_trainable)),
        )


def pretrain_source(config, out_path) -> Path:
    """Train a backbone model on a source dataset and export backbone.* only.

    config must describe a baseline run over a backbone-shaped model; the
    exported checkpoint holds the best-validation parameters (final ones if
    there is no val split) restricted to backbone.*.
    """
    from . import trainer  # late import: trainer depends on this module
    from .checkpoint import save_checkpoint

    if config.model.kind != "backbone":
        raise ConfigError("pretraining requires model.kind = backbone")
    if config.paradigm != "baseline":
        raise ConfigError("pretraining runs the baseline paradigm")
    log = trainer.train(config)
    backbone = {n: a for n, a in log.best_or_final_state().items() if n.startswith("backbone.")}
    save_checkpoint(backbone, out_path)
    return Path(out_path)
