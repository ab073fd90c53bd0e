"""Parameter update rules: SGD with momentum, Adam, and rectified Adam.

An Optimizer keeps its registry in a flat store, one contiguous buffer each
for parameters, gradients and moments; the registry's tensors, their first
gradients and the m/v dicts are views into it. step() runs each rule's
ufuncs once per contiguous run of unfrozen parameters (one run in every
paradigm), per element the same ufuncs as a per-tensor loop, in the
registry's one dtype; the scalar factors are float64. A frozen parameter
gets no gradient and keeps its value AND moments, so freezing is fully
reversible; the step counter t advances once per step() call regardless.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import Tensor

OPTIMIZER_KINDS = ("sgd", "adam", "rectadam")
_F32_TINY, _F32_MAX = float(np.finfo(np.float32).smallest_subnormal), float(np.finfo(np.float32).max)


@dataclass
class OptimizerConfig:
    kind: str = "adam"
    learning_rate: float | None = None  # None picks the per-kind default
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    _DEFAULT_LR = {"sgd": 0.01, "adam": 0.001, "rectadam": 0.001}

    def validate(self) -> None:
        """Reject values the float32 update cannot use: each factor must round to a finite float32,
        and the learning rate and epsilon to a nonzero one."""
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown optimizer {self.kind!r}; expected one of {OPTIMIZER_KINDS}")
        lr = self.resolved_lr()  # the comparisons are written so that NaN and inf fail them
        if not _F32_TINY <= lr <= _F32_MAX:
            raise ConfigError(f"learning rate must be finite in float32 and > 0, got {lr}")
        if not 0 <= self.momentum <= _F32_MAX:
            raise ConfigError(f"momentum must be finite in float32 and >= 0, got {self.momentum}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0 <= b < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {b}")
        if not _F32_TINY <= self.epsilon <= _F32_MAX:
            raise ConfigError(f"epsilon must be finite in float32 and > 0, got {self.epsilon}")

    def resolved_lr(self) -> float:
        return self._DEFAULT_LR[self.kind] if self.learning_rate is None else self.learning_rate


def rectification_term(t: int, beta2: float) -> tuple[float, float | None]:
    """(rho_t, r_t) for rectified Adam; r_t is None in the un-adapted regime.

    rho_inf = 2/(1-beta2) - 1 and rho_t = rho_inf - 2 t beta2^t / (1 - beta2^t)
    measure how many samples the second moment has effectively seen. While
    rho_t <= 4 the variance estimate is unusable and the step falls back to
    bias-corrected momentum alone.
    """
    rho_inf = 2.0 / (1.0 - beta2) - 1.0
    b2t = beta2 ** t
    rho_t = rho_inf - 2.0 * t * b2t / (1.0 - b2t)
    if rho_t <= 4.0:
        return rho_t, None
    r_num = (rho_t - 4.0) * (rho_t - 2.0) * rho_inf
    r_den = (rho_inf - 4.0) * (rho_inf - 2.0) * rho_t
    return rho_t, float(np.sqrt(r_num / r_den))


class Optimizer:
    """Stateful updater for a named parameter registry; it moves the registry's data into its store."""

    def __init__(self, params: dict[str, Tensor], config: OptimizerConfig):
        config.validate()
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        dtypes = sorted({p.dtype.name for p in params.values()})
        if len(dtypes) > 1:
            raise ValueError(f"optimizer registry mixes dtypes {dtypes}")
        self.config = config
        self.params = dict(params)
        self.t = 0
        ends = itertools.accumulate(p.size for p in self.params.values())
        self.spans = {name: slice(end - p.size, end) for (name, p), end in zip(self.params.items(), ends)}
        self.flat_data = np.concatenate([p.data.reshape(-1) for p in self.params.values()])
        self.flat_grad, self.flat_m = np.empty_like(self.flat_data), np.zeros_like(self.flat_data)
        self.flat_v = None if config.kind == "sgd" else np.zeros_like(self.flat_data)
        data, grads = self._views(self.flat_data), self._views(self.flat_grad)
        for name, p in self.params.items():
            p.data, p.grad_view = data[name], grads[name]
        self.frozen: frozenset[str] = frozenset()
        self.runs = [slice(0, self.flat_data.size)]  # store slices of the trainable params, runs merged

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {name: flat[span].reshape(self.params[name].shape) for name, span in self.spans.items()}

    def set_freeze(self, names) -> None:
        """Replace the frozen set, whose tensors stop requiring grad; every name must exist in the registry."""
        names = frozenset(names)
        unknown = sorted(names - set(self.params))
        if unknown:
            raise KeyError(f"cannot freeze unknown parameters: {unknown}")
        self.frozen = names
        for name, p in self.params.items():
            p.requires_grad = name not in names
        self.runs = []
        for name in self.trainable_names():
            span = self.spans[name]
            if self.runs and self.runs[-1].stop == span.start:
                span = slice(self.runs.pop().start, span.stop)
            self.runs.append(span)

    def trainable_names(self) -> list[str]:
        return [n for n in self.params if n not in self.frozen]

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """Update the unfrozen runs of the store; a bad gradient changes nothing, t included.

        An update that leaves a non-finite value raises NumericError after it
        is applied, naming the first such parameter.
        """
        for name in self.trainable_names():
            p = self.params[name]
            if p.grad is None:
                raise ValueError(f"optimizer step: parameter {name!r} has no gradient")
            if p.grad is not p.grad_view:  # assigned by the caller, not written by backward()
                p.grad_view[...] = p.grad
        self._check_finite(self.flat_grad, "gradient")
        self.t += 1
        cfg, dt = self.config, self.flat_data.dtype.type
        lr, b1, b2, eps = cfg.resolved_lr(), cfg.beta1, cfg.beta2, cfg.epsilon
        bc1, bc2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        r_t = rectification_term(self.t, b2)[1] if cfg.kind == "rectadam" else 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # _check_finite names the parameter
            for run in self.runs:
                w, g, m = self.flat_data[run], self.flat_grad[run], self.flat_m[run]
                if cfg.kind == "sgd":
                    m *= dt(cfg.momentum)
                    m += g
                    w -= dt(lr) * m
                    continue
                v = self.flat_v[run]
                m *= dt(b1)
                m += dt(1.0 - b1) * g
                v *= dt(b2)
                v += dt(1.0 - b2) * g * g
                m_hat = m / dt(bc1)
                if r_t is None:  # variance still untrustworthy: plain bias-corrected momentum step
                    w -= dt(lr) * m_hat
                else:
                    w -= dt(lr * r_t) * m_hat / (np.sqrt(v / dt(bc2)) + dt(eps))
        self._check_finite(self.flat_data, "value after the update")

    def _check_finite(self, flat: np.ndarray, what: str) -> None:
        """Raise NumericError naming the first trainable parameter whose span of flat is not finite."""
        if not all(np.isfinite(flat[run]).all() for run in self.runs):
            bad = next(n for n in self.trainable_names() if not np.isfinite(flat[self.spans[n]]).all())
            raise NumericError(f"non-finite {what} in parameter {bad!r}")
