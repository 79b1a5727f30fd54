"""Decoupled-weight-decay Adam and the cosine learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from .tensor import ConfigError


# Adam's moment decay rates and denominator guard, at Kingma & Ba's defaults.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamWState:
    """Per-parameter first/second moment estimates plus the step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0
    weight_decay: float = 0.01

    @classmethod
    def init(cls, params: dict[str, np.ndarray], **kwargs) -> "AdamWState":
        state = cls(**kwargs)
        for name, p in params.items():
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        return state


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: AdamWState, lr: float) -> None:
    """One decoupled update in place:

        m <- b1 m + (1 - b1) g;  v <- b2 v + (1 - b2) g^2
        theta <- theta - lr (m_hat / (sqrt(v_hat) + eps) + wd theta)

    Only parameters named in ``grads`` are touched, so freezing a subset is
    just omitting it from the gradient dict.
    """
    for name, g in grads.items():
        if name not in params:
            raise ConfigError(f"gradient for unknown parameter {name!r}")
        if g.shape != params[name].shape:
            raise ConfigError(
                f"gradient shape {g.shape} != parameter shape {params[name].shape} for {name!r}"
            )
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        m_hat = m / bc1
        v_hat = v / bc2
        params[name] -= lr * (m_hat / (np.sqrt(v_hat) + EPS) + state.weight_decay * params[name])


def cosine_lr(t: float, total: float, lr_max: float, lr_min: float) -> float:
    """lr_min + 0.5 (lr_max - lr_min)(1 + cos(pi t / total)); t past the end
    clamps to lr_min."""
    if total < 1:
        raise ConfigError("schedule length must be >= 1")
    if t < 0:
        raise ConfigError("schedule step must be >= 0")
    if t > total:
        return lr_min
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t / total))
