"""Adam with bias correction, as a pure step function on flat parameters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, NumericalError
from .network import ParameterSet


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
"""Adam's decay rates and denominator offset: the textbook defaults."""


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float


def init_adam(n: int, lr: float = 1e-3) -> AdamState:
    if n < 1:
        raise DomainError("parameter count must be >= 1")
    if not lr > 0:
        raise DomainError("Adam learning rate must be positive")
    return AdamState(m=np.zeros(n), v=np.zeros(n), step=0, lr=lr)


def adam_step(params: ParameterSet, grad: np.ndarray, state: AdamState):
    """One update; returns (new params, new state) without mutating inputs.

    Refuses to step on a non-finite gradient. The arithmetic is the textbook
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    p - lr m_hat / (sqrt(v_hat) + eps), evaluated in that operand order on
    fresh arrays that are then updated in place.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.flat.shape:
        raise DomainError(f"gradient shape {grad.shape} does not match parameters {params.flat.shape}")
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient")
    t = state.step + 1
    m = state.m * BETA1
    m += grad * (1.0 - BETA1)
    v = state.v * BETA2
    sq = grad * (1.0 - BETA2)
    sq *= grad
    v += sq
    delta = m / (1.0 - BETA1 ** t)
    delta *= state.lr
    den = np.divide(v, 1.0 - BETA2 ** t, out=sq)
    np.sqrt(den, out=den)
    den += EPS
    delta /= den
    new_flat = params.flat - delta
    return ParameterSet(params.spec, params.norm, new_flat), AdamState(m, v, t, state.lr)
