"""Adam with bias correction, as a pure step function on flat parameters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, NumericalError
from .network import ParameterSet


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float
    beta1: float
    beta2: float
    eps: float


def init_adam(n: int, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    if n < 1:
        raise DomainError("parameter count must be >= 1")
    if lr <= 0 or not (0.0 <= beta1 < 1.0) or not (0.0 <= beta2 < 1.0) or eps <= 0:
        raise DomainError("invalid Adam hyperparameters")
    return AdamState(m=np.zeros(n), v=np.zeros(n), step=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


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
    beta1, beta2 = state.beta1, state.beta2
    m = state.m * beta1
    m += grad * (1.0 - beta1)
    v = state.v * beta2
    sq = grad * (1.0 - beta2)
    sq *= grad
    v += sq
    delta = m / (1.0 - beta1 ** t)
    delta *= state.lr
    den = np.divide(v, 1.0 - beta2 ** t, out=sq)
    np.sqrt(den, out=den)
    den += state.eps
    delta /= den
    new_flat = params.flat - delta
    return (ParameterSet(params.spec, params.norm, new_flat),
            AdamState(m, v, t, state.lr, beta1, beta2, state.eps))
