"""Adam with bias correction, as a pure step function on flat parameters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, NumericalError, check_int, check_real
from .network import ParameterSet


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
"""Adam's decay rates and denominator offset: the textbook defaults."""


@dataclass(frozen=True)
class AdamState:
    """Moments, step count and learning rate: a float, or one rate per entry."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float | np.ndarray


def init_adam(n: int, lr: float | np.ndarray = 1e-3) -> AdamState:
    """Zero moments for n parameters; ``lr`` is a positive, finite float or
    a positive, finite vector of length n (a read-only copy is kept)."""
    check_int("parameter count", n, 1)
    if np.ndim(lr) == 0:
        # lr[()] reads a 0-d array as the numpy scalar check_real accepts
        check_real("Adam learning rate", lr[()] if isinstance(lr, np.ndarray) else lr, 0.0, above=True)
    else:
        lr = np.array(lr, dtype=np.float64)
        if lr.shape != (n,):
            raise DomainError(f"learning-rate vector has shape {lr.shape}, expected ({n},)")
        if not (np.all(np.isfinite(lr)) and np.all(lr > 0)):
            raise DomainError("Adam learning rates must be finite and positive")
        lr.flags.writeable = False
    return AdamState(m=np.zeros(n), v=np.zeros(n), step=0, lr=lr)


def adam_update(flat: np.ndarray, grad: np.ndarray, state: AdamState):
    """One update of a flat vector; returns (new flat, new state) without
    mutating inputs.

    Refuses to step on a non-finite gradient. The arithmetic is the textbook
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    p - lr m_hat / (sqrt(v_hat) + eps), evaluated in that operand order on
    fresh arrays that are then updated in place. Every operation is
    elementwise, so a per-entry learning rate gives each entry the bits a
    scalar rate of its value would.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != flat.shape:
        raise DomainError(f"gradient shape {grad.shape} does not match parameters {flat.shape}")
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
    return flat - delta, AdamState(m, v, t, state.lr)


def adam_step(params: ParameterSet, grad: np.ndarray, state: AdamState):
    """``adam_update`` on a parameter set's flat vector; returns
    (new params, new state)."""
    new_flat, state = adam_update(params.flat, grad, state)
    return ParameterSet(params.spec, params.norm, new_flat), state
