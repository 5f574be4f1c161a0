"""Array autodiff tape, dense networks, Adam, and the checkpoint codec."""

from .adam import AdamState, adam_step, adam_update, init_adam
from .checkpoint import load_params, save_params
from .network import (
    InputNorm,
    NetworkSpec,
    ParameterSet,
    forward,
    forward_vjp,
    init_params,
    map_blocks,
    net_apply,
    param_gradient,
)
from . import tape

__all__ = [
    "AdamState",
    "InputNorm",
    "NetworkSpec",
    "ParameterSet",
    "adam_step",
    "adam_update",
    "forward",
    "forward_vjp",
    "init_adam",
    "init_params",
    "load_params",
    "map_blocks",
    "net_apply",
    "param_gradient",
    "save_params",
    "tape",
]
