"""Adam training of the field network on a collocation set, plus field-grid evaluation."""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .diffnet import (
    InputNorm,
    NetworkSpec,
    ParameterSet,
    forward,
    init_adam,
    init_params,
    load_params,
    param_gradient,
    save_params,
)
from .diffnet.adam import adam_step
from .diffnet.tape import leaf
from .errors import DomainError, NumericalError, check_ints, check_widths
from .geometry import CHANNEL, build_spline, contains
from .physics import FIELD_INDEX, LossReport, LossWeights, loss_node, total_loss
from .sampling import CollocationCounts, CollocationSet, SampleBounds, generate_collocation


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs; fully determined by the seed."""

    steps: int = 5000
    batch_size: int = 1024
    learning_rate: float = 2e-3
    seed: int = 0
    hidden: tuple = (64, 64, 64, 64)
    bounds: SampleBounds = field(default_factory=SampleBounds)
    counts: CollocationCounts = field(default_factory=CollocationCounts)
    weights: LossWeights = field(default_factory=LossWeights)
    slice_stations: tuple | None = None
    log_interval: int = 10
    checkpoint_interval: int = 0
    checkpoint_dir: str | None = None

    def __post_init__(self):
        check_ints(self, steps=0, batch_size=0, seed=0, log_interval=1, checkpoint_interval=0)
        # NaN fails every comparison, so this test also rejects it
        if not 0.0 < self.learning_rate < math.inf:
            raise DomainError(f"learning_rate must be finite and positive, got {self.learning_rate!r}")
        if self.slice_stations is not None:
            object.__setattr__(self, "slice_stations", _check_stations(self.slice_stations))
        if not (self.checkpoint_dir is None or isinstance(self.checkpoint_dir, str)):
            raise DomainError(f"checkpoint_dir must be a string or null, got {self.checkpoint_dir!r}")
        if self.checkpoint_interval and not self.checkpoint_dir:
            raise DomainError("checkpoint_interval > 0 needs a checkpoint_dir to write to")
        check_widths(self, "hidden")


def _check_stations(values) -> tuple:
    """Penalty-slice stations as a tuple of floats; each must be a real number in [0, L/H]."""
    top = CHANNEL.L / CHANNEL.H
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise DomainError(f"slice_stations must be a list of numbers, got {values!r}")
    values = tuple(values)
    for v in values:  # NaN fails both comparisons
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 0.0 <= v <= top:
            raise DomainError(f"slice_stations must hold numbers in [0, {top:.6g}], got {v!r}")
    return tuple(float(v) for v in values)


@dataclass
class TrainHistory:
    """Full-set loss at the ends plus periodic minibatch reports."""

    initial: LossReport
    reports: list
    final: LossReport
    aborted_at: int | None = None


def train(cfg: TrainConfig, colloc: CollocationSet | None = None):
    """Run the configured training; returns (parameters, history).

    A non-finite loss or gradient aborts the run, records the step in
    history.aborted_at and returns the last parameters that produced a
    finite loss.
    """
    root = np.random.SeedSequence(cfg.seed)
    ss_colloc, ss_init, ss_batch = root.spawn(3)
    if colloc is None:
        colloc = generate_collocation(CHANNEL, cfg.bounds, cfg.counts, seed=ss_colloc,
                                      slice_stations=cfg.slice_stations)
    spec = NetworkSpec(input_dim=7, output_dim=9, hidden=cfg.hidden)
    norm = InputNorm.from_bounds(cfg.bounds.pairs())
    params = init_params(spec, norm=norm, seed=ss_init)
    state = init_adam(params.flat.size, lr=cfg.learning_rate)

    initial = total_loss(colloc, params, cfg.weights)
    initial.step = 0
    reports = []
    aborted_at = None

    rng = np.random.default_rng(ss_batch)
    n = len(colloc.interior)
    batch = cfg.batch_size if 0 < cfg.batch_size < n else n
    perm = rng.permutation(n)
    cursor = 0
    last_finite = params

    for step in range(1, cfg.steps + 1):
        if batch < n:
            if cursor + batch > n:
                perm = rng.permutation(n)
                cursor = 0
            idx = perm[cursor:cursor + batch]
            cursor += batch
            sub = CollocationSet(interior=colloc.interior[idx], boundary=colloc.boundary,
                                 slices=colloc.slices)
        else:
            sub = colloc
        # loss_node forms the gradient as it streams the row blocks;
        # param_gradient reads it back from the one-node graph
        param_leaf = leaf(params.flat)
        node, report = loss_node(sub, param_leaf, params, cfg.weights)
        report.step = step
        if not np.isfinite(report.total):
            aborted_at = step
            params = last_finite
            break
        grad = param_gradient(node, param_leaf)
        # freed before the Adam step: glibc then trims the heap between steps,
        # the state perfbench's in-process train gauge is calibrated in
        # (ROADMAP item 9); a graph kept into the next step reads 18-22% slower
        del node, param_leaf
        last_finite = params
        try:
            params, state = adam_step(params, grad, state)
        except NumericalError:
            aborted_at = step
            params = last_finite
            break
        if step % cfg.log_interval == 0 or step == cfg.steps:
            reports.append(report)
        if cfg.checkpoint_interval and step % cfg.checkpoint_interval == 0:
            save_checkpoint(params, os.path.join(cfg.checkpoint_dir, f"step_{step:07d}.ckpt"),
                            seed=cfg.seed)

    final = total_loss(colloc, params, cfg.weights)
    final.step = aborted_at if aborted_at is not None else cfg.steps
    if cfg.checkpoint_dir:
        save_checkpoint(params, os.path.join(cfg.checkpoint_dir, "final.ckpt"), seed=cfg.seed)
    return params, TrainHistory(initial=initial, reports=reports, final=final, aborted_at=aborted_at)


def save_checkpoint(params: ParameterSet, path, seed=None) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    save_params(params, path, role="field", seed=seed)


def load_checkpoint(path) -> ParameterSet:
    """Read a field-network checkpoint; another role raises CheckpointError."""
    params, _ = load_params(path, role="field")
    return params


@dataclass
class FieldTable:
    """Regular-grid field evaluation with a fluid mask (True inside)."""

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    speed: np.ndarray
    p: np.ndarray
    c: np.ndarray
    mask: np.ndarray


def evaluate_fields(params: ParameterSet, cp, re: float, sc: float, grid=(141, 41)) -> FieldTable:
    """Evaluate the trained fields on a regular grid over the channel; cp is
    any sequence of the three control heights."""
    if not (0.0 < re < np.inf and 0.0 < sc < np.inf):
        raise DomainError("re and sc must be finite and positive")
    coeffs = build_spline(cp)
    nx, ny = grid
    if nx < 2 or ny < 2:
        raise DomainError("grid must be at least 2x2")
    H = CHANNEL.H
    x = np.linspace(0.0, CHANNEL.L / H, nx)
    y = np.linspace(0.0, 1.0, ny)
    XX, YY = np.meshgrid(x, y)
    mask = contains(coeffs, XX.ravel() * H, YY.ravel() * H).reshape(ny, nx)
    rows = np.column_stack([
        XX.ravel(), YY.ravel(),
        np.tile(np.array(cp, dtype=float), (nx * ny, 1)),
        np.full(nx * ny, re), np.full(nx * ny, sc),
    ])
    out = forward(params, rows)
    u = out[:, FIELD_INDEX["u"]].reshape(ny, nx)
    v = out[:, FIELD_INDEX["v"]].reshape(ny, nx)
    p = out[:, FIELD_INDEX["p"]].reshape(ny, nx)
    c = out[:, FIELD_INDEX["c"]].reshape(ny, nx)
    return FieldTable(x=x, y=y, u=u, v=v, speed=np.hypot(u, v), p=p, c=c, mask=mask)
