"""Dense networks over a flat float64 parameter vector.

Forward evaluation, forward-mode spatial tangents (for first derivatives of
outputs w.r.t. the two spatial inputs), and a fused reverse pass that also
backpropagates through those tangents. The reverse pass plugs into the tape
as a single primitive, so one backward sweep covers losses built from both
outputs and spatial derivatives. Every pass runs over the rows in blocks of
at most ``ROW_BLOCK`` rows, and the reverse pass sums the blocks' gradients
in block order.

A ``ParameterSet`` is read-only from construction: its ``flat`` vector and
its input normalization cannot be written, and ``with_flat`` copies its
argument, so no two sets share a buffer. New weights make a new set.
Every pass reads one table per set (``ParameterSet.table``): each layer's W
and b as views of ``flat`` and a read-only, row-major copy of W^T. The
forward passes multiply by that copy: ``h @ W.T`` on the transposed view
runs the BLAS NT kernel, the row-major copy runs NN, which under OpenBLAS's
SkylakeX kernel is about 1.4x faster at a design score's hidden-layer
products (16 x 64 @ 64 x 64 and 101 x 64 @ 64 x 64, one BLAS thread on a
2-vCPU AVX-512 Xeon) and about equal under its Haswell kernel. The two
products need not agree: under the SkylakeX kernel they differ in the last bits at
narrow output layers (64 x 32 @ 32 x 8, 202 x 64 @ 64 x 9) and agree at
208 x 64 x 64 and 64 x 32 x 32. The passes agree with one another because
every forward pass, the tape's included, multiplies by the same W^T copy.
The flat vector's order, and with it the checkpoint format, is fixed; the
reverse pass multiplies by W itself, which already runs NN.

Every cached pass over more than one block goes through one block loop,
``map_blocks``, which hands each block's outputs, jacobian and pullback to
a caller and frees the block's reverse cache when the caller returns,
unless it keeps the pullback. The PINN loss pulls each block back at once;
only ``forward_vjp`` (and ``net_apply`` on it) holds every block's cache,
for as long as its pullback lives. ``forward_vjp(..., need_jac=True)`` is
the one pass that returns outputs with their spatial jacobian. A
``forward_vjp`` whose rows fit one block runs that block alone, without the
loop, with the same bits.
``forward`` keeps no per-layer arrays at all.
``forward`` alone adds each bias from a copy tiled to ``ROW_BLOCK`` rows
(``ParameterSet.bias_tiles``); the tape and ``forward_vjp`` keep the
broadcast add. A one-row ``forward`` of a one-input network with a hidden
layer (a policy query) runs the layers on 1-D vectors instead, with the
same bits: per-call overhead, not arithmetic, is its cost, and 1-D arrays
carry less of it; its first layer is one scalar times a vector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..errors import DomainError, check_ints, check_widths
from .tape import Node


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: layer widths; every hidden layer is tanh."""

    input_dim: int = 7
    output_dim: int = 9
    hidden: tuple = (64, 64, 64, 64)

    def __post_init__(self):
        check_ints(self, input_dim=1, output_dim=1)
        check_widths(self, "hidden")

    @functools.cached_property
    def layer_shapes(self) -> tuple:
        """((W shape, b shape)) per layer, output layer last."""
        sizes = [self.input_dim, *self.hidden, self.output_dim]
        return tuple(((sizes[i + 1], sizes[i]), (sizes[i + 1],)) for i in range(len(sizes) - 1))

    @functools.cached_property
    def param_count(self) -> int:
        return sum(w[0] * w[1] + b[0] for w, b in self.layer_shapes)


@dataclass(frozen=True)
class InputNorm:
    """Affine input map (x - center) / halfspan; halfspan 0 pins a dimension to 0.

    ``center`` and ``halfspan`` are read-only float64 copies of the values
    passed in, and the reciprocal half-span is computed once, here, from them.
    Both must be finite 1-D arrays of one length, and no half-span negative:
    they can come from a checkpoint header, and a negative one would mirror
    its input axis (a field network's baseline grid would then run
    backwards). ``_floats`` holds the center and the reciprocal half-span
    as tuples of Python floats, also made here once, which the one-row
    ``forward`` reads without an ``.item()`` call per query.
    """

    center: np.ndarray
    halfspan: np.ndarray
    inv_halfspan: np.ndarray = field(init=False, repr=False, compare=False)
    _floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("center", "halfspan"):
            try:
                arr = np.array(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"{name} must hold numbers: {exc}") from exc
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.center.ndim != 1 or self.center.shape != self.halfspan.shape:
            raise DomainError(f"center and halfspan must be 1-D and of one length, got shapes "
                              f"{self.center.shape} and {self.halfspan.shape}")
        if not (np.all(np.isfinite(self.center)) and np.all(np.isfinite(self.halfspan))):
            raise DomainError("center and halfspan must be finite")
        if np.any(self.halfspan < 0.0):
            raise DomainError("halfspan must be >= 0")
        inv = np.zeros_like(self.halfspan)
        nonzero = self.halfspan != 0.0
        inv[nonzero] = 1.0 / self.halfspan[nonzero]
        inv.flags.writeable = False
        object.__setattr__(self, "inv_halfspan", inv)
        object.__setattr__(self, "_floats", (tuple(self.center.tolist()), tuple(inv.tolist())))

    @classmethod
    def from_bounds(cls, pairs) -> "InputNorm":
        lo = np.array([p[0] for p in pairs], dtype=np.float64)
        hi = np.array([p[1] for p in pairs], dtype=np.float64)
        return cls(center=(lo + hi) / 2.0, halfspan=(hi - lo) / 2.0)

    @classmethod
    def identity(cls, dim: int) -> "InputNorm":
        return cls(center=np.zeros(dim), halfspan=np.ones(dim))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Normalized copy of X (never written in place)."""
        h = X - self.center
        h *= self.inv_halfspan
        return h


@dataclass(frozen=True)
class ParameterSet:
    """A network's weights as one flat float64 vector plus its architecture.

    Read-only from construction: ``__post_init__`` marks ``flat`` read-only,
    so pass an array nothing else writes to; ``with_flat`` copies.
    """

    spec: NetworkSpec
    norm: InputNorm
    flat: np.ndarray
    _table: tuple = field(default=None, init=False, repr=False, compare=False)
    _tiles: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.flat.dtype != np.float64 or self.flat.ndim != 1:
            raise DomainError("flat parameters must be a 1-D float64 array")
        if self.flat.size != self.spec.param_count:
            raise DomainError(f"expected {self.spec.param_count} parameters, got {self.flat.size}")
        if len(self.norm.center) != self.spec.input_dim:
            raise DomainError("input normalization length does not match input_dim")
        self.flat.flags.writeable = False

    def table(self) -> tuple:
        """(W, W^T, b) per layer, output layer last, built on the first call.

        W and b are views into ``flat``; W^T is a C-contiguous copy. All three
        are read-only, so the copy cannot go stale.
        """
        if self._table is None:
            rows = []
            offset = 0
            for (wr, wc), (bn,) in self.spec.layer_shapes:
                W = self.flat[offset:offset + wr * wc].reshape(wr, wc)
                offset += wr * wc
                Wt = W.T.copy()
                Wt.flags.writeable = False
                rows.append((W, Wt, self.flat[offset:offset + bn]))
                offset += bn
            object.__setattr__(self, "_table", tuple(rows))
        return self._table

    def bias_tiles(self) -> tuple:
        """Each layer's bias tiled to ``ROW_BLOCK`` rows, for ``forward`` only.

        Adding a bias from a row-tiled copy gives the broadcast add's bits
        and a faster whole pass on the pinned surrogate at a design score's
        rows (one BLAS thread, 40 alternating rounds): 35.4 us against
        39.3 us at 16 rows (tiles faster in 38 of 40 rounds), 141 us against
        162 us at 101 rows (34 of 40).
        Built on the first call: a set that only trains never pays for it.
        """
        if self._tiles is None:
            tiles = []
            for _, _, b in self.table():
                tile = np.empty((ROW_BLOCK, b.size))
                tile[:] = b
                tile.flags.writeable = False
                tiles.append(tile)
            object.__setattr__(self, "_tiles", tuple(tiles))
        return self._tiles

    def with_flat(self, flat) -> "ParameterSet":
        """A set of the same architecture on a float64 copy of ``flat``."""
        return ParameterSet(self.spec, self.norm, np.array(flat, dtype=np.float64))


def init_params(spec: NetworkSpec, norm: InputNorm | None = None, seed=None) -> ParameterSet:
    """Uniform(+-sqrt(3/fan_in)) weights (variance 1/fan_in), zero biases."""
    norm = norm or InputNorm.identity(spec.input_dim)
    rng = np.random.default_rng(seed)
    chunks = []
    for (wr, wc), (bn,) in spec.layer_shapes:
        bound = np.sqrt(3.0 / wc)
        chunks.append(rng.uniform(-bound, bound, size=wr * wc))
        chunks.append(np.zeros(bn))
    return ParameterSet(spec=spec, norm=norm, flat=np.concatenate(chunks))


ROW_BLOCK = 208
"""Rows per block of every network pass.

A block's 64-wide float64 layer array is 104 KiB: it and its tangents stay
in a 2 MiB L2, and it is under glibc's 128 KiB mmap threshold, so per-layer
arrays come from the heap rather than from freshly faulted pages. A design
score's passes (16 inlet rows, then 101 outlet rows) and PPO batches are
each one block. The training loss sums its blocks' gradients in block
order, so the block size is part of a seeded checkpoint's bits.
"""


def _row_blocks(n: int) -> list:
    """Row slices of at most ROW_BLOCK rows covering range(n), in order."""
    return [slice(i, min(i + ROW_BLOCK, n)) for i in range(0, n, ROW_BLOCK)] or [slice(0, 0)]


class _Cache:
    """Everything the fused reverse pass needs from one row block.

    ``record`` applies tanh to each hidden layer for the layer loop and keeps
    its slope 1 - f^2, which the tangents need at once and the reverse pass
    needs later. The slope takes over z's buffer, which is dead once the
    activation exists.
    """

    __slots__ = ("inputs", "slopes", "tin", "ztan", "out", "jac")

    def __init__(self, h, tangent_seeds):
        self.inputs = [h]
        self.slopes = []
        self.tin = [] if tangent_seeds is None else [tangent_seeds]
        self.ztan = []
        self.out = None
        self.jac = None

    def record(self, Wt, z):
        f = np.tanh(z)
        self.inputs.append(f)
        d1 = np.multiply(f, f, out=z)
        np.subtract(1.0, d1, out=d1)
        self.slopes.append(d1)
        if self.tin:
            zd = [t @ Wt for t in self.tin[-1]]
            self.ztan.append(zd)
            self.tin.append([d1 * t for t in zd])
        return f


def _checked(pset: ParameterSet, X) -> np.ndarray:
    """X as a float64 (batch, input_dim) array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != pset.spec.input_dim:
        raise DomainError(f"expected input shape (batch, {pset.spec.input_dim})")
    return X


def _layers(table, h, cache: _Cache | None = None, tiles=None) -> np.ndarray:
    """The one layer loop: z = h W^T, z += b, then tanh.

    The bias add broadcasts ``table``'s 1-D b over the rows unless ``tiles``
    (``bias_tiles()``) is given, whose rows are cut to the block's; both adds
    give the same bits. Without a cache tanh runs in place and nothing per
    layer is kept; with one, ``cache.record`` activates each hidden layer and
    keeps what the reverse pass needs.
    Returns the output layer's z.
    """
    last = len(table) - 1
    n = len(h)
    for l, (_, Wt, b) in enumerate(table):
        z = h @ Wt
        z += b if tiles is None else tiles[l][:n]
        if l == last:
            return z
        if cache is None:
            h = np.tanh(z, out=z)
        else:
            h = cache.record(Wt, z)


def _block(table, h, scale, need_tangent: bool) -> _Cache:
    """One row block through the layer loop; its cache holds out and jac."""
    seeds = None
    if need_tangent:
        seeds = []
        for d in (0, 1):
            t = np.zeros_like(h)
            t[:, d] = scale[d]
            seeds.append(t)
    cache = _Cache(h, seeds)
    cache.out = _layers(table, h, cache)
    if need_tangent:
        Wt_last = table[-1][1]
        cache.jac = np.stack([t @ Wt_last for t in cache.tin[-1]], axis=2)
    return cache


def map_blocks(params: ParameterSet, X, need_jac: bool, fn) -> list:
    """The one block loop of the cached passes: ``fn(rows, out, jac, pullback)``
    on each row block in row order; returns fn's results.

    ``rows`` is the block's slice of X, ``out`` and ``jac`` (None unless
    ``need_jac``) its outputs and spatial jacobian, and ``pullback(gy, gjac)``
    takes their cotangents (``gjac`` None without a jacobian) to the flat
    parameter gradient through the block's fused reverse pass. The block's
    reverse cache lives until fn returns, unless fn's result keeps the
    pullback.
    """
    h = params.norm.apply(_checked(params, X))
    table = params.table()
    scale = params.norm.inv_halfspan

    def run(rows):
        cache = _block(table, h[rows], scale, need_jac)
        return fn(rows, cache.out, cache.jac, functools.partial(_block_backward, table, cache))

    return [run(rows) for rows in _row_blocks(len(h))]


def _block_backward(table, cache: _Cache, gy, gjac) -> np.ndarray:
    """One row block's cotangents of (outputs, jacobian) to the flat parameters."""
    nlayers = len(table)
    gW_list = [None] * nlayers
    gb_list = [None] * nlayers

    W_last = table[-1][0]
    gW = gy.T @ cache.inputs[-1]
    gb = gy.sum(axis=0)
    gh = gy @ W_last
    ghd = None
    if gjac is not None:
        ghd = [gjac[:, :, d] @ W_last for d in range(gjac.shape[2])]
        for d in range(len(ghd)):
            gW += gjac[:, :, d].T @ cache.tin[-1][d]
    gW_list[-1] = gW
    gb_list[-1] = gb

    for l in range(nlayers - 2, -1, -1):
        d1 = cache.slopes[l]
        gz = gh * d1
        gzd = None
        if ghd is not None:
            d2 = -2.0 * cache.inputs[l + 1] * d1  # the slope's derivative
            for gd, zd in zip(ghd, cache.ztan[l]):
                term = gd * d2
                term *= zd
                gz += term
            gzd = [gd * d1 for gd in ghd]
        W = table[l][0]
        h_in = cache.inputs[l]
        gW = gz.T @ h_in
        gb = gz.sum(axis=0)
        if gzd is not None:
            for d in range(len(gzd)):
                gW += gzd[d].T @ cache.tin[l][d]
        gW_list[l] = gW
        gb_list[l] = gb
        if l:  # the input layer's gradient w.r.t. its inputs is never used
            gh = gz @ W
            if gzd is not None:
                ghd = [g @ W for g in gzd]

    chunks = []
    for l in range(nlayers):
        chunks.append(gW_list[l].ravel())
        chunks.append(gb_list[l])
    return np.concatenate(chunks)


def forward(params: ParameterSet, X) -> np.ndarray:
    """Plain evaluation: (batch, input_dim) -> (batch, output_dim).

    Returns the tape path's bits, keeps no per-layer arrays and does not
    modify X. The rows run the tape path's layer loop over the same row
    blocks, adding each bias from ``bias_tiles()``, except one row of a
    one-input network with a hidden layer (a policy query). That row runs
    the layers on 1-D vectors, which carry less per-call overhead: its first
    layer is the normalized scalar times W^T's one row, and each later layer
    the bias add and tanh in place, then ``z.dot(Wt)``. numpy runs a one-row
    2-D product as the same vector-matrix product, and the 2-D path's
    length-1 first-layer dot adds the scalar product to 0.0, which can only
    turn a -0.0 into 0.0, a sign the next layer's dot drops: the bits agree.
    """
    X = _checked(params, X)
    if len(X) == 1 and params.spec.input_dim == 1 and params.spec.hidden:
        table = params.table()
        _, Wt, b = table[0]
        (c,), (s,) = params.norm._floats
        z = Wt[0] * ((X.item() - c) * s)
        for _, Wt, next_b in table[1:]:
            z += b
            np.tanh(z, out=z)
            z = z.dot(Wt)
            b = next_b
        z += b
        return z[None]
    h = params.norm.apply(X)
    table, tiles = params.table(), params.bias_tiles()
    if len(h) <= ROW_BLOCK:
        return _layers(table, h, tiles=tiles)
    return np.concatenate([_layers(table, h[s], tiles=tiles) for s in _row_blocks(len(h))])


def forward_vjp(params: ParameterSet, X, need_jac: bool = False):
    """Outputs, spatial jacobian (None unless ``need_jac``) and their pullback.

    ``vjp(gy, gjac=None)`` takes cotangents of the outputs and of the
    jacobian (``gy`` None reads as zeros) to the flat parameter gradient
    through one fused reverse pass. Rows that fit one ``ROW_BLOCK`` (a PPO
    batch, a design score) run ``_block`` once and the pullback is that
    block's ``_block_backward``: no block list and no summing loop, which a
    PPO epoch's four tiny passes would pay as per-call overhead. More rows
    go through ``map_blocks``; each row block runs its own reverse pass and
    their gradients are summed in block order, so the result is
    deterministic. Both routes give the same bits.
    """
    X = _checked(params, X)
    if len(X) <= ROW_BLOCK:
        table = params.table()
        cache = _block(table, params.norm.apply(X), params.norm.inv_halfspan, need_jac)

        def vjp(gy, gjac=None):
            if gy is None:
                gy = np.zeros_like(cache.out)
            return _block_backward(table, cache, gy, gjac)

        return cache.out, cache.jac, vjp

    blocks = map_blocks(params, X, need_jac, lambda *block: block)
    out = np.concatenate([block_out for _, block_out, _, _ in blocks])
    jac = np.concatenate([block_jac for _, _, block_jac, _ in blocks]) if need_jac else None

    def vjp(gy, gjac=None):
        if gy is None:
            gy = np.zeros_like(out)
        total = None
        for rows, _, _, pullback in blocks:
            g = pullback(gy[rows], None if gjac is None else gjac[rows])
            if total is None:
                total = g
            else:
                total += g
        return total

    return out, jac, vjp


def net_apply(param_leaf: Node, template: ParameterSet, X, need_jac: bool = False):
    """Tape primitive: network evaluation as a node pair (outputs, jacobian).

    ``param_leaf`` carries the flat parameter vector; the returned nodes
    backpropagate to it through ``forward_vjp``'s reverse pass.
    """
    pset = template.with_flat(param_leaf.value)
    y, dy, vjp = forward_vjp(pset, X, need_jac)

    def bundle_vjp(g):
        return vjp(g[0], g[1] if need_jac else None)

    bundle = Node((y, dy), (param_leaf,), (bundle_vjp,))
    out = Node(y, (bundle,), (lambda g: (g, None),))
    if not need_jac:
        return out, None
    jac = Node(dy, (bundle,), (lambda g: (None, g),))
    return out, jac


def param_gradient(root: Node, param_leaf: Node) -> np.ndarray:
    """Gradient of a scalar loss node w.r.t. the flat parameter leaf."""
    from .tape import gradient

    return gradient(root, param_leaf)
