"""Reverse-mode autodiff over numpy arrays with a closed primitive set.

Nodes wrap float64 arrays; anything outside the implemented operators
(including numpy ufuncs, blocked via __array_ufunc__) fails at graph
construction time rather than producing silent object arrays.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError


class Node:
    """One value in the computation graph.

    Besides arithmetic, a node indexes (basic slices and integers), sums and
    squares like an array, so the same formula runs on arrays and on nodes.
    """

    __slots__ = ("value", "parents", "vjps")

    # keep numpy from absorbing Node operands into object arrays
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjps=()):
        self.value = value
        self.parents = parents
        self.vjps = vjps

    def __repr__(self):
        return f"Node(shape={np.shape(self.value)})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __pow__(self, k):
        if k != 2:
            raise DomainError("only squaring is supported")
        return square(self)

    def __getitem__(self, idx):
        return pick(self, idx)

    def sum(self):
        return nsum(self)

    # a property, not __len__: with __len__, a truth test on a 0-d node raises TypeError
    @property
    def size(self):
        return self.value.size


def leaf(value) -> Node:
    return Node(np.asarray(value, dtype=np.float64))


def _val(x):
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=np.float64)


def _unbroadcast(g, shape):
    """Sum a broadcast cotangent back down to the parent's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(a, b, value, vjp_a, vjp_b) -> Node:
    parents, vjps = [], []
    if isinstance(a, Node):
        parents.append(a)
        vjps.append(vjp_a)
    if isinstance(b, Node):
        parents.append(b)
        vjps.append(vjp_b)
    return Node(value, tuple(parents), tuple(vjps))


def add(a, b):
    av, bv = _val(a), _val(b)
    return _binary(a, b, av + bv,
                   lambda g: _unbroadcast(g, av.shape),
                   lambda g: _unbroadcast(g, bv.shape))


def sub(a, b):
    av, bv = _val(a), _val(b)
    return _binary(a, b, av - bv,
                   lambda g: _unbroadcast(g, av.shape),
                   lambda g: _unbroadcast(-g, bv.shape))


def mul(a, b):
    av, bv = _val(a), _val(b)
    return _binary(a, b, av * bv,
                   lambda g: _unbroadcast(g * bv, av.shape),
                   lambda g: _unbroadcast(g * av, bv.shape))


def neg(a):
    av = _val(a)
    return Node(-av, (a,), (lambda g: -g,)) if isinstance(a, Node) else Node(-av)


def square(a):
    av = _val(a)
    if not isinstance(a, Node):
        return Node(av * av)
    return Node(av * av, (a,), (lambda g: g * (2.0 * av),))


def nsum(a, axis=None):
    av = _val(a)
    out = av.sum(axis=axis)
    if not isinstance(a, Node):
        return Node(out)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, av.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), av.shape).copy()

    return Node(out, (a,), (vjp,))


def pick(a, idx):
    """Basic-slice indexing; cotangent scatters back into a zero array.

    Only slices and integers are accepted: with a repeated array index the
    scatter would keep one cotangent per position and silently drop the rest.
    """
    for i in idx if isinstance(idx, tuple) else (idx,):
        if not isinstance(i, (slice, int, np.integer)) or isinstance(i, bool):
            raise DomainError(f"tape indexing takes slices and integers, not {type(i).__name__}")
    av = _val(a)
    out = av[idx]
    if not isinstance(a, Node):
        return Node(out)

    def vjp(g):
        z = np.zeros_like(av)
        z[idx] = g
        return z

    return Node(out, (a,), (vjp,))


def _accumulate(acc, contrib):
    if acc is None:
        return contrib
    if contrib is None:
        return acc
    if isinstance(acc, tuple):
        return tuple(_accumulate(x, y) for x, y in zip(acc, contrib))
    return acc + contrib


def gradient(root: Node, wrt: Node):
    """Cotangent of a scalar root w.r.t. the node ``wrt``."""
    if np.size(root.value) != 1:
        raise DomainError("gradient root must be scalar")

    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    cotangents = {id(root): np.ones_like(np.asarray(root.value))}
    for node in reversed(order):
        g = cotangents.pop(id(node), None)
        if g is None:
            continue
        # reverse topological order: every consumer of wrt has already added its share
        if node is wrt:
            return g
        for parent, vjp in zip(node.parents, node.vjps):
            contrib = vjp(g)
            if contrib is None:
                continue
            cotangents[id(parent)] = _accumulate(cotangents.get(id(parent)), contrib)
    return np.zeros_like(wrt.value)
