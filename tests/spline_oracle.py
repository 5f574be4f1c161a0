"""One design's spline evaluated on its own, apart from the package's batched code.

The gather and the Horner forms repeat ``geometry._eval_batch`` operation for
operation, so a test may compare the two bit for bit.
"""

import numpy as np

from mixopt.errors import DomainError
from mixopt.geometry import KNOTS


def eval_spline(coeffs, x):
    """(value, slope) of the spline coeffs (4, 4) at x in [0, 0.5], shaped like ``x``."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa < KNOTS[0]) or np.any(xa > KNOTS[-1]):
        raise DomainError(f"spline argument outside [{KNOTS[0]}, {KNOTS[-1]}]")
    seg = np.clip(np.searchsorted(KNOTS, xa, side="right") - 1, 0, 3)
    t = xa - KNOTS[seg]
    a, b, c, d = (coeffs[seg, k] for k in range(4))
    value, slope = a + t * (b + t * (c + t * d)), b + t * (2.0 * c + 3.0 * d * t)
    if np.isscalar(x):
        return float(value), float(slope)
    return value, slope


def unit_normal(coeffs, x):
    """Unit normal (-s', 1)/sqrt(1 + s'^2) to the curve at x; shape (..., 2)."""
    _, slope = eval_spline(coeffs, x)
    slope = np.asarray(slope, dtype=float)
    scale = 1.0 / np.sqrt(1.0 + slope * slope)
    return np.stack([-slope * scale, np.broadcast_to(scale, slope.shape)], axis=-1)
