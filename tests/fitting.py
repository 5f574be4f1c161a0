"""Least-squares line fit that the GA tests use to read how run time grows."""

import numpy as np

from mixopt.errors import DomainError


def linear_r2(xs, ys) -> float:
    """Coefficient of determination of the least-squares line through (xs, ys)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 2:
        raise DomainError("need at least 2 points for a linear fit")
    coeffs = np.polyfit(xs, ys, 1)
    resid = ys - np.polyval(coeffs, xs)
    ss_tot = np.sum((ys - ys.mean()) ** 2)
    if ss_tot == 0.0:
        return 1.0
    return float(1.0 - np.sum(resid ** 2) / ss_tot)
