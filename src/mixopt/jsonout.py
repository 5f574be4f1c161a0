"""Strict JSON output: every line the package writes parses under RFC 8259."""

from __future__ import annotations

import json
import math


def _finite(value):
    """The payload with every non-finite float (nan, +-inf) replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def dumps(payload) -> str:
    """One JSON object with sorted keys; a non-finite float is written as null.

    ``allow_nan=False`` makes any non-finite value that gets past the
    replacement an error instead of a bare ``NaN`` token.
    """
    return json.dumps(_finite(payload), sort_keys=True, allow_nan=False)
