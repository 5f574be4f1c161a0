"""Exception types shared across the package, and the integer and real field checks."""

import math
import numbers


class DomainError(ValueError):
    """An argument value is outside its documented domain."""


class SamplingError(RuntimeError):
    """Sample generation could not satisfy its constraints."""


class NumericalError(ArithmeticError):
    """A numeric routine encountered non-finite values."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent."""


class ConfigError(ValueError):
    """A run configuration is malformed."""


def check_int(name: str, value, minimum: int) -> None:
    """Raise DomainError unless ``value`` is an integer (a bool is not one)
    no smaller than ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value!r}")


def check_real(name: str, value, low: float, high: float = math.inf, above: bool = False) -> float:
    """``value`` as a float; raise DomainError unless it is a finite real number
    (a bool is not one) in [low, high], or in (low, high] with ``above``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer too large for a float
        x = math.inf
    # NaN fails every comparison, so the range test also rejects it
    if not ((low < x if above else low <= x) and x <= high and math.isfinite(x)):
        raise DomainError(f"{name} must lie within {'(' if above else '['}{low:.6g}, {high:.6g}"
                          f"{')' if high == math.inf else ']'}, got {value!r}")
    return x


def check_ints(obj, **minimums) -> None:
    """check_int on each named field of ``obj`` with its given minimum."""
    for name, minimum in minimums.items():
        check_int(name, getattr(obj, name), minimum)


def check_widths(obj, *names) -> None:
    """check_int (minimum 1) on each layer width of the named fields of a
    frozen ``obj``, and store each field as a tuple of ints."""
    for name in names:
        widths = tuple(getattr(obj, name))
        for i, width in enumerate(widths):
            check_int(f"{name}[{i}]", width, 1)
        object.__setattr__(obj, name, tuple(int(w) for w in widths))
