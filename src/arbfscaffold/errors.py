"""Exception types shared across the library, and integer() and real(), the one check of
each number its API takes: a wrong kind, a non-finite real or a value out of range."""

import math
import numbers


class ScaffoldError(Exception):
    """Base class for all library-specific errors."""


class ParseError(ScaffoldError):
    """A mesh, volume, or model file could not be parsed."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc = f"{path}:{line}: " if path is not None else f"line {line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class ValidationError(ScaffoldError):
    """Parsed data violates a structural invariant (bad index, degenerate cell, ...)."""


class DuplicateCenterError(ScaffoldError):
    """Two interpolation centers coincide; usually signals a degenerate input mesh."""


class SingularMatrixError(ScaffoldError):
    """The interpolation system is singular or numerically rank-deficient."""


class InvalidBBoxError(ScaffoldError):
    """A bounding box has non-positive extent along some axis."""


class HeaderMismatchError(ScaffoldError):
    """A volume header disagrees with the payload it describes."""


class DegenerateResultError(ScaffoldError):
    """An operation produced a degenerate mesh (zero-measure cell)."""


def integer(value, name: str, lo=-math.inf, hi=math.inf) -> int:
    """``value`` as a Python int if it is a Python or numpy integer (no float) in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return _within(int(value), value, name, lo, hi, False)


def real(value, name: str, lo=-math.inf, hi=math.inf, *, above=False) -> float:
    """``value`` as a Python float if it is a finite real number in [lo, hi], lo
    excluded when ``above``; a bool, str, complex or array is not a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return _within(x, value, name, lo, hi, above)


def _within(x, value, name: str, lo, hi, above: bool):
    """``x`` if it lies in [lo, hi] (lo excluded when ``above``), else ValidationError."""
    if (lo < x if above else lo <= x) and x <= hi:
        return x
    bounds = (f"in {'(' if above else '['}{lo:g}, {hi:g}]" if hi < math.inf
              else f"{'>' if above else '>='} {lo:g}")
    raise ValidationError(f"{name} must be {bounds}, got {value!r}")
