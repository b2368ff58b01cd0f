"""The ScaffoldError types, one per distinction a caller draws: ParseError for a file
(path:line), ValidationError for a value handed to the API, SingularMatrixError for a
fit (CLI exit 3).  And integer(), real(), point_array() and index_array(), the one check
of each number and array the API takes."""

import math
import numbers

import numpy as np


class ScaffoldError(Exception):
    """Base class for all library-specific errors."""


class ParseError(ScaffoldError):
    """A mesh, volume, or model file could not be read: the message starts path: or path:line:."""

    def __init__(self, message, path, line=None):
        loc = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class ValidationError(ScaffoldError):
    """A value handed to the API cannot be right: a bad index, a degenerate cell or bbox,
    coinciding centers, a perturbation that collapsed a cell, ..."""


class SingularMatrixError(ScaffoldError):
    """The interpolation system is singular or numerically rank-deficient (CLI exit 3)."""


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


def point_array(value, name: str) -> np.ndarray:
    """``value`` as a C-contiguous float64 (n, 3) array of finite coordinates, one row for a
    single (3,) point; such an array comes back without a copy."""
    try:
        a = np.ascontiguousarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be a numeric array: {exc}") from None
    if a.shape == (3,):
        a = a.reshape(1, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValidationError(f"{name} must have shape (n, 3) or (3,), got {a.shape}")
    if not np.isfinite(a).all():
        i = int(np.argmin(np.isfinite(a).all(axis=1)))
        raise ValidationError(f"{name} must be finite, got {a[i]} at row {i}")
    return a


def index_array(value, name: str, n: int, width: int) -> np.ndarray:
    """``value`` as a signed-integer (m, width) array of indices in 0..n - 1: integral floats
    and unsigned integers become int64, and a signed-integer array comes back without a copy."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a numeric array: {exc}") from None
    if a.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must hold integers, got dtype {a.dtype}")
    if a.ndim != 2 or a.shape[1] != width:
        raise ValidationError(f"{name} must have shape (m, {width}), got {a.shape}")
    if a.size:
        if a.dtype.kind == "f":
            whole = np.isfinite(a) & (a == np.floor(a))
            if not whole.all():
                raise ValidationError(f"{name} must hold integers, got {a[~whole][0]}")
        lo, hi = a.min(), a.max()
        if lo < 0 or hi >= n:
            raise ValidationError(f"{name} must hold indices in 0..{n - 1}, "
                                  f"got {int(lo if lo < 0 else hi)}")
    return a if a.dtype.kind == "i" else a.astype(np.int64)
