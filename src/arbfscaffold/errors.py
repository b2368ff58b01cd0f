"""Exception types shared across the library, and the integer check of its API values."""

import operator


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


def integer(value, name: str) -> int:
    """``value`` as a Python int if it is a Python or numpy integer.

    Anything else, a float even when its value is whole, raises
    ValidationError naming the value, before it can be rounded or used.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
