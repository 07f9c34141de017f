"""Exception types shared across the package, and the input checks that raise them.

Each input rule has one definition here, which every entry point it governs
calls: :func:`require_positive` (finite and positive, so a config's ``NaN`` or
``Infinity`` literal fails it), :func:`require_nonnegative` (finite and
nonnegative), :func:`whole_number` (an int, or an integral float) and
:func:`require_axes` (one finite component per grid axis). Each raises a
ValueError, or the subclass its caller passes, naming the argument.
"""

import math
import operator


class PacokError(Exception):
    """Base class for all package-specific errors."""


class InvalidFieldError(PacokError, ValueError):
    """A field carries non-finite samples or a wrong sample count."""


class GridMismatchError(PacokError, ValueError):
    """Two fields that must share a grid do not."""


class DivergenceError(PacokError, RuntimeError):
    """Time stepping produced non-finite samples or a non-finite (overflowing) energy."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite field detected at step {step}")


class InvalidCandidateError(PacokError, ValueError):
    """A radial candidate violates its mass constraints or radius ordering."""


class OptimizationError(PacokError, RuntimeError):
    """The radial optimizer failed to converge to a stationary candidate."""


class OutOfRangeError(PacokError, ValueError):
    """An argument lies outside the validity window of a closed form."""


class ZeroMassError(PacokError, ValueError):
    """Mass rescaling requested on a field with non-positive mass."""


class DegenerateFitError(PacokError, ValueError):
    """The least-squares design matrix is rank deficient."""


class CorruptCheckpointError(PacokError, ValueError):
    """A checkpoint file is malformed; the offset names the first bad byte."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"{message} (at byte offset {offset})")


class UnsupportedVersionError(CorruptCheckpointError):
    """A checkpoint file declares a version this reader does not speak."""


def require_positive(*, error: type[ValueError] = ValueError, **values: float) -> None:
    """An ``error`` naming the first of ``values`` that is not finite and positive."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise error(f"{name} must be finite and positive, got {value}")


def require_nonnegative(**values: float) -> None:
    """A ValueError naming the first of ``values`` that is not finite and nonnegative."""
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def whole_number(name: str, value) -> int:
    """``value`` as an int; a ValueError that names ``name`` unless it is a whole number."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a whole number, got {value!r}") from None


def require_axes(name: str, values, dim: int) -> None:
    """A ValueError naming ``name`` unless ``values`` is one finite number per grid axis."""
    if len(values) != dim or not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be one finite number per axis of the {dim}-D grid, "
                         f"got {tuple(values)}")
