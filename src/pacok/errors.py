"""Exception types shared across the package, and the input checks that raise them.

Each input rule has one definition here, which every entry point it governs
calls: :func:`require_positive` (finite and positive, so a config's ``NaN`` or
``Infinity`` literal fails it), :func:`require_nonnegative` (finite and
nonnegative), :func:`whole_number` (an int, or an integral float) and
:func:`require_axes` (one finite component per grid axis). Each raises a
ValueError, or the subclass its caller passes, naming the argument, also
for a value that is not a real number (:func:`is_real`): a config's string,
null, list or ``true``.
"""

import math
import numbers
import operator


class PacokError(Exception):
    """Base class for all package-specific errors."""


class InvalidFieldError(PacokError, ValueError):
    """A field carries non-finite samples or a wrong sample count."""


class GridMismatchError(PacokError, ValueError):
    """Two fields that must share a grid do not."""


class DivergenceError(PacokError, RuntimeError):
    """Time stepping produced non-finite samples or a non-finite (overflowing) energy.

    ``state``, when given, is the last state whose samples are finite (a
    :class:`~pacok.dynamics.RunState`).
    """

    def __init__(self, step: int, message: str | None = None, state=None):
        self.step = step
        self.state = state
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


def is_real(value) -> bool:
    """True for a real number that is not a bool (JSON's true and false are ints to Python)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_positive(*, error: type[ValueError] = ValueError, **values: float) -> None:
    """An ``error`` naming the first of ``values`` that is not finite and positive."""
    for name, value in values.items():
        if not (is_real(value) and 0 < value < math.inf):
            raise error(f"{name} must be finite and positive, got {value!r}")


def require_nonnegative(**values: float) -> None:
    """A ValueError naming the first of ``values`` that is not finite and nonnegative."""
    for name, value in values.items():
        if not (is_real(value) and 0 <= value < math.inf):
            raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def whole_number(name: str, value) -> int:
    """``value`` as an int; a ValueError that names ``name`` unless it is a whole number."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return operator.index(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def require_axes(name: str, values, dim: int) -> None:
    """A ValueError naming ``name`` unless ``values`` is one finite number per grid axis."""
    try:
        shown = components = tuple(values)
    except TypeError:  # a bare number or null has no components
        shown, components = repr(values), ()
    if len(components) != dim or not all(is_real(x) and math.isfinite(x) for x in components):
        raise ValueError(f"{name} must be one finite number per axis of the {dim}-D grid, "
                         f"got {shown}")
