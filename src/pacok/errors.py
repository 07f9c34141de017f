"""Exception types shared across the package."""


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


class NoCrossingError(PacokError, ValueError):
    """A ray probe found no level crossings."""


class CorruptCheckpointError(PacokError, ValueError):
    """A checkpoint file is malformed; the offset names the first bad byte."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"{message} (at byte offset {offset})")


class UnsupportedVersionError(CorruptCheckpointError):
    """A checkpoint file declares a version this reader does not speak."""
