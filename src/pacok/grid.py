"""Periodic uniform grids and spectral operators.

Fields live on a uniform periodic grid in 2-D or 3-D. All differential
operators are Fourier-spectral: the Laplacian multiplies coefficients by
-|k|^2, the zero-mean Poisson solve divides by |k|^2 with the zero mode
pinned to 0, and quadratic forms use the discrete Parseval identity.
Wavenumbers follow k_j = 2*pi*m_j/L_j with m_j in the symmetric integer
range; the Nyquist mode is retained.

Arrays are stored C-ordered with x as the fastest axis, i.e. a field on an
(Nx, Ny, Nz) grid has array shape (Nz, Ny, Nx).

Every forward transform writes into one half-spectrum (complex, shaped
``spectrum_shape``) and every inverse runs in place through
:func:`irfftn_into`. The standalone operators (:func:`poisson_solve`,
:func:`laplacian`, :func:`translate`, and :func:`dirichlet_energy` when no
buffers are lent) allocate that half-spectrum and their result per call;
the time stepper and ``total_energy`` lend buffers they already hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridMismatchError, InvalidFieldError, require_axes, require_positive, whole_number


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, L_x) x [0, L_y) (x [0, L_z)).

    Parameters
    ----------
    points : tuple of int
        Nodes per axis (N_x, N_y[, N_z]); each even and >= 4.
    lengths : tuple of float
        Box edge lengths (L_x, L_y[, L_z]); each finite and > 0.
    """

    points: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        points = tuple(whole_number(f"points[{axis}]", n) for axis, n in enumerate(self.points))
        lengths = tuple(float(value) for value in self.lengths)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "lengths", lengths)
        if len(points) not in (2, 3):
            raise ValueError(f"grid dimension must be 2 or 3, got {len(points)}")
        if len(lengths) != len(points):
            raise ValueError("points and lengths must have the same dimension")
        if any(n < 4 or n % 2 for n in points):
            raise ValueError(f"point counts must be even and >= 4, got {points}")
        require_positive(**{f"lengths[{axis}]": length for axis, length in enumerate(lengths)})

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(length / n for length, n in zip(self.lengths, self.points))

    @cached_property
    def cell_volume(self) -> float:
        """Product of the spacings, computed on first use and kept: the force
        reads it twice per step."""
        return float(np.prod(self.spacing))

    @property
    def shape(self) -> tuple[int, ...]:
        """Array shape; axes reversed so that x varies fastest (C order)."""
        return tuple(reversed(self.points))

    @property
    def spectrum_shape(self) -> tuple[int, ...]:
        """Array shape of the ``rfftn`` coefficients: the last axis halved, plus one."""
        shape = self.shape
        return shape[:-1] + (shape[-1] // 2 + 1,)

    @property
    def size(self) -> int:
        return math.prod(self.points)  # exact: np.prod wraps at 2**63

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis (0 = x)."""
        n = self.points[axis]
        return np.arange(n) * (self.lengths[axis] / n)

    def coords(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays [X, Y(, Z)] matching ``shape``."""
        out = []
        for axis in range(self.dim):
            c = self.axis_coordinates(axis)
            shape = [1] * self.dim
            shape[self.dim - 1 - axis] = self.points[axis]
            out.append(c.reshape(shape))
        return out


@lru_cache(maxsize=64)
def _wavenumbers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Angular wavenumbers per axis (x first) on the rfftn layout.

    Each array is shaped to broadcast against the rfftn coefficients.
    """
    dim = grid.dim
    out = []
    for axis in range(dim):
        n, h = grid.points[axis], grid.spacing[axis]
        if axis == 0:
            k = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
        else:
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        shape = [1] * dim
        shape[dim - 1 - axis] = k.size
        k = k.reshape(shape)
        k.flags.writeable = False
        out.append(k)
    return tuple(out)


@lru_cache(maxsize=64)
def _k_squared(grid: GridSpec) -> np.ndarray:
    """|k|^2 on the rfftn layout for ``grid``."""
    k2 = sum(k ** 2 for k in _wavenumbers(grid))
    k2.flags.writeable = False
    return k2


def _inv_k_squared(grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """1/|k|^2 on the rfftn layout, with the zero mode pinned to 0; written
    into ``out`` (shaped ``grid.spectrum_shape``) when given.

    Not cached: it is as large as |k|^2, and a cached copy measured 1-3 MB more
    peak RSS on the analyze benchmark workload. ``ExplicitForce`` keeps one per
    instance, so time stepping builds it once per run and a step allocates
    nothing field-sized; ``total_energy`` forms it in field memory it already
    holds, and ``poisson_solve`` builds it on every call, beside the one
    half-spectrum of its transform.
    """
    k2 = _k_squared(grid)
    inv = np.empty(k2.shape) if out is None else out
    with np.errstate(divide="ignore"):
        np.divide(1.0, k2, out=inv)
    inv[(0,) * grid.dim] = 0.0  # the zero mode, the only one with |k| = 0
    return inv


@dataclass(frozen=True, eq=False)
class Field:
    """Real scalar samples on a :class:`GridSpec`, one per node, shaped ``grid.shape``."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != self.grid.shape:
            raise InvalidFieldError(
                f"expected samples shaped {self.grid.shape}, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidFieldError("field contains non-finite samples")
        object.__setattr__(self, "values", values)

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "Field":
        return cls(grid, np.broadcast_to(fn(*grid.coords()), grid.shape).copy())


def require_same_grid(*fields: Field) -> GridSpec:
    grid = fields[0].grid
    for other in fields[1:]:
        if other.grid != grid:
            raise GridMismatchError(f"grids differ: {grid} vs {other.grid}")
    return grid


def irfftn_into(spec: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Inverse of ``rfftn`` over every axis, written into ``out`` and returned.

    Bitwise equal to ``np.fft.irfftn(spec, s=out.shape, axes=all)``, but it
    allocates nothing field-sized: complex ``ifft`` passes run in place over
    the leading axes, in irfftn's order, and ``irfft`` writes the last axis
    into ``out``. ``spec`` is overwritten.
    """
    for axis in range(spec.ndim - 1):
        np.fft.ifft(spec, axis=axis, out=spec)
    return np.fft.irfft(spec, n=out.shape[-1], axis=-1, out=out)


def _spectrum(f: Field, out: np.ndarray | None = None) -> np.ndarray:
    """``rfftn`` of ``f``, written into ``out`` (complex, shaped
    ``grid.spectrum_shape``) or else into one fresh half-spectrum.

    Without ``out=`` numpy gives every axis pass its own fresh array; with it
    all passes run in place, bitwise equal and about twice as fast at 64^3.
    """
    if out is None:
        out = np.empty(f.grid.spectrum_shape, dtype=np.complex128)
    return np.fft.rfftn(f.values, out=out)


def poisson_solve(w: Field) -> Field:
    """Zero-mean solution of -lap(phi) = w - mean(w), periodic."""
    spec = _spectrum(w)
    spec *= _inv_k_squared(w.grid)
    return Field(w.grid, irfftn_into(spec, np.empty(w.grid.shape)))


def laplacian(f: Field) -> Field:
    """Spectral Laplacian: multiply coefficients by -|k|^2."""
    spec = _spectrum(f)
    spec *= -_k_squared(f.grid)
    return Field(f.grid, irfftn_into(spec, np.empty(f.grid.shape)))


def translate(f: Field, shift) -> Field:
    """f(x + shift) by a Fourier phase shift; ``shift`` is one length per axis (x first)."""
    require_axes("shift", shift, f.grid.dim)
    spec = _spectrum(f)
    for k, t in zip(_wavenumbers(f.grid), shift):
        spec *= np.exp(1j * k * t)
    return Field(f.grid, irfftn_into(spec, np.empty(f.grid.shape)))


def integrate(f: Field) -> float:
    """Cell-volume-weighted sum (midpoint rule; exact for trig polynomials)."""
    return f.grid.cell_volume * float(f.values.sum())


def integrate_array(grid: GridSpec, values: np.ndarray) -> float:
    return grid.cell_volume * float(values.sum())


def dirichlet_energy(f: Field, spec: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> float:
    """Integral of |grad f|^2 via Parseval.

    With ``spec`` (complex, shaped ``grid.spectrum_shape``) and ``out`` (see
    :func:`parseval_sum`) it allocates nothing field-sized; both are overwritten.
    """
    return parseval_sum(f.grid, _spectrum(f, spec), _k_squared(f.grid), out)


def parseval_sum(grid: GridSpec, spec: np.ndarray, multiplier: np.ndarray,
                 out: np.ndarray | None = None) -> float:
    """Integral of g*M(g) over the box, where g has rfftn coefficients ``spec``
    and M is the real symmetric Fourier multiplier ``multiplier``.

    With ``out``, a float64 array shaped like ``spec`` that aliases neither
    ``spec`` nor ``multiplier``, the sum allocates nothing field-sized:
    |spec|^2 is formed in ``out``, and ``spec``'s imaginary part is
    overwritten on the way.
    """
    square = np.multiply(spec.real, spec.real, out=out)
    square += np.multiply(spec.imag, spec.imag, out=None if out is None else spec.imag)
    square *= multiplier
    # every coefficient stands for its conjugate too, but those of the planes
    # k_x = 0 and k_x = Nyquist (nx is even), which are self-conjugate
    total = 2.0 * float(square.sum()) - float(square[..., 0].sum()) - float(square[..., -1].sum())
    return grid.cell_volume / grid.size * total
