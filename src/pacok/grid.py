"""Periodic uniform grids and spectral operators.

Fields live on a uniform periodic grid in 2-D or 3-D. All differential
operators are Fourier-spectral: the Laplacian multiplies coefficients by
-|k|^2, the zero-mean Poisson solve divides by |k|^2 with the zero mode
pinned to 0, and quadratic forms use the discrete Parseval identity.
Wavenumbers follow k_j = 2*pi*m_j/L_j with m_j in the symmetric integer
range; the Nyquist mode is retained.

Arrays are stored C-ordered with x as the fastest axis, i.e. a field on an
(Nx, Ny, Nz) grid has array shape (Nz, Ny, Nx).

The Fourier basis is defined here alone; other modules see only multipliers
on the half-spectrum (complex, shaped ``spectrum_shape``). The one forward
transform, multiply and in-place inverse is :func:`apply_multiplier`, and
the one Parseval sum :func:`quadratic_form`; both write into buffers the
caller may lend, so the time stepper and ``total_energy`` allocate nothing
field-sized. :func:`apply_multiplier` is three parts, each of which may be
taken over any axis-0 slice (rows) or axis-1 slice (columns) of the field:
:func:`transform_rows`, :func:`multiply_columns` and :func:`invert_rows`.
numpy transforms each 1-D line on its own, so the result has the same bits
however the parts are cut. The standalone operators (:func:`poisson_solve`,
:func:`laplacian`, :func:`translate` and :func:`dirichlet_energy`) allocate
a half-spectrum and their result per call; a caller that lends them calls
:func:`apply_multiplier` with the factors (:func:`translation`) itself. A
:class:`GridSpec` describes geometry only; how a step walks or threads its
fields is the stepper's.
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
        try:
            points, lengths = tuple(self.points), tuple(self.lengths)
        except TypeError:
            raise ValueError(f"points and lengths must list one number per axis, got "
                             f"{self.points!r} and {self.lengths!r}") from None
        points = tuple(whole_number(f"points[{axis}]", n) for axis, n in enumerate(points))
        if len(points) not in (2, 3):
            raise ValueError(f"grid dimension must be 2 or 3, got {len(points)}")
        if len(lengths) != len(points):
            raise ValueError("points and lengths must have the same dimension")
        if any(n < 4 or n % 2 for n in points):
            raise ValueError(f"point counts must be even and >= 4, got {points}")
        require_positive(**{f"lengths[{axis}]": length for axis, length in enumerate(lengths)})
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "lengths", tuple(map(float, lengths)))

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


def angular_wavenumbers(n: int, spacing: float, half: bool) -> np.ndarray:
    """k = 2*pi*m/(n*spacing) of n samples, on the ``rfft`` layout when ``half``
    (m = 0..n/2), else on the ``fft`` layout."""
    return 2.0 * np.pi * (np.fft.rfftfreq if half else np.fft.fftfreq)(n, d=spacing)


@lru_cache(maxsize=64)
def _wavenumbers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Angular wavenumbers per axis (x first) on the rfftn layout.

    Each array is shaped to broadcast against the rfftn coefficients.
    """
    dim = grid.dim
    out = []
    for axis in range(dim):
        k = angular_wavenumbers(grid.points[axis], grid.spacing[axis], half=axis == 0)
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


def _half_view(grid: GridSpec, buffer: np.ndarray) -> np.ndarray:
    """An array of ``buffer``'s dtype shaped ``grid.spectrum_shape`` in the
    memory of the C-contiguous ``buffer``, which holds at least as many."""
    return buffer.reshape(-1)[:math.prod(grid.spectrum_shape)].reshape(grid.spectrum_shape)


def spectrum_buffer(grid: GridSpec, memory: np.ndarray | None = None) -> np.ndarray:
    """An uninitialised half-spectrum: complex, shaped ``grid.spectrum_shape``.

    It is allocated, or taken from the memory of ``memory``, a C-contiguous
    float64 array of at least twice as many values (one and a bit fields).
    """
    if memory is None:
        return np.empty(grid.spectrum_shape, dtype=np.complex128)
    return _half_view(grid, memory.reshape(-1).view(np.complex128))


def _inv_k_squared(grid: GridSpec, scratch: np.ndarray | None = None) -> np.ndarray:
    """1/|k|^2 on the rfftn layout, with the zero mode pinned to 0; formed in
    the memory of ``scratch`` (a C-contiguous float64 field buffer) when given.

    Not cached: it is as large as |k|^2, and a cached copy measured 1-3 MB more
    peak RSS on the analyze benchmark workload. ``ExplicitForce`` keeps one per
    instance, so time stepping builds it once per run and a step allocates
    nothing field-sized; ``total_energy`` forms it in a field buffer it
    already holds, and ``poisson_solve`` builds it on every call, beside the
    one half-spectrum of its transform.
    """
    k2 = _k_squared(grid)
    inv = np.empty(k2.shape) if scratch is None else _half_view(grid, scratch)
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


def transform_rows(values: np.ndarray, spec: np.ndarray, rows: slice) -> None:
    """The forward transform of ``values[rows]`` over every axis but axis 0,
    written into ``spec[rows]``; ``rows`` is an axis-0 slice.

    The first of the three parts of :func:`apply_multiplier`: numpy's
    ``rfftn`` takes the last axis first and axis 0 last, so these passes
    followed by :func:`multiply_columns` over every column are its transform,
    bit for bit. Every 1-D line is transformed on its own, so the rows may be
    taken in parts, in any order or at once, with the same bits.
    """
    # s as Python ints: rfftn's own default takes numpy ints, a slower path
    np.fft.rfftn(values[rows], s=values.shape[1:], axes=tuple(range(1, values.ndim)),
                 out=spec[rows])


def multiply_columns(spec: np.ndarray, columns: slice, *factors: np.ndarray) -> None:
    """The transform along axis 0 of ``spec[:, columns]``, then the product
    of ``factors`` (arrays that broadcast against ``spec``), then the inverse
    along axis 0, in place; ``columns`` is an axis-1 slice.

    The middle part of :func:`apply_multiplier`. It needs every row's
    :func:`transform_rows` done first and comes before any
    :func:`invert_rows`; like them it may be taken in parts.
    """
    block = spec[:, columns]
    np.fft.fft(block, axis=0, out=block)
    for factor in factors:
        factor = np.asarray(factor)
        axis = factor.ndim - spec.ndim + 1  # the factor's axis under spec's axis 1
        if axis >= 0 and factor.shape[axis] > 1:
            factor = factor[(slice(None),) * axis + (columns,)]
        block *= factor
    np.fft.ifft(block, axis=0, out=block)


def invert_rows(spec: np.ndarray, out: np.ndarray, rows: slice) -> None:
    """The inverse transform of ``spec[rows]`` over every axis but axis 0,
    written into ``out[rows]``; ``spec[rows]`` is overwritten.

    The last part of :func:`apply_multiplier`. With axis 0 inverted first
    (:func:`multiply_columns`), these passes go in ``irfftn``'s order:
    complex ``ifft`` in place over the middle axes, then ``irfft`` of the
    last axis into ``out``, so nothing field-sized is allocated.
    """
    block = spec[rows]
    for axis in range(1, spec.ndim - 1):
        np.fft.ifft(block, axis=axis, out=block)
    np.fft.irfft(block, n=out.shape[-1], axis=-1, out=out[rows])


def apply_multiplier(grid: GridSpec, values: np.ndarray, *factors: np.ndarray,
                     spec: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse transform of M times the transform of ``values``, written into
    ``out`` and returned; M is the product of ``factors``, arrays that
    broadcast against ``grid.spectrum_shape``, applied in turn.

    It is :func:`transform_rows`, :func:`multiply_columns` and
    :func:`invert_rows`, each over the whole field: bitwise numpy's
    ``rfftn``, the products and ``irfftn``. A caller that wants the work in
    parts calls the three itself. The transform goes into ``spec`` (see
    :func:`spectrum_buffer`) and is inverted in place. ``out`` (a float64
    field buffer) may be ``values`` itself. With both lent the call
    allocates nothing field-sized; without, one fresh half-spectrum and one
    fresh result.
    """
    spec = spectrum_buffer(grid) if spec is None else spec
    whole = slice(None)
    transform_rows(values, spec, whole)
    multiply_columns(spec, whole, *factors)
    # allocated after the products, whose cast buffers would otherwise raise the peak
    out = np.empty(grid.shape) if out is None else out
    invert_rows(spec, out, whole)
    return out


def poisson_solve(w: Field) -> Field:
    """Zero-mean solution of -lap(phi) = w - mean(w), periodic."""
    return Field(w.grid, apply_multiplier(w.grid, w.values, _inv_k_squared(w.grid)))


def laplacian(f: Field) -> Field:
    """Spectral Laplacian: multiply coefficients by -|k|^2."""
    return Field(f.grid, apply_multiplier(f.grid, f.values, -_k_squared(f.grid)))


def translation(grid: GridSpec, shift) -> tuple[np.ndarray, ...]:
    """The factors of f -> f(x + shift) for :func:`apply_multiplier`: one
    phase exp(i*k*t) per axis, each shaped to broadcast against the
    half-spectrum; ``shift`` is one length t per axis (x first)."""
    require_axes("shift", shift, grid.dim)
    return tuple(np.exp(1j * k * t) for k, t in zip(_wavenumbers(grid), shift))


def translate(f: Field, shift) -> Field:
    """f(x + shift) by a Fourier phase shift; ``shift`` is one length per axis (x first)."""
    return Field(f.grid, apply_multiplier(f.grid, f.values, *translation(f.grid, shift)))


def integrate(f: Field) -> float:
    """Cell-volume-weighted sum (midpoint rule; exact for trig polynomials)."""
    return integrate_array(f.grid, f.values)


def integrate_array(grid: GridSpec, values: np.ndarray) -> float:
    return grid.cell_volume * float(values.sum())


def dirichlet_energy(f: Field) -> float:
    """Integral of |grad f|^2 via Parseval."""
    return quadratic_form(f.grid, f.values, _k_squared(f.grid))


def quadratic_form(grid: GridSpec, values: np.ndarray, multiplier: np.ndarray,
                   spec: np.ndarray | None = None) -> float:
    """Integral of g*M(g) over the box by Parseval, for the samples g = ``values``
    and the real symmetric Fourier multiplier M = ``multiplier``.

    The transform goes into ``spec`` (see :func:`spectrum_buffer`), which
    must not hold ``multiplier``, and |g_hat|^2 is formed in place in its
    real parts; summing them where they lie gives the bits of a contiguous
    copy. With ``spec`` lent the call allocates nothing field-sized.
    """
    spec = np.fft.rfftn(values, out=spectrum_buffer(grid) if spec is None else spec)
    square = np.multiply(spec.real, spec.real, out=spec.real)
    square += np.multiply(spec.imag, spec.imag, out=spec.imag)
    square *= multiplier
    # every coefficient stands for its conjugate too, but those of the planes
    # k_x = 0 and k_x = Nyquist (nx is even), which are self-conjugate
    total = 2.0 * float(square.sum()) - float(square[..., 0].sum()) - float(square[..., -1].sum())
    return grid.cell_volume / grid.size * total
