"""Initial phase-field pairs from signed distances and tanh profiles.

A bilayer seed places the core phase u in a band of half-thickness
``u_half_thickness`` around a midsurface, flanked on both sides by the head
phase v of thickness ``v_thickness`` (default zeta * u_half_thickness per
side, the sharp-interface optimal (zeta, 2, zeta) split). Each shape gives
the unsigned distance to its midsurface (``distance(grid)``; for a ball, the
distance to its center), and :func:`build_bilayer` applies both profiles to
it: (1 + tanh(3 d / eps)) / 2 in the signed distance d to each level set.

Distances use minimum-image (wrap-around) coordinate differences, so the
generated fields are genuinely periodic; a geometry too large for the box
triggers a warning, not an error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ZeroMassError, is_real, require_axes, require_nonnegative, require_positive,
                     whole_number)
from .grid import Field, GridSpec, integrate

_PROFILE_SLOPE = 3.0


def tanh_profile(signed_distance, epsilon: float):
    """(1 + tanh(3 d / eps)) / 2; 1 deep inside (d >> 0), 0 outside."""
    require_positive(epsilon=epsilon)
    return 0.5 * (1.0 + np.tanh(_PROFILE_SLOPE * np.asarray(signed_distance) / epsilon))


def _wrapped_deltas(grid: GridSpec, center) -> list[np.ndarray]:
    """Minimum-image coordinate offsets from ``center``, broadcastable."""
    require_axes("center", center, grid.dim)
    deltas = []
    for axis, x in enumerate(grid.coords()):
        length = grid.lengths[axis]
        d = np.mod(x - center[axis] + 0.5 * length, length) - 0.5 * length
        deltas.append(d)
    return deltas


def _radius_from_center(grid: GridSpec, center) -> np.ndarray:
    deltas = _wrapped_deltas(grid, center)
    r2 = sum(d * d for d in deltas)
    return np.sqrt(np.broadcast_to(r2, grid.shape))


@dataclass(frozen=True)
class Ball:
    """Solid core of phase u (micelle seed); u_half_thickness defaults to the radius."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        require_positive(radius=self.radius)

    def distance(self, grid):
        return _radius_from_center(grid, self.center)

    def extent(self):
        return self.radius

    def pins_u_half(self):
        return self.radius


@dataclass(frozen=True)
class Shell:
    """Spherical/circular bilayer: u occupies inner_radius < r < outer_radius."""

    center: tuple[float, ...]
    inner_radius: float
    outer_radius: float

    def __post_init__(self) -> None:
        require_positive(inner_radius=self.inner_radius, outer_radius=self.outer_radius)
        if not self.inner_radius < self.outer_radius:
            raise ValueError(f"inner_radius must be below outer_radius, got inner_radius "
                             f"{self.inner_radius} and outer_radius {self.outer_radius}")

    def distance(self, grid):
        mid = 0.5 * (self.inner_radius + self.outer_radius)
        return np.abs(_radius_from_center(grid, self.center) - mid)

    def extent(self):
        return self.outer_radius

    def pins_u_half(self):
        return 0.5 * (self.outer_radius - self.inner_radius)


@dataclass(frozen=True)
class Slab:
    """Flat bilayer patch (disk in 3-D, segment in 2-D); infinite if radius is None."""

    center: tuple[float, ...]
    normal: tuple[float, ...]
    half_thickness: float
    radius: float | None = None

    def __post_init__(self) -> None:
        require_positive(half_thickness=self.half_thickness)
        if self.radius is not None:
            require_positive(radius=self.radius)

    def distance(self, grid):
        require_axes("normal", self.normal, grid.dim)
        deltas = _wrapped_deltas(grid, self.center)
        norm = float(np.linalg.norm(self.normal))
        require_positive(**{"|normal|": norm})  # with finite components: nonzero
        normal = np.asarray(self.normal, dtype=np.float64) / norm
        axial = sum(d * comp for d, comp in zip(deltas, normal))
        if self.radius is None:
            dist = np.abs(axial)
        else:
            perp2 = sum(d * d for d in deltas) - axial * axial
            rho = np.sqrt(np.maximum(np.broadcast_to(perp2, grid.shape), 0.0))
            overhang = np.maximum(rho - self.radius, 0.0)
            dist = np.hypot(axial, overhang)
        return np.broadcast_to(dist, grid.shape)

    def extent(self):
        return self.half_thickness if self.radius is None else np.hypot(self.radius, self.half_thickness)

    def pins_u_half(self):
        return self.half_thickness


@dataclass(frozen=True)
class Torus:
    """Toroidal bilayer; deform_factor > 1 stretches the ring into an oval."""

    center: tuple[float, ...]
    major_radius: float
    minor_radius: float
    deform_factor: float = 1.0

    def __post_init__(self) -> None:
        require_positive(major_radius=self.major_radius, minor_radius=self.minor_radius)
        if not (is_real(self.deform_factor) and self.deform_factor >= 1.0):  # NaN fails too
            raise ValueError(f"deform_factor must be >= 1, got {self.deform_factor!r}")

    def distance(self, grid):
        if grid.dim != 3:
            raise ValueError("torus seeds need a 3-D grid")
        dx, dy, dz = _wrapped_deltas(grid, self.center)
        ring = np.hypot(np.hypot(dx / self.deform_factor, dy) - self.major_radius, dz)
        return np.abs(np.broadcast_to(ring, grid.shape) - self.minor_radius)

    def extent(self):
        return self.deform_factor * self.major_radius + self.minor_radius

    def pins_u_half(self):
        return None


@dataclass(frozen=True)
class Gyroid:
    """Triply periodic gyroid-like midsurface from the standard level set.

    ``scale`` counts unit cells across each box edge, a whole number so that
    the seed is periodic; the pseudo-distance is the level function over its gradient
    magnitude.
    """

    level: float = 0.0
    scale: int = 1

    def __post_init__(self) -> None:
        if not (is_real(self.level) and math.isfinite(self.level)):
            raise ValueError(f"level must be finite, got {self.level!r}")
        object.__setattr__(self, "scale", whole_number("scale", self.scale))
        if self.scale < 1:
            raise ValueError(f"scale must be a positive cell count, got {self.scale}")

    def distance(self, grid):
        if grid.dim != 3:
            raise ValueError("gyroid seeds need a 3-D grid")
        x, y, z = grid.coords()
        a = [2.0 * np.pi * self.scale / length for length in grid.lengths]
        sx, cx = np.sin(a[0] * x), np.cos(a[0] * x)
        sy, cy = np.sin(a[1] * y), np.cos(a[1] * y)
        sz, cz = np.sin(a[2] * z), np.cos(a[2] * z)
        value = sx * cy + sy * cz + sz * cx - self.level
        gx = a[0] * (cx * cy - sz * sx)
        gy = a[1] * (cy * cz - sx * sy)
        gz = a[2] * (cz * cx - sy * sz)
        gnorm = np.sqrt(gx * gx + gy * gy + gz * gz)
        dist = np.abs(value) / np.maximum(gnorm, 1e-9 * max(a))
        return np.broadcast_to(dist, grid.shape)

    def extent(self):
        return 0.0  # periodic by construction

    def pins_u_half(self):
        return None


@dataclass(frozen=True)
class CurveBilayer:
    """Closed 2-D midcurve through the given points (polyline distance)."""

    points: tuple[tuple[float, float], ...]
    half_thickness: float | None = None

    def __post_init__(self) -> None:
        count = len(self.points) if hasattr(self.points, "__len__") else self.points
        if not isinstance(count, int) or count < 3:  # null or a bare number holds none
            raise ValueError(f"points must hold at least 3 control points, got {count!r}")
        for i, point in enumerate(self.points):
            require_axes(f"points[{i}]", point, 2)
        if self.half_thickness is not None:
            require_positive(half_thickness=self.half_thickness)

    def distance(self, grid):
        if grid.dim != 2:
            raise ValueError("curve seeds need a 2-D grid")
        pts = np.asarray(self.points, dtype=np.float64)
        x, y = grid.coords()
        px = np.broadcast_to(x, grid.shape).ravel()
        py = np.broadcast_to(y, grid.shape).ravel()
        starts = pts
        ends = np.roll(pts, -1, axis=0)
        dist2 = np.full(px.shape, np.inf)
        for (ax, ay), (bx, by) in zip(starts, ends):
            ex, ey = bx - ax, by - ay
            seg2 = ex * ex + ey * ey
            t = np.clip(((px - ax) * ex + (py - ay) * ey) / max(seg2, 1e-300), 0.0, 1.0)
            qx = ax + t * ex - px
            qy = ay + t * ey - py
            dist2 = np.minimum(dist2, qx * qx + qy * qy)
        return np.sqrt(dist2).reshape(grid.shape)

    def extent(self):
        return float(np.max(np.abs(np.asarray(self.points))))

    def pins_u_half(self):
        return self.half_thickness


ShapeSpec = Ball | Shell | Slab | Torus | Gyroid | CurveBilayer


@dataclass(frozen=True)
class BilayerSpec:
    """Midsurface, layer thicknesses and interface width of a seed.

    ``u_half_thickness`` may be omitted when the shape pins it (ball, shell,
    slab, curve with half_thickness). ``v_thickness`` defaults to
    zeta * u_half_thickness per side, which needs ``zeta``.
    """

    shape: ShapeSpec
    epsilon: float
    u_half_thickness: float | None = None
    v_thickness: float | None = None
    zeta: float | None = None

    def __post_init__(self) -> None:
        if self.zeta is not None:
            require_positive(zeta=self.zeta)
        if self.u_half_thickness is None:
            u_half = self.shape.pins_u_half()
            if u_half is None:
                raise ValueError("this shape does not pin u_half_thickness; pass it")
            object.__setattr__(self, "u_half_thickness", float(u_half))
        require_positive(epsilon=self.epsilon, u_half_thickness=self.u_half_thickness)
        if self.v_thickness is None:
            if self.zeta is None:
                raise ValueError("v_thickness default needs zeta")
            object.__setattr__(self, "v_thickness", self.zeta * self.u_half_thickness)
        require_positive(v_thickness=self.v_thickness)


def build_bilayer(spec: BilayerSpec, grid: GridSpec) -> tuple[Field, Field]:
    """Smoothed (u, v) seed; v = band(u+v) - band(u), so u + v <= 1 by shape."""
    reach = spec.shape.extent() + spec.u_half_thickness + spec.v_thickness + 3.0 * spec.epsilon
    if reach > 0.5 * min(grid.lengths):
        warnings.warn(
            "seed geometry exceeds the half-box; it wraps around periodically",
            stacklevel=2,
        )
    dist = spec.shape.distance(grid)
    u_arr = tanh_profile(spec.u_half_thickness - dist, spec.epsilon)
    outer = tanh_profile(spec.u_half_thickness + spec.v_thickness - dist, spec.epsilon)
    v_arr = np.clip(outer - u_arr, 0.0, 1.0)
    return Field(grid, u_arr), Field(grid, v_arr)


def perforate(
    u: Field, v: Field, hole_center, hole_radius: float, epsilon: float | None = None
) -> tuple[Field, Field]:
    """Multiply both fields by a smoothed exterior indicator of a ball."""
    require_nonnegative(hole_radius=hole_radius)
    if hole_radius == 0.0:
        return u, v
    eps = epsilon if epsilon is not None else hole_radius / 3.0
    r = _radius_from_center(u.grid, hole_center)
    exterior = tanh_profile(r - hole_radius, eps)
    return Field(u.grid, u.values * exterior), Field(v.grid, v.values * exterior)


def mass_rescale(f: Field, target_mass: float) -> Field:
    """Scale samples to hit the target mass, then clamp to [0, 1.1]."""
    current = integrate(f)
    if current <= 0:
        raise ZeroMassError(f"cannot rescale a field of mass {current}")
    scaled = f.values * (target_mass / current)
    return Field(f.grid, np.clip(scaled, 0.0, 1.1))


def add_noise(f: Field, amplitude: float = 0.01, seed: int = 0) -> Field:
    """Uniform additive noise in [-amplitude, amplitude]; caller rescales mass."""
    require_nonnegative(amplitude=amplitude)
    amplitude = abs(amplitude)  # uniform() refuses the range (0.0, -0.0)
    rng = np.random.default_rng(seed)
    return Field(f.grid, f.values + rng.uniform(-amplitude, amplitude, size=f.grid.shape))
