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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ZeroMassError
from .grid import Field, GridSpec, integrate

_PROFILE_SLOPE = 3.0


def tanh_profile(signed_distance, epsilon: float):
    """(1 + tanh(3 d / eps)) / 2; 1 deep inside (d >> 0), 0 outside."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return 0.5 * (1.0 + np.tanh(_PROFILE_SLOPE * np.asarray(signed_distance) / epsilon))


def _wrapped_deltas(grid: GridSpec, center) -> list[np.ndarray]:
    """Minimum-image coordinate offsets from ``center``, broadcastable."""
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

    def distance(self, grid):
        deltas = _wrapped_deltas(grid, self.center)
        normal = np.asarray(self.normal, dtype=np.float64)
        normal = normal / np.linalg.norm(normal)
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
        if self.deform_factor < 1.0:
            raise ValueError("deform_factor must be >= 1")

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

    ``scale`` counts unit cells across each box edge (integer keeps the seed
    periodic); the pseudo-distance is the level function over its gradient
    magnitude.
    """

    level: float = 0.0
    scale: int = 1

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError("scale must be a positive cell count")

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

    def distance(self, grid):
        if grid.dim != 2:
            raise ValueError("curve seeds need a 2-D grid")
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.shape[0] < 3:
            raise ValueError("need at least 3 control points")
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


def random_closed_curve(
    center: tuple[float, float],
    mean_radius: float,
    n_harmonics: int = 4,
    amplitude: float = 0.15,
    seed: int = 0,
    n_points: int = 256,
) -> CurveBilayer:
    """Seeded closed Fourier curve r(theta) = R (1 + sum_k a_k cos + b_k sin)."""
    rng = np.random.default_rng(seed)
    theta = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    radius = np.full_like(theta, 1.0)
    for k in range(2, 2 + n_harmonics):
        a, b = rng.normal(scale=amplitude / k, size=2)
        radius += a * np.cos(k * theta) + b * np.sin(k * theta)
    radius = mean_radius * np.clip(radius, 0.2, None)
    points = tuple(
        (center[0] + r * np.cos(t), center[1] + r * np.sin(t))
        for r, t in zip(radius, theta)
    )
    return CurveBilayer(points=points)


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
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        u_half = self.u_half_thickness
        if u_half is None:
            u_half = self.shape.pins_u_half()
            if u_half is None:
                raise ValueError("this shape does not pin u_half_thickness; pass it")
            object.__setattr__(self, "u_half_thickness", float(u_half))
        if self.u_half_thickness <= 0:
            raise ValueError("u_half_thickness must be positive")
        if self.v_thickness is None:
            if self.zeta is None:
                raise ValueError("v_thickness default needs zeta")
            object.__setattr__(self, "v_thickness", self.zeta * self.u_half_thickness)
        if self.v_thickness <= 0:
            raise ValueError("v_thickness must be positive")


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
    if hole_radius < 0:
        raise ValueError("hole radius must be nonnegative")
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
    rng = np.random.default_rng(seed)
    return Field(f.grid, f.values + rng.uniform(-amplitude, amplitude, size=f.grid.shape))
