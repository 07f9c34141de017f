"""Post-processing: asymptote fits and dipole-free translation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError
from .grid import Field, angular_wavenumbers, integrate_array

# exponent window of the energy-to-mass fit; covers the orders 1/2, 1, 2
# arising from rim penalties, liposome curvature and 2-D curvature
_P_RANGE = (0.25, 3.0)
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FitResult:
    """ratio ~ a + b * m^(-p)."""

    a: float
    b: float
    p: float
    rms_residual: float


def _linear_fit(m: np.ndarray, ratio: np.ndarray, p: float) -> FitResult:
    design = np.column_stack([np.ones_like(m), m ** (-p)])
    coef, _, rank, _ = np.linalg.lstsq(design, ratio, rcond=None)
    if rank < 2:
        raise DegenerateFitError("design matrix is rank deficient")
    residual = design @ coef - ratio
    return FitResult(float(coef[0]), float(coef[1]), float(p), float(np.sqrt(np.mean(residual**2))))


def fit_energy_mass(points, fix_p: float | None = None) -> FitResult:
    """Least-squares a + b*m^(-p) through (m, ratio) points.

    Linear in (a, b); the exponent, unless fixed, is found by a coarse scan
    plus golden-section refinement over [0.25, 3].
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise DegenerateFitError("need at least 3 (m, ratio) points")
    if not np.all(np.isfinite(pts)):
        raise DegenerateFitError("points must be finite")
    m, ratio = pts[:, 0], pts[:, 1]
    if len(np.unique(m)) < pts.shape[0]:
        raise DegenerateFitError("m values must be distinct")
    if np.any(m <= 0):
        raise DegenerateFitError("m values must be positive")
    if fix_p is not None:
        if not np.isfinite(fix_p):
            raise DegenerateFitError(f"fix_p must be finite, got {fix_p}")
        return _linear_fit(m, ratio, fix_p)

    def rms(p):
        return _linear_fit(m, ratio, p).rms_residual

    grid = np.linspace(*_P_RANGE, 61)
    values = [rms(p) for p in grid]
    k = int(np.argmin(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    # golden-section refinement on the bracketing interval
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = rms(x1), rms(x2)
    for _ in range(120):
        if hi - lo < 1e-13:
            break
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = rms(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = rms(x2)
    return _linear_fit(m, ratio, 0.5 * (lo + hi))


def _axis_marginal(w: Field, axis: int) -> np.ndarray:
    """Integral of w over all axes but ``axis`` (a 1-D density)."""
    grid = w.grid
    other = tuple(grid.dim - 1 - a for a in range(grid.dim) if a != axis)
    measure = np.prod([grid.spacing[a] for a in range(grid.dim) if a != axis])
    return w.values.sum(axis=other) * measure


def _moment_coefficients(marginal: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Spectral data for the box-centered moment of the shifted marginal.

    For the trig interpolant M of a zero-mean marginal on [0, L),
    int (x - L/2) M(x + t) dx = sum_k Re[c_k exp(i k t)] with
    c_k = w_k * L * M_k / (i k N); the Nyquist mode integrates to zero
    against (x - L/2). Exact for band-limited fields.
    """
    n = marginal.size
    length = n * spacing
    spectrum = np.fft.rfft(marginal)
    k = angular_wavenumbers(n, spacing, half=True)
    weights = np.full(k.size, 2.0)
    weights[0] = 0.0
    weights[-1] = 0.0  # Nyquist: odd moment vanishes
    coef = np.zeros_like(spectrum)
    np.divide(weights * length * spectrum / n, 1j * k, out=coef, where=k > 0)
    return coef, k


def _dipole_component(shift: float, coef: np.ndarray, k: np.ndarray) -> float:
    return float(np.sum(np.real(coef * np.exp(1j * k * shift))))


def zero_dipole_shift(w: Field, tol: float = 1e-10) -> tuple[float, ...]:
    """Translation t making every component of int x*w(x+t) dx vanish.

    Returns the shift only, one length per axis (x first); the moved field
    is ``grid.translate(w, t)``.

    Requires int w = 0 (within tol * int|w|). The first moment along each
    axis depends only on that axis' shift, so each component is solved
    independently: bracket a sign change of the moment over the grid shifts,
    then find its root with Brent's method (``_solvers.brentq``) on sub-cell
    Fourier phase shifts. Moments use box-centered coordinates. An axis whose
    moment is zero to roundoff at shift 0, or at every grid shift, keeps
    shift 0; a moment with no sign change over the grid shifts raises
    ValueError.
    """
    # imported here, not at module level: stepping never solves, so
    # `import pacok` and `pacok run` need not compile the solver module
    from ._solvers import brentq

    grid = w.grid
    total = abs(integrate_array(grid, w.values))
    scale = integrate_array(grid, np.abs(w.values))
    if scale == 0.0:
        return (0.0,) * grid.dim
    if total > tol * scale:
        raise ValueError(f"field has nonzero total mass {total:.3e} (tolerance {tol * scale:.3e})")

    shifts = []
    for axis in range(grid.dim):
        n = grid.points[axis]
        spacing = grid.spacing[axis]
        length = grid.lengths[axis]
        coef, k = _moment_coefficients(_axis_marginal(w, axis), spacing)
        samples = np.real(np.exp(1j * np.outer(np.arange(n) * spacing, k)) @ coef)
        level = float(np.max(np.abs(samples)))
        if level <= 1e-14 * scale * length or abs(samples[0]) <= 1e-13 * level:
            shifts.append(0.0)
            continue
        # signs, not products of samples: a product of two tiny moments underflows to 0
        sign = np.sign(samples)
        hits = np.flatnonzero((sign == 0.0) | (sign * np.roll(sign, -1) < 0))
        if hits.size == 0:
            raise ValueError("marginal moment has no sign change")
        i = int(hits[0])
        if sign[i] == 0.0:
            shifts.append(i * spacing)
            continue
        root = brentq(_dipole_component, i * spacing, (i + 1) * spacing,
                      args=(coef, k), xtol=_EPS * length, rtol=4.0 * _EPS)
        shifts.append(root % length)

    return tuple(shifts)


def dipole_moment(w: Field) -> np.ndarray:
    """Box-centered first moments (one per axis) of the field's interpolant."""
    out = []
    for axis in range(w.grid.dim):
        marginal = _axis_marginal(w, axis)
        coef, k = _moment_coefficients(marginal, w.grid.spacing[axis])
        out.append(_dipole_component(0.0, coef, k))
    return np.array(out)
