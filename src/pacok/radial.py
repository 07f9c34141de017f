"""Sharp-interface radial analysis: closed forms, optimization, asymptotics.

A radial candidate is a concentric arrangement V-U-V with radii
R0 <= R1 < R2 <= R3 (liposome; micelle when R0 = R1 = 0) subject to the mass
constraints

    R3^n - R0^n = (zeta+1) (R2^n - R1^n),
    R2^n - R1^n = m/pi (n=2)  or  3m/(4pi) (n=3).

This module evaluates the closed-form energy of such candidates, their
electrostatic potential, stationarity residuals, constrained minimizers,
large-mass asymptotic series, the rescaled thin-shell functional, the
morphology coefficient c(zeta) with its transition thresholds, the bending
and Gaussian moduli of the limiting curvature energy, and the layer-thickness
expansions of the 1-Wasserstein sibling model.

Everything here is closed-form or low-dimensional; it serves as the
independent oracle for the grid simulator.

Numerical notes: polynomial-log closed forms in 2-D are evaluated on radii
normalized by (R1+R2)/2. The log coefficients cancel on the constraint
manifold, so the normalized form is algebraically exact, but its terms still
cancel in floating point, and the loss grows with the ratio of the radius to
the layer thickness. Against a 50-digit quadrature of (1/2)int |grad phi|^2
at the same radii, the relative error of :func:`liposome_energy` at zeta = 1
is 4.9e-14 at (n=2, gamma=1500, m=7), 3.8e-8 at m=1e3 and 8.4e-4 at m=1e4
(E/m 15.0125 where the asymptotic value is 15.0000); 2.5e-4 at (n=2,
gamma=1, m=1e6); and 2.1e-10 at (n=3, gamma=1, m=1e6). The optimizer solves
the stationarity conditions rewritten through electrostatic potential drops,
computed from enclosed-charge integrals with difference-of-squares/log1p
grouping: algebraically identical to the printed Lagrange conditions, and it
converges at zeta = gamma = 1 up to m = 1e8 in 2-D and m = 1e9 in 3-D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize as _sciopt

from .errors import InvalidCandidateError, OptimizationError, OutOfRangeError

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi

#: zeta below which the Gaussian modulus is positive (TPMS regime)
ZETA0 = 2.0 * (math.sqrt(2.0) - 1.0)


def mass_content(m: float, n: int) -> float:
    """R2^n - R1^n implied by the mass m."""
    return m / math.pi if n == 2 else 3.0 * m / _FOUR_PI


def _ball_coef(n: int) -> float:
    """|B(R)| = _ball_coef * R^n."""
    return math.pi if n == 2 else _FOUR_PI / 3.0


@dataclass(frozen=True)
class RadialCandidate:
    """Radii of a concentric V-U-V candidate with its mass constraints."""

    n: int
    zeta: float
    radii: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if self.n not in (2, 3):
            raise InvalidCandidateError(f"dimension must be 2 or 3, got {self.n}")
        if self.zeta <= 0:
            raise InvalidCandidateError("zeta must be positive")
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        r0, r1, r2, r3 = radii
        if not (0.0 <= r0 <= r1 < r2 <= r3):
            raise InvalidCandidateError(f"radii must satisfy 0 <= R0 <= R1 < R2 <= R3, got {radii}")
        if (r1 == 0.0) != (r0 == 0.0):
            raise InvalidCandidateError("R0 = 0 < R1 candidates are not supported")
        n = self.n
        lhs = r3**n - r0**n
        rhs = (self.zeta + 1.0) * (r2**n - r1**n)
        if abs(lhs - rhs) > 1e-10 * max(abs(lhs), abs(rhs), r3**n):
            raise InvalidCandidateError(
                f"mass constraint violated: R3^n - R0^n = {lhs!r} vs (zeta+1)(R2^n - R1^n) = {rhs!r}"
            )

    @property
    def kind(self) -> str:
        return "micelle" if self.radii[0] == 0.0 and self.radii[1] == 0.0 else "liposome"

    @property
    def mass(self) -> float:
        r0, r1, r2, r3 = self.radii
        return _ball_coef(self.n) * (r2**self.n - r1**self.n)

    @property
    def mid_radius(self) -> float:
        return 0.5 * (self.radii[1] + self.radii[2])

    @property
    def thicknesses(self) -> tuple[float, float, float]:
        r0, r1, r2, r3 = self.radii
        return (r1 - r0, r2 - r1, r3 - r2)

    def dilated(self, scale: float) -> "RadialCandidate":
        return RadialCandidate(self.n, self.zeta, tuple(r * scale for r in self.radii))


def liposome_candidate(m: float, zeta: float, n: int, r0: float, r1: float) -> RadialCandidate:
    """Candidate with the free radii (R0, R1); R2, R3 from the constraints."""
    content = mass_content(m, n)
    r2 = (r1**n + content) ** (1.0 / n)
    r3 = (r0**n + (zeta + 1.0) * content) ** (1.0 / n)
    return RadialCandidate(n, zeta, (r0, r1, r2, r3))


def micelle_candidate(m: float, zeta: float, n: int) -> RadialCandidate:
    content = mass_content(m, n)
    return RadialCandidate(n, zeta, (0.0, 0.0, content ** (1.0 / n), ((zeta + 1.0) * content) ** (1.0 / n)))


def equal_mass_candidate(m: float, zeta: float, n: int, pivot: float) -> RadialCandidate:
    """Candidate with equal inner/outer V masses; pivot = (R1^n + R2^n)/2."""
    content = mass_content(m, n)
    offsets = np.array([-(zeta + 1.0), -1.0, 1.0, zeta + 1.0]) * (content / 2.0)
    powers = pivot + offsets
    if powers[0] <= 0.0:
        raise InvalidCandidateError("pivot too small: inner radius would vanish")
    return RadialCandidate(n, zeta, tuple(p ** (1.0 / n) for p in powers))


# ---------------------------------------------------------------------------
# closed-form energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharpEnergy:
    perimeter: float
    nonlocal_: float
    total: float


def sharp_perimeter(c: RadialCandidate) -> float:
    r1, r2 = c.radii[1], c.radii[2]
    if c.n == 2:
        return _TWO_PI * (r1 + r2)
    return _FOUR_PI * (r1 * r1 + r2 * r2)


def _x4_ln(x: float) -> float:
    return 0.0 if x == 0.0 else x**4 * math.log(x)


def _coef_ln(coef: float, x: float) -> float:
    return 0.0 if x == 0.0 else coef * math.log(x)


def sharp_nonlocal(c: RadialCandidate) -> float:
    """Closed-form Coulombic term N of a radial candidate.

    In 2-D the terms cancel in floating point as the radius grows against
    the layer thickness: at zeta = 1, gamma = 1500 the total energy is off
    by 3.8e-8 relative at m = 1e3 and by 8.4e-4 at m = 1e4 (see the module
    notes). The 3-D form keeps ~10 digits at m = 1e6.
    """
    zeta = c.zeta
    scale = c.mid_radius
    r0, r1, r2, r3 = (r / scale for r in c.radii)
    zp1 = zeta + 1.0
    if c.n == 2:
        # log coefficients cancel under the mass constraint, so normalized
        # radii give the value times scale^4 in exact arithmetic
        poly = (1.0 - zeta * zeta) * (r2**4 - r1**4) + r0**4 - r3**4
        logs = (
            _x4_ln(r3)
            - _x4_ln(r0)
            + _coef_ln(zp1 * (2.0 * r0 * r0 * r1 * r1 - zp1 * r1**4), r1)
            - _coef_ln(zp1 * (2.0 * r3 * r3 * r2 * r2 - zp1 * r2**4), r2)
        )
        return math.pi / (16.0 * zeta * zeta) * scale**4 * (poly + 4.0 * logs)
    body = 6.0 * (r0**5 - r3**5) + zp1 * (
        10.0 * r2 * r2 * r3**3
        - (6.0 * zeta + 4.0) * r2**5
        + (6.0 * zeta + 4.0) * r1**5
        - 10.0 * r0**3 * r1 * r1
    )
    return math.pi / (15.0 * zeta * zeta) * scale**5 * body


def liposome_energy(c: RadialCandidate, gamma: float) -> SharpEnergy:
    """Perimeter, N and total = perimeter + gamma*N of a radial candidate."""
    perimeter = sharp_perimeter(c)
    nonlocal_ = sharp_nonlocal(c)
    return SharpEnergy(perimeter, nonlocal_, perimeter + gamma * nonlocal_)


def micelle_energy(m: float, zeta: float, gamma: float, n: int) -> float:
    """Closed-form total energy of the micelle candidate of mass m."""
    if min(m, zeta, gamma) <= 0:
        raise ValueError("m, zeta, gamma must be positive")
    content = mass_content(m, n)
    zp1 = zeta + 1.0
    if n == 2:
        perimeter = _TWO_PI * math.sqrt(m / math.pi)
        nonlocal_ = math.pi * (zp1 * (zp1 * math.log(zp1) - zeta) / zeta**2) * content**2 / 8.0
    else:
        perimeter = _FOUR_PI * content ** (2.0 / 3.0)
        nonlocal_ = (
            math.pi
            * zp1
            * (4.0 * zeta + 6.0 - 6.0 * zp1 ** (2.0 / 3.0))
            / zeta**2
            * content ** (5.0 / 3.0)
            / 15.0
        )
    return perimeter + gamma * nonlocal_


def micelle_optimal(zeta: float, gamma: float, n: int) -> tuple[float, float]:
    """(m*, min E/m) of the micelle family."""
    if min(zeta, gamma) <= 0:
        raise ValueError("zeta, gamma must be positive")
    zp1 = zeta + 1.0
    if n == 2:
        shape = zp1 * (zp1 * math.log(zp1) - zeta) / zeta**2
        m_star = _FOUR_PI * (gamma * shape) ** (-2.0 / 3.0)
        min_ratio = 1.5 * (gamma * shape) ** (1.0 / 3.0)
    else:
        half_shape = 2.0 * zeta + 3.0 - 3.0 * zp1 ** (2.0 / 3.0)
        m_star = 20.0 * math.pi * zeta**2 / (gamma * zp1 * half_shape)
        min_ratio = 4.5 * (gamma * zp1 * half_shape / (15.0 * zeta**2)) ** (1.0 / 3.0)
    return m_star, min_ratio


# ---------------------------------------------------------------------------
# electrostatic potential
# ---------------------------------------------------------------------------


def radial_potential(c: RadialCandidate, r):
    """Potential phi(r) of the candidate, phi(infinity) = 0; vectorized in r."""
    r = np.asarray(r, dtype=np.float64)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    r0, r1, r2, r3 = c.radii
    zeta = c.zeta
    zp1 = zeta + 1.0
    out = np.zeros_like(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.where(r > 0, np.log(np.where(r > 0, r, 1.0)), 0.0)
        inv_r = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)
    if c.n == 2:
        l3 = r3 * r3 * math.log(r3)
        l2 = r2 * r2 * math.log(r2)
        l1 = 0.0 if r1 == 0.0 else r1 * r1 * math.log(r1)
        l0 = 0.0 if r0 == 0.0 else r0 * r0 * math.log(r0)
        branches = [
            (r <= r0, 2.0 * (l3 - zp1 * l2 + zp1 * l1 - l0) * np.ones_like(r)),
            (
                (r0 < r) & (r <= r1),
                2.0 * (l3 - zp1 * l2 + zp1 * l1) - r0 * r0 + r * r - 2.0 * r0 * r0 * log_r,
            ),
            (
                (r1 < r) & (r <= r2),
                2.0 * (l3 - zp1 * l2)
                - r3 * r3
                + zp1 * r2 * r2
                - zeta * r * r
                - 2.0 * (r3 * r3 - zp1 * r2 * r2) * log_r,
            ),
            (
                (r2 < r) & (r <= r3),
                2.0 * l3 - r3 * r3 + r * r - 2.0 * r3 * r3 * log_r,
            ),
        ]
        for mask, value in branches:
            out[mask] = np.broadcast_to(value, r.shape)[mask] / (4.0 * zeta)
    else:
        branches = [
            (
                r <= r0,
                -3.0 * (r3 * r3 - zp1 * r2 * r2 + zp1 * r1 * r1 - r0 * r0) * np.ones_like(r),
            ),
            (
                (r0 < r) & (r <= r1),
                -3.0 * (r3 * r3 - zp1 * r2 * r2 + zp1 * r1 * r1) + 2.0 * r0**3 * inv_r + r * r,
            ),
            (
                (r1 < r) & (r <= r2),
                -3.0 * (r3 * r3 - zp1 * r2 * r2)
                + 2.0 * (r3**3 - zp1 * r2**3) * inv_r
                - zeta * r * r,
            ),
            (
                (r2 < r) & (r <= r3),
                -3.0 * r3 * r3 + 2.0 * r3**3 * inv_r + r * r,
            ),
        ]
        for mask, value in branches:
            out[mask] = np.broadcast_to(value, r.shape)[mask] / (6.0 * zeta)
    return float(out[0]) if scalar else out


def _pow_diff(a: float, b: float, n: int) -> float:
    """b^n - a^n grouped so nearby radii lose no precision."""
    if n == 2:
        return (b - a) * (b + a)
    return (b - a) * (b * b + a * b + a * a)


def _seg_I(x0: float, x1: float, n: int) -> float:
    """int_{x0}^{x1} (r^n - x0^n)/(n r^(n-1)) dr, stable for x1 ~ x0."""
    if x1 == x0:
        return 0.0
    if x0 == 0.0:
        return (x1 - x0) * (x1 + x0) / (2.0 * n)
    if n == 2:
        return (x1 - x0) * (x1 + x0) / 4.0 - 0.5 * x0 * x0 * math.log1p((x1 - x0) / x0)
    return (x1 - x0) * ((x1 + x0) / 6.0 - x0 * x0 / (3.0 * x1))


def _seg_J(x0: float, x1: float, n: int) -> float:
    """int_{x0}^{x1} r^(1-n) dr."""
    if n == 2:
        return math.log1p((x1 - x0) / x0)
    return (x1 - x0) / (x0 * x1)


def potential_drops(radii, zeta: float, n: int) -> tuple[float, float, float]:
    """(phi(R0), phi(R1), phi(R2)) via enclosed-charge integrals.

    Algebraically identical to :func:`radial_potential` at those radii
    (phi(R3) = 0), but free of the large-radius cancellation of the closed
    branch formulas, which is what the optimizer needs at large mass.
    """
    r0, r1, r2, r3 = radii
    q1 = -_pow_diff(r0, r1, n) / (n * zeta)  # enclosed charge at R1 (up to surface coef)
    q2 = q1 + _pow_diff(r1, r2, n) / n
    b_inner = -_seg_I(r0, r1, n) / zeta
    b_mid = (q1 * _seg_J(r1, r2, n) if q1 != 0.0 else 0.0) + _seg_I(r1, r2, n)
    b_outer = (q2 * _seg_J(r2, r3, n) if q2 != 0.0 else 0.0) - _seg_I(r2, r3, n) / zeta
    phi2 = b_outer
    phi1 = b_mid + phi2
    phi0 = b_inner + phi1
    return phi0, phi1, phi2


# ---------------------------------------------------------------------------
# stationarity and optimization
# ---------------------------------------------------------------------------


def stationarity_residual(c: RadialCandidate, gamma: float) -> np.ndarray:
    """Residuals of the two stationarity conditions of the liposome family.

    Evaluated on radii normalized by (R1+R2)/2 (with gamma rescaled
    accordingly), which keeps the n=2 log form well conditioned at large
    mass; the returned vector is zero exactly at constrained minimizers.
    """
    if c.kind != "liposome":
        raise InvalidCandidateError("stationarity conditions apply to liposome candidates")
    scale = c.mid_radius
    r0, r1, r2, r3 = (r / scale for r in c.radii)
    g = gamma * scale**3
    zeta = c.zeta
    zp1 = zeta + 1.0
    if c.n == 2:
        res1 = (
            r3 * r3 * math.log(r3 * r3)
            - r0 * r0 * math.log(r0 * r0)
            - zp1 * (r2 * r2 * math.log(r2 * r2) - r1 * r1 * math.log(r1 * r1))
        )
        res2 = 4.0 * zeta * zeta / (zp1 * g) * (1.0 / r1 + 1.0 / r2) - (
            zeta * (r2 * r2 - r1 * r1)
            + (r0 * r0 - zp1 * r1 * r1) * (2.0 * math.log(r2 / r1))
        )
    else:
        res1 = r3 * r3 - r0 * r0 - zp1 * (r2 * r2 - r1 * r1)
        res2 = 12.0 * zeta * zeta / g * (1.0 / r1 + 1.0 / r2) - (
            (3.0 * zeta + 2.0) * (r3 * r3 - r0 * r0)
            + 2.0 * zp1 * (r0**3 / r1 - r3**3 / r2)
        )
    return np.array([res1, res2])


def _phi_system(m: float, zeta: float, gamma: float, n: int):
    """Stationarity system phrased through potential drops.

    Equivalent to the printed Lagrange conditions: res1 = phi(R0) (the
    plateau potential, proportional to the first condition) and res2 the
    perimeter-vs-potential balance (n-1)(1/R1 + 1/R2) =
    gamma (zeta+1)/zeta (phi(R1) - phi(R2)).
    """
    content = mass_content(m, n)

    def residuals(x):
        r0, r1 = x
        if r0 <= 0.0 or r1 <= r0:
            return None
        inner = _pow_diff(r0, r1, n)
        if inner >= zeta * content:
            return None  # R3 would drop below R2
        r2 = (r1**n + content) ** (1.0 / n)
        r3 = (r0**n + (zeta + 1.0) * content) ** (1.0 / n)
        phi0, phi1, phi2 = potential_drops((r0, r1, r2, r3), zeta, n)
        res1 = phi0
        res2 = (n - 1.0) * (1.0 / r1 + 1.0 / r2) - gamma * (zeta + 1.0) / zeta * (phi1 - phi2)
        return np.array([res1, res2])

    return residuals


def _newton2(residuals, x0, max_iter=60):
    """Damped Newton with finite-difference Jacobian on a 2-vector system."""
    x = np.asarray(x0, dtype=np.float64)
    res = residuals(x)
    if res is None:
        raise OptimizationError(f"infeasible initial guess {x0}")
    norm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if norm == 0.0:
            break
        jac = np.empty((2, 2))
        for j in range(2):
            h = 1e-7 * max(abs(x[j]), 1e-12)
            xp = x.copy()
            xp[j] += h
            rp = residuals(xp)
            if rp is None:
                xp[j] = x[j] - h
                rp = residuals(xp)
                if rp is None:
                    raise OptimizationError("finite-difference stencil left the feasible set")
                jac[:, j] = (res - rp) / h
            else:
                jac[:, j] = (rp - res) / h
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise OptimizationError("singular stationarity Jacobian") from exc
        damping = 1.0
        improved = False
        for _ in range(30):
            trial = x + damping * delta
            r_trial = residuals(trial)
            if r_trial is not None:
                n_trial = float(np.max(np.abs(r_trial)))
                if n_trial < norm or n_trial == 0.0:
                    x, res, norm = trial, r_trial, n_trial
                    improved = True
                    break
            damping *= 0.5
        if not improved:
            break
        if float(np.max(np.abs(damping * delta))) < 1e-14 * max(1.0, float(np.max(np.abs(x)))):
            break
    return x, norm


def asymptotic_initial_radii(m: float, zeta: float, gamma: float, n: int):
    """(R0, R1) from the leading-order asymptotics; None if infeasible."""
    pred = asymptotic_liposome(m, zeta, gamma, n)
    thickness = (3.0 / (gamma * (zeta + 1.0))) ** (1.0 / 3.0)
    r1 = pred.mid_radius - thickness
    r0 = r1 - zeta * thickness
    if r0 <= 0.05 * zeta * thickness or r1 <= r0:
        return None
    return r0, r1


def _coarse_search(m, zeta, gamma, n):
    """The lowest-energy feasible radii (R0, R1) of a 12-point seed grid."""
    content = mass_content(m, n)

    def energy_of(r0, r1):
        if r0 <= 0 or r1 <= r0 or _pow_diff(r0, r1, n) >= zeta * content:
            return math.inf
        return liposome_energy(liposome_candidate(m, zeta, n, r0, r1), gamma).total

    # seed grid: shell radius from the area/volume scale, varying splits
    outer = ((zeta + 1.0) * content) ** (1.0 / n)
    seeds = [(frac_r0 * r1, r1) for r1 in (0.3 * outer, 0.5 * outer, 0.7 * outer, 0.85 * outer)
             for frac_r0 in (0.5, 0.8, 0.95)]
    best = min(seeds, key=lambda x: energy_of(*x))
    if not math.isfinite(energy_of(*best)):
        raise OptimizationError("no feasible liposome candidate found in the seed grid")
    return best


def _optimize_equal_mass(m, zeta, gamma, n):
    """1-dof search over the pivot (R1^n + R2^n)/2 under equal V masses."""
    content = mass_content(m, n)

    def gradient(pivot):
        cand = equal_mass_candidate(m, zeta, n, pivot)
        r0, r1, r2, r3 = cand.radii
        phi0, phi1, phi2 = potential_drops(cand.radii, zeta, n)
        per_part = (
            math.pi * (1.0 / r1 + 1.0 / r2)
            if n == 2
            else (8.0 * math.pi / 3.0) * (1.0 / r1 + 1.0 / r2)
        )
        return per_part + gamma * _ball_coef(n) * (
            phi0 / zeta - (1.0 + 1.0 / zeta) * (phi1 - phi2)
        )

    pred = asymptotic_liposome(m, zeta, gamma, n, equal_mass=True)
    floor = (zeta + 1.0) * content / 2.0
    pivot0 = max(pred.mid_radius**n, 1.5 * floor)
    lo = hi = pivot0
    g0 = gradient(pivot0)
    for _ in range(200):
        if g0 == 0.0:
            return equal_mass_candidate(m, zeta, n, lo)
        if g0 > 0:  # minimum lies to the left
            hi = lo
            lo = max(floor * (1.0 + 1e-12), lo / 1.5)
            if lo >= hi:
                raise OptimizationError("equal-mass minimum sits at the feasibility floor")
            g0 = gradient(lo)
            if g0 <= 0:
                break
        else:  # minimum lies to the right
            lo = hi
            hi *= 1.5
            g0 = gradient(hi)
            if g0 >= 0:
                break
    else:
        raise OptimizationError("failed to bracket the equal-mass stationary pivot")
    pivot = _sciopt.brentq(gradient, lo, hi, xtol=1e-12 * pivot0, rtol=8.9e-16)
    return equal_mass_candidate(m, zeta, n, pivot)


def optimize_liposome(
    m: float, zeta: float, gamma: float, n: int, equal_mass: bool = False
) -> RadialCandidate:
    """Constrained minimizer of the liposome energy.

    Two free radii (one with ``equal_mass``, which forces
    R3^n - R2^n = R1^n - R0^n). Initialized from the asymptotic series or,
    when that guess is infeasible, from the lowest-energy feasible point of
    a 12-point seed grid, then solved by damped Newton on the stationarity
    conditions.
    """
    if min(m, zeta, gamma) <= 0:
        raise ValueError("m, zeta, gamma must be positive")
    if equal_mass:
        return _optimize_equal_mass(m, zeta, gamma, n)
    start = asymptotic_initial_radii(m, zeta, gamma, n)
    if start is None:
        start = _coarse_search(m, zeta, gamma, n)
    residuals = _phi_system(m, zeta, gamma, n)
    x, _ = _newton2(residuals, start)
    candidate = liposome_candidate(m, zeta, n, x[0], x[1])
    check = float(np.max(np.abs(stationarity_residual(candidate, gamma))))
    if not check < 1e-8:
        raise OptimizationError(f"stationarity residual {check:.3e} after Newton polish")
    return candidate


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Large-mass series of the optimal liposome, to the printed order."""

    energy_per_mass: float
    thickness_inner: float
    thickness_middle: float
    thickness_outer: float
    mid_radius: float
    shell_mass_imbalance: float
    remainder_order: str


def asymptotic_liposome(
    m: float, zeta: float, gamma: float, n: int, equal_mass: bool = False
) -> AsymptoticPrediction:
    """Two-term series for E/m and the layer geometry as m -> infinity."""
    if min(m, zeta, gamma) <= 0:
        raise ValueError("m, zeta, gamma must be positive")
    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    zp1 = zeta + 1.0
    thickness = (3.0 / (gamma * zp1)) ** (1.0 / 3.0)
    leading = branch_bilayer(zeta) * gamma ** (1.0 / 3.0)
    if n == 2:
        mid = m / _FOUR_PI * (gamma * zp1 / 3.0) ** (1.0 / 3.0)
        vshift = _TWO_PI * zeta * (zeta + 2.0) / (gamma * m * zp1)
        if equal_mass:
            epm = leading + 24.0 * math.pi**2 * (2.0 * zeta**2 + 8.0 * zeta + 7.0) / (
                5.0 * gamma * zp1 * m * m
            )
            vshift *= 3.0
            imbalance = 0.0
        else:
            epm = leading + 1.6 * math.pi**2 * (zeta**2 + 4.0 * zeta + 1.0) / (
                gamma * zp1 * m * m
            )
            imbalance = 4.0 * zeta * (zeta + 2.0) / (3.0 * (gamma * zp1) ** 2) ** (1.0 / 3.0)
        order = "O(m^-3)"
    else:
        mid = math.sqrt(m / (8.0 * math.pi)) * (gamma * zp1 / 3.0) ** (1.0 / 6.0)
        vshift = (
            zeta * (zeta + 2.0) * math.sqrt(8.0 * math.pi / m)
            / (3.0 * (gamma * zp1) ** 5) ** (1.0 / 6.0)
        )
        if equal_mass:
            epm = leading + _FOUR_PI / (5.0 * m) * (7.0 * zeta**2 + 28.0 * zeta + 32.0) / (
                gamma * zp1 / 3.0
            ) ** (2.0 / 3.0)
            vshift *= 3.0
            imbalance = 0.0
        else:
            epm = leading + _FOUR_PI / (15.0 * m) * (zeta**2 + 4.0 * zeta + 16.0) / (
                gamma * zp1 / 3.0
            ) ** (2.0 / 3.0)
            imbalance = math.sqrt(6.0 * m) * zeta * (zeta + 2.0) / math.sqrt(
                math.pi * gamma * zp1
            )
        order = "O(m^-3/2)"
    return AsymptoticPrediction(
        energy_per_mass=epm,
        thickness_inner=zeta * thickness + vshift,
        thickness_middle=2.0 * thickness,
        thickness_outer=zeta * thickness - vshift,
        mid_radius=mid,
        shell_mass_imbalance=imbalance,
        remainder_order=order,
    )


# ---------------------------------------------------------------------------
# rescaled thin-shell functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RescaleParams:
    rho: float
    d: int

    def __post_init__(self) -> None:
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.d not in (1, 2, 3):
            raise ValueError("d must be 1, 2 or 3")


def rescaled_energy(c: RadialCandidate, rp: RescaleParams, gamma: float = 1.0) -> float:
    """F_rho via the dilation identity rho^(d-n) F_rho = Per U_rho + N(U_rho, V_rho)."""
    dilated = c.dilated(1.0 / rp.rho)
    return rp.rho ** (c.n - rp.d) * liposome_energy(dilated, gamma).total


# ---------------------------------------------------------------------------
# morphology branches and thresholds
# ---------------------------------------------------------------------------


def branch_bilayer(zeta: float) -> float:
    return (9.0 * (zeta + 1.0) / 8.0) ** (1.0 / 3.0)


def branch_cylinder(zeta: float) -> float:
    zp1 = zeta + 1.0
    return 1.5 * (zp1 * (zp1 * math.log(zp1) - zeta) / zeta**2) ** (1.0 / 3.0)


def branch_sphere(zeta: float) -> float:
    zp1 = zeta + 1.0
    return 4.5 * (zp1 * (2.0 * zeta + 3.0 - 3.0 * zp1 ** (2.0 / 3.0)) / (15.0 * zeta**2)) ** (
        1.0 / 3.0
    )


def _zeta1_equation(z: float) -> float:
    return z + z * z / 3.0 - (z + 1.0) * math.log1p(z)


def _zeta2_equation(z: float) -> float:
    return 5.0 * ((z + 1.0) * math.log1p(z) - z) - 9.0 * (
        2.0 * z - 3.0 * (z + 1.0) ** (2.0 / 3.0) + 3.0
    )


@dataclass(frozen=True)
class MorphologyBranches:
    zeta0: float
    zeta1: float
    zeta2: float

    bilayer = staticmethod(branch_bilayer)
    cylinder = staticmethod(branch_cylinder)
    sphere = staticmethod(branch_sphere)


@lru_cache(maxsize=1)
def thresholds() -> MorphologyBranches:
    """Transition values of zeta, roots of their defining equations (Brent's method)."""
    rtol = 4.0 * np.finfo(float).eps
    zeta1 = _sciopt.brentq(_zeta1_equation, 1.5, 2.2, xtol=1e-300, rtol=rtol)
    zeta2 = _sciopt.brentq(_zeta2_equation, 3.0, 4.2, xtol=1e-300, rtol=rtol)
    return MorphologyBranches(zeta0=ZETA0, zeta1=zeta1, zeta2=zeta2)


@dataclass(frozen=True)
class MorphologyResult:
    value: float
    branch: str
    applicable: bool  # False below zeta0 (TPMS regime, coefficient conjectural)


def morphology(zeta: float) -> MorphologyResult:
    """Leading energy-to-mass coefficient c(zeta) and its branch."""
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    th = thresholds()
    if zeta <= th.zeta1:
        value, branch = branch_bilayer(zeta), "bilayer"
    elif zeta <= th.zeta2:
        value, branch = branch_cylinder(zeta), "cylinder"
    else:
        value, branch = branch_sphere(zeta), "sphere"
    return MorphologyResult(value=value, branch=branch, applicable=zeta > th.zeta0)


# ---------------------------------------------------------------------------
# curvature moduli
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HelfrichModuli:
    lambda1: float
    lambda2: float


def helfrich_moduli(zeta: float) -> HelfrichModuli:
    """Bending and Gaussian moduli of the limiting curvature quadratic form.

    lambda2 changes sign at zeta0 = 2(sqrt(2)-1); below it saddle-splay
    deformations are favored.
    """
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    base = ((zeta + 1.0) / 3.0) ** (2.0 / 3.0)
    lambda1 = 4.0 / 15.0 * (1.0 + 4.0 * zeta + zeta * zeta) / base
    lambda2 = (4.0 - 4.0 * zeta - zeta * zeta) / (5.0 * base)
    return HelfrichModuli(lambda1=lambda1, lambda2=lambda2)


# ---------------------------------------------------------------------------
# 1-Wasserstein sibling model
# ---------------------------------------------------------------------------


def wasserstein_thickness(
    eps: float, kappa: float, equal_mass: bool = False
) -> tuple[float, float]:
    """(inner, outer) V-layer thickness at a curved interface of curvature kappa.

    Exact closed forms of the transport-distance model; with ``equal_mass``
    the second-order-modified series eps +- (3/2)|kappa| eps^2. Valid for
    eps |kappa| < 1/3.
    """
    if eps <= 0:
        raise OutOfRangeError("eps must be positive")
    k = abs(kappa)
    if eps * k >= 1.0 / 3.0:
        raise OutOfRangeError(f"eps*|kappa| = {eps * k} outside the validity window [0, 1/3)")
    if equal_mass:
        shift = 1.5 * k * eps * eps
        return eps + shift, eps - shift
    if k == 0.0:
        return eps, eps
    inner = (1.0 / k - eps) * (1.0 - math.sqrt(3.0 - 2.0 / (1.0 - eps * k)))
    outer = (1.0 / k + eps) * (math.sqrt(3.0 - 2.0 / (1.0 + eps * k)) - 1.0)
    return inner, outer
