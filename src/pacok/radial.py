"""Sharp-interface radial analysis: energies, optimization, asymptotics.

A radial candidate is a concentric arrangement V-U-V with radii
R0 <= R1 < R2 <= R3 (liposome; micelle when R0 = R1 = 0) subject to the mass
constraints

    R3^n - R0^n = (zeta+1) (R2^n - R1^n),
    R2^n - R1^n = m/pi (n=2)  or  3m/(4pi) (n=3).

This module evaluates the energy of such candidates, their electrostatic
potential, stationarity residuals, constrained minimizers, large-mass
asymptotic series, the rescaled thin-shell functional, the morphology
coefficient c(zeta) with its transition thresholds, the bending and Gaussian
moduli of the limiting curvature energy, and the layer-thickness expansions
of the 1-Wasserstein sibling model.

Everything here is closed-form, one-dimensional quadrature or a
low-dimensional solve; it serves as the independent oracle for the grid
simulator.

Numerical notes: the radial field has one definition, the enclosed charge
q(r) walked layer by layer (:func:`_layers`). The Coulomb energy
N = (c_n/2) int q^2/r^(n-1) dr is a 48-point Gauss-Legendre quadrature per
layer on offsets from the layer start; phi(r), and the potential drops that
the stationarity conditions read, are the layer integrals of q/r^(n-1) in
forms that do not cancel as r -> a. Against a 50-digit quadrature, at every
point the optimizer solves in n in {2, 3}, zeta in {0.5, 1, 2},
gamma in {1, 1500}, m in {1, 7, 1e2, 1e3, 1e4, 1e6}, :func:`liposome_energy`
is within 2.4e-15 relative and :func:`radial_potential` within 1.8e-15 of
max |phi| (at zeta = 1, gamma = 1500, m = 1e4 in 2-D, E/m is 15.0000000003,
the asymptotic value). The optimizer solves the stationarity conditions
phrased through the potential drops; it converges at zeta = gamma = 1 up to
m = 1e9 in 2-D and in 3-D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
# radial field: the enclosed charge, layer by layer
# ---------------------------------------------------------------------------


def _pow_step(a, t, n: int):
    """(a + t)^n - a^n grouped in the step t, so nearby radii lose no precision."""
    if n == 2:
        return t * (2.0 * a + t)
    return t * (3.0 * a * a + 3.0 * a * t + t * t)


def _layers(radii, zeta: float, n: int) -> list[tuple[float, float, float, float]]:
    """(a, b, s, q_a) of the layers [R0,R1], [R1,R2], [R2,R3], from the inside out.

    s is the charge density (-1/zeta in V, 1 in U) and q_a the charge enclosed
    by the sphere of radius a, per unit surface constant: inside the layer
    q(r) = q_a + s (r^n - a^n)/n, and phi'(r) = -q(r)/r^(n-1).
    """
    r0, r1, r2, r3 = radii
    layers = []
    q = 0.0
    for a, b, s in ((r0, r1, -1.0 / zeta), (r1, r2, 1.0), (r2, r3, -1.0 / zeta)):
        layers.append((a, b, s, q))
        q += s * _pow_step(a, b - a, n) / n
    return layers


@lru_cache(maxsize=1)
def _gauss_legendre():
    """Nodes and weights of the 48-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(48)


def _drop(a: float, r: float, s: float, q_a: float, n: int) -> float:
    """phi(a) - phi(r) = q_a J(a, r) + s I(a, r) for r in the layer starting at a.

    J = int_a^r x^(1-n) dx and I = int_a^r (x^n - a^n)/(n x^(n-1)) dx, in
    forms that keep their relative accuracy as r -> a.
    """
    t = r - a
    if a == 0.0:  # a micelle core encloses no charge
        return s * t * r / (2.0 * n)
    if n == 3:
        return q_a * t / (a * r) + s * t * t * (r + 2.0 * a) / (6.0 * r)
    u = t / a  # I = (a^2/2) (u^2/2 + u - log1p(u))
    return q_a * math.log1p(u) + s * 0.5 * a * a * (0.5 * u * u + _x_minus_log1p(u))


def _x_minus_log1p(x: float) -> float:
    """x - log1p(x) for x >= 0, accurate where the difference cancels (x < 0.1).

    With r = x/(2+x) and y = r^2, log1p(x) = 2 atanh(r) = 2r + 2r y S(y),
    S = 1/3 + y/5 + y^2/7 + ..., and x - 2r = r x, so x - log1p(x) =
    r (x - 2 y S); six terms of S leave < 1e-18 relative at x < 0.1, and
    the direct difference loses < 1e-14 relative above it.
    """
    if x >= 0.1:
        return x - math.log1p(x)
    r = x / (2.0 + x)
    y = r * r
    series = 1 / 3 + y * (1 / 5 + y * (1 / 7 + y * (1 / 9 + y * (1 / 11 + y / 13))))
    return r * (x - 2.0 * y * series)


# ---------------------------------------------------------------------------
# energy
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


def sharp_nonlocal(c: RadialCandidate) -> float:
    """Coulombic term N = (1/2) int |grad phi|^2 of a radial candidate.

    N = (c_n/2) sum over layers of int_a^b q(r)^2 / r^(n-1) dr, with c_n the
    surface constant (2 pi in 2-D, 4 pi in 3-D) and q the enclosed charge of
    :func:`_layers`, by a 48-point Gauss-Legendre rule per layer. The nodes
    are offsets from the layer start, so q carries no cancellation. Against a
    50-digit quadrature, N is within 6.7e-15 relative at the solved points of
    the module notes' grid, and within 2.1e-14 on thick-core candidates with
    R0/R1 down to 1e-4.
    """
    x, w = _gauss_legendre()
    n = c.n
    total = 0.0
    for a, b, s, q_a in _layers(c.radii, c.zeta, n):
        if b > a:
            half = 0.5 * (b - a)
            t = half * (1.0 + x)
            q = q_a + s * _pow_step(a, t, n) / n
            total += half * float(np.dot(w, q * q / (a + t) ** (n - 1)))
    return (math.pi if n == 2 else _TWO_PI) * total


def liposome_energy(c: RadialCandidate, gamma: float) -> SharpEnergy:
    """Perimeter, N and total = perimeter + gamma*N of a radial candidate."""
    perimeter = sharp_perimeter(c)
    nonlocal_ = sharp_nonlocal(c)
    return SharpEnergy(perimeter, nonlocal_, perimeter + gamma * nonlocal_)


def _micelle_shape(zeta: float, n: int) -> float:
    """S_n(zeta) of the micelle's N: pi S_2 c^2/8 in 2-D, 2 pi S_3 c^(5/3)/15 in
    3-D for the mass content c (S_2 and S_3 as returned below)."""
    zp1 = zeta + 1.0
    if n == 2:
        return zp1 * (zp1 * math.log(zp1) - zeta) / zeta**2
    return zp1 * (2.0 * zeta + 3.0 - 3.0 * zp1 ** (2.0 / 3.0)) / zeta**2


def micelle_energy(m: float, zeta: float, gamma: float, n: int) -> float:
    """Closed-form total energy of the micelle candidate of mass m."""
    if min(m, zeta, gamma) <= 0:
        raise ValueError("m, zeta, gamma must be positive")
    content = mass_content(m, n)
    shape = _micelle_shape(zeta, n)
    if n == 2:
        perimeter = _TWO_PI * math.sqrt(m / math.pi)
        nonlocal_ = math.pi * shape * content**2 / 8.0
    else:
        perimeter = _FOUR_PI * content ** (2.0 / 3.0)
        nonlocal_ = 2.0 * math.pi * shape * content ** (5.0 / 3.0) / 15.0
    return perimeter + gamma * nonlocal_


def micelle_optimal(zeta: float, gamma: float, n: int) -> tuple[float, float]:
    """(m*, min E/m) of the micelle family."""
    if min(zeta, gamma) <= 0:
        raise ValueError("zeta, gamma must be positive")
    shape = _micelle_shape(zeta, n)
    if n == 2:
        m_star = _FOUR_PI * (gamma * shape) ** (-2.0 / 3.0)
        min_ratio = 1.5 * (gamma * shape) ** (1.0 / 3.0)
    else:
        m_star = 20.0 * math.pi / (gamma * shape)
        min_ratio = 4.5 * (gamma * shape / 15.0) ** (1.0 / 3.0)
    return m_star, min_ratio


# ---------------------------------------------------------------------------
# electrostatic potential
# ---------------------------------------------------------------------------


def radial_potential(c: RadialCandidate, r):
    """Potential phi(r) of the candidate, phi(infinity) = 0; vectorized in r.

    Inside the layer [a, b], phi(r) = phi(a) - q_a J(a, r) - s I(a, r) with
    the enclosed charge q_a and density s of :func:`_layers`, the integrals
    J and I of :func:`_drop` and phi(a) from :func:`potential_drops`; phi is
    constant inside R0 and zero outside R3.
    """
    r = np.asarray(r, dtype=np.float64)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    phi0, phi1, phi2 = potential_drops(c.radii, c.zeta, c.n)
    drop = np.vectorize(_drop, otypes=[np.float64])
    out = np.where(r <= c.radii[0], phi0, 0.0)
    for (a, b, s, q_a), phi_a in zip(_layers(c.radii, c.zeta, c.n), (phi0, phi1, phi2)):
        inside = (a < r) & (r <= b)
        out[inside] = phi_a - drop(a, r[inside], s, q_a, c.n)
    return float(out[0]) if scalar else out


def potential_drops(radii, zeta: float, n: int) -> tuple[float, float, float]:
    """(phi(R0), phi(R1), phi(R2)), summed inward from phi(R3) = 0.

    Each layer adds its drop phi(a) - phi(b) = q_a J(a, b) + s I(a, b); the
    optimizer's stationarity residuals and :func:`radial_potential` read
    these values.
    """
    phi = 0.0
    drops = []
    for a, b, s, q_a in reversed(_layers(radii, zeta, n)):
        phi += _drop(a, b, s, q_a, n)
        drops.append(phi)
    return drops[2], drops[1], drops[0]


# ---------------------------------------------------------------------------
# stationarity and optimization
# ---------------------------------------------------------------------------


def _stationarity(radii, zeta: float, gamma: float, n: int) -> tuple[float, float]:
    """(phi(R0), B): the two stationarity conditions through potential drops.

    phi(R0), the plateau potential, is proportional to the first printed
    Lagrange condition, and B = (n-1)(1/R1 + 1/R2) - gamma (zeta+1)/zeta
    (phi(R1) - phi(R2)) is the perimeter-vs-potential balance.
    """
    phi0, phi1, phi2 = potential_drops(radii, zeta, n)
    r1, r2 = radii[1], radii[2]
    return phi0, (n - 1.0) * (1.0 / r1 + 1.0 / r2) - gamma * (zeta + 1.0) / zeta * (phi1 - phi2)


def stationarity_residual(c: RadialCandidate, gamma: float) -> np.ndarray:
    """Residuals of the two stationarity conditions of the liposome family.

    (phi0, B) of :func:`_stationarity` on radii normalized by (R1+R2)/2, with
    gamma rescaled to g = gamma scale^3, scaled to the printed Lagrange
    conditions: res1 = 4 zeta phi0 and res2 = 4 zeta^2/((zeta+1) g) B in 2-D,
    res1 = -2 zeta phi0 and res2 = 6 zeta^2/g B - (3 zeta+2) res1 in 3-D.
    The vector is zero exactly at constrained minimizers.
    """
    if c.kind != "liposome":
        raise InvalidCandidateError("stationarity conditions apply to liposome candidates")
    scale = c.mid_radius
    g = gamma * scale**3
    zeta = c.zeta
    phi0, balance = _stationarity([r / scale for r in c.radii], zeta, g, c.n)
    if c.n == 2:
        return np.array([4.0 * zeta * phi0, 4.0 * zeta * zeta / ((zeta + 1.0) * g) * balance])
    res1 = -2.0 * zeta * phi0
    return np.array([res1, 6.0 * zeta * zeta / g * balance - (3.0 * zeta + 2.0) * res1])


def _phi_system(m: float, zeta: float, gamma: float, n: int):
    """The residuals (phi(R0), B) of :func:`_stationarity` as a function of (R0, R1)."""
    content = mass_content(m, n)

    def residuals(x):
        r0, r1 = x
        if r0 <= 0.0 or r1 <= r0:
            return None
        if _pow_step(r0, r1 - r0, n) >= zeta * content:
            return None  # R3 would drop below R2
        r2 = (r1**n + content) ** (1.0 / n)
        r3 = (r0**n + (zeta + 1.0) * content) ** (1.0 / n)
        return np.array(_stationarity((r0, r1, r2, r3), zeta, gamma, n))

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
            # sized by the inner V thickness, which is far below R0 at large mass
            h = 1e-7 * max(min(abs(x[j]), abs(x[1] - x[0])), 1e-12)
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
        if r0 <= 0 or r1 <= r0 or _pow_step(r0, r1 - r0, n) >= zeta * content:
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
    # imported here, not at module level: scipy.optimize (with scipy.linalg)
    # is most of the cost of `import pacok`, and stepping never calls it
    from scipy.optimize import brentq

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
    pivot = brentq(gradient, lo, hi, xtol=1e-12 * pivot0, rtol=8.9e-16)
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
    return 1.5 * _micelle_shape(zeta, 2) ** (1.0 / 3.0)


def branch_sphere(zeta: float) -> float:
    return 4.5 * (_micelle_shape(zeta, 3) / 15.0) ** (1.0 / 3.0)


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
    from scipy.optimize import brentq  # see _optimize_equal_mass

    rtol = 4.0 * np.finfo(float).eps
    zeta1 = brentq(_zeta1_equation, 1.5, 2.2, xtol=1e-300, rtol=rtol)
    zeta2 = brentq(_zeta2_equation, 3.0, 4.2, xtol=1e-300, rtol=rtol)
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
