"""Sharp-interface radial analysis: energies, optimization, asymptotics.

A radial candidate is a concentric arrangement V-U-V with radii
R0 <= R1 < R2 <= R3 (liposome; micelle when R0 = R1 = 0) subject to the mass
constraints

    R3^n - R0^n = (zeta+1) (R2^n - R1^n),
    R2^n - R1^n = m/pi (n=2)  or  3m/(4pi) (n=3).

This module evaluates the energy of such candidates, the drops of their
electrostatic potential across the layers, stationarity residuals,
constrained minimizers, large-mass asymptotic series, the morphology
coefficient c(zeta) with its transition thresholds, the bending and Gaussian
moduli of the limiting curvature energy, and the layer-thickness expansions
of the 1-Wasserstein sibling model.

Everything here is closed-form, one-dimensional quadrature or a
low-dimensional solve; it serves as the independent oracle for the grid
simulator.

Numerical notes: the radial field has one definition, the enclosed charge
q(r) walked layer by layer (:func:`_layers`). The Coulomb energy
N = (c_n/2) int q^2/r^(n-1) dr is a 48-point Gauss-Legendre quadrature per
layer on offsets from the layer start; the potential drops that the
stationarity conditions read (:func:`potential_drops`) are the layer
integrals of q/r^(n-1) in forms that do not cancel as r -> a. Against a
50-digit quadrature, at every point the optimizer solves in n in {2, 3},
zeta in {0.5, 1, 2}, gamma in {1, 1500}, m in {1, 7, 1e2, 1e3, 1e4, 1e6},
:func:`liposome_energy` is within 2.4e-15 relative, and phi(r) built from
these drops (the test suite's oracle) within 1.8e-15 of max |phi| (at
zeta = 1, gamma = 1500, m = 1e4 in 2-D, E/m is 15.0000000003, the
asymptotic value). The stationarity conditions (phi(R0), B) have one
definition, :func:`_stationarity`, which the free solve, the equal-mass
search and :func:`stationarity_residual` all read. The free solve is
MINPACK's hybrid method in (log R0, log(R1 - R0)); it converges at
zeta = gamma = 1 up to m = 1e9 in 2-D and in 3-D, and at gamma = 1500 in
2-D up to m = 1e9. It and the Brent searches run on the ports in
:mod:`pacok._solvers`, which return scipy.optimize's results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidCandidateError, OptimizationError, OutOfRangeError, require_positive

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi

#: zeta below which the Gaussian modulus is positive (TPMS regime)
ZETA0 = 2.0 * (math.sqrt(2.0) - 1.0)


def _ball_coef(n: int) -> float:
    """|B(R)| = _ball_coef * R^n."""
    return math.pi if n == 2 else _FOUR_PI / 3.0


def mass_content(m: float, n: int) -> float:
    """R2^n - R1^n implied by the mass m."""
    return m / _ball_coef(n)


@dataclass(frozen=True)
class RadialCandidate:
    """Radii of a concentric V-U-V candidate with its mass constraints."""

    n: int
    zeta: float
    radii: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if self.n not in (2, 3):
            raise InvalidCandidateError(f"dimension must be 2 or 3, got {self.n}")
        require_positive(zeta=self.zeta, error=InvalidCandidateError)
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        r0, r1, r2, r3 = radii
        if not (0.0 <= r0 <= r1 < r2 <= r3 < math.inf):
            raise InvalidCandidateError(f"radii must satisfy 0 <= R0 <= R1 < R2 <= R3 < inf, got {radii}")
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


def _outer_radii(r0: float, r1: float, content: float, zeta: float, n: int) -> tuple[float, float]:
    """(R2, R3) of the mass constraints, given (R0, R1) and the content R2^n - R1^n."""
    return (r1**n + content) ** (1.0 / n), (r0**n + (zeta + 1.0) * content) ** (1.0 / n)


def liposome_candidate(m: float, zeta: float, n: int, r0: float, r1: float) -> RadialCandidate:
    """Candidate with the free radii (R0, R1); R2, R3 from the constraints."""
    return RadialCandidate(n, zeta, (r0, r1, *_outer_radii(r0, r1, mass_content(m, n), zeta, n)))


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
    require_positive(m=m, zeta=zeta, gamma=gamma)
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
    """(m*, min E/m) of the micelle family; min E/m is gamma^(1/3) times the
    cylinder (2-D) or sphere (3-D) branch at zeta."""
    require_positive(zeta=zeta, gamma=gamma)
    shape = _micelle_shape(zeta, n)
    scale = gamma ** (1.0 / 3.0)
    if n == 2:
        return _FOUR_PI * (gamma * shape) ** (-2.0 / 3.0), scale * branch_cylinder(zeta)
    return 20.0 * math.pi / (gamma * shape), scale * branch_sphere(zeta)


# ---------------------------------------------------------------------------
# electrostatic potential
# ---------------------------------------------------------------------------


def potential_drops(radii, zeta: float, n: int) -> tuple[float, float, float]:
    """(phi(R0), phi(R1), phi(R2)), summed inward from phi(R3) = 0.

    Each layer adds its drop phi(a) - phi(b) = q_a J(a, b) + s I(a, b); the
    optimizer's stationarity residuals read these values.
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


def asymptotic_initial_radii(m: float, zeta: float, gamma: float, n: int):
    """(R0, R1) from the leading-order asymptotics; None if infeasible."""
    pred = asymptotic_liposome(m, zeta, gamma, n)
    thickness = 0.5 * pred.thickness_middle
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
    """1-dof search over the pivot (R1^n + R2^n)/2 under equal V masses.

    The gradient B + gamma phi(R0)/zeta is read from :func:`_stationarity`;
    dE/dpivot is _ball_coef(n) times it, a positive factor that moves neither
    its sign nor its root. The bracket starts just above the feasibility
    floor, where R0 = 0, and doubles until the gradient turns positive;
    Brent's method (``_solvers.brentq``) then finds its zero.
    """
    # imported here, not at module level: stepping never solves, so
    # `import pacok` and `pacok run` need not compile the solver module
    from ._solvers import brentq

    content = mass_content(m, n)

    def gradient(pivot):
        phi0, balance = _stationarity(equal_mass_candidate(m, zeta, n, pivot).radii, zeta, gamma, n)
        return balance + gamma * phi0 / zeta

    lo = (zeta + 1.0) * content / 2.0 * (1.0 + 1e-12)
    if gradient(lo) >= 0.0:
        raise OptimizationError("equal-mass minimum sits at the feasibility floor")
    # at 2^48 floors the U layer is ~1e-14 of the radius, which doubles barely resolve
    for _ in range(48):
        hi = 2.0 * lo
        if gradient(hi) >= 0.0:
            break
        lo = hi
    else:
        raise OptimizationError("failed to bracket the equal-mass stationary pivot")
    pivot = brentq(gradient, lo, hi, xtol=1e-12 * lo, rtol=8.9e-16)
    return equal_mass_candidate(m, zeta, n, pivot)


def _solve_free(m, zeta, gamma, n):
    """Radii at which the stationarity conditions (phi(R0), B) vanish.

    MINPACK's hybrid method (``_solvers.hybrd2``) solves them in
    y = (log R0, log(R1 - R0)), so R0 > 0 and R1 > R0 hold at every iterate
    and the forward-difference steps are relative to R0 and to the inner V
    thickness, which is far below R0 at large mass. It starts from the
    asymptotic series or, when that guess is infeasible, from
    :func:`_coarse_search`.
    """
    from ._solvers import hybrd2  # see _optimize_equal_mass

    content = mass_content(m, n)

    def conditions(y0, y1):
        r0, inner = math.exp(y0), math.exp(y1)
        if _pow_step(r0, inner, n) >= zeta * content:
            return math.inf, math.inf  # the outer V layer would be empty
        r1 = r0 + inner
        return _stationarity((r0, r1, *_outer_radii(r0, r1, content, zeta, n)), zeta, gamma, n)

    r0, r1 = asymptotic_initial_radii(m, zeta, gamma, n) or _coarse_search(m, zeta, gamma, n)
    try:
        y0, y1 = hybrd2(conditions, math.log(r0), math.log(r1 - r0))
        r0 = math.exp(y0)
        return liposome_candidate(m, zeta, n, r0, r0 + math.exp(y1))
    except (OverflowError, InvalidCandidateError) as exc:
        raise OptimizationError(f"hybrid method left the liposome family: {exc}") from exc


def optimize_liposome(
    m: float, zeta: float, gamma: float, n: int, equal_mass: bool = False
) -> RadialCandidate:
    """Constrained minimizer of the liposome energy.

    Two free radii (one with ``equal_mass``, which forces
    R3^n - R2^n = R1^n - R0^n). The free radii solve the stationarity
    conditions by MINPACK's hybrid method in (log R0, log(R1 - R0)) (see
    :func:`_solve_free`), accepted when :func:`stationarity_residual` is below
    1e-8; the equal-mass pivot is bracketed from its feasibility floor and
    found by Brent's method.
    """
    require_positive(m=m, zeta=zeta, gamma=gamma)
    if equal_mass:
        return _optimize_equal_mass(m, zeta, gamma, n)
    candidate = _solve_free(m, zeta, gamma, n)
    check = float(np.max(np.abs(stationarity_residual(candidate, gamma))))
    if not check < 1e-8:
        raise OptimizationError(f"stationarity residual {check:.3e} at the hybrid-method solution")
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
    require_positive(m=m, zeta=zeta, gamma=gamma)
    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    zp1 = zeta + 1.0
    # no divisor multiplies gamma (zeta+1) by m or raises it to an integer
    # power: those under- or overflow to 0 or inf long before gamma and m do;
    # gamma (zeta+1) itself cannot underflow because zeta+1 >= 1
    thickness = (3.0 / (gamma * zp1)) ** (1.0 / 3.0)
    leading = branch_bilayer(zeta) * gamma ** (1.0 / 3.0)
    if n == 2:
        mid = m / _FOUR_PI * (gamma * zp1 / 3.0) ** (1.0 / 3.0)
        vshift = _TWO_PI * zeta * (zeta + 2.0) / (gamma * zp1) / m
        if equal_mass:
            epm = leading + 24.0 * math.pi**2 * (2.0 * zeta**2 + 8.0 * zeta + 7.0) / (
                5.0 * gamma * zp1
            ) / m / m
            vshift *= 3.0
            imbalance = 0.0
        else:
            epm = leading + 1.6 * math.pi**2 * (zeta**2 + 4.0 * zeta + 1.0) / (
                gamma * zp1
            ) / m / m
            imbalance = 4.0 * zeta * (zeta + 2.0) / (3.0 ** (1.0 / 3.0) * (gamma * zp1) ** (2.0 / 3.0))
        order = "O(m^-3)"
    else:
        mid = math.sqrt(m / (8.0 * math.pi)) * (gamma * zp1 / 3.0) ** (1.0 / 6.0)
        vshift = (
            zeta * (zeta + 2.0) * math.sqrt(8.0 * math.pi / m)
            / (3.0 ** (1.0 / 6.0) * (gamma * zp1) ** (5.0 / 6.0))
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


@lru_cache(maxsize=1)
def thresholds() -> MorphologyBranches:
    """Transition values of zeta, roots of their defining equations (``_solvers.brentq``)."""
    from ._solvers import brentq  # see _optimize_equal_mass

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
    require_positive(zeta=zeta)
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
    require_positive(zeta=zeta)
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
    require_positive(eps=eps, error=OutOfRangeError)
    k = abs(kappa)
    if not eps * k < 1.0 / 3.0:
        raise OutOfRangeError(f"eps*|kappa| = {eps * k} outside the validity window [0, 1/3)")
    if equal_mass:
        shift = 1.5 * k * eps * eps
        return eps + shift, eps - shift
    if k == 0.0:
        return eps, eps
    inner = (1.0 / k - eps) * (1.0 - math.sqrt(3.0 - 2.0 / (1.0 - eps * k)))
    outer = (1.0 / k + eps) * (math.sqrt(3.0 - 2.0 / (1.0 + eps * k)) - 1.0)
    return inner, outer
