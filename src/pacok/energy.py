"""Diffuse-interface energy for the two-phase amphiphile model.

The energy of a pair of order parameters (u, v) on a periodic box is

    E = P + gamma*N + C + R,

with the interfacial part P = (eps/2)*int|grad u|^2 + (1/eps)*int W(u,v),
the Coulombic part N = (1/2)*int|grad phi|^2 where -lap(phi) = f(u)-f(v)/zeta
(zero mean, periodic), quadratic mass penalties C, and an optional small
v-smoothing term R = v_reg*int|grad v|^2.

The well W penalizes u outside {0,1}, v outside [0,1] and overlap u+v > 1;
the one-sided quadratics are C^1 with the kink derivative set to 0, so the
gradient of W is continuous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    GridSpec,
    _all_axes,
    _inv_k_squared,
    dirichlet_energy,
    integrate_array,
    laplacian,
    parseval_sum,
    require_same_grid,
)

#: ratio of the default v-regularization coefficient to eps/2
V_REG_RATIO = 1.0 / 1_250_000.0


@dataclass(frozen=True)
class PhysParams:
    """Model parameters.

    ``v_reg`` defaults to (epsilon/2)/1250000, reading the smoothing
    coefficient as that fraction of the full |grad u|^2 coefficient; pass 0
    to disable. ``interpolant`` selects the mass/charge interpolant f:
    "cubic" is 3z^2-2z^3 (the simulation choice), "identity" the linear one
    used in limit arguments.
    """

    zeta: float
    gamma: float
    mass: float
    epsilon: float
    K1: float
    K2: float
    v_reg: float | None = None
    interpolant: str = "cubic"

    def __post_init__(self) -> None:
        for name in ("zeta", "gamma", "mass", "epsilon", "K1", "K2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.v_reg is None:
            object.__setattr__(self, "v_reg", (self.epsilon / 2.0) * V_REG_RATIO)
        elif self.v_reg < 0:
            raise ValueError("v_reg must be nonnegative")
        if self.interpolant not in ("cubic", "identity"):
            raise ValueError(f"unknown interpolant {self.interpolant!r}")


@dataclass(frozen=True)
class SplitConstants:
    """Coefficients of grad W1 for W1 = a_uu u^2/2 + a_uv uv + (a_vv/2) v^2.

    W1 is the convex part of the well that the time stepper treats
    implicitly; its diagonal (a_uu/eps)u and (a_vv/eps)v are what
    :class:`ExplicitForce` leaves out of the variational derivatives.
    """

    a_uu: float = 87.0
    a_uv: float = 27.0
    a_vv: float = 54.0

    def hessian(self) -> np.ndarray:
        return np.array([[self.a_uu, self.a_uv], [self.a_uv, self.a_vv]])


SPLIT = SplitConstants()


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy contributions; ``total`` applies gamma to ``nonlocal`` once."""

    perimeter: float
    nonlocal_: float
    constraint: float
    v_regularization: float
    total: float

    @classmethod
    def assemble(cls, perimeter, nonlocal_, constraint, v_regularization, gamma):
        total = perimeter + gamma * nonlocal_ + constraint + v_regularization
        return cls(perimeter, nonlocal_, constraint, v_regularization, total)


def interpolant(z):
    """Cubic interpolant f(z) = 3z^2 - 2z^3 with f(0)=0, f(1)=1."""
    z = np.asarray(z, dtype=np.float64)
    return (3.0 - 2.0 * z) * z * z


def interpolant_deriv(z):
    """f'(z) = 6z - 6z^2."""
    z = np.asarray(z, dtype=np.float64)
    return 6.0 * z * (1.0 - z)


def _identity(z):
    return np.asarray(z, dtype=np.float64)


def _identity_deriv(z):
    return np.ones_like(np.asarray(z, dtype=np.float64))


def interpolant_pair(params: PhysParams):
    """(f, f') for the configured interpolant."""
    if params.interpolant == "identity":
        return _identity, _identity_deriv
    return interpolant, interpolant_deriv


def potential_W(u, v):
    """Degenerate double well W(u, v) >= 0.

    W = 18(u-u^2)^2 + (27/2)[min(v,0)^2 + min(1-v,0)^2 + min(1-u-v,0)^2].
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    well = u - u * u
    penalty = (
        np.minimum(v, 0.0) ** 2
        + np.minimum(1.0 - v, 0.0) ** 2
        + np.minimum(1.0 - u - v, 0.0) ** 2
    )
    return 18.0 * well * well + 13.5 * penalty


def potential_W_grad(u, v):
    """(dW/du, dW/dv); one-sided quadratics differentiated piecewise."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    overlap = np.maximum(u + v - 1.0, 0.0)
    w_u = 36.0 * (u - u * u) * (1.0 - 2.0 * u) + 27.0 * overlap
    w_v = 27.0 * (np.minimum(v, 0.0) + np.maximum(v - 1.0, 0.0) + overlap)
    return w_u, w_v


def charge_density(u: Field, v: Field, params: PhysParams) -> np.ndarray:
    """w = f(u) - f(v)/zeta, the source of the electrostatic potential."""
    require_same_grid(u, v)
    f, _ = interpolant_pair(params)
    return f(u.values) - f(v.values) / params.zeta


def perimeter_term(u: Field, v: Field, params: PhysParams) -> float:
    """(eps/2)*int|grad u|^2 + (1/eps)*int W(u, v)."""
    grid = require_same_grid(u, v)
    gradient_part = 0.5 * params.epsilon * dirichlet_energy(u)
    well_part = integrate_array(grid, potential_W(u.values, v.values)) / params.epsilon
    return gradient_part + well_part


def _nonlocal_energy(grid: GridSpec, w_hat: np.ndarray, inv_k2: np.ndarray) -> float:
    """N = (1/2)*int|grad phi|^2 = (1/2)*sum |w_hat|^2/|k|^2 by Parseval."""
    return 0.5 * parseval_sum(grid, w_hat, inv_k2)


def nonlocal_term(u: Field, v: Field, params: PhysParams) -> tuple[float, Field]:
    """(N, phi) with N = (1/2)*int|grad phi|^2, phi zero-mean periodic."""
    grid = require_same_grid(u, v)
    w_hat = np.fft.rfftn(charge_density(u, v, params))
    inv_k2 = _inv_k_squared(grid)
    energy = _nonlocal_energy(grid, w_hat, inv_k2)
    w_hat *= inv_k2
    phi = np.fft.irfftn(w_hat, s=grid.shape, axes=_all_axes(grid))
    return energy, Field(grid, phi)


def masses(u: Field, v: Field, params: PhysParams) -> tuple[float, float]:
    """(int f(u), int f(v)), the masses the penalties hold at m and zeta*m."""
    grid = require_same_grid(u, v)
    f, _ = interpolant_pair(params)
    return integrate_array(grid, f(u.values)), integrate_array(grid, f(v.values))


def constraint_term(u: Field, v: Field, params: PhysParams) -> float:
    """(K1/2)(m - int f(u))^2 + (K2/2)(zeta*m - int f(v))^2."""
    mass_u, mass_v = masses(u, v, params)
    return 0.5 * params.K1 * (params.mass - mass_u) ** 2 + 0.5 * params.K2 * (
        params.zeta * params.mass - mass_v
    ) ** 2


def v_regularization_term(v: Field, params: PhysParams) -> float:
    """v_reg * int|grad v|^2."""
    return params.v_reg * dirichlet_energy(v)


def total_energy(u: Field, v: Field, params: PhysParams) -> EnergyBreakdown:
    """Full breakdown; total = P + gamma*N + C + R (three FFTs)."""
    grid = require_same_grid(u, v)
    w_hat = np.fft.rfftn(charge_density(u, v, params))
    nonlocal_ = _nonlocal_energy(grid, w_hat, _inv_k_squared(grid))
    return EnergyBreakdown.assemble(
        perimeter=perimeter_term(u, v, params),
        nonlocal_=nonlocal_,
        constraint=constraint_term(u, v, params),
        v_regularization=v_regularization_term(v, params),
        gamma=params.gamma,
    )


class ExplicitForce:
    """The explicit part (F_u, F_v) of the variational derivatives.

        F_u = (W_u - a_uu u)/eps + (gamma*phi - K1(m - int f(u))) f'(u)
        F_v = (W_v - a_vv v)/eps - ((gamma/zeta)*phi + K2(zeta m - int f(v))) f'(v)

    with -lap(phi) = f(u) - f(v)/zeta (zero mean), so that
    dE/du = F_u + (a_uu/eps)u - eps*lap u and
    dE/dv = F_v + (a_vv/eps)v - 2*v_reg*lap v. This is the one definition of
    the force: the time stepper takes it explicitly and
    :func:`variational_derivatives` adds the linear part back.

    The pointwise work is fused. For the cubic f, the terms f, f' and W_u
    share s = z - z^2: f = z(z + 2s), f' = 6s, W_u = 36s(1-2u) + 27*overlap,
    and W_v = 27*(overlap + v - clip(v, 0, 1)). A call costs two FFTs (the
    Poisson solve) and writes through ``out=`` into four field buffers and one
    half-spectrum allocated here once; between calls the caller may use
    ``work`` and ``spec`` as scratch.
    """

    def __init__(self, grid: GridSpec, params: PhysParams):
        self.grid = grid
        self.params = params
        self.cubic = params.interpolant == "cubic"
        self.inv_k2 = _inv_k_squared(grid)
        self.axes = _all_axes(grid)
        self.work = tuple(np.empty(grid.shape) for _ in range(4))
        half = grid.shape[:-1] + (grid.shape[-1] // 2 + 1,)  # rfftn layout
        self.spec = np.empty(half, dtype=np.complex128)

    def __call__(self, u: np.ndarray, v: np.ndarray, out_u: np.ndarray, out_v: np.ndarray):
        """Write F_u into ``out_u`` and F_v into ``out_v``; u and v are read only."""
        p, grid = self.params, self.grid
        eps, zeta = p.epsilon, p.zeta
        s_u, s_v, fu, fv = self.work
        np.multiply(u, u, out=s_u)
        np.subtract(u, s_u, out=s_u)
        if self.cubic:
            np.multiply(v, v, out=s_v)
            np.subtract(v, s_v, out=s_v)
            for z, s, f in ((u, s_u, fu), (v, s_v, fv)):
                np.multiply(s, 2.0, out=f)
                f += z
                f *= z
            slope = 6.0
        else:
            fu, fv = u, v
            slope = 1.0
        mass_u = integrate_array(grid, fu)
        mass_v = integrate_array(grid, fv)

        # phi from the charge density f(u) - f(v)/zeta, into the last buffer
        phi, charge = self.work[3], self.work[2]
        np.divide(fv, zeta, out=phi)
        np.subtract(fu, phi, out=charge)
        np.fft.rfftn(charge, out=self.spec)
        self.spec *= self.inv_k2
        np.fft.irfftn(self.spec, s=grid.shape, axes=self.axes, out=phi)

        # couplings (nonlocal + mass penalty) times f' = slope*s (or 1)
        np.multiply(phi, slope * p.gamma, out=out_u)
        out_u -= slope * p.K1 * (p.mass - mass_u)
        np.multiply(phi, -slope * p.gamma / zeta, out=out_v)
        out_v -= slope * p.K2 * (zeta * p.mass - mass_v)
        if self.cubic:
            out_u *= s_u
            out_v *= s_v

        # well: overlap = max(u + v - 1, 0) into phi
        tmp = charge
        np.add(u, v, out=phi)
        phi -= 1.0
        np.maximum(phi, 0.0, out=phi)
        # (W_v - a_vv v)/eps = (27(overlap - clip(v, 0, 1)) + (27 - a_vv) v)/eps
        np.clip(v, 0.0, 1.0, out=tmp)
        np.subtract(phi, tmp, out=tmp)
        tmp *= 27.0 / eps
        out_v += tmp
        np.multiply(v, (27.0 - SPLIT.a_vv) / eps, out=tmp)
        out_v += tmp
        # (W_u - a_uu u)/eps = (36 s (1 - 2u) + 27 overlap - a_uu u)/eps
        np.multiply(u, -2.0, out=tmp)
        tmp += 1.0
        tmp *= s_u
        tmp *= 36.0 / eps
        out_u += tmp
        phi *= 27.0 / eps
        out_u += phi
        np.multiply(u, SPLIT.a_uu / eps, out=tmp)
        out_u -= tmp


def variational_derivatives(u: Field, v: Field, params: PhysParams) -> tuple[Field, Field]:
    """(dE/du, dE/dv) as fields.

    dE/du = -eps*lap u + W_u/eps + gamma*phi*f'(u) - K1(m - int f(u)) f'(u)
    dE/dv = W_v/eps - (gamma/zeta)*phi*f'(v) - K2(zeta m - int f(v)) f'(v)
            - 2*v_reg*lap v
    """
    grid = require_same_grid(u, v)
    uu, vv = u.values, v.values
    du, dv = np.empty(grid.shape), np.empty(grid.shape)
    ExplicitForce(grid, params)(uu, vv, du, dv)
    du += SPLIT.a_uu / params.epsilon * uu - params.epsilon * laplacian(u).values
    dv += SPLIT.a_vv / params.epsilon * vv - 2.0 * params.v_reg * laplacian(v).values
    return Field(grid, du), Field(grid, dv)
