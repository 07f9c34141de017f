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

:func:`total_energy` is the one evaluation of E; its :class:`EnergyBreakdown`
carries the four terms, the total and the masses int f(u), int f(v). It takes
three FFTs and writes through two field buffers and one half-spectrum buffer,
which the caller may lend: a run's stepper lends its force's scratch, so the
energies of a run allocate nothing field-sized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import require_nonnegative, require_positive
from .grid import (
    Field,
    GridSpec,
    _inv_k_squared,
    _k_squared,
    apply_multiplier,
    integrate_array,
    laplacian,
    quadratic_form,
    require_same_grid,
    spectrum_buffer,
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
        require_positive(zeta=self.zeta, gamma=self.gamma, mass=self.mass,
                         epsilon=self.epsilon, K1=self.K1, K2=self.K2)
        if self.v_reg is None:
            object.__setattr__(self, "v_reg", (self.epsilon / 2.0) * V_REG_RATIO)
        else:
            require_nonnegative(v_reg=self.v_reg)
        if self.interpolant not in ("cubic", "identity"):
            raise ValueError(f"unknown interpolant {self.interpolant!r}")


# The convex part W1 = A_UU u^2/2 + 27uv + (A_VV/2) v^2 of the well (27^2 <=
# A_UU*A_VV): the stepper takes (A_UU/eps)u and (A_VV/eps)v implicitly, and
# :class:`ExplicitForce` leaves them out of the variational derivatives.
A_UU = 87.0
A_VV = 54.0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy contributions; ``total`` applies gamma to ``nonlocal`` once.

    ``masses`` is (int f(u), int f(v)), which the penalties hold at m and
    zeta*m; a breakdown assembled by hand holds (nan, nan).
    """

    perimeter: float
    nonlocal_: float
    constraint: float
    v_regularization: float
    total: float
    masses: tuple[float, float] = (math.nan, math.nan)

    @classmethod
    def assemble(cls, perimeter, nonlocal_, constraint, v_regularization, gamma,
                 masses=(math.nan, math.nan)):
        total = perimeter + gamma * nonlocal_ + constraint + v_regularization
        return cls(perimeter, nonlocal_, constraint, v_regularization, total, masses)


def interpolant(z, out=None):
    """Cubic interpolant f(z) = 3z^2 - 2z^3 with f(0)=0, f(1)=1.

    Evaluated as (3 - 2z)*z*z, into ``out`` when given (it must not alias z).
    """
    z = np.asarray(z, dtype=np.float64)
    f = np.multiply(z, -2.0, out=out)
    f += 3.0
    f *= z
    f *= z
    return f


def interpolant_deriv(z):
    """f'(z) = 6z - 6z^2."""
    z = np.asarray(z, dtype=np.float64)
    return 6.0 * z * (1.0 - z)


def _identity(z, out=None):
    """f(z) = z, as a new array or in ``out``: callers may write into f's result."""
    if out is None:
        return np.array(z, dtype=np.float64)
    np.copyto(out, z)
    return out


def _identity_deriv(z):
    return np.ones_like(np.asarray(z, dtype=np.float64))


def interpolant_pair(params: PhysParams):
    """(f, f') for the configured interpolant."""
    if params.interpolant == "identity":
        return _identity, _identity_deriv
    return interpolant, interpolant_deriv


def charge_density(u: Field, v: Field, params: PhysParams) -> np.ndarray:
    """w = f(u) - f(v)/zeta, the source of the electrostatic potential."""
    require_same_grid(u, v)
    f, _ = interpolant_pair(params)
    return f(u.values) - f(v.values) / params.zeta


def _well_integral(grid: GridSpec, u: np.ndarray, v: np.ndarray,
                   a: np.ndarray, b: np.ndarray) -> float:
    """int W(u, v) through the scratch fields ``a`` and ``b``, with no temporaries.

    W = 18(u-u^2)^2 + (27/2)[min(v,0)^2 + min(1-v,0)^2 + min(1-u-v,0)^2]
      = 18 s^2 + 13.5((v - clip(v, 0, 1))^2 + overlap^2) with s = u - u^2 and
    overlap = max(u + v - 1, 0): the two one-sided v penalties (at most one
    nonzero) fold into one square. Each of the three integrals is one ``vdot``.
    """
    np.multiply(u, u, out=a)
    np.subtract(u, a, out=a)
    well = np.vdot(a, a)
    np.clip(v, 0.0, 1.0, out=b)
    np.subtract(v, b, out=b)
    outside = np.vdot(b, b)
    np.add(u, v, out=b)
    b -= 1.0
    np.maximum(b, 0.0, out=b)
    overlap = np.vdot(b, b)
    return grid.cell_volume * float(18.0 * well + 13.5 * (outside + overlap))


def total_energy(u: Field, v: Field, params: PhysParams, buffers=None) -> EnergyBreakdown:
    """P, N, C, R, E and the masses; f(u) and f(v) once each, three FFTs.

    ``buffers`` is (a, b, spec): two C-contiguous float64 arrays shaped
    ``grid.shape`` and one complex128 array shaped ``grid.spectrum_shape``,
    all overwritten and none aliasing u or v. Without it the call allocates
    them, and nothing else field-sized.

    f(u) and f(v) go into a and b and give the masses; the charge density
    w = f(u) - f(v)/zeta replaces f(u), and N = (1/2)*int w*(-lap)^(-1) w,
    with the multiplier 1/|k|^2 formed in b. N and the Dirichlet integrals of
    u and v are the grid's quadratic forms, each transforming into ``spec``
    and squaring in a; int W is three dot products (:func:`_well_integral`).
    """
    grid = require_same_grid(u, v)
    if buffers is None:
        buffers = (np.empty(grid.shape), np.empty(grid.shape), spectrum_buffer(grid))
    a, b, spec = buffers
    uu, vv = u.values, v.values
    f, _ = interpolant_pair(params)
    masses = integrate_array(grid, f(uu, out=a)), integrate_array(grid, f(vv, out=b))
    b /= params.zeta
    a -= b
    nonlocal_ = 0.5 * quadratic_form(grid, a, _inv_k_squared(grid, b), spec, a)
    grad_u = quadratic_form(grid, uu, _k_squared(grid), spec, a)
    grad_v = quadratic_form(grid, vv, _k_squared(grid), spec, a)
    eps = params.epsilon
    perimeter = 0.5 * eps * grad_u + _well_integral(grid, uu, vv, a, b) / eps
    constraint = 0.5 * params.K1 * (params.mass - masses[0]) ** 2 + 0.5 * params.K2 * (
        params.zeta * params.mass - masses[1]
    ) ** 2
    v_regularization = params.v_reg * grad_v
    return EnergyBreakdown.assemble(perimeter, nonlocal_, constraint, v_regularization,
                                    params.gamma, masses)


def _whole(fn) -> None:
    """Walk a field as one slab: ``fn(slice(None))``."""
    fn(slice(None))


class ExplicitForce:
    """The explicit part (F_u, F_v) of the variational derivatives.

        F_u = (W_u - A_UU u)/eps + (gamma*phi - K1(m - int f(u))) f'(u)
        F_v = (W_v - A_VV v)/eps - ((gamma/zeta)*phi + K2(zeta m - int f(v))) f'(v)

    with -lap(phi) = f(u) - f(v)/zeta (zero mean), so that
    dE/du = F_u + (A_UU/eps)u - eps*lap u and
    dE/dv = F_v + (A_VV/eps)v - 2*v_reg*lap v. This is the one definition of
    the force: the time stepper takes it explicitly and
    :func:`variational_derivatives` adds the linear part back.

    The pointwise work is fused. For the cubic f, the terms f, f' and W_u
    share s = z - z^2: f = z(z + 2s), f' = 6s, W_u = 36s(1-2u) + 27*overlap,
    and W_v = 27*(overlap + v - clip(v, 0, 1)). A call makes two pointwise
    passes: the first forms s, f(u), f(v) and the charge density; then come
    the masses, whole-array sums, and the Poisson solve, two FFTs:
    :func:`~pacok.grid.apply_multiplier` applies 1/|k|^2, which the instance
    keeps, in phi's memory; the second pass forms F. Every element sees the
    same operations in the same order, so a pass may walk the fields in
    slabs of axis-0 planes, in any order or concurrently, and leave the
    result's bits alone.

    A call writes through ``out=`` into the outputs and into a workspace
    allocated here once: three field buffers ``work`` = (s_u, s_v, phi), one
    contiguous (3, *shape) array, and one half-spectrum ``spec``. The cubic
    f(u) and f(v) are formed in the outputs, the charge density, phi and
    then the overlap share one buffer, and s_v is scratch once its last
    product is taken; so a call allocates nothing field-sized. Between
    calls the owner of the instance may use ``work`` and ``spec`` as
    scratch.
    """

    def __init__(self, grid: GridSpec, params: PhysParams):
        self.grid = grid
        self.params = params
        self.cubic = params.interpolant == "cubic"
        self.inv_k2 = _inv_k_squared(grid)
        self.work = np.empty((3, *grid.shape))
        self.spec = spectrum_buffer(grid)

    def __call__(self, u: np.ndarray, v: np.ndarray, out_u: np.ndarray, out_v: np.ndarray,
                 walk=_whole):
        """Write F_u into ``out_u`` and F_v into ``out_v``; u and v are read only.

        ``walk(fn)`` calls ``fn(s)`` for axis-0 slices ``s`` that cover the
        fields once, in whatever order or concurrency it likes, and returns
        only when every call has; by default it makes one whole-array call.
        """
        p, grid = self.params, self.grid
        eps, zeta = p.epsilon, p.zeta
        s_u, s_v, phi = self.work
        cubic = self.cubic
        fu, fv = (out_u, out_v) if cubic else (u, v)
        slope = 6.0 if cubic else 1.0

        def densities(s):
            us, su, fus, fvs, ph = u[s], s_u[s], fu[s], fv[s], phi[s]
            np.multiply(us, us, out=su)
            np.subtract(us, su, out=su)
            if cubic:
                vs, sv = v[s], s_v[s]
                np.multiply(vs, vs, out=sv)
                np.subtract(vs, sv, out=sv)
                for z, sz, f in ((us, su, fus), (vs, sv, fvs)):
                    np.multiply(sz, 2.0, out=f)
                    f += z
                    f *= z
            # the charge density f(u) - f(v)/zeta, in phi's memory
            np.divide(fvs, zeta, out=ph)
            np.subtract(fus, ph, out=ph)

        walk(densities)
        mass_u = integrate_array(grid, fu)
        mass_v = integrate_array(grid, fv)
        apply_multiplier(grid, phi, self.inv_k2, spec=self.spec, out=phi)
        penalty_u = slope * p.K1 * (p.mass - mass_u)
        penalty_v = slope * p.K2 * (zeta * p.mass - mass_v)

        def force(s):
            us, vs, su, sv, ph, ou, ov = u[s], v[s], s_u[s], s_v[s], phi[s], out_u[s], out_v[s]
            # couplings (nonlocal + mass penalty) times f' = slope*s (or 1)
            np.multiply(ph, slope * p.gamma, out=ou)
            ou -= penalty_u
            np.multiply(ph, -slope * p.gamma / zeta, out=ov)
            ov -= penalty_v
            if cubic:
                ou *= su
                ov *= sv

            # well: overlap = max(u + v - 1, 0) into phi; s_v is scratch from here on
            overlap, tmp = ph, sv
            np.add(us, vs, out=overlap)
            overlap -= 1.0
            np.maximum(overlap, 0.0, out=overlap)
            # (W_v - A_VV v)/eps = (27(overlap - clip(v, 0, 1)) + (27 - A_VV) v)/eps
            np.clip(vs, 0.0, 1.0, out=tmp)
            np.subtract(overlap, tmp, out=tmp)
            tmp *= 27.0 / eps
            ov += tmp
            np.multiply(vs, (27.0 - A_VV) / eps, out=tmp)
            ov += tmp
            # (W_u - A_UU u)/eps = (36 s (1 - 2u) + 27 overlap - A_UU u)/eps
            np.multiply(us, -2.0, out=tmp)
            tmp += 1.0
            tmp *= su
            tmp *= 36.0 / eps
            ou += tmp
            overlap *= 27.0 / eps
            ou += overlap
            np.multiply(us, A_UU / eps, out=tmp)
            ou -= tmp

        walk(force)


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
    du += A_UU / params.epsilon * uu - params.epsilon * laplacian(u).values
    dv += A_VV / params.epsilon * vv - 2.0 * params.v_reg * laplacian(v).values
    return Field(grid, du), Field(grid, dv)
