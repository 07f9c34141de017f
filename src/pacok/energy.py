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
three FFTs, two of them beside the rest when a schedule runs both parts at
once, and writes through buffers the caller may lend: a run's stepper lends
its scratch, so the energies of a run allocate nothing field-sized.
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
    integrate_array,
    invert_rows,
    laplacian,
    multiply_columns,
    quadratic_form,
    require_same_grid,
    spectrum_buffer,
    transform_rows,
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
    w, fv = f(u.values), f(v.values)
    w -= np.divide(fv, params.zeta, out=fv)
    return w


class _Whole:
    """The schedule of a :func:`total_energy` or :class:`ExplicitForce`
    call when none is lent: each phase is one whole-array call on this
    thread. A lent one (:class:`~pacok.dynamics._Workers`) may cut ``split``
    into axis-0 slabs and ``columns`` into axis-1 parts, and run them and
    the two calls of a ``pair`` in any order or at once."""

    columns = (slice(None),)

    @staticmethod
    def split(fn) -> list:
        return [fn(slice(None))]

    @staticmethod
    def pair(first, second) -> tuple:
        return first(), second()


def _well_integral(grid: GridSpec, u: np.ndarray, v: np.ndarray, scratch: np.ndarray) -> float:
    """int W(u, v) through the scratch field ``scratch``, with no temporaries.

    W = 18(u-u^2)^2 + (27/2)[min(v,0)^2 + min(1-v,0)^2 + min(1-u-v,0)^2]
      = 18 s^2 + 13.5((v - clip(v, 0, 1))^2 + overlap^2) with s = u - u^2 and
    overlap = max(u + v - 1, 0): the two one-sided v penalties (at most one
    nonzero) fold into one square. Each of the three integrals is one
    ``einsum`` sum of squares: numpy's own loop, which, unlike ``vdot``,
    hands no work to BLAS's threads.
    """
    axes = "ijk"[:grid.dim]
    squares = f"{axes},{axes}->"
    np.multiply(u, u, out=scratch)
    np.subtract(u, scratch, out=scratch)
    well = np.einsum(squares, scratch, scratch)
    np.clip(v, 0.0, 1.0, out=scratch)
    np.subtract(v, scratch, out=scratch)
    outside = np.einsum(squares, scratch, scratch)
    np.add(u, v, out=scratch)
    scratch -= 1.0
    np.maximum(scratch, 0.0, out=scratch)
    overlap = np.einsum(squares, scratch, scratch)
    return grid.cell_volume * float(18.0 * well + 13.5 * (outside + overlap))


def total_energy(u: Field, v: Field, params: PhysParams, buffers=None,
                 schedule=_Whole) -> EnergyBreakdown:
    """P, N, C, R, E and the masses; f(u) and f(v) once each, three FFTs.

    ``schedule.pair(first, second)`` runs two independent parts and returns
    when both are done (by default one after the other on this thread):

    1. f(u) and f(v) go into a and b and give the masses, and the charge
       density w = f(u) - f(v)/zeta replaces f(u); int W is three sums of
       squares in b (:func:`_well_integral`); then N = (1/2)*int w*(-lap)^(-1) w
       is a quadratic form in ``spec``, with the multiplier 1/|k|^2 formed
       in b;
    2. the Dirichlet integrals of u and v, quadratic forms in ``grad_spec``.

    ``buffers`` is (a, b, spec, grad_spec): two C-contiguous float64 arrays
    shaped ``grid.shape`` and two complex128 arrays shaped
    ``grid.spectrum_shape``, all overwritten, none overlapping another, u
    or v. Without it the call allocates them, on this thread, and nothing
    else field-sized.
    """
    grid = require_same_grid(u, v)
    if buffers is None:
        buffers = (np.empty(grid.shape), np.empty(grid.shape), spectrum_buffer(grid),
                   spectrum_buffer(grid))
    a, b, spec, grad_spec = buffers
    uu, vv = u.values, v.values
    f, _ = interpolant_pair(params)
    k2 = _k_squared(grid)

    def charge_and_well():
        masses = integrate_array(grid, f(uu, out=a)), integrate_array(grid, f(vv, out=b))
        np.divide(b, params.zeta, out=b)
        np.subtract(a, b, out=a)
        well = _well_integral(grid, uu, vv, b)
        return masses, well, 0.5 * quadratic_form(grid, a, _inv_k_squared(grid, b), spec)

    def gradients():
        return quadratic_form(grid, uu, k2, grad_spec), quadratic_form(grid, vv, k2, grad_spec)

    (masses, well, nonlocal_), (grad_u, grad_v) = schedule.pair(charge_and_well, gradients)
    eps = params.epsilon
    perimeter = 0.5 * eps * grad_u + well / eps
    constraint = 0.5 * params.K1 * (params.mass - masses[0]) ** 2 + 0.5 * params.K2 * (
        params.zeta * params.mass - masses[1]
    ) ** 2
    v_regularization = params.v_reg * grad_v
    return EnergyBreakdown.assemble(perimeter, nonlocal_, constraint, v_regularization,
                                    params.gamma, masses)


class ExplicitForce:
    """The explicit half-step (u - lam_u*F_u, v - lam_v*F_v), where (F_u, F_v)
    is the explicit part of the variational derivatives:

        F_u = (W_u - A_UU u)/eps + (gamma*phi - K1(m - int f(u))) f'(u)
        F_v = (W_v - A_VV v)/eps - ((gamma/zeta)*phi + K2(zeta m - int f(v))) f'(v)

    with -lap(phi) = f(u) - f(v)/zeta (zero mean), so that
    dE/du = F_u + (A_UU/eps)u - eps*lap u and
    dE/dv = F_v + (A_VV/eps)v - 2*v_reg*lap v. This is the one definition of
    the force: the stepper makes it with ``lam`` = (dt*L1, dt*L2), and
    :func:`variational_derivatives` with (-1, -1), which gives z + F.

    The pointwise terms are fused, with ``lam`` in their constants. For the
    cubic f they share s = z - z^2: f = z(z + 2s), f' = 6s,
    W_u = 36s(1 - 2u) + 27*overlap (in Horner form in u) and
    W_v = 27(overlap + v - clip(v, 0, 1)), with overlap = max(u + v - 1, 0).
    A call runs in three phases of ``schedule`` (:class:`_Whole` by default),
    with the Poisson solve's two FFTs (by 1/|k|^2, which the instance keeps,
    in phi's memory) cut between them by the grid's part-transforms:

    1. rows: s, f(u), f(v) and the charge density, then the density's
       :func:`~pacok.grid.transform_rows`, while the rows are in cache;
    2. columns: the masses, whole-array sums, one on each side of a
       ``pair``, and :func:`~pacok.grid.multiply_columns`, the first of the
       schedule's ``columns`` beside int f(u), the rest beside int f(v);
    3. rows: :func:`~pacok.grid.invert_rows` into phi, then the half-step.

    Every element sees the same operations in the same order however the
    phases are cut, so the bits do not depend on the schedule. A call
    allocates nothing field-sized: it writes into the outputs (the cubic
    f(u) and f(v) too) and into ``work`` = (s_u, s_v, phi), one (3, *shape)
    array, and a half-spectrum ``spec``, which the owner of the instance
    may use as scratch between calls.
    """

    def __init__(self, grid: GridSpec, params: PhysParams, lam: tuple[float, float]):
        self.grid = grid
        self.params = params
        self.lam = lam
        self.cubic = params.interpolant == "cubic"
        self.inv_k2 = _inv_k_squared(grid)
        self.work = np.empty((3, *grid.shape))
        self.spec = spectrum_buffer(grid)

    def __call__(self, u: np.ndarray, v: np.ndarray, out_u: np.ndarray, out_v: np.ndarray,
                 schedule=_Whole):
        """Write u - lam_u*F_u into ``out_u`` and v - lam_v*F_v into ``out_v``;
        u and v are read only."""
        p, grid = self.params, self.grid
        eps, zeta = p.epsilon, p.zeta
        lam_u, lam_v = self.lam
        s_u, s_v, phi = self.work
        spec, inv_k2 = self.spec, self.inv_k2
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
            transform_rows(phi, spec, s)

        schedule.split(densities)

        def mass(f, columns):
            for c in columns:
                multiply_columns(spec, c, inv_k2)
            return integrate_array(grid, f)

        columns = schedule.columns
        mass_u, mass_v = schedule.pair(lambda: mass(fu, columns[:1]),
                                       lambda: mass(fv, columns[1:]))
        # the couplings a*phi + b, and the well's -36 lam_u s_u/eps with the cubic f
        a_u, a_v = -lam_u * slope * p.gamma, lam_v * slope * p.gamma / zeta
        b_u = lam_u * slope * p.K1 * (p.mass - mass_u) - (36.0 * lam_u / eps if cubic else 0.0)
        b_v = lam_v * slope * p.K2 * (zeta * p.mass - mass_v)

        def half_step(s):
            invert_rows(spec, phi, s)
            us, vs, su, sv, ph, ou, ov = u[s], v[s], s_u[s], s_v[s], phi[s], out_u[s], out_v[s]
            np.multiply(ph, a_u, out=ou)
            ou += b_u
            np.multiply(ph, a_v, out=ov)
            ov += b_v
            if cubic:
                ov *= sv
            tmp = sv  # s_v is scratch from here on
            # u: s_u times (the couplings and) 36(2u - 1) lam_u/eps, in Horner form
            np.multiply(us, 72.0 * lam_u / eps, out=tmp)
            if cubic:
                ou += tmp
                ou *= su
            else:
                tmp -= 36.0 * lam_u / eps
                tmp *= su
                ou += tmp
            np.multiply(us, 1.0 + lam_u * A_UU / eps, out=tmp)
            ou += tmp
            # overlap = max(u + v - 1, 0), into phi
            overlap = np.add(us, vs, out=ph)
            overlap -= 1.0
            np.maximum(overlap, 0.0, out=overlap)
            # v: -(27 lam_v/eps)(overlap - clip(v, 0, 1)) + (1 + lam_v(A_VV - 27)/eps) v
            np.clip(vs, 0.0, 1.0, out=tmp)
            np.subtract(overlap, tmp, out=tmp)
            tmp *= -27.0 * lam_v / eps
            ov += tmp
            np.multiply(vs, 1.0 + (A_VV - 27.0) * lam_v / eps, out=tmp)
            ov += tmp
            overlap *= -27.0 * lam_u / eps
            ou += overlap

        schedule.split(half_step)


def variational_derivatives(u: Field, v: Field, params: PhysParams) -> tuple[Field, Field]:
    """(dE/du, dE/dv) as fields.

    dE/du = -eps*lap u + W_u/eps + gamma*phi*f'(u) - K1(m - int f(u)) f'(u)
    dE/dv = W_v/eps - (gamma/zeta)*phi*f'(v) - K2(zeta m - int f(v)) f'(v)
            - 2*v_reg*lap v

    The force with lam = (-1, -1) gives z + F, to which the rest is added.
    """
    grid = require_same_grid(u, v)
    uu, vv = u.values, v.values
    du, dv = np.empty(grid.shape), np.empty(grid.shape)
    ExplicitForce(grid, params, (-1.0, -1.0))(uu, vv, du, dv)
    du += (A_UU / params.epsilon - 1.0) * uu - params.epsilon * laplacian(u).values
    dv += (A_VV / params.epsilon - 1.0) * vv - 2.0 * params.v_reg * laplacian(v).values
    return Field(grid, du), Field(grid, dv)
