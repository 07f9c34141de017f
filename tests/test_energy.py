"""Diffuse energy: well, interpolant, the breakdown of E, variational derivatives."""

import numpy as np
import pytest

import pacok as pk
from pacok.energy import _well_integral, charge_density, interpolant_pair
from pacok.errors import GridMismatchError

from conftest import peak_bytes, potential_W, potential_W_grad

GRID = pk.GridSpec((32, 32), (1.3, 1.3))
PARAMS = pk.PhysParams(zeta=0.8, gamma=120.0, mass=0.3, epsilon=0.08, K1=200.0, K2=150.0)


def _random_pair(rng, grid=GRID, lo=-0.1, hi=1.1):
    u = pk.Field(grid, rng.uniform(lo, hi, grid.shape))
    v = pk.Field(grid, rng.uniform(lo, hi, grid.shape))
    return u, v


def _potential(u, v, params=PARAMS):
    """phi with -lap(phi) = f(u) - f(v)/zeta, zero mean."""
    return pk.poisson_solve(pk.Field(u.grid, charge_density(u, v, params)))


class TestInterpolant:
    def test_endpoint_values(self):
        assert pk.interpolant(0.0) == 0.0
        assert pk.interpolant(1.0) == 1.0

    def test_midpoint_symmetry(self):
        assert pk.interpolant(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_flat_endpoints(self):
        assert pk.interpolant_deriv(0.0) == 0.0
        assert pk.interpolant_deriv(1.0) == 0.0

    def test_out_is_the_allocating_form(self, rng):
        z = rng.uniform(-0.5, 1.5, (7, 9))
        out = np.empty_like(z)
        assert pk.interpolant(z, out=out) is out
        assert np.array_equal(out, (3.0 - 2.0 * z) * z * z)
        assert np.array_equal(pk.interpolant(z), out)

    def test_derivative_matches_difference(self):
        z = np.linspace(-0.4, 1.4, 37)
        h = 1e-7
        fd = (pk.interpolant(z + h) - pk.interpolant(z - h)) / (2 * h)
        assert np.max(np.abs(fd - pk.interpolant_deriv(z))) < 1e-6


class TestPotentialW:
    def test_admissible_states_vanish(self):
        assert potential_W(0.0, 0.5) == 0.0
        assert potential_W(1.0, 0.0) == 0.0
        v = np.linspace(0.0, 1.0, 21)
        assert np.max(potential_W(np.zeros_like(v), v)) == 0.0

    def test_hand_values(self):
        assert potential_W(0.5, 0.0) == pytest.approx(1.125, rel=1e-15)
        assert potential_W(0.0, -0.1) == pytest.approx(0.135, rel=1e-12)

    def test_nonnegative(self, rng):
        u = rng.uniform(-2.0, 3.0, 4000)
        v = rng.uniform(-2.0, 3.0, 4000)
        assert np.min(potential_W(u, v)) >= 0.0

    def test_positive_off_the_well(self):
        assert potential_W(0.3, 0.2) > 0
        assert potential_W(1.0, 0.2) > 0   # overlap
        assert potential_W(0.0, 1.1) > 0

    def test_convex_in_v(self):
        u_values = np.linspace(-0.5, 1.5, 21)
        v_values = np.linspace(-1.0, 2.0, 41)
        for u in u_values:
            w = potential_W(np.full_like(v_values, u), v_values)
            midpoint = potential_W(u, 0.5 * (v_values[:-2] + v_values[2:]))
            assert np.all(midpoint <= 0.5 * (w[:-2] + w[2:]) + 1e-12)

    def test_gradient_matches_fd(self, rng):
        # offsets avoid landing exactly on the C^1 kink lines
        u = rng.uniform(-0.5, 1.5, 500) + 1e-4
        v = rng.uniform(-0.5, 1.5, 500) + 2e-4
        h = 1e-7
        wu_fd = (potential_W(u + h, v) - potential_W(u - h, v)) / (2 * h)
        wv_fd = (potential_W(u, v + h) - potential_W(u, v - h)) / (2 * h)
        wu, wv = potential_W_grad(u, v)
        assert np.max(np.abs(wu - wu_fd)) < 1e-5
        assert np.max(np.abs(wv - wv_fd)) < 1e-5

    def test_kink_derivative_is_zero(self):
        # one-sided quadratics are differentiated piecewise, 0 at the kink
        _, wv = potential_W_grad(0.3, 0.0)
        assert wv == 0.0
        wu, _ = potential_W_grad(0.0, 1.0)
        assert wu == 0.0


class TestPhysParams:
    def test_v_reg_default(self):
        params = pk.PhysParams(zeta=1.0, gamma=1.0, mass=1.0, epsilon=0.05, K1=1.0, K2=1.0)
        assert params.v_reg == pytest.approx((0.05 / 2) / 1_250_000, rel=1e-15)

    def test_v_reg_zero_allowed(self):
        params = pk.PhysParams(zeta=1.0, gamma=1.0, mass=1.0, epsilon=0.05, K1=1.0, K2=1.0, v_reg=0.0)
        assert params.v_reg == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pk.PhysParams(zeta=0.0, gamma=1.0, mass=1.0, epsilon=0.05, K1=1.0, K2=1.0)

    def test_rejects_unknown_interpolant(self):
        with pytest.raises(ValueError):
            pk.PhysParams(zeta=1.0, gamma=1.0, mass=1.0, epsilon=0.05, K1=1.0, K2=1.0,
                          interpolant="quartic")


class TestPerimeterTerm:
    def test_zero_fields(self):
        zero = pk.Field.full(GRID, 0.0)
        assert pk.total_energy(zero, zero, PARAMS).perimeter == 0.0

    def test_epsilon_scaling_of_summands(self, rng):
        u, v = _random_pair(rng)
        base = PARAMS
        doubled = pk.PhysParams(zeta=base.zeta, gamma=base.gamma, mass=base.mass,
                                epsilon=2 * base.epsilon, K1=base.K1, K2=base.K2)
        gradient_part = 0.5 * base.epsilon * pk.dirichlet_energy(u)
        well_part = pk.integrate(pk.Field(GRID, potential_W(u.values, v.values))) / base.epsilon
        assert pk.total_energy(u, v, base).perimeter == pytest.approx(
            gradient_part + well_part, rel=1e-13)
        assert pk.total_energy(u, v, doubled).perimeter == pytest.approx(
            2 * gradient_part + 0.5 * well_part, rel=1e-13)

    def test_flat_interface_unit_cost(self):
        # optimal slab profile: perimeter per unit interface length -> 1
        grid = pk.GridSpec((256, 16), (1.0, 1.0))
        eps = 0.02
        params = pk.PhysParams(zeta=1.0, gamma=1.0, mass=1.0, epsilon=eps, K1=1.0, K2=1.0)
        x, _ = grid.coords()
        distance = 0.25 - np.abs(np.mod(x - 0.5, 1.0) - 0.5)  # band of width 1/2, two interfaces
        u = pk.Field(grid, np.broadcast_to(pk.tanh_profile(distance, eps), grid.shape).copy())
        v = pk.Field.full(grid, 0.0)
        per_interface = pk.total_energy(u, v, params).perimeter / 2.0
        assert per_interface == pytest.approx(1.0, rel=1e-3)


class TestNonlocalTerm:
    def test_zero_fields(self):
        zero = pk.Field.full(GRID, 0.0)
        value = pk.total_energy(zero, zero, PARAMS).nonlocal_
        phi = _potential(zero, zero)
        assert value == 0.0
        assert np.max(np.abs(phi.values)) == 0.0

    def test_nonnegative(self, rng):
        u, v = _random_pair(rng)
        value = pk.total_energy(u, v, PARAMS).nonlocal_
        assert value >= 0.0

    def test_translation_invariance(self, rng):
        u, v = _random_pair(rng)
        value = pk.total_energy(u, v, PARAMS).nonlocal_
        rolled_u = pk.Field(GRID, np.roll(u.values, (3, 9), axis=(0, 1)))
        rolled_v = pk.Field(GRID, np.roll(v.values, (3, 9), axis=(0, 1)))
        rolled_value = pk.total_energy(rolled_u, rolled_v, PARAMS).nonlocal_
        assert rolled_value == pytest.approx(value, rel=1e-12)

    def test_grid_mismatch(self):
        other = pk.GridSpec((32, 32), (2.0, 2.0))
        with pytest.raises(GridMismatchError):
            pk.total_energy(pk.Field.full(GRID, 0.0), pk.Field.full(other, 0.0), PARAMS)


class TestConstraintTerm:
    def test_matched_masses_vanish(self):
        # constant fields with f(c)*area hitting the targets exactly
        area = 1.3 * 1.3
        params = pk.PhysParams(zeta=1.0, gamma=1.0, mass=0.5 * area, epsilon=0.05,
                               K1=7.0, K2=11.0)
        half = pk.Field.full(GRID, 0.5)  # f(1/2) = 1/2
        assert pk.total_energy(half, half, params).constraint == pytest.approx(0.0, abs=1e-22)

    def test_zero_fields_value(self):
        zero = pk.Field.full(GRID, 0.0)
        value = pk.total_energy(zero, zero, PARAMS).constraint
        expected = 0.5 * PARAMS.K1 * PARAMS.mass**2 + 0.5 * PARAMS.K2 * (PARAMS.zeta * PARAMS.mass) ** 2
        assert value == pytest.approx(expected, rel=1e-14)

    def test_hand_arithmetic(self):
        # K1=3e4, K2=4800, m=1, zeta=1, masses f-integrating to 0.99 and 1.01
        area = 1.1
        grid = pk.GridSpec((16, 16), (area, 1.0))
        params = pk.PhysParams(zeta=1.0, gamma=1.0, mass=1.0, epsilon=0.05, K1=3e4, K2=4800.0)

        def level_for(target):  # solve 3c^2 - 2c^3 = target/area by bisection
            lo, hi = 0.0, 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if pk.interpolant(mid) < target / area:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        u = pk.Field.full(grid, level_for(0.99))
        v = pk.Field.full(grid, level_for(1.01))
        expected = 0.5 * 3e4 * 0.01**2 + 0.5 * 4800.0 * 0.01**2  # = 1.74
        assert pk.total_energy(u, v, params).constraint == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(1.74, rel=1e-12)


class TestTotalEnergy:
    def test_constraint_only_for_zero_fields(self):
        zero = pk.Field.full(GRID, 0.0)
        breakdown = pk.total_energy(zero, zero, PARAMS)
        assert breakdown.perimeter == 0.0
        assert breakdown.nonlocal_ == 0.0
        assert breakdown.v_regularization == 0.0
        assert breakdown.total == breakdown.constraint

    def test_decomposition_identity(self, rng):
        u, v = _random_pair(rng)
        b = pk.total_energy(u, v, PARAMS)
        assert b.total == b.perimeter + PARAMS.gamma * b.nonlocal_ + b.constraint + b.v_regularization
        assert b.nonlocal_ >= 0.0
        assert b.constraint >= 0.0
        assert b.v_regularization >= 0.0

    def test_shift_invariance(self, rng):
        u, v = _random_pair(rng)
        b = pk.total_energy(u, v, PARAMS)
        shifted = pk.total_energy(
            pk.Field(GRID, np.roll(u.values, (5, 2), axis=(0, 1))),
            pk.Field(GRID, np.roll(v.values, (5, 2), axis=(0, 1))),
            PARAMS,
        )
        assert shifted.total == pytest.approx(b.total, rel=1e-12)

    def test_three_ffts(self, rng, fft_calls):
        u, v = _random_pair(rng)
        pk.total_energy(u, v, PARAMS)
        assert fft_calls == {"rfftn": 3}

    def test_parseval_nonlocal_matches_potential(self, rng):
        # N by Parseval from the charge spectrum equals (1/2) int |grad phi|^2
        u, v = _random_pair(rng)
        nonlocal_ = pk.total_energy(u, v, PARAMS).nonlocal_
        assert nonlocal_ == pytest.approx(0.5 * pk.dirichlet_energy(_potential(u, v)), rel=1e-12)

    def test_v_regularization_value(self, rng):
        u, v = _random_pair(rng)
        assert pk.total_energy(u, v, PARAMS).v_regularization == pytest.approx(
            PARAMS.v_reg * pk.dirichlet_energy(v), rel=1e-14)

    def test_masses_are_the_interpolant_integrals(self, rng):
        u, v = _random_pair(rng)
        f, _ = interpolant_pair(PARAMS)
        assert pk.total_energy(u, v, PARAMS).masses == (
            pk.integrate(pk.Field(GRID, f(u.values))), pk.integrate(pk.Field(GRID, f(v.values))))

    def test_assembled_breakdown_has_no_masses(self):
        breakdown = pk.EnergyBreakdown.assemble(1.0, 2.0, 3.0, 4.0, 5.0)
        assert breakdown.total == 1.0 + 5.0 * 2.0 + 3.0 + 4.0
        assert all(np.isnan(breakdown.masses))

    def test_interpolant_evaluated_once_per_field(self, rng, interpolant_calls):
        u, v = _random_pair(rng)
        pk.total_energy(u, v, PARAMS)
        assert interpolant_calls == [GRID.shape, GRID.shape]

    @pytest.mark.parametrize("interpolant", ["cubic", "identity"])
    def test_inputs_unchanged(self, rng, interpolant):
        params = pk.PhysParams(zeta=0.8, gamma=120.0, mass=0.3, epsilon=0.08,
                               K1=200.0, K2=150.0, interpolant=interpolant)
        u, v = _random_pair(rng)
        u_before, v_before = u.values.copy(), v.values.copy()
        pk.total_energy(u, v, params)
        assert np.array_equal(u.values, u_before) and np.array_equal(v.values, v_before)


KERNEL_GRIDS = [pk.GridSpec((32, 24), (1.3, 1.0)), pk.GridSpec((16, 12, 20), (1.0, 0.8, 1.2))]


def _params(interpolant):
    return pk.PhysParams(zeta=0.8, gamma=120.0, mass=0.3, epsilon=0.08, K1=200.0, K2=150.0,
                         interpolant=interpolant)


class TestEnergyKernel:
    """total_energy's pieces against the allocating oracles they replaced."""

    @pytest.mark.parametrize("interpolant", ["cubic", "identity"])
    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=["2d", "3d"])
    def test_well_part_is_the_integral_of_potential_W(self, rng, grid, interpolant):
        params = _params(interpolant)
        u, v = _random_pair(rng, grid, lo=-0.3, hi=1.3)
        eps = params.epsilon
        oracle = pk.integrate(pk.Field(grid, potential_W(u.values, v.values))) / eps
        well = _well_integral(grid, u.values, v.values, np.empty(grid.shape))
        assert well / eps == pytest.approx(oracle, rel=1e-14, abs=0.0)
        perimeter = pk.total_energy(u, v, params).perimeter
        assert perimeter == pytest.approx(0.5 * eps * pk.dirichlet_energy(u) + oracle,
                                          rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=["2d", "3d"])
    def test_no_sum_goes_to_blas(self, rng, monkeypatch, grid):
        # vdot and dot run on BLAS's own threads, which compete with the helper's
        params = _params("cubic")
        u, v = _random_pair(rng, grid, lo=-0.3, hi=1.3)
        expected = pk.total_energy(u, v, params)

        def blas(*args, **kwargs):
            raise AssertionError("BLAS called")

        monkeypatch.setattr(np, "vdot", blas)
        monkeypatch.setattr(np, "dot", blas)
        assert pk.total_energy(u, v, params) == expected

    @pytest.mark.parametrize("interpolant", ["cubic", "identity"])
    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=["2d", "3d"])
    def test_dirichlet_terms(self, rng, grid, interpolant):
        params = _params(interpolant)
        # u in {0, 1} and v = 0 zero the well exactly: P is the u Dirichlet term alone
        u = pk.Field(grid, rng.integers(0, 2, grid.shape).astype(np.float64))
        v = pk.Field(grid, rng.uniform(-0.1, 1.1, grid.shape))
        zero = pk.Field.full(grid, 0.0)
        assert pk.total_energy(u, zero, params).perimeter == pytest.approx(
            0.5 * params.epsilon * pk.dirichlet_energy(u), rel=1e-14, abs=0.0)
        assert pk.total_energy(u, v, params).v_regularization == pytest.approx(
            params.v_reg * pk.dirichlet_energy(v), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("interpolant", ["cubic", "identity"])
    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=["2d", "3d"])
    def test_lent_buffers_give_the_same_breakdown(self, rng, grid, interpolant):
        params = _params(interpolant)
        u, v = _random_pair(rng, grid)
        # dirty buffers: every one is written before it is read
        buffers = (np.full(grid.shape, np.nan), np.full(grid.shape, np.inf),
                   np.full(grid.spectrum_shape, np.nan, dtype=np.complex128),
                   np.full(grid.spectrum_shape, np.inf, dtype=np.complex128))
        assert pk.total_energy(u, v, params, buffers) == pk.total_energy(u, v, params)

    def test_standalone_allocates_its_four_buffers_only(self, rng):
        # two fields and two half-spectra, one for each part of the work
        grid = pk.GridSpec((32, 32, 32), (2.0, 2.0, 2.0))
        u, v = _random_pair(rng, grid)
        pk.total_energy(u, v, PARAMS)  # warm the wavenumber caches
        peak = peak_bytes(lambda: pk.total_energy(u, v, PARAMS))
        half_spectrum = 16 * int(np.prod(grid.spectrum_shape))
        assert peak <= 2 * u.values.nbytes + 2 * half_spectrum + 64 * 1024


class TestVariationalDerivatives:
    def test_directional_finite_difference(self, rng):
        u, v = _random_pair(rng)
        du, dv = pk.variational_derivatives(u, v, PARAMS)
        for _ in range(20):
            pu = rng.normal(size=GRID.shape)
            pv = rng.normal(size=GRID.shape)
            analytic = GRID.cell_volume * (np.sum(du.values * pu) + np.sum(dv.values * pv))
            h = 1e-6
            plus = pk.total_energy(pk.Field(GRID, u.values + h * pu),
                                   pk.Field(GRID, v.values + h * pv), PARAMS).total
            minus = pk.total_energy(pk.Field(GRID, u.values - h * pu),
                                    pk.Field(GRID, v.values - h * pv), PARAMS).total
            fd = (plus - minus) / (2 * h)
            assert abs(fd - analytic) < 1e-6 * abs(analytic)

    def test_zero_state_is_critical(self):
        zero = pk.Field.full(GRID, 0.0)
        du, dv = pk.variational_derivatives(zero, zero, PARAMS)
        assert np.max(np.abs(du.values)) == 0.0  # f'(0) = 0 kills the penalty force
        assert np.max(np.abs(dv.values)) == 0.0

    def test_gamma_linearity(self, rng):
        u, v = _random_pair(rng)
        base = PARAMS
        double = pk.PhysParams(zeta=base.zeta, gamma=2 * base.gamma, mass=base.mass,
                               epsilon=base.epsilon, K1=base.K1, K2=base.K2)
        du1, _ = pk.variational_derivatives(u, v, base)
        du2, _ = pk.variational_derivatives(u, v, double)
        coupling = base.gamma * _potential(u, v, base).values * pk.interpolant_deriv(u.values)
        assert np.allclose(du2.values - du1.values, coupling, rtol=1e-10, atol=1e-12)

    def test_identity_interpolant_gradient(self, rng):
        params = pk.PhysParams(zeta=0.8, gamma=50.0, mass=0.3, epsilon=0.08,
                               K1=20.0, K2=15.0, interpolant="identity")
        f, fp = interpolant_pair(params)
        assert f(0.3) == 0.3 and fp(0.3) == 1.0
        grid = pk.GridSpec((8, 8), (1.0, 1.0))
        u = pk.Field(grid, rng.uniform(-0.1, 1.1, grid.shape))
        v = pk.Field(grid, rng.uniform(-0.1, 1.1, grid.shape))
        du, dv = pk.variational_derivatives(u, v, params)
        pu = rng.normal(size=grid.shape)
        pv = rng.normal(size=grid.shape)
        analytic = grid.cell_volume * (np.sum(du.values * pu) + np.sum(dv.values * pv))
        h = 1e-6
        plus = pk.total_energy(pk.Field(grid, u.values + h * pu),
                               pk.Field(grid, v.values + h * pv), params).total
        minus = pk.total_energy(pk.Field(grid, u.values - h * pu),
                                pk.Field(grid, v.values - h * pv), params).total
        assert abs((plus - minus) / (2 * h) - analytic) < 1e-6 * abs(analytic)
