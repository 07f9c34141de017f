"""Seed construction: profiles, masses, perforation, rescaling."""

import numpy as np
import pytest

import pacok as pk
from pacok import initcond
from pacok.errors import ZeroMassError


# wrap-around of wide tanh tails is intended in several seeds here; the
# warning itself is covered by test_oversized_geometry_warns
pytestmark = pytest.mark.filterwarnings("ignore:seed geometry exceeds")

GRID = pk.GridSpec((128, 128), (2.6, 2.6))
CENTER = (1.3, 1.3)


def _shell_spec(eps=0.04, mass=1.0):
    cand = pk.optimize_liposome(mass, 1.0, 1500.0, 2)
    return pk.BilayerSpec(
        shape=pk.Shell(center=CENTER, inner_radius=cand.radii[1], outer_radius=cand.radii[2]),
        epsilon=eps, zeta=1.0), cand


class TestTanhProfile:
    def test_midpoint(self):
        assert pk.tanh_profile(0.0, 0.1) == 0.5

    def test_saturation(self):
        assert pk.tanh_profile(50.0, 0.1) == pytest.approx(1.0, abs=1e-12)
        assert pk.tanh_profile(-50.0, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_odd_symmetry(self, rng):
        d = rng.normal(scale=0.3, size=100)
        total = pk.tanh_profile(d, 0.05) + pk.tanh_profile(-d, 0.05)
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            pk.tanh_profile(0.1, 0.0)


class TestBuildBilayer:
    def test_shell_masses(self):
        spec, _ = _shell_spec(eps=0.04)
        u, v = pk.build_bilayer(spec, GRID)
        assert abs(pk.integrate(u) - 1.0) < 0.04
        assert abs(pk.integrate(v) - 1.0) < 0.08  # zeta*m, both flanks

    def test_mass_error_within_order_epsilon(self):
        # symmetric tanh profiles cancel the first-order mass error, so the
        # bound O(eps) holds with a wide margin until rasterization kicks in
        for eps in (0.08, 0.04, 0.02):
            spec, _ = _shell_spec(eps=eps)
            u, v = pk.build_bilayer(spec, GRID)
            assert abs(pk.integrate(u) - 1.0) < eps
            assert abs(pk.integrate(v) - 1.0) < eps

    def test_fields_in_range_and_disjoint(self):
        spec, _ = _shell_spec(eps=0.02)
        u, v = pk.build_bilayer(spec, GRID)
        for field in (u, v):
            assert field.values.min() >= 0.0
            assert field.values.max() <= 1.0 + 1e-12
        assert np.max(u.values + v.values) <= 1.0 + 1e-12
        # overlap only in the transition region
        assert np.max(u.values * v.values) <= 0.26

    def test_center_shift_commutes_with_roll(self):
        spec, cand = _shell_spec(eps=0.05)
        u0, v0 = pk.build_bilayer(spec, GRID)
        cells = (7, 3)  # (x, y) whole-cell shifts
        hx, hy = GRID.spacing
        moved = pk.BilayerSpec(
            shape=pk.Shell(center=(CENTER[0] + cells[0] * hx, CENTER[1] + cells[1] * hy),
                           inner_radius=cand.radii[1], outer_radius=cand.radii[2]),
            epsilon=0.05, zeta=1.0)
        u1, v1 = pk.build_bilayer(moved, GRID)
        assert np.allclose(u1.values, np.roll(u0.values, (cells[1], cells[0]), axis=(0, 1)),
                           atol=1e-12)
        assert np.allclose(v1.values, np.roll(v0.values, (cells[1], cells[0]), axis=(0, 1)),
                           atol=1e-12)

    def test_default_v_thickness_uses_zeta(self):
        shape = pk.Shell(center=CENTER, inner_radius=0.5, outer_radius=0.7)
        spec = pk.BilayerSpec(shape=shape, epsilon=0.05, zeta=0.5)
        assert spec.u_half_thickness == pytest.approx(0.1)
        assert spec.v_thickness == pytest.approx(0.05)
        with pytest.raises(ValueError):
            pk.BilayerSpec(shape=shape, epsilon=0.05)  # no zeta, no v_thickness

    def test_oversized_geometry_warns(self):
        shape = pk.Shell(center=CENTER, inner_radius=1.1, outer_radius=1.3)
        spec = pk.BilayerSpec(shape=shape, epsilon=0.05, zeta=1.0)
        with pytest.warns(UserWarning, match="wraps around"):
            pk.build_bilayer(spec, GRID)

    def test_ball_core_is_filled(self):
        spec = pk.BilayerSpec(shape=pk.Ball(center=CENTER, radius=0.4),
                              epsilon=0.04, zeta=1.0)
        u, v = pk.build_bilayer(spec, GRID)
        iy, ix = GRID.shape[0] // 2, GRID.shape[1] // 2
        assert u.values[iy, ix] == pytest.approx(1.0, abs=1e-10)
        assert v.values[iy, ix] == pytest.approx(0.0, abs=1e-10)

    def test_ball_honours_u_half_thickness(self):
        # a core of half-thickness 0.25 around the center, whatever the radius
        wide = pk.BilayerSpec(shape=pk.Ball(center=CENTER, radius=0.4),
                              epsilon=0.04, u_half_thickness=0.25, zeta=1.0)
        exact = pk.BilayerSpec(shape=pk.Ball(center=CENTER, radius=0.25),
                               epsilon=0.04, zeta=1.0)
        u, v = pk.build_bilayer(wide, GRID)
        u_ref, v_ref = pk.build_bilayer(exact, GRID)
        assert np.array_equal(u.values, u_ref.values)
        assert np.array_equal(v.values, v_ref.values)
        assert pk.integrate(u) == pytest.approx(np.pi * 0.25**2, rel=0.02)

    def test_slab_and_torus_build(self):
        grid3 = pk.GridSpec((32, 32, 32), (2.0, 2.0, 2.0))
        slab = pk.BilayerSpec(
            shape=pk.Slab(center=(1.0, 1.0, 1.0), normal=(0.0, 0.0, 1.0),
                          half_thickness=0.15, radius=0.5),
            epsilon=0.06, zeta=1.0)
        u, v = pk.build_bilayer(slab, grid3)
        assert 0.0 < pk.integrate(u) < pk.integrate(pk.Field.full(grid3, 1.0))
        torus = pk.BilayerSpec(
            shape=pk.Torus(center=(1.0, 1.0, 1.0), major_radius=0.55, minor_radius=0.2,
                           deform_factor=1.2),
            epsilon=0.06, u_half_thickness=0.1, zeta=1.0)
        u2, _ = pk.build_bilayer(torus, grid3)
        assert np.max(u2.values) > 0.9

    def test_curve_bilayer_from_random_curve(self):
        curve = initcond.random_closed_curve(CENTER, 0.7, n_harmonics=3, seed=5)
        spec = pk.BilayerSpec(shape=curve, epsilon=0.05, u_half_thickness=0.1, zeta=1.0)
        u, v = pk.build_bilayer(spec, GRID)
        assert np.max(u.values) > 0.9
        assert np.max(v.values) > 0.9
        # seeded generator is reproducible
        again = initcond.random_closed_curve(CENTER, 0.7, n_harmonics=3, seed=5)
        assert curve.points == again.points


class TestGyroid:
    def test_triply_periodic(self):
        grid = pk.GridSpec((48, 48, 48), (3.51, 3.51, 3.51))
        spec = pk.BilayerSpec(shape=pk.Gyroid(level=0.0, scale=2), epsilon=0.12,
                              u_half_thickness=0.25, zeta=0.6)
        u, v = pk.build_bilayer(spec, grid)
        # shifting by one gyroid cell (24 nodes) maps the seed onto itself
        for axis in range(3):
            assert np.allclose(u.values, np.roll(u.values, 24, axis=axis), atol=1e-12)
            assert np.allclose(v.values, np.roll(v.values, 24, axis=axis), atol=1e-12)

    def test_needs_3d(self):
        spec = pk.BilayerSpec(shape=pk.Gyroid(), epsilon=0.1, u_half_thickness=0.2, zeta=1.0)
        with pytest.raises(ValueError):
            pk.build_bilayer(spec, GRID)


class TestPerforate:
    def test_zero_radius_identity(self):
        spec, _ = _shell_spec()
        u, v = pk.build_bilayer(spec, GRID)
        u2, v2 = pk.perforate(u, v, CENTER, 0.0)
        assert u2 is u and v2 is v

    def test_disjoint_hole_leaves_fields(self):
        spec, _ = _shell_spec(eps=0.02)
        u, v = pk.build_bilayer(spec, GRID)
        u2, v2 = pk.perforate(u, v, (0.1, 0.1), 0.05, epsilon=0.01)
        assert np.max(np.abs(u2.values - u.values)) < 1e-12
        assert np.max(np.abs(v2.values - v.values)) < 1e-12

    def test_hole_removes_mass(self):
        spec, cand = _shell_spec(eps=0.02)
        u, v = pk.build_bilayer(spec, GRID)
        hole_center = (CENTER[0] + cand.mid_radius, CENTER[1])
        u2, v2 = pk.perforate(u, v, hole_center, 0.12)
        assert pk.integrate(u2) < pk.integrate(u) - 1e-3
        assert pk.integrate(v2) < pk.integrate(v) - 1e-3


class TestMassRescale:
    def test_identity_at_current_mass(self):
        spec, _ = _shell_spec()
        u, _ = pk.build_bilayer(spec, GRID)
        same = pk.mass_rescale(u, pk.integrate(u))
        assert np.allclose(same.values, u.values, atol=1e-14)

    def test_restores_mass_after_perforation(self):
        spec, cand = _shell_spec(eps=0.02)
        u, v = pk.build_bilayer(spec, GRID)
        hole_center = (CENTER[0] + cand.mid_radius, CENTER[1])
        u2, _ = pk.perforate(u, v, hole_center, 0.1)
        restored = pk.mass_rescale(u2, 1.0)
        assert pk.integrate(restored) == pytest.approx(1.0, abs=1e-12)

    def test_clamp_activates_only_above_window(self):
        grid = pk.GridSpec((16, 16), (1.0, 1.0))
        f = pk.Field.full(grid, 0.5)
        mild = pk.mass_rescale(f, 0.5 * 2.0)  # scale by 2 -> 1.0, below clamp
        assert np.max(mild.values) == pytest.approx(1.0)
        strong = pk.mass_rescale(f, 0.5 * 3.0)  # scale by 3 -> 1.5, clamped
        assert np.max(strong.values) == pytest.approx(1.1)

    def test_zero_mass_rejected(self):
        grid = pk.GridSpec((16, 16), (1.0, 1.0))
        with pytest.raises(ZeroMassError):
            pk.mass_rescale(pk.Field.full(grid, 0.0), 1.0)


class TestDiffuseEnergyConvergence:
    def test_shell_energy_approaches_sharp_value(self):
        # E/m of the rasterized optimal candidate converges to the closed
        # form as the interface sharpens (superlinearly for the tanh profile)
        grid = pk.GridSpec((256, 256), (2.6, 2.6))
        cand = pk.optimize_liposome(1.0, 1.0, 1500.0, 2)
        sharp = pk.liposome_energy(cand, 1500.0).total
        gaps = []
        for eps in (0.08, 0.04):
            params = pk.PhysParams(zeta=1.0, gamma=1500.0, mass=1.0, epsilon=eps,
                                   K1=3e4, K2=4800.0)
            spec = pk.BilayerSpec(
                shape=pk.Shell(center=CENTER, inner_radius=cand.radii[1],
                               outer_radius=cand.radii[2]),
                epsilon=eps, zeta=1.0)
            u, v = pk.build_bilayer(spec, grid)
            u = pk.mass_rescale(u, 1.0)
            v = pk.mass_rescale(v, 1.0)
            gaps.append(abs(pk.total_energy(u, v, params).total - sharp))
        assert gaps[1] < gaps[0]
        assert gaps[1] / sharp < 0.05
