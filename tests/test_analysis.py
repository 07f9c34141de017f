"""Curve fitting, dipole-free translation, layer-thickness probes."""

import itertools
import math

import numpy as np
import pytest

import pacok as pk
from pacok import analysis
from pacok.errors import DegenerateFitError, NoCrossingError
from pacok.grid import translate

from conftest import band_limited, radial_seed

pytestmark = pytest.mark.filterwarnings("ignore:seed geometry exceeds")


class TestFitEnergyMass:
    def test_exact_recovery(self):
        points = [(m, 15.0 + 2.0 * m**-2.0) for m in (0.4, 0.6, 0.8, 1.0, 1.2)]
        fit = pk.fit_energy_mass(points)
        assert fit.rms_residual < 1e-12
        assert fit.a == pytest.approx(15.0, abs=1e-6)
        assert fit.b == pytest.approx(2.0, abs=1e-6)
        assert fit.p == pytest.approx(2.0, abs=1e-6)

    def test_fixed_exponent_is_linear_least_squares(self):
        points = [(m, 7.0 + 3.0 / m) for m in (1.0, 2.0, 4.0, 8.0)]
        fit = pk.fit_energy_mass(points, fix_p=1.0)
        assert fit.p == 1.0
        assert fit.a == pytest.approx(7.0, abs=1e-12)
        assert fit.b == pytest.approx(3.0, abs=1e-12)

    def test_figure_point_sets(self):
        liposome = [(1, 10.694), (1.6, 10.554), (2.4, 10.477), (7, 10.378)]
        disk = [(1, 10.841), (1.6, 10.733), (2.4, 10.659), (7, 10.521)]
        fit_lip = pk.fit_energy_mass(liposome)
        fit_disk = pk.fit_energy_mass(disk)
        assert 0.8 <= fit_lip.p <= 1.3
        assert 0.35 <= fit_disk.p <= 0.7
        assert abs(fit_lip.a - 10.4004) / 10.4004 < 0.015

    def test_rejects_degenerate_input(self):
        with pytest.raises(DegenerateFitError):
            pk.fit_energy_mass([(1.0, 2.0), (2.0, 3.0)])
        with pytest.raises(DegenerateFitError):
            pk.fit_energy_mass([(1.0, 2.0), (1.0, 3.0), (2.0, 4.0)])
        with pytest.raises(DegenerateFitError):
            pk.fit_energy_mass([(1.0, 2.0), (-2.0, 3.0), (3.0, 4.0)])


class TestZeroDipoleShift:
    def test_sine_shifts_quarter_period(self):
        grid = pk.GridSpec((32, 32), (1.0, 1.0))
        w = pk.Field.from_function(grid, lambda x, y: np.sin(2 * np.pi * x) + 0.0 * y)
        shift, moved = pk.zero_dipole_shift(w)
        assert min(abs(shift[0] - 0.25), abs(shift[0] - 0.75)) < 1e-12
        assert shift[1] == 0.0
        assert np.max(np.abs(analysis.dipole_moment(moved))) < 1e-12

    def test_even_field_keeps_zero_shift(self):
        grid = pk.GridSpec((32, 32), (1.0, 1.0))
        w = pk.Field.from_function(
            grid, lambda x, y: np.cos(2 * np.pi * (x - 0.5)) * np.cos(2 * np.pi * (y - 0.5)))
        centered = pk.Field(grid, w.values - w.values.mean())
        shift, _ = pk.zero_dipole_shift(centered)
        assert shift == (0.0, 0.0)

    def test_random_fields_reach_tolerance(self, rng):
        grid = pk.GridSpec((32, 32), (2.0, 1.0))
        for _ in range(50):
            w = band_limited(grid, rng, max_mode=7)
            shift, moved = pk.zero_dipole_shift(w)
            scale = float(np.abs(w.values).sum()) * grid.cell_volume
            assert np.max(np.abs(analysis.dipole_moment(moved))) < 1e-8 * scale * max(grid.lengths)
            for t, length in zip(shift, grid.lengths):
                assert 0.0 <= t < length

    def test_3d_field(self, rng):
        grid = pk.GridSpec((16, 16, 16), (1.0, 1.0, 1.0))
        w = band_limited(grid, rng, max_mode=4)
        _, moved = pk.zero_dipole_shift(w)
        scale = float(np.abs(w.values).sum()) * grid.cell_volume
        assert np.max(np.abs(analysis.dipole_moment(moved))) < 1e-10 * scale

    def test_nonzero_mass_rejected(self):
        grid = pk.GridSpec((16, 16), (1.0, 1.0))
        with pytest.raises(ValueError, match="mass"):
            pk.zero_dipole_shift(pk.Field.full(grid, 0.3))

    def test_root_in_wrap_around_cell(self):
        # the moment ~ cos(2 pi (t - 0.24)) has roots 0.49 and 0.99; the second
        # lies in the last cell [31/32, 1), so the samples at the last grid shift
        # and at 0 have opposite signs, and the first root is the one returned
        grid = pk.GridSpec((32, 32), (1.0, 1.0))
        w = pk.Field.from_function(grid, lambda x, y: np.sin(2 * np.pi * (x - 0.24)) + 0.0 * y)
        first, last = (analysis.dipole_moment(translate(w, (t, 0.0)))[0] for t in (0.0, 31 / 32))
        assert first * last < 0
        shift, moved = pk.zero_dipole_shift(w)
        assert shift[0] == pytest.approx(0.49, abs=1e-12)
        assert np.max(np.abs(analysis.dipole_moment(moved))) < 1e-12

    def test_exact_zero_sample_is_the_shift(self):
        # the x-moment is -A/(2 pi) cos(2 pi t) with A/(2 pi) ~ 3e-308; at the
        # quarter shifts it times cos(pi/2) ~ 6e-17 underflows to exactly 0,
        # so the sample at grid shift 1 is an exact zero, and a true root
        grid = pk.GridSpec((4, 4), (1.0, 1.0))
        w = pk.Field(grid, np.tile([0.0, 2e-307, 0.0, -2e-307], (4, 1)))
        shift, _ = pk.zero_dipole_shift(w)
        assert shift == (0.25, 0.0)

    def test_tiny_amplitude_gives_same_shift(self, rng):
        # products of neighbouring moment samples ~1e-340 underflow to 0
        grid = pk.GridSpec((32, 32), (2.0, 1.0))
        w = band_limited(grid, rng, max_mode=7)
        shift, _ = pk.zero_dipole_shift(w)
        tiny, _ = pk.zero_dipole_shift(pk.Field(grid, 1e-170 * w.values))
        assert np.allclose(tiny, shift, rtol=0.0, atol=1e-12)

    def test_identically_zero_marginal_flagged_ok(self):
        # odd in y only: the x-marginal vanishes identically, any shift works
        grid = pk.GridSpec((32, 32), (1.0, 1.0))
        w = pk.Field.from_function(grid, lambda x, y: np.sin(2 * np.pi * y) + 0.0 * x)
        shift, _ = pk.zero_dipole_shift(w)
        assert shift[0] == 0.0


def _multilinear(values, spacing, point):
    """Periodic multilinear interpolant of samples (array axes z, y, x) at one point (x first)."""
    cells = [c / h for c, h in zip(point, spacing)]
    base = [math.floor(c) for c in cells]
    counts = values.shape[::-1]
    total = 0.0
    for corner in itertools.product((0, 1), repeat=len(cells)):
        weight = math.prod(c - b if bit else 1.0 - (c - b) for c, b, bit in zip(cells, base, corner))
        node = tuple((b + bit) % n for b, bit, n in zip(base, corner, counts))
        total += weight * values[node[::-1]]
    return total


class TestMeasureThickness:
    @pytest.mark.parametrize("shape, lengths, origin, direction", [
        ((32, 24), (2.0, 1.5), (-2.7, -0.4), (0.8, -0.6)),
        ((16, 12, 8), (1.0, 1.2, 0.7), (-1.3, -2.9, -0.05), (-0.48, 0.6, 0.64)),
    ])
    def test_ray_interpolation_wraps(self, rng, shape, lengths, origin, direction):
        # rays from negative coordinates, several box lengths long
        grid = pk.GridSpec(shape, lengths)
        field = pk.Field(grid, rng.standard_normal(grid.shape))
        t_values = np.linspace(0.0, 4.0, 57)
        got = analysis._interp_along_ray(field, origin, direction, t_values)
        want = [_multilinear(field.values, grid.spacing,
                             [o + t * d for o, d in zip(origin, direction)]) for t in t_values]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    def test_origin_moved_by_box_lengths(self):
        grid = pk.GridSpec((256, 32), (2.0, 1.0))
        spec = pk.BilayerSpec(
            shape=pk.Slab(center=(1.0, 0.5), normal=(1.0, 0.0), half_thickness=0.15),
            epsilon=0.02, zeta=1.0)
        u, v = pk.build_bilayer(spec, grid)
        home = pk.measure_thickness(u, v, origin=(1.0, 0.5), direction=(1.0, 0.3), length=0.8)
        away = pk.measure_thickness(u, v, origin=(-3.0, -1.5), direction=(1.0, 0.3), length=0.8)
        assert np.allclose(away.crossings_u, home.crossings_u, rtol=0.0, atol=1e-12)
        assert np.allclose(away.crossings_uv, home.crossings_uv, rtol=0.0, atol=1e-12)

    def test_rasterized_candidate_within_one_cell(self):
        cand = pk.optimize_liposome(1.0, 1.0, 1500.0, 2)
        grid = pk.GridSpec((256, 256), (2.6, 2.6))
        u, v = radial_seed(cand, grid, epsilon=0.02)
        probe = pk.measure_thickness(u, v, origin=(1.3, 1.3), direction=(1.0, 0.37))
        assert probe.intervals is not None
        cell = max(grid.spacing)
        for measured, true in zip(probe.intervals, cand.thicknesses):
            assert abs(measured - true) < cell

    def test_inner_interval_larger_than_outer(self):
        cand = pk.optimize_liposome(1.0, 1.0, 1500.0, 2)
        grid = pk.GridSpec((512, 512), (2.6, 2.6))
        u, v = radial_seed(cand, grid, epsilon=0.01)
        probe = pk.measure_thickness(u, v, origin=(1.3, 1.3), direction=(1.0, 0.0))
        assert probe.intervals[0] > probe.intervals[2]

    def test_flat_slab_symmetric(self):
        # probing outward from the midplane: one u crossing and one u+v
        # crossing per side, identical on both sides by reflection symmetry
        grid = pk.GridSpec((256, 32), (2.0, 1.0))
        spec = pk.BilayerSpec(
            shape=pk.Slab(center=(1.0, 0.5), normal=(1.0, 0.0), half_thickness=0.15),
            epsilon=0.02, zeta=1.0)
        u, v = pk.build_bilayer(spec, grid)
        right = pk.measure_thickness(u, v, origin=(1.0, 0.5), direction=(1.0, 0.0),
                                     length=0.8)
        left = pk.measure_thickness(u, v, origin=(1.0, 0.5), direction=(-1.0, 0.0),
                                    length=0.8)
        assert right.crossings_u[0] == pytest.approx(left.crossings_u[0], abs=1e-3)
        assert right.crossings_uv[0] == pytest.approx(left.crossings_uv[0], abs=1e-3)
        v_right = right.crossings_uv[0] - right.crossings_u[0]
        v_left = left.crossings_uv[0] - left.crossings_u[0]
        assert v_right == pytest.approx(v_left, abs=1e-3)

    def test_shift_invariance(self):
        cand = pk.optimize_liposome(1.0, 1.0, 1500.0, 2)
        grid = pk.GridSpec((256, 256), (2.6, 2.6))
        u, v = radial_seed(cand, grid, epsilon=0.02)
        probe = pk.measure_thickness(u, v, origin=(1.3, 1.3), direction=(1.0, 0.0))
        cells = (16, 5)
        rolled_u = pk.Field(grid, np.roll(u.values, (cells[1], cells[0]), axis=(0, 1)))
        rolled_v = pk.Field(grid, np.roll(v.values, (cells[1], cells[0]), axis=(0, 1)))
        origin2 = (1.3 + cells[0] * grid.spacing[0], 1.3 + cells[1] * grid.spacing[1])
        probe2 = pk.measure_thickness(rolled_u, rolled_v, origin=origin2, direction=(1.0, 0.0))
        assert np.allclose(probe.intervals, probe2.intervals, atol=1e-12)

    def test_no_crossing_raises(self):
        grid = pk.GridSpec((32, 32), (1.0, 1.0))
        flat = pk.Field.full(grid, 0.0)
        with pytest.raises(NoCrossingError):
            pk.measure_thickness(flat, flat, origin=(0.5, 0.5), direction=(1.0, 0.0))
