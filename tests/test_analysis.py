"""Curve fitting and dipole-free translation."""

import numpy as np
import pytest

import pacok as pk
from pacok import analysis
from pacok.errors import DegenerateFitError
from pacok.grid import translate

from conftest import band_limited


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

    @pytest.mark.parametrize("bad", [(1, np.nan), (0, np.inf), (1, -np.inf), (0, np.nan)])
    @pytest.mark.parametrize("fix_p", [None, 1.0])
    def test_rejects_non_finite_points(self, bad, fix_p):
        points = np.array([(1.0, 15.0), (2.0, 14.5), (3.0, 14.2), (4.0, 14.1)])
        points[2, bad[0]] = bad[1]
        with pytest.raises(DegenerateFitError, match="finite"):
            pk.fit_energy_mass(points, fix_p=fix_p)


class TestZeroDipoleShift:
    def test_sine_shifts_quarter_period(self):
        grid = pk.GridSpec((32, 32), (1.0, 1.0))
        w = pk.Field.from_function(grid, lambda x, y: np.sin(2 * np.pi * x) + 0.0 * y)
        shift = pk.zero_dipole_shift(w)
        moved = translate(w, shift)
        assert min(abs(shift[0] - 0.25), abs(shift[0] - 0.75)) < 1e-12
        assert shift[1] == 0.0
        assert np.max(np.abs(analysis.dipole_moment(moved))) < 1e-12

    def test_even_field_keeps_zero_shift(self):
        grid = pk.GridSpec((32, 32), (1.0, 1.0))
        w = pk.Field.from_function(
            grid, lambda x, y: np.cos(2 * np.pi * (x - 0.5)) * np.cos(2 * np.pi * (y - 0.5)))
        centered = pk.Field(grid, w.values - w.values.mean())
        shift = pk.zero_dipole_shift(centered)
        assert shift == (0.0, 0.0)

    def test_random_fields_reach_tolerance(self, rng):
        grid = pk.GridSpec((32, 32), (2.0, 1.0))
        for _ in range(50):
            w = band_limited(grid, rng, max_mode=7)
            shift = pk.zero_dipole_shift(w)
            moved = translate(w, shift)
            scale = float(np.abs(w.values).sum()) * grid.cell_volume
            assert np.max(np.abs(analysis.dipole_moment(moved))) < 1e-8 * scale * max(grid.lengths)
            for t, length in zip(shift, grid.lengths):
                assert 0.0 <= t < length

    def test_3d_field(self, rng):
        grid = pk.GridSpec((16, 16, 16), (1.0, 1.0, 1.0))
        w = band_limited(grid, rng, max_mode=4)
        moved = translate(w, pk.zero_dipole_shift(w))
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
        shift = pk.zero_dipole_shift(w)
        moved = translate(w, shift)
        assert shift[0] == pytest.approx(0.49, abs=1e-12)
        assert np.max(np.abs(analysis.dipole_moment(moved))) < 1e-12

    def test_exact_zero_sample_is_the_shift(self):
        # the x-moment is -A/(2 pi) cos(2 pi t) with A/(2 pi) ~ 3e-308; at the
        # quarter shifts it times cos(pi/2) ~ 6e-17 underflows to exactly 0,
        # so the sample at grid shift 1 is an exact zero, and a true root
        grid = pk.GridSpec((4, 4), (1.0, 1.0))
        w = pk.Field(grid, np.tile([0.0, 2e-307, 0.0, -2e-307], (4, 1)))
        shift = pk.zero_dipole_shift(w)
        assert shift == (0.25, 0.0)

    def test_tiny_amplitude_gives_same_shift(self, rng):
        # products of neighbouring moment samples ~1e-340 underflow to 0
        grid = pk.GridSpec((32, 32), (2.0, 1.0))
        w = band_limited(grid, rng, max_mode=7)
        shift = pk.zero_dipole_shift(w)
        tiny = pk.zero_dipole_shift(pk.Field(grid, 1e-170 * w.values))
        assert np.allclose(tiny, shift, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("grid", [pk.GridSpec((32, 32), (2.0, 1.0)),
                                      pk.GridSpec((16, 12, 8), (1.0, 0.8, 0.5))])
    def test_no_field_transform(self, rng, fft_calls, grid):
        # the shift comes from 1-D marginals; moving the field is the caller's transform
        w = band_limited(grid, rng, max_mode=3)
        fft_calls.clear()  # band_limited's own inverse
        pk.zero_dipole_shift(w)
        assert not fft_calls

    def test_identically_zero_marginal_flagged_ok(self):
        # odd in y only: the x-marginal vanishes identically, any shift works
        grid = pk.GridSpec((32, 32), (1.0, 1.0))
        w = pk.Field.from_function(grid, lambda x, y: np.sin(2 * np.pi * y) + 0.0 * x)
        shift = pk.zero_dipole_shift(w)
        assert shift[0] == 0.0
