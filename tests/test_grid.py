"""Spectral grid operators: eigenfunction identities, Parseval, equivariance."""

import re

import numpy as np
import pytest

import pacok as pk
from pacok.errors import GridMismatchError, InvalidFieldError
from pacok.grid import (_inv_k_squared, _k_squared, _wavenumbers, apply_multiplier, invert_rows,
                        multiply_columns, quadratic_form, require_same_grid, spectrum_buffer,
                        transform_rows, translate)

from conftest import band_limited, peak_bytes

UNIT = pk.GridSpec((64, 64), (1.0, 1.0))


class TestGridSpec:
    def test_basic_properties(self):
        grid = pk.GridSpec((64, 32), (2.0, 1.0))
        assert grid.dim == 2
        assert grid.spacing == (2.0 / 64, 1.0 / 32)
        assert grid.shape == (32, 64)  # x fastest
        assert np.isclose(grid.cell_volume, (2.0 / 64) * (1.0 / 32))

    @pytest.mark.parametrize("points", [(3, 4), (4, 5), (2, 4), (64,), (4, 4, 4, 4)])
    def test_rejects_bad_counts(self, points):
        with pytest.raises(ValueError):
            pk.GridSpec(points, (1.0,) * len(points))

    @pytest.mark.parametrize("count", [32.7, np.nan, "32", None])
    def test_rejects_non_integral_counts(self, count):
        with pytest.raises(ValueError, match=r"points\[0\] must be a whole number"):
            pk.GridSpec((count, 32), (1.0, 1.0))

    def test_whole_float_and_numpy_counts_become_ints(self):
        grid = pk.GridSpec((32.0, np.int64(16)), (1.0, 1.0))
        assert grid.points == (32, 16) and all(type(n) is int for n in grid.points)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            pk.GridSpec((8, 8), (1.0, -2.0))
        with pytest.raises(ValueError):
            pk.GridSpec((8, 8), (1.0,))
        for length in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                pk.GridSpec((8, 8), (length, 1.0))

    def test_cell_volume_is_computed_once_with_the_same_bits(self):
        grid = pk.GridSpec((48, 32, 16), (2.8, 1.3, 0.7))
        assert grid.cell_volume is grid.cell_volume
        assert grid.cell_volume == float(np.prod(grid.spacing))
        assert pk.GridSpec(grid.points, grid.lengths) == grid  # the cache is no field

    def test_size_is_exact(self):
        # the product 2**64 wraps to 0 in int64 arithmetic
        assert pk.GridSpec((2**22, 2**22, 2**20), (1.0, 1.0, 1.0)).size == 2**64

    def test_field_validation(self):
        with pytest.raises(InvalidFieldError):
            pk.Field(UNIT, np.ones((8, 8)))
        # the right size in (Nx, Ny) order is refused, not reshaped into a scramble
        wide = pk.GridSpec((8, 4), (2.0, 1.0))
        samples = np.arange(32.0).reshape(wide.shape)
        with pytest.raises(InvalidFieldError):
            pk.Field(wide, samples.T)
        bad = np.ones(UNIT.shape)
        bad[3, 5] = np.nan
        with pytest.raises(InvalidFieldError):
            pk.Field(UNIT, bad)
        with pytest.raises(GridMismatchError):
            require_same_grid(pk.Field.full(UNIT, 0.0),
                              pk.Field.full(pk.GridSpec((64, 64), (2.0, 2.0)), 0.0))


class TestTransformParts:
    @pytest.mark.parametrize("shape", [(128, 128), (32, 32, 32), (8, 12, 16), (24, 32)])
    def test_parts_in_any_cut_are_bitwise_numpys_transforms(self, rng, shape):
        grid = pk.GridSpec(tuple(reversed(shape)), (1.0,) * len(shape))
        values = rng.normal(size=shape)
        factors = (_inv_k_squared(grid), *(np.exp(1j * k * 0.3) for k in _wavenumbers(grid)))
        spectrum = np.fft.rfftn(values)
        for factor in factors:
            spectrum *= factor
        expected = np.fft.irfftn(spectrum, s=shape, axes=tuple(range(len(shape))))
        assert apply_multiplier(grid, values, *factors).tobytes() == expected.tobytes()
        # rows in three runs, the last first; columns in two
        planes, columns = shape[0], grid.spectrum_shape[1]
        rows = [slice(0, planes // 3), slice(planes // 3, planes // 2), slice(planes // 2, None)]
        spec, out = spectrum_buffer(grid), np.empty(shape)
        for part in reversed(rows):
            transform_rows(values, spec, part)
        for part in (slice(0, columns // 3), slice(columns // 3, None)):
            multiply_columns(spec, part, *factors)
        for part in rows:
            invert_rows(spec, out, part)
        assert out.tobytes() == expected.tobytes()


class TestPoissonSolve:
    def test_laplacian_eigenfunction(self):
        w = pk.Field.from_function(UNIT, lambda x, y: np.cos(2 * np.pi * x))
        phi = pk.poisson_solve(w)
        expected = w.values / (4.0 * np.pi**2)
        assert np.max(np.abs(phi.values - expected)) < 1e-14

    def test_constant_maps_to_zero(self):
        phi = pk.poisson_solve(pk.Field.full(UNIT, 3.7))
        assert np.max(np.abs(phi.values)) < 1e-14

    def test_round_trip_with_laplacian(self, rng):
        w = band_limited(UNIT, rng, max_mode=10)
        phi = pk.poisson_solve(w)
        recovered = -pk.laplacian(phi).values
        target = w.values - w.values.mean()
        assert np.max(np.abs(recovered - target)) < 1e-12 * np.max(np.abs(target))

    def test_zero_mean_output(self, rng):
        w = band_limited(UNIT, rng, zero_mean=False)
        phi = pk.poisson_solve(w)
        assert abs(phi.values.mean()) < 1e-13 * max(np.max(np.abs(phi.values)), 1e-300)

    def test_3d_round_trip(self, rng):
        grid = pk.GridSpec((16, 16, 16), (1.0, 2.0, 1.5))
        w = band_limited(grid, rng, max_mode=4)
        phi = pk.poisson_solve(w)
        residual = -pk.laplacian(phi).values - (w.values - w.values.mean())
        assert np.max(np.abs(residual)) < 1e-12 * np.max(np.abs(w.values))


class TestLaplacian:
    def test_eigenfunction(self):
        f = pk.Field.from_function(UNIT, lambda x, y: np.cos(2 * np.pi * x))
        lap = pk.laplacian(f)
        assert np.max(np.abs(lap.values + 4.0 * np.pi**2 * f.values)) < 1e-10

    def test_constant(self):
        assert np.max(np.abs(pk.laplacian(pk.Field.full(UNIT, 5.0)).values)) < 1e-12

    def test_anisotropic_box(self):
        grid = pk.GridSpec((64, 32), (2.0, 3.0))
        f = pk.Field.from_function(grid, lambda x, y: np.sin(2 * np.pi * y / 3.0))
        expected = -(2 * np.pi / 3.0) ** 2 * f.values
        assert np.max(np.abs(pk.laplacian(f).values - expected)) < 1e-11


class TestIntegrate:
    def test_domain_area(self):
        grid = pk.GridSpec((32, 64), (2.6, 2.6))
        assert pk.integrate(pk.Field.full(grid, 1.0)) == pytest.approx(6.76, rel=1e-14)

    def test_periodic_harmonic_vanishes(self):
        f = pk.Field.from_function(UNIT, lambda x, y: np.sin(2 * np.pi * x))
        assert abs(pk.integrate(f)) < 1e-14

    def test_tanh_bump_mass(self):
        # indicator-like bump: integral within O(eps) of the sharp mass
        grid = pk.GridSpec((128, 128), (2.6, 2.6))
        eps, radius = 0.05, 0.6
        deltas = [x - 1.3 for x in grid.coords()]
        r = np.sqrt(np.broadcast_to(sum(d * d for d in deltas), grid.shape))
        bump = pk.Field(grid, pk.tanh_profile(radius - r, eps))
        sharp = np.pi * radius**2
        assert abs(pk.integrate(bump) - sharp) < eps


class TestDirichletEnergy:
    def test_cosine_value(self):
        f = pk.Field.from_function(UNIT, lambda x, y: np.cos(2 * np.pi * x))
        assert pk.dirichlet_energy(f) == pytest.approx(2.0 * np.pi**2, rel=1e-12)

    def test_constant_zero(self):
        assert pk.dirichlet_energy(pk.Field.full(UNIT, 2.0)) == 0.0

    def test_matches_integration_by_parts(self, rng):
        f = band_limited(UNIT, rng, max_mode=12, zero_mean=False)
        by_parts = pk.integrate(pk.Field(UNIT, f.values * (-pk.laplacian(f).values)))
        assert pk.dirichlet_energy(f) == pytest.approx(by_parts, rel=1e-10)

    def test_white_noise_with_and_without_buffers(self, rng):
        # every mode, the Nyquist planes included, at its multiplicity in the full spectrum
        grid = pk.GridSpec((12, 10, 8), (1.2, 1.0, 0.8))
        f = pk.Field(grid, rng.normal(size=grid.shape))
        by_parts = pk.integrate(pk.Field(grid, f.values * (-pk.laplacian(f).values)))
        assert pk.dirichlet_energy(f) == pytest.approx(by_parts, rel=1e-12)
        lent = quadratic_form(grid, f.values, _k_squared(grid), spectrum_buffer(grid))
        assert lent == pk.dirichlet_energy(f)

    def test_nonnegative_zero_iff_constant(self, rng):
        f = band_limited(UNIT, rng)
        assert pk.dirichlet_energy(f) > 0
        assert pk.dirichlet_energy(pk.Field.full(UNIT, -1.2)) <= 1e-13


class TestTranslationEquivariance:
    @pytest.mark.parametrize("op", [pk.poisson_solve, pk.laplacian])
    def test_circular_shift_commutes(self, rng, op):
        w = band_limited(UNIT, rng, max_mode=16)
        shifted_input = pk.Field(UNIT, np.roll(w.values, (5, 11), axis=(0, 1)))
        a = op(shifted_input).values
        b = np.roll(op(w).values, (5, 11), axis=(0, 1))
        scale = max(np.max(np.abs(b)), 1e-300)
        assert np.max(np.abs(a - b)) < 1e-13 * scale

    def test_quadratures_shift_invariant(self, rng):
        w = band_limited(UNIT, rng, max_mode=16)
        rolled = pk.Field(UNIT, np.roll(w.values, 7, axis=1))
        assert pk.dirichlet_energy(rolled) == pytest.approx(pk.dirichlet_energy(w), rel=1e-12)
        assert pk.integrate(rolled) == pytest.approx(pk.integrate(w), abs=1e-13)


class TestTranslate:
    def test_whole_cells_match_roll(self, rng):
        grid = pk.GridSpec((16, 8, 12), (1.6, 0.5, 0.9))
        f = pk.Field(grid, rng.normal(size=grid.shape))
        shift = tuple(c * h for c, h in zip((3, -2, 5), grid.spacing))
        moved = translate(f, shift).values
        # f(x + s) moves the samples s/h cells toward the origin on each axis
        expected = np.roll(f.values, (-5, 2, -3), axis=(0, 1, 2))
        assert np.max(np.abs(moved - expected)) < 1e-12

    def test_round_trip_and_input_untouched(self, rng):
        f = band_limited(UNIT, rng, max_mode=10)
        before = f.values.copy()
        back = translate(translate(f, (0.137, -0.29)), (-0.137, 0.29))
        assert np.array_equal(f.values, before)
        assert np.max(np.abs(back.values - before)) < 1e-12

    @pytest.mark.parametrize("grid", [pk.GridSpec((8, 6), (1.0, 2.0)),
                                      pk.GridSpec((4, 6, 8), (1.0, 1.5, 2.0))])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_shift_length_must_match_dim(self, rng, grid, extra):
        f = pk.Field(grid, rng.normal(size=grid.shape))
        shift = (0.25,) * (grid.dim + extra)
        with pytest.raises(ValueError, match=re.escape(
                f"shift must be one finite number per axis of the {grid.dim}-D grid, got {shift}")):
            translate(f, shift)


class TestStandaloneOperators:
    """poisson_solve, laplacian, translate and dirichlet_energy transform into
    one half-spectrum of their own; the results are numpy's, bit for bit."""

    @pytest.mark.parametrize("grid", [pk.GridSpec((128, 128), (2.6, 2.6)),
                                      pk.GridSpec((48, 32, 16), (2.4, 1.6, 0.8))],
                             ids=["2d", "3d"])
    def test_bitwise_equal_to_numpy_transforms(self, rng, grid):
        f = pk.Field(grid, rng.normal(size=grid.shape))
        shift = (0.137, -0.29, 0.41)[:grid.dim]

        def filtered(multiply):
            spec = multiply(np.fft.rfftn(f.values))
            return np.fft.irfftn(spec, s=grid.shape, axes=tuple(range(grid.dim))).tobytes()

        def phase_shift(spec):
            for k, t in zip(_wavenumbers(grid), shift):
                spec = spec * np.exp(1j * k * t)
            return spec

        def parseval(multiplier):
            # conjugate pairs count twice; the self-conjugate planes k_x = 0, Nyquist once
            spec = np.fft.rfftn(f.values)
            square = (spec.real * spec.real + spec.imag * spec.imag) * multiplier
            total = 2.0 * float(square.sum()) - float(square[..., 0].sum()) - float(square[..., -1].sum())
            return grid.cell_volume / grid.size * total

        assert pk.poisson_solve(f).values.tobytes() == filtered(lambda s: s * _inv_k_squared(grid))
        assert pk.laplacian(f).values.tobytes() == filtered(lambda s: s * -_k_squared(grid))
        assert translate(f, shift).values.tobytes() == filtered(phase_shift)
        assert pk.dirichlet_energy(f) == parseval(_k_squared(grid))

    def test_translate_allocates_one_half_spectrum_and_its_result(self, rng):
        grid = pk.GridSpec((32, 32, 32), (2.0, 2.0, 2.0))
        f = pk.Field(grid, rng.normal(size=grid.shape))
        translate(f, (0.1, 0.2, 0.3))  # warm the wavenumber cache
        peak = peak_bytes(lambda: translate(f, (0.1, 0.2, 0.3)))
        half_spectrum = 16 * int(np.prod(grid.spectrum_shape))
        assert peak <= f.values.nbytes + half_spectrum + 64 * 1024


class TestLentBuffers:
    """apply_multiplier and quadratic_form with lent buffers, the forms the
    stepper, the force and total_energy use, against the standalone operators."""

    @pytest.mark.parametrize("grid", [pk.GridSpec((128, 128), (2.6, 2.6)),
                                      pk.GridSpec((48, 32, 16), (2.4, 1.6, 0.8))],
                             ids=["2d", "3d"])
    def test_bitwise_equal_to_standalone_operators(self, rng, grid):
        f = pk.Field(grid, rng.normal(size=grid.shape))
        out, block = np.empty(grid.shape), np.empty((3, *grid.shape))
        # the v solve transforms into a half-spectrum laid over the force's scratch block
        laid = spectrum_buffer(grid, block)
        assert laid.shape == grid.spectrum_shape and laid.dtype == np.complex128
        assert np.shares_memory(laid, block)
        phases = [np.exp(1j * k * t) for k, t in zip(_wavenumbers(grid), (0.137, -0.29, 0.41))]
        for spec in (laid, spectrum_buffer(grid)):
            for factors, expected in (((_inv_k_squared(grid),), pk.poisson_solve(f)),
                                      ((-_k_squared(grid),), pk.laplacian(f)),
                                      (phases, translate(f, (0.137, -0.29, 0.41)[:grid.dim]))):
                assert apply_multiplier(grid, f.values, *factors, spec=spec, out=out) is out
                assert out.tobytes() == expected.values.tobytes()
                in_place = f.values.copy()  # out is values: the stepper's and the force's form
                assert apply_multiplier(grid, in_place, *factors, spec=spec,
                                        out=in_place) is in_place
                assert in_place.tobytes() == expected.values.tobytes()
        for multiplier in (_k_squared(grid), _inv_k_squared(grid)):
            assert quadratic_form(grid, f.values, multiplier, spec) == \
                quadratic_form(grid, f.values, multiplier)
        # 1/|k|^2 formed in a lent field buffer, as total_energy forms it
        held = np.full(grid.shape, np.nan)
        assert quadratic_form(grid, f.values, _inv_k_squared(grid, held), spec) == \
            quadratic_form(grid, f.values, _inv_k_squared(grid))

    @pytest.mark.parametrize("points", [(64, 64, 64), (48, 32, 16), (40, 24, 18), (384, 384),
                                        (128, 128), (100, 100, 10), (512, 512, 4)])
    def test_squares_in_the_spectrum_are_the_contiguous_squares(self, rng, points):
        # the squares are summed where they lie, 16 bytes apart, with the bits
        # of a contiguous array of them
        grid = pk.GridSpec(points, (2.0,) * len(points))
        for multiplier in (_k_squared(grid), _inv_k_squared(grid)):
            for scale in (1e-3, 1.0, 1e3):
                values = scale * rng.normal(size=grid.shape)
                spec = np.fft.rfftn(values)
                square = spec.real * spec.real
                square += spec.imag * spec.imag
                square *= multiplier
                total = 2.0 * float(square.sum()) - float(square[..., 0].sum()) - float(
                    square[..., -1].sum())
                assert quadratic_form(grid, values, multiplier) == \
                    grid.cell_volume / grid.size * total

    @pytest.mark.parametrize("grid", [pk.GridSpec((256, 256), (2.6, 2.6)),
                                      pk.GridSpec((32, 32, 32), (2.0, 2.0, 2.0))],
                             ids=["2d", "3d"])
    def test_lent_buffers_allocate_nothing_field_sized(self, rng, grid):
        values = rng.normal(size=grid.shape)
        spec, scratch = spectrum_buffer(grid), np.empty(grid.shape)
        inv_k2, k2 = _inv_k_squared(grid), _k_squared(grid)
        calls = [lambda: apply_multiplier(grid, values, inv_k2, spec=spec, out=values),
                 lambda: quadratic_form(grid, values, k2, spec),
                 lambda: quadratic_form(grid, values, _inv_k_squared(grid, scratch), spec)]
        for call in calls:
            call()  # warm numpy's FFT plan cache
            assert peak_bytes(call) < values.nbytes
