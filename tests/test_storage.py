"""Config round-trips, checkpoint binary format, trace CSV, PNG rendering."""

import signal
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pacok as pk
from pacok import storage
from pacok.errors import CorruptCheckpointError, UnsupportedVersionError

from conftest import decode_png, peak_bytes


GRID = pk.GridSpec((32, 32), (2.6, 2.6))

# few examples with a fixed seed keep the suite fast and its outcome stable
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _state(rng, grid=GRID, time=0.125, step=17):
    u = pk.Field(grid, rng.uniform(0.0, 1.0, grid.shape))
    v = pk.Field(grid, rng.uniform(0.0, 1.0, grid.shape))
    return pk.RunState(u=u, v=v, time=time, step=step)


def _config():
    return storage.RunConfig(
        params=pk.PhysParams(zeta=1.0, gamma=1500.0, mass=1.0, epsilon=0.05,
                             K1=3e4, K2=4800.0),
        stepper=pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=100,
                                 stop_tol=1e-6, checkpoint_every=50, trace_every=10),
        grid=GRID,
        init=pk.BilayerSpec(
            shape=pk.Shell(center=(1.3, 1.3), inner_radius=0.7, outer_radius=0.9),
            epsilon=0.05, zeta=1.0),
        perturb=storage.NoisePerturbation(amplitude=0.01, seed=3),
        output_dir="out",
    )


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        cfg = _config()
        path = tmp_path / "run.json"
        storage.save_config(cfg, path)
        assert storage.load_config(path) == cfg
        # parse -> serialize -> parse is also the identity
        storage.save_config(storage.load_config(path), tmp_path / "again.json")
        assert storage.load_config(tmp_path / "again.json") == cfg

    def test_checkpoint_init_and_hole(self, tmp_path):
        cfg = storage.RunConfig(
            params=_config().params, stepper=_config().stepper, grid=GRID,
            init="some/checkpoint.okpf",
            perturb=storage.HolePerturbation(center=(1.0, 1.1), radius=0.2))
        path = tmp_path / "run.json"
        storage.save_config(cfg, path)
        assert storage.load_config(path) == cfg

    def test_exotic_floats_survive(self, tmp_path):
        cfg = _config()
        odd = storage.RunConfig(
            params=pk.PhysParams(zeta=1 / 3, gamma=2.1e-5 / 7, mass=0.1 + 0.2,
                                 epsilon=0.05, K1=3e4, K2=4800.0),
            stepper=cfg.stepper, grid=cfg.grid, init=cfg.init)
        path = tmp_path / "odd.json"
        storage.save_config(odd, path)
        assert storage.load_config(path).params.zeta == odd.params.zeta
        assert storage.load_config(path).params.gamma == odd.params.gamma


_floats = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _point(dim):
    return st.tuples(*[_floats] * dim)


_SHAPES = st.one_of(
    st.builds(pk.Ball, center=_point(2), radius=_positive),
    st.tuples(_point(3), _positive, _positive).filter(lambda c: c[1] < c[2]).map(
        lambda c: pk.Shell(center=c[0], inner_radius=c[1], outer_radius=c[2])),
    st.builds(pk.Slab, center=_point(2), normal=_point(2), half_thickness=_positive,
              radius=st.none() | _positive),
    st.builds(pk.Torus, center=_point(3), major_radius=_positive, minor_radius=_positive,
              deform_factor=st.floats(1.0, 1e6)),
    st.builds(pk.Gyroid, level=_floats, scale=st.integers(1, 4)),
    st.builds(pk.CurveBilayer, points=st.lists(_point(2), min_size=3, max_size=6).map(tuple),
              half_thickness=st.none() | _positive),
)
_PERTURBS = st.one_of(
    st.none(),
    st.builds(storage.NoisePerturbation, amplitude=_positive, seed=st.integers(0, 2**63)),
    st.builds(storage.HolePerturbation, center=_point(2), radius=_positive),
)


class TestConfigFuzz:
    @FUZZ
    @given(shape=_SHAPES, perturb=_PERTURBS, epsilon=_positive, u_half=_positive,
           v_thickness=_positive, rescale=st.booleans())
    def test_save_load_identity(self, tmp_path, shape, perturb, epsilon, u_half,
                                v_thickness, rescale):
        base = _config()
        cfg = storage.RunConfig(
            params=base.params, stepper=base.stepper, grid=base.grid,
            init=pk.BilayerSpec(shape=shape, epsilon=epsilon, u_half_thickness=u_half,
                                v_thickness=v_thickness),
            perturb=perturb, rescale_masses=rescale)
        path = tmp_path / "fuzz.json"
        storage.save_config(cfg, path)
        assert storage.load_config(path) == cfg


class TestCheckpoint:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        state = _state(rng)
        path = tmp_path / "state.okpf"
        storage.write_checkpoint(path, state)
        back = storage.read_checkpoint(path)
        assert np.array_equal(back.u.values, state.u.values)
        assert np.array_equal(back.v.values, state.v.values)
        assert back.time == state.time
        assert back.step == state.step
        assert back.u.grid == state.u.grid

    def test_3d_round_trip(self, rng, tmp_path):
        grid = pk.GridSpec((8, 12, 16), (1.0, 2.0, 3.0))
        state = _state(rng, grid=grid)
        path = tmp_path / "state3.okpf"
        storage.write_checkpoint(path, state)
        back = storage.read_checkpoint(path)
        assert np.array_equal(back.v.values, state.v.values)
        assert back.u.grid == grid

    def test_layout_is_x_fastest(self, rng, tmp_path):
        state = _state(rng)
        path = tmp_path / "state.okpf"
        storage.write_checkpoint(path, state)
        raw = path.read_bytes()
        header = 12 + 4 * 2 + 8 * 2 + 8 + 8
        first_row = np.frombuffer(raw[header:header + 8 * 32], dtype="<f8")
        assert np.array_equal(first_row, state.u.values[0, :])  # x varies fastest

    def test_truncated_file_names_offset(self, rng, tmp_path):
        state = _state(rng)
        path = tmp_path / "state.okpf"
        storage.write_checkpoint(path, state)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptCheckpointError) as err:
            storage.read_checkpoint(path)
        assert "offset" in str(err.value)
        assert err.value.offset == len(raw) // 2

    def test_bad_magic(self, rng, tmp_path):
        state = _state(rng)
        path = tmp_path / "state.okpf"
        storage.write_checkpoint(path, state)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError) as err:
            storage.read_checkpoint(path)
        assert err.value.offset == 0

    def test_unsupported_version(self, rng, tmp_path):
        state = _state(rng)
        path = tmp_path / "state.okpf"
        storage.write_checkpoint(path, state)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError):
            storage.read_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, rng, tmp_path):
        # a file-size limit of half a checkpoint makes the write fail partway,
        # as a full disk would
        resource = pytest.importorskip("resource")
        path = tmp_path / "state.okpf"
        storage.write_checkpoint(path, _state(rng))
        before = path.read_bytes()
        limits = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (len(before) // 2, limits[1]))
        try:
            with pytest.raises(OSError):
                storage.write_checkpoint(path, _state(rng, step=18))
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, limits)
            signal.signal(signal.SIGXFSZ, handler)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.okpf"]

    def test_trailing_garbage_rejected(self, rng, tmp_path):
        state = _state(rng)
        path = tmp_path / "state.okpf"
        storage.write_checkpoint(path, state)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CorruptCheckpointError, match="trailing"):
            storage.read_checkpoint(path)


def _checkpoint_bytes(grid, tmp_path):
    # lengths, time and half the samples in [1, 2), where flipping the top
    # byte's 0x40 bit gives inf or nan
    rng = np.random.default_rng(7)
    state = pk.RunState(u=pk.Field(grid, rng.uniform(0.0, 2.0, grid.shape)),
                        v=pk.Field(grid, rng.uniform(0.0, 2.0, grid.shape)),
                        time=1.125, step=17)
    path = tmp_path / "source.okpf"
    storage.write_checkpoint(path, state)
    return path.read_bytes()


_FUZZ_GRIDS = [pk.GridSpec((8, 6), (1.5, 1.25)), pk.GridSpec((4, 6, 8), (1.0, 1.5, 1.75))]


class TestCheckpointFuzz:
    """Any truncation or one changed byte is refused or read back exactly."""

    @pytest.mark.parametrize("grid", _FUZZ_GRIDS, ids=["2d", "3d"])
    @FUZZ
    @given(data=st.data())
    def test_truncation_reports_its_size(self, tmp_path, grid, data):
        raw = _checkpoint_bytes(grid, tmp_path)
        cut = data.draw(st.one_of(st.integers(0, 64), st.integers(0, len(raw) - 1)))
        path = tmp_path / "cut.okpf"
        path.write_bytes(raw[:cut])
        with pytest.raises(CorruptCheckpointError) as err:
            storage.read_checkpoint(path)
        assert err.value.offset == cut

    @pytest.mark.parametrize("grid", _FUZZ_GRIDS, ids=["2d", "3d"])
    @FUZZ
    @given(data=st.data())
    def test_changed_byte_refused_or_exact(self, tmp_path, grid, data):
        raw = bytearray(_checkpoint_bytes(grid, tmp_path))
        where = data.draw(st.one_of(st.integers(0, 64), st.integers(0, len(raw) - 1)))
        raw[where] ^= data.draw(st.integers(1, 255))
        path = tmp_path / "changed.okpf"
        path.write_bytes(bytes(raw))
        try:
            state = storage.read_checkpoint(path)
        except (CorruptCheckpointError, UnsupportedVersionError):
            return
        # accepted: the state must be exactly what the bytes say
        storage.write_checkpoint(tmp_path / "again.okpf", state)
        assert (tmp_path / "again.okpf").read_bytes() == bytes(raw)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where,offset", [(20, 12), (36, 36), (52, 52), (52 + 8 * 49, 52 + 8 * 49)],
                             ids=["length", "time", "u-sample", "v-sample"])
    def test_non_finite_value_refused(self, tmp_path, value, where, offset):
        raw = bytearray(_checkpoint_bytes(_FUZZ_GRIDS[0], tmp_path))
        raw[where:where + 8] = struct.pack("<d", value)
        path = tmp_path / "non_finite.okpf"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError) as err:
            storage.read_checkpoint(path)
        assert err.value.offset == offset

    @pytest.mark.parametrize("points", [(4096, 4096), (1024, 1024, 1024),
                                        (2**22, 2**22, 2**20)],
                             ids=["2d", "3d", "count-product-2**64"])
    def test_oversized_header_allocates_nothing(self, tmp_path, points):
        dim = len(points)
        header = struct.pack(f"<4sII{dim}I{dim}ddQ", b"OKPF", 1, dim, *points,
                             *(1.0,) * dim, 0.0, 0)
        path = tmp_path / "big.okpf"
        path.write_bytes(header + bytes(64))

        def read():
            with pytest.raises(CorruptCheckpointError) as err:
                storage.read_checkpoint(path)
            assert err.value.offset == len(header) + 64

        assert peak_bytes(read) < 1 << 20


class TestTrace:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        breakdown = pk.EnergyBreakdown.assemble(1.0, 0.25, 0.5, 0.01, gamma=2.0)
        storage.append_trace(path, 0, 0.0, breakdown, (1.0, 1.0), float("nan"))
        storage.append_trace(path, 10, 0.1, breakdown, (0.99, 1.01), 3.5)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == storage.TRACE_HEADER
        assert len(lines) == 3
        columns = storage.read_trace(path)
        assert columns["step"].tolist() == [0.0, 10.0]
        assert columns["E"][1] == breakdown.total
        assert columns["N"][1] == 0.25
        assert np.isnan(columns["residual"][0])

    def test_round_trip_precision(self, tmp_path):
        path = tmp_path / "trace.csv"
        value = 1.0 / 3.0 + 1e-16
        breakdown = pk.EnergyBreakdown.assemble(value, value, value, value, gamma=1.0)
        storage.append_trace(path, 1, value, breakdown, (value, value), value)
        columns = storage.read_trace(path)
        assert columns["P"][0] == value
        assert columns["time"][0] == value


class TestRender:
    def test_pure_phase_colors(self, tmp_path):
        grid = pk.GridSpec((8, 8), (1.0, 1.0))
        cases = [
            (1.0, 0.0, (211, 95, 183)),
            (0.0, 1.0, (220, 220, 98)),
            (0.0, 0.0, (255, 255, 255)),
        ]
        for u_val, v_val, expected in cases:
            path = tmp_path / f"img_{u_val}_{v_val}.png"
            storage.render_cross_section(pk.Field.full(grid, u_val),
                                         pk.Field.full(grid, v_val), None, path)
            img = decode_png(path)
            assert img.shape == (8, 8, 3)
            assert np.all(img == np.array(expected, dtype=np.uint8))

    def test_overlap_truncates(self, tmp_path):
        grid = pk.GridSpec((8, 8), (1.0, 1.0))
        path = tmp_path / "overlap.png"
        storage.render_cross_section(pk.Field.full(grid, 1.0),
                                     pk.Field.full(grid, 1.0), None, path)
        img = decode_png(path)
        expected = np.clip(np.rint([255 - 44 - 35, 255 - 160 - 35, 255 - 72 - 157]), 0, 255)
        assert np.all(img == expected.astype(np.uint8))

    def test_deterministic_bytes(self, rng, tmp_path):
        state = _state(rng)
        first, second = tmp_path / "a.png", tmp_path / "b.png"
        storage.render_cross_section(state.u, state.v, None, first)
        storage.render_cross_section(state.u, state.v, None, second)
        assert first.read_bytes() == second.read_bytes()

    def test_3d_plane_selection(self, rng, tmp_path):
        grid = pk.GridSpec((8, 8, 8), (1.0, 1.0, 1.0))
        state = _state(rng, grid=grid)
        storage.render_cross_section(state.u, state.v, ("z", 4), tmp_path / "z.png")
        img = decode_png(tmp_path / "z.png")
        assert img.shape == (8, 8, 3)
        with pytest.raises(ValueError, match="outside"):
            storage.render_cross_section(state.u, state.v, ("z", 9), tmp_path / "bad.png")
