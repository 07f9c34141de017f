"""Config round-trips, checkpoint binary format, trace CSV, PNG rendering."""

import signal
import struct
import zlib

import numpy as np
import pytest

import pacok as pk
from pacok import storage
from pacok.errors import CorruptCheckpointError, UnsupportedVersionError


GRID = pk.GridSpec((32, 32), (2.6, 2.6))


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


def _decode_png(path):
    raw = path.read_bytes()
    assert raw[:8] == b"\x89PNG\r\n\x1a\n"
    pos, chunks = 8, {}
    while pos < len(raw):
        (length,) = struct.unpack(">I", raw[pos:pos + 4])
        tag = raw[pos + 4:pos + 8]
        chunks.setdefault(tag, b"")
        chunks[tag] += raw[pos + 8:pos + 8 + length]
        pos += 12 + length
    width, height = struct.unpack(">II", chunks[b"IHDR"][:8])
    data = zlib.decompress(chunks[b"IDAT"])
    stride = 1 + 3 * width
    rows = []
    for row in range(height):
        line = data[row * stride:(row + 1) * stride]
        assert line[0] == 0  # filter byte
        rows.append(np.frombuffer(line[1:], dtype=np.uint8).reshape(width, 3))
    return np.stack(rows)


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
            img = _decode_png(path)
            assert img.shape == (8, 8, 3)
            assert np.all(img == np.array(expected, dtype=np.uint8))

    def test_overlap_truncates(self, tmp_path):
        grid = pk.GridSpec((8, 8), (1.0, 1.0))
        path = tmp_path / "overlap.png"
        storage.render_cross_section(pk.Field.full(grid, 1.0),
                                     pk.Field.full(grid, 1.0), None, path)
        img = _decode_png(path)
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
        img = _decode_png(tmp_path / "z.png")
        assert img.shape == (8, 8, 3)
        with pytest.raises(ValueError, match="outside"):
            storage.render_cross_section(state.u, state.v, ("z", 9), tmp_path / "bad.png")
