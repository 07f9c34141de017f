"""Command-line surface: subcommands, formats, exit codes."""

import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pacok as pk
from pacok import storage
from pacok.cli import main
from pacok.grid import translate

from conftest import decode_png

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GRIDS = [pk.GridSpec((12, 10), (1.2, 1.0)), pk.GridSpec((6, 8, 10), (0.6, 0.8, 1.0))]


def _overflow_repro(tmp_path):
    """The shipped 2-D physics at 32^2 and 16x its dt: the fields grow to
    ~1e114 while still finite, and the trace energy overflows first."""
    data = json.loads((CONFIGS / "run2d.json").read_text())
    data["grid"]["points"] = [32, 32]
    data["stepper"]["dt"] = 2e-3
    data["stepper"]["trace_every"] = 1
    data["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return path


@pytest.fixture
def run_config(tmp_path):
    cand = pk.optimize_liposome(0.4, 1.0, 1500.0, 2)
    cfg = storage.RunConfig(
        params=pk.PhysParams(zeta=1.0, gamma=1500.0, mass=0.4, epsilon=0.05,
                             K1=3e4, K2=4800.0),
        stepper=pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=0,
                                 stop_tol=1e-9, checkpoint_every=50, trace_every=10),
        grid=pk.GridSpec((32, 32), (1.8, 1.8)),
        init=pk.BilayerSpec(
            shape=pk.Shell(center=(0.9, 0.9), inner_radius=cand.radii[1],
                           outer_radius=cand.radii[2]),
            epsilon=0.05, zeta=1.0),
        output_dir=str(tmp_path / "out"),
    )
    path = tmp_path / "run.json"
    storage.save_config(cfg, path)
    return path, cfg


class TestUsage:
    def test_unknown_flag_exits_one(self, capsys):
        assert main(["roots", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file_exits_three(self, capsys, tmp_path):
        code = main(["render", "--checkpoint", str(tmp_path / "nope.okpf"),
                     "--out", str(tmp_path / "x.png")])
        assert code == 3


def _random_checkpoint(path, grid, seed=0):
    """A non-constant state, partly outside [0, 1] so that colors clip too."""
    rng = np.random.default_rng(seed)
    state = pk.RunState(u=pk.Field(grid, rng.uniform(-0.2, 1.2, grid.shape)),
                        v=pk.Field(grid, rng.uniform(-0.2, 1.2, grid.shape)),
                        time=0.375, step=42)
    storage.write_checkpoint(path, state)
    return state


def _plane_colors(state, axis, index):
    """The image of one plane: phase colors, vertical coordinate upward."""
    array_axis = state.u.grid.dim - 1 - axis
    u, v = (np.take(f.values, index, axis=array_axis) for f in (state.u, state.v))
    return storage.phase_colors(u, v)[::-1]


class TestModule:
    def test_python_m_pacok(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "pacok", "roots"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("zeta0 ")


class TestRender:
    def test_2d_image_is_the_phase_colors(self, tmp_path, capsys):
        state = _random_checkpoint(tmp_path / "s.okpf", GRIDS[0])
        assert main(["render", "--checkpoint", str(tmp_path / "s.okpf"),
                     "--out", str(tmp_path / "p.png")]) == 0
        expected = storage.phase_colors(state.u.values, state.v.values)[::-1]
        assert np.array_equal(decode_png(tmp_path / "p.png"), expected)

    def test_3d_plane_is_the_phase_colors(self, tmp_path, capsys):
        state = _random_checkpoint(tmp_path / "s.okpf", GRIDS[1])
        assert main(["render", "--checkpoint", str(tmp_path / "s.okpf"),
                     "--out", str(tmp_path / "p.png"), "--axis", "y", "--index", "3"]) == 0
        assert np.array_equal(decode_png(tmp_path / "p.png"), _plane_colors(state, 1, 3))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_every_stack_plane_is_the_phase_colors(self, tmp_path, capsys, axis):
        state = _random_checkpoint(tmp_path / "s.okpf", GRIDS[1])
        assert main(["render", "--checkpoint", str(tmp_path / "s.okpf"),
                     "--out", str(tmp_path / "p.png"), "--axis", axis, "--stack"]) == 0
        number = "xyz".index(axis)
        planes = sorted(tmp_path.glob("p_*.png"))
        assert [p.name for p in planes] == [f"p_{i:03d}.png" for i in range(GRIDS[1].points[number])]
        for index, plane in enumerate(planes):
            assert np.array_equal(decode_png(plane), _plane_colors(state, number, index))

    @pytest.mark.parametrize("flags,named", [(["--stack"], "--stack"), (["--index", "3"], "--index")])
    def test_plane_flags_refused_for_2d(self, tmp_path, capsys, flags, named):
        _random_checkpoint(tmp_path / "s.okpf", GRIDS[0])
        assert main(["render", "--checkpoint", str(tmp_path / "s.okpf"),
                     "--out", str(tmp_path / "p.png"), *flags]) == 1
        assert named in capsys.readouterr().err
        assert list(tmp_path.glob("*.png")) == []

    def test_stack_with_index_refused(self, tmp_path, capsys):
        _random_checkpoint(tmp_path / "s.okpf", GRIDS[1])
        assert main(["render", "--checkpoint", str(tmp_path / "s.okpf"),
                     "--out", str(tmp_path / "p.png"), "--stack", "--index", "2"]) == 1
        err = capsys.readouterr().err
        assert "--stack" in err and "--index" in err
        assert list(tmp_path.glob("*.png")) == []


class TestDipole:
    @pytest.mark.parametrize("grid", GRIDS, ids=["2d", "3d"])
    def test_output_is_the_input_moved_by_the_printed_shift(self, tmp_path, capsys, grid):
        state = _random_checkpoint(tmp_path / "s.okpf", grid, seed=7)
        config = CONFIGS / ("run3d.json" if grid.dim == 3 else "run2d.json")
        assert main(["dipole", "--config", str(config), "--checkpoint", str(tmp_path / "s.okpf"),
                     "--out", str(tmp_path / "m.okpf")]) == 0
        line = capsys.readouterr().out.splitlines()[0].split()
        assert line[0] == "shift" and len(line) == 1 + grid.dim
        shift = tuple(float(t) for t in line[1:])
        moved = storage.read_checkpoint(tmp_path / "m.okpf")
        assert np.array_equal(moved.u.values, translate(state.u, shift).values)
        assert np.array_equal(moved.v.values, translate(state.v, shift).values)
        assert (moved.time, moved.step) == (state.time, state.step)


class TestRoots:
    def test_prints_thresholds(self, capsys):
        assert main(["roots"]) == 0
        out = capsys.readouterr().out
        assert "1.8169605" in out
        assert "3.6457216" in out
        assert "0.82842712474619" in out

    def test_table(self, capsys):
        assert main(["roots", "--table", "1.0", "4.0", "4"]) == 0
        out = capsys.readouterr().out
        assert "bilayer" in out and "sphere" in out


class TestRadial:
    def test_asymptotic_leading_value(self, capsys):
        assert main(["radial", "--n", "3", "--zeta", "1", "--gamma", "500",
                     "--asymptotic", "--m", "1e9"]) == 0
        out = capsys.readouterr().out
        assert "10.4004191152595" in out  # (9*500*2/8)^(1/3)

    def test_optimized_candidate(self, capsys):
        assert main(["radial", "--n", "2", "--zeta", "1", "--gamma", "1500",
                     "--m", "1"]) == 0
        out = capsys.readouterr().out
        assert "radii" in out and "E/m" in out

    def test_equal_mass_flag(self, capsys):
        assert main(["radial", "--n", "3", "--zeta", "1", "--gamma", "1",
                     "--m", "1e4", "--equal-mass"]) == 0

    def test_infeasible_exits_one(self, capsys):
        assert main(["radial", "--n", "3", "--zeta", "1", "--gamma", "1",
                     "--m", "100"]) == 1


class TestRunAndFriends:
    def test_zero_step_run_writes_initial_artifacts(self, run_config, capsys, tmp_path):
        path, cfg = run_config
        assert main(["run", "--config", str(path)]) == 0
        out_dir = tmp_path / "out"
        trace = storage.read_trace(out_dir / "trace.csv")
        assert len(trace["step"]) == 1
        assert trace["step"][0] == 0.0
        assert (out_dir / "ckpt_00000000.okpf").exists()
        assert (out_dir / "ckpt_final.okpf").exists()

    def test_non_finite_checkpoint_length_exits_three(self, run_config, capsys, tmp_path):
        path, cfg = run_config
        assert main(["run", "--config", str(path)]) == 0
        final = tmp_path / "out" / "ckpt_final.okpf"
        raw = bytearray(final.read_bytes())
        raw[20:28] = struct.pack("<d", float("nan"))  # L_x, after magic/version/dim/counts
        final.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["energy", "--config", str(path), "--checkpoint", str(final)]) == 3
        captured = capsys.readouterr()
        assert "bad grid header" in captured.err and captured.out == ""

    def test_short_run_then_energy_render_dipole(self, run_config, capsys, tmp_path):
        path, cfg = run_config
        data = storage.config_to_dict(cfg)
        data["stepper"]["max_steps"] = 20
        import json
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path)]) == 0
        final = str(tmp_path / "out" / "ckpt_final.okpf")

        assert main(["energy", "--config", str(path), "--checkpoint", final]) == 0
        out = capsys.readouterr().out
        assert "total" in out and "E/m" in out

        png = str(tmp_path / "img.png")
        assert main(["render", "--checkpoint", final, "--out", png]) == 0
        assert (tmp_path / "img.png").stat().st_size > 0

        moved = str(tmp_path / "moved.okpf")
        assert main(["dipole", "--config", str(path), "--checkpoint", final,
                     "--out", moved]) == 0
        out = capsys.readouterr().out
        assert "shift" in out
        state = storage.read_checkpoint(moved)
        assert state.u.grid == cfg.grid

    def test_interpolant_evaluated_twice_per_energy(self, run_config, capsys, tmp_path,
                                                     interpolant_calls):
        # f(u) and f(v) once each per trace row and per `pacok energy`; the
        # breakdown carries the masses that the trace and the energy print
        path, cfg = run_config
        data = storage.config_to_dict(cfg)
        data["stepper"]["max_steps"] = 20
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path)]) == 0
        trace = storage.read_trace(tmp_path / "out" / "trace.csv")
        assert len(trace["step"]) == 3
        assert interpolant_calls == [cfg.grid.shape] * 6

        interpolant_calls.clear()
        final = str(tmp_path / "out" / "ckpt_final.okpf")
        assert main(["energy", "--config", str(path), "--checkpoint", final]) == 0
        assert interpolant_calls == [cfg.grid.shape] * 2
        out = capsys.readouterr().out
        mass_u, mass_v = (float(line.split()[1]) for line in out.splitlines()
                          if line.startswith("mass_"))
        assert (mass_u, mass_v) == (trace["mass_u"][-1], trace["mass_v"][-1])

    def test_divergence_exits_two(self, run_config, tmp_path, capsys):
        import json
        import numpy as np
        path, cfg = run_config
        data = storage.config_to_dict(cfg)
        data["stepper"]["max_steps"] = 200
        # launch far outside the stabilized window: the cubic well growth
        # overwhelms the implicit part and the divergence guard must trip
        data["perturb"] = {"kind": "noise", "amplitude": 6.0, "seed": 0}
        data["rescale_masses"] = False
        path.write_text(json.dumps(data))
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(path)]) == 2
        assert "divergence" in capsys.readouterr().err

    def test_overflowing_energy_exits_two(self, tmp_path, capsys):
        import numpy as np
        path = _overflow_repro(tmp_path)
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(path)]) == 2
        assert "divergence" in capsys.readouterr().err

    def test_divergence_prints_only_its_message(self, tmp_path, capsys):
        # numpy's RuntimeWarnings as errors and no errstate of the test's own
        path = _overflow_repro(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("divergence:")

    @pytest.mark.parametrize("edit,named", [
        (lambda data: data["params"].update(gama=1500.0), "'gama'"),
        (lambda data: data.pop("stepper"), "'stepper'"),
        (lambda data: data.update(rescale_mass=False), "'rescale_mass'"),
        (lambda data: data["grid"].update(lengths=[float("nan"), 2.6]), "box lengths"),
        (lambda data: data["stepper"].update(dt=float("nan")), "dt must be"),
        (lambda data: data["params"].update(epsilon=float("nan")), "epsilon must be"),
        (lambda data: data["params"].update(K1=float("nan")), "K1 must be"),
        (lambda data: data["params"].update(gamma=float("inf")), "gamma must be"),
        (lambda data: data["params"].update(v_reg=float("inf")), "v_reg must be"),
        (lambda data: data["stepper"].update(stop_tol=float("nan")), "stop_tol must be"),
    ], ids=["unknown-key", "missing-section", "unknown-top-level-key", "non-finite-length",
            "nan-dt", "nan-epsilon", "nan-K1", "inf-gamma", "inf-v_reg", "nan-stop_tol"])
    def test_config_error_exits_one(self, tmp_path, capsys, edit, named):
        data = json.loads((CONFIGS / "run2d.json").read_text())
        data["grid"]["points"] = [32, 32]
        data["stepper"]["max_steps"] = 0  # should the edit be ignored, run briefly
        edit(data)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_restart_from_checkpoint(self, run_config, tmp_path, capsys):
        import json
        path, cfg = run_config
        data = storage.config_to_dict(cfg)
        data["stepper"]["max_steps"] = 5
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path)]) == 0
        final = str(tmp_path / "out" / "ckpt_final.okpf")
        data["init"] = {"checkpoint": final}
        data["output_dir"] = str(tmp_path / "out2")
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path)]) == 0
        state = storage.read_checkpoint(tmp_path / "out2" / "ckpt_final.okpf")
        assert state.step == 10  # restart continued the step counter

    def test_stack_render_3d(self, tmp_path, capsys):
        import numpy as np
        grid = pk.GridSpec((8, 8, 8), (1.0, 1.0, 1.0))
        rng = np.random.default_rng(0)
        state = pk.RunState(u=pk.Field(grid, rng.uniform(0, 1, grid.shape)),
                            v=pk.Field(grid, rng.uniform(0, 1, grid.shape)))
        ckpt = tmp_path / "s.okpf"
        storage.write_checkpoint(ckpt, state)
        assert main(["render", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "plane.png"), "--stack"]) == 0
        assert len(list(tmp_path.glob("plane_*.png"))) == 8

    def test_default_config_factory_round_trips(self, tmp_path):
        cfg = storage.load_config(CONFIGS / "run2d.json")
        assert cfg.params.gamma == 1500.0 and cfg.params.epsilon == 0.05
        assert cfg.stepper.dt == 1.25e-4 and cfg.grid.points == (256, 256)
        storage.save_config(cfg, tmp_path / "cfg.json")
        assert storage.load_config(tmp_path / "cfg.json") == cfg

    def test_seventeen_digit_output(self, capsys):
        main(["roots"])
        out = capsys.readouterr().out
        zeta1_line = [line for line in out.splitlines() if line.startswith("zeta1")][0]
        digits = zeta1_line.split()[1]
        assert len(digits.replace(".", "").lstrip("0")) >= 16


class TestFit:
    def test_points_file(self, capsys, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("m,ratio\n" + "\n".join(
            f"{m},{15 + 2 * m**-2}" for m in (0.4, 0.6, 0.8, 1.0, 1.2)))
        assert main(["fit", "--points", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("a 15")

    def test_from_traces(self, capsys, tmp_path):
        for i, (mass, ratio) in enumerate([(1.0, 10.7), (2.0, 10.5), (4.0, 10.45)]):
            breakdown = pk.EnergyBreakdown.assemble(mass * ratio, 0.0, 0.0, 0.0, gamma=1.0)
            storage.append_trace(tmp_path / f"t{i}.csv", 5, 0.1, breakdown,
                                 (mass, mass), 1.0)
        traces = [str(tmp_path / f"t{i}.csv") for i in range(3)]
        assert main(["fit", "--from-traces", *traces, "--fix-p", "1.0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[2] == "p 1"
