"""Command-line surface: subcommands, formats, exit codes."""

import json
import math
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import pacok as pk
from pacok import dynamics, storage
from pacok.cli import _initial_state, main
from pacok.grid import translate

from conftest import decode_png

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GRIDS = [pk.GridSpec((12, 10), (1.2, 1.0)), pk.GridSpec((6, 8, 10), (0.6, 0.8, 1.0))]


def _slab_init(normal):
    """A config's ``init`` section seeding an infinite slab with this normal."""
    return {"shape": {"variant": "slab", "center": [1.3, 1.3], "normal": normal,
                      "half_thickness": 0.1, "radius": None},
            "epsilon": 0.05, "zeta": 1.0}


def _unrescaled_init(**values):
    """A config edit that sets ``values`` in ``init`` and turns the mass rescale
    off, so that no rescale stands between the seed and the run."""
    def edit(data):
        data["init"].update(values)
        data["rescale_masses"] = False
    return edit


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


def _run3d(tmp_path, **stepper):
    """``configs/run3d.json`` (64^3: 2 MiB fields, which a run steps on two
    threads when it may use two CPUs) with these stepper settings, written
    under ``tmp_path``."""
    data = json.loads((CONFIGS / "run3d.json").read_text())
    data["stepper"].update(stepper)
    data["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "run3d.json"
    path.write_text(json.dumps(data))
    return path


def _with_shape(**shape):
    """A config edit that seeds ``shape`` (a config's ``init.shape`` mapping),
    keeping the config's explicit layer thicknesses; a gyroid or a 3-D center
    gets an 8^3 grid."""
    def edit(data):
        data["init"]["shape"] = shape
        if shape["variant"] == "gyroid" or len(shape.get("center", ())) == 3:
            data["grid"] = {"points": [8, 8, 8], "lengths": [2.6, 2.6, 2.6]}
    return edit


def _run_edited(tmp_path, edit) -> int:
    """``pacok run`` of ``configs/run2d.json`` at 32^2 and 0 steps, after ``edit``."""
    data = json.loads((CONFIGS / "run2d.json").read_text())
    data["grid"]["points"] = [32, 32]
    data["stepper"]["max_steps"] = 0  # should the edit be ignored, run briefly
    edit(data)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return main(["run", "--config", str(path), "--output", str(tmp_path / "out")])


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


class TestParserReuse:
    """``main`` builds its parser once per process; no call may leak into the next."""

    def test_built_once_and_not_on_import(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        code = ("import pacok, pacok.cli as cli; assert cli._build_parser.cache_info().currsize == 0; "
                "cli.main(['roots']); cli.main(['roots']); info = cli._build_parser.cache_info(); "
                "assert (info.misses, info.hits) == (1, 1), info")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_usage_error_then_valid_command(self, capsys):
        argv = ["radial", "--n", "3", "--zeta", "1", "--gamma", "500", "--m", "2", "--asymptotic"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(["radial", "--n", "4", "--zeta", "1"]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: argument --n")
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_index_then_stack(self, tmp_path, capsys):
        state = _random_checkpoint(tmp_path / "s.okpf", GRIDS[1])
        common = ["render", "--checkpoint", str(tmp_path / "s.okpf"), "--axis", "x"]
        assert main([*common, "--out", str(tmp_path / "one.png"), "--index", "3"]) == 0
        assert main([*common, "--out", str(tmp_path / "p.png"), "--stack"]) == 0
        assert len(list(tmp_path.glob("p_*.png"))) == GRIDS[1].points[0]
        assert np.array_equal(decode_png(tmp_path / "p_003.png"), decode_png(tmp_path / "one.png"))
        assert np.array_equal(decode_png(tmp_path / "one.png"), _plane_colors(state, 0, 3))
        # the group still excludes after both members were used alone
        assert main([*common, "--out", str(tmp_path / "q.png"), "--stack", "--index", "2"]) == 1

    def test_defaults_return_on_the_next_call(self, capsys, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("\n".join(f"{m},{15 + 2 * m**-2}" for m in (0.4, 0.6, 0.8, 1.0, 1.2)))
        assert main(["fit", "--points", str(path)]) == 0
        free = capsys.readouterr().out
        assert main(["fit", "--points", str(path), "--fix-p", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[2] == "p 1"
        assert main(["fit", "--points", str(path)]) == 0  # --fix-p is None again
        assert capsys.readouterr().out == free


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

    def test_3d_default_is_the_middle_z_plane(self, tmp_path, capsys):
        state = _random_checkpoint(tmp_path / "s.okpf", GRIDS[1])
        assert main(["render", "--checkpoint", str(tmp_path / "s.okpf"),
                     "--out", str(tmp_path / "p.png")]) == 0
        assert np.array_equal(decode_png(tmp_path / "p.png"), _plane_colors(state, 2, 5))

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


def _config_on(grid, path):
    """The shipped config of the grid's dimension, moved onto ``grid``, at ``path``."""
    data = json.loads((CONFIGS / ("run3d.json" if grid.dim == 3 else "run2d.json")).read_text())
    data["grid"] = {"points": list(grid.points), "lengths": list(grid.lengths)}
    path.write_text(json.dumps(data))
    return path


class TestCheckpointGrid:
    @pytest.mark.parametrize("command", ["energy", "dipole"])
    def test_a_checkpoint_off_the_config_grid_exits_one(self, tmp_path, capsys, command):
        # run3d.json's eps, gamma, m, K1 and K2 belong to its 64^3 grid
        _random_checkpoint(tmp_path / "s.okpf", GRIDS[1])
        out = tmp_path / "m.okpf"
        extra = ["--out", str(out)] if command == "dipole" else []
        assert main([command, "--config", str(CONFIGS / "run3d.json"),
                     "--checkpoint", str(tmp_path / "s.okpf"), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: checkpoint grid does not match the config grid\n"
        assert not out.exists()


class TestDipole:
    @pytest.mark.parametrize("grid", GRIDS, ids=["2d", "3d"])
    def test_output_is_the_input_moved_by_the_printed_shift(self, tmp_path, capsys, grid):
        state = _random_checkpoint(tmp_path / "s.okpf", grid, seed=7)
        config = _config_on(grid, tmp_path / "run.json")
        assert main(["dipole", "--config", str(config), "--checkpoint", str(tmp_path / "s.okpf"),
                     "--out", str(tmp_path / "m.okpf")]) == 0
        line = capsys.readouterr().out.splitlines()[0].split()
        assert line[0] == "shift" and len(line) == 1 + grid.dim
        shift = tuple(float(t) for t in line[1:])
        moved = storage.read_checkpoint(tmp_path / "m.okpf")
        assert np.array_equal(moved.u.values, translate(state.u, shift).values)
        assert np.array_equal(moved.v.values, translate(state.v, shift).values)
        assert (moved.time, moved.step) == (state.time, state.step)


GRID64 = pk.GridSpec((64, 64, 64), (2.0, 2.0, 2.0))  # 2 MiB fields: two workers on two CPUs


class TestTwoWorkers:
    def test_outputs_are_bitwise_those_of_one_cpu(self, tmp_path, capsys, monkeypatch):
        # energy, dipole and render --stack, each on its own helper thread when
        # two CPUs are offered, and none left running after the command
        checkpoint, config = tmp_path / "s.okpf", _config_on(GRID64, tmp_path / "run.json")
        _random_checkpoint(checkpoint, GRID64, seed=5)
        started = []
        original = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            original(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        outputs = []
        for count in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                                raising=False)
            out = tmp_path / f"cpus{count}"
            out.mkdir()
            printed = []
            for argv in (["energy", "--config", str(config), "--checkpoint", str(checkpoint)],
                         ["dipole", "--config", str(config), "--checkpoint", str(checkpoint),
                          "--out", str(out / "m.okpf")],
                         ["render", "--checkpoint", str(checkpoint), "--out", str(out / "p.png"),
                          "--stack"]):
                before = threading.active_count()
                assert main(argv) == 0
                assert threading.active_count() == before
                printed.append(capsys.readouterr().out.replace(str(out), "OUT"))
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            outputs.append((printed, files, len(started)))
        (printed1, files1, started1), (printed2, files2, started2) = outputs
        assert started1 == 0 and started2 == 3
        assert printed1 == printed2 and printed1[0].startswith("perimeter ")
        assert len(files1) == 1 + 64 and files1 == files2


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

    def test_non_finite_table_exits_one(self, capsys):
        assert main(["roots", "--table", "0.5", "nan", "3"]) == 1
        assert capsys.readouterr().err.startswith("error: zeta must be finite and positive")


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

    @pytest.mark.parametrize("mode", [[], ["--asymptotic"], ["--equal-mass"]])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_gamma_exits_one(self, capsys, mode, value):
        assert main(["radial", "--n", "2", "--zeta", "1", "--gamma", value,
                     "--m", "1", *mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: gamma must be finite and positive")


class TestRunAndFriends:
    def test_zero_step_run_writes_initial_artifacts(self, run_config, capsys, tmp_path):
        path, cfg = run_config
        assert main(["run", "--config", str(path)]) == 0
        out_dir = tmp_path / "out"
        trace = storage.read_trace(out_dir / "trace.csv")
        assert len(trace["step"]) == 1
        assert trace["step"][0] == 0.0
        assert sorted(p.name for p in out_dir.glob("ckpt_*")) == ["ckpt_final.okpf"]

    def test_zero_step_restart_leaves_the_state_alone(self, run_config, tmp_path):
        # rescale_masses applies to shape seeds: a restart resumes the state as written
        path, cfg = run_config
        data = storage.config_to_dict(cfg)
        data["stepper"]["max_steps"] = 50
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path)]) == 0
        start = tmp_path / "start.okpf"
        (tmp_path / "out" / "ckpt_final.okpf").rename(start)
        data["stepper"]["max_steps"] = 0
        data["init"] = {"checkpoint": str(start)}
        data["output_dir"] = str(tmp_path / "restart")
        assert data["rescale_masses"]
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "restart" / "ckpt_final.okpf").read_bytes() == start.read_bytes()
        # a restart that takes no step still traces its one state
        assert list(storage.read_trace(tmp_path / "restart" / "trace.csv")["step"]) == [50.0]

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

    def test_divergence_keeps_the_last_good_state(self, tmp_path, capsys):
        # step 5's samples are finite, but its energy overflows
        path = _overflow_repro(tmp_path)
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(path)]) == 2
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "ckpt_00000000.okpf", "ckpt_lastgood.okpf", "trace.csv"]
        kept = storage.read_checkpoint(out / "ckpt_lastgood.okpf")
        assert np.all(np.isfinite(kept.u.values)) and np.all(np.isfinite(kept.v.values))
        traced = storage.read_trace(out / "trace.csv")["step"]
        assert kept.step == traced[-1] + 1 == 5
        assert capsys.readouterr().err == f"divergence: energy overflowed at step {kept.step}\n"
        # the state five steps from the run's input, bit for bit
        cfg = storage.load_config(path)
        stepper = dynamics._Stepper(_initial_state(cfg), cfg.params, cfg.stepper)
        with np.errstate(all="ignore"):
            for _ in range(5):
                stepper.advance()
        assert np.array_equal(kept.u.values, stepper.u) and np.array_equal(kept.v.values, stepper.v)

    def test_a_failed_last_good_write_still_exits_as_divergence(self, tmp_path, capsys):
        path = _overflow_repro(tmp_path)
        (tmp_path / "out" / "ckpt_lastgood.okpf").mkdir(parents=True)  # no file can replace it
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(path)]) == 2
        io_error, divergence = capsys.readouterr().err.splitlines()
        assert io_error.startswith("io error: ") and "ckpt_lastgood.okpf" in io_error
        assert divergence == "divergence: energy overflowed at step 5"
        assert (tmp_path / "out" / "ckpt_lastgood.okpf").is_dir()
        assert not list((tmp_path / "out").glob("*.tmp"))

    def test_divergence_prints_only_its_message(self, tmp_path, capsys):
        # numpy's RuntimeWarnings as errors and no errstate of the test's own
        path = _overflow_repro(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("divergence:")

    def test_two_worker_divergence_prints_only_its_message(self, tmp_path, capsys, monkeypatch):
        # the fields overflow inside the force, half of it on the helper thread,
        # which must run under the run's errstate
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        path = _run3d(tmp_path, dt=2e-3, max_steps=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("divergence:") and err.count("\n") == 1

    def test_interrupt_exits_130_and_stops_the_helper(self, tmp_path, capsys, monkeypatch):
        def append_trace(path, step, *row):
            if step == 2:
                raise KeyboardInterrupt
            original(path, step, *row)

        original = storage.append_trace
        monkeypatch.setattr(storage, "append_trace", append_trace)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        path = _run3d(tmp_path, max_steps=5, trace_every=1)
        before = threading.active_count()
        assert main(["run", "--config", str(path)]) == 130
        assert capsys.readouterr().err == "interrupted\n"
        assert threading.active_count() == before

    def test_sigint_exits_130_with_one_line(self, tmp_path):
        path = _run3d(tmp_path, max_steps=10_000, trace_every=1)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "pacok", "run", "--config", str(path)],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        trace = tmp_path / "out" / "trace.csv"
        try:
            deadline = time.monotonic() + 60
            # the header and two rows: the run is stepping
            while time.monotonic() < deadline and proc.poll() is None and (
                    not trace.exists() or len(trace.read_text().splitlines()) < 3):
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 130, err
        assert err == "interrupted\n" and out == ""

    @pytest.mark.parametrize("edit,named", [
        (lambda data: data["params"].update(gama=1500.0), "'gama'"),
        (lambda data: data.pop("stepper"), "'stepper'"),
        (lambda data: data.update(rescale_mass=False), "'rescale_mass'"),
        (lambda data: data["grid"].update(lengths=[float("nan"), 2.6]), "lengths[0] must be"),
        (lambda data: data["stepper"].update(dt=float("nan")), "dt must be"),
        (lambda data: data["params"].update(epsilon=float("nan")), "epsilon must be"),
        (lambda data: data["params"].update(K1=float("nan")), "K1 must be"),
        (lambda data: data["params"].update(gamma=float("inf")), "gamma must be"),
        (lambda data: data["params"].update(v_reg=float("inf")), "v_reg must be"),
        (lambda data: data["stepper"].update(stop_tol=float("nan")), "stop_tol must be"),
        (lambda data: data["grid"].update(points=[32.7, 32]), "points[0] must be"),
        (lambda data: data["stepper"].update(max_steps=2.5), "max_steps must be"),
        (lambda data: data["stepper"].update(trace_every=1.5), "trace_every must be"),
        (lambda data: data["stepper"].update(checkpoint_every=1.5), "checkpoint_every must be"),
        (lambda data: data["init"]["shape"].update(center=[1.3]), "center must be one finite"),
        (lambda data: data["init"]["shape"].update(center=[1.3, 1.3, 1.3]), "got (1.3, 1.3, 1.3)"),
        (lambda data: data.update(perturb={"kind": "hole", "center": [1.3, 1.3, 0.0], "radius": 0.1}),
         "center must be one finite number per axis of the 2-D grid, got (1.3, 1.3, 0.0)"),
        (lambda data: data["init"]["shape"].update(center=[float("nan"), 1.3]), "got (nan, 1.3)"),
        (lambda data: data.update(init=_slab_init(normal=[0.0, 0.0, 1.0])), "normal must be one"),
        (lambda data: data.update(init=_slab_init(normal=[0.0, 0.0])), "|normal| must be"),
        (_unrescaled_init(epsilon=float("inf")), "epsilon must be"),
        (_unrescaled_init(epsilon=float("nan")), "epsilon must be"),
        (_unrescaled_init(u_half_thickness=float("inf")), "u_half_thickness must be"),
        (_with_shape(variant="gyroid", level=0.0, scale=1.5), "scale must be a whole number"),
        (_with_shape(variant="gyroid", level=0.0, scale="2"), "scale must be a whole number"),
        (_with_shape(variant="gyroid", level=0.0, scale=math.nan), "scale must be a whole number"),
        (_with_shape(variant="gyroid", level=math.nan, scale=1), "level must be finite"),
        (_with_shape(variant="curve_bilayer", points=[[1.0, 1.0], [math.nan, 1.0], [1.3, 1.6]]),
         "points[1] must be one finite number per axis of the 2-D grid, got (nan, 1.0)"),
        (_with_shape(variant="curve_bilayer", points=[[1.0, 1.0], [1.6, 1.0]]),
         "points must hold at least 3 control points, got 2"),
    ], ids=["unknown-key", "missing-section", "unknown-top-level-key", "non-finite-length",
            "nan-dt", "nan-epsilon", "nan-K1", "inf-gamma", "inf-v_reg", "nan-stop_tol",
            "fractional-points", "fractional-max_steps", "fractional-trace_every",
            "fractional-checkpoint_every", "short-seed-center", "long-seed-center",
            "long-hole-center", "nan-seed-center", "long-slab-normal", "zero-slab-normal",
            "inf-init-epsilon", "nan-init-epsilon", "inf-init-u_half_thickness",
            "fractional-gyroid-scale", "string-gyroid-scale", "nan-gyroid-scale",
            "nan-gyroid-level", "nan-curve-point", "two-point-curve"])
    def test_config_error_exits_one(self, tmp_path, capsys, edit, named):
        assert _run_edited(tmp_path, edit) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("section,key,value", [
        ("params", "epsilon", "0.05"),
        ("params", "K1", None),
        ("params", "zeta", [1]),
        ("params", "gamma", True),
        ("params", "v_reg", "0"),
        ("stepper", "stop_tol", "x"),
        ("stepper", "dt", False),
        ("stepper", "max_steps", True),
        ("grid", "lengths", ["2.6", 2.6]),
        ("grid", "lengths", None),
        ("init", "u_half_thickness", "0.1"),
        ("init", "zeta", "1"),
        ("init.shape", "center", ["1.3", 1.3]),
        ("init.shape", "center", None),
        ("init.shape", "variant", {}),
        ("perturb", "amplitude", [0.01]),
        ("perturb", "seed", "0"),
        ("perturb", "seed", -1),
        (None, "rescale_masses", "no"),
    ], ids=lambda item: json.dumps(item) if not isinstance(item, str) else item)
    def test_config_value_of_the_wrong_type_exits_one(self, tmp_path, capsys, section, key,
                                                      value):
        # a string, null, list or bool where a number goes once raised a TypeError,
        # or ran: true as 1
        def edit(data):
            target = data
            for name in (section.split(".") if section else ()):
                target = target[name]
            target[key] = value

        assert _run_edited(tmp_path, edit) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err

    @pytest.mark.parametrize("shape,key", [
        ({"variant": "ball", "center": [1.3, 1.3], "radius": math.inf}, "radius"),
        ({"variant": "ball", "center": [1.3, 1.3], "radius": -0.2}, "radius"),
        ({"variant": "shell", "center": [1.3, 1.3], "inner_radius": math.nan,
          "outer_radius": 0.9}, "inner_radius"),
        ({"variant": "shell", "center": [1.3, 1.3], "inner_radius": 0.7,
          "outer_radius": math.inf}, "outer_radius"),
        ({"variant": "slab", "center": [1.3, 1.3], "normal": [1.0, 0.0],
          "half_thickness": math.nan, "radius": None}, "half_thickness"),
        ({"variant": "slab", "center": [1.3, 1.3], "normal": [1.0, 0.0],
          "half_thickness": 0.1, "radius": math.inf}, "radius"),
        ({"variant": "slab", "center": [1.3, 1.3], "normal": [1.0, 0.0],
          "half_thickness": 0.1, "radius": 0.0}, "radius"),
        ({"variant": "torus", "center": [1.3, 1.3, 1.3], "major_radius": math.inf,
          "minor_radius": 0.2}, "major_radius"),
        ({"variant": "torus", "center": [1.3, 1.3, 1.3], "major_radius": 0.6,
          "minor_radius": math.nan}, "minor_radius"),
        ({"variant": "curve_bilayer", "points": [[1.0, 1.0], [1.6, 1.0], [1.3, 1.6]],
          "half_thickness": math.inf}, "half_thickness"),
    ], ids=["inf-ball-radius", "negative-ball-radius", "nan-shell-inner", "inf-shell-outer",
            "nan-slab-half_thickness", "inf-slab-radius", "zero-slab-radius",
            "inf-torus-major", "nan-torus-minor", "inf-curve-half_thickness"])
    def test_shape_size_must_be_finite_and_positive(self, tmp_path, capsys, shape, key):
        assert _run_edited(tmp_path, _with_shape(**shape)) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be finite and positive")

    @pytest.mark.parametrize("perturb,key", [
        ({"kind": "noise", "amplitude": math.inf, "seed": 0}, "amplitude"),
        ({"kind": "noise", "amplitude": math.nan, "seed": 0}, "amplitude"),
        ({"kind": "noise", "amplitude": -1.0, "seed": 0}, "amplitude"),
        ({"kind": "hole", "center": [1.3, 1.3], "radius": math.nan}, "radius"),
        ({"kind": "hole", "center": [1.3, 1.3], "radius": math.inf}, "radius"),
        ({"kind": "hole", "center": [1.3, 1.3], "radius": -0.1}, "radius"),
    ], ids=["inf-amplitude", "nan-amplitude", "negative-amplitude", "nan-hole-radius",
            "inf-hole-radius", "negative-hole-radius"])
    def test_perturbation_size_must_be_finite_and_nonnegative(self, tmp_path, capsys,
                                                              perturb, key):
        assert _run_edited(tmp_path, lambda data: data.update(perturb=perturb)) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be finite and nonnegative")

    @pytest.mark.parametrize("factor", [math.nan, 0.5])
    def test_torus_deform_factor_must_be_at_least_one(self, tmp_path, capsys, factor):
        shape = {"variant": "torus", "center": [1.3, 1.3, 1.3], "major_radius": 0.6,
                 "minor_radius": 0.2, "deform_factor": factor}
        assert _run_edited(tmp_path, _with_shape(**shape)) == 1
        assert capsys.readouterr().err.startswith(f"error: deform_factor must be >= 1, got {factor}")

    @pytest.mark.parametrize("u_half_thickness", [None, 0.1], ids=["derived", "explicit"])
    @pytest.mark.parametrize("inner,outer", [(0.9, 0.7), (0.8, 0.8)], ids=["swapped", "equal"])
    def test_shell_inner_radius_must_be_below_outer(self, tmp_path, capsys, inner, outer,
                                                    u_half_thickness):
        def edit(data):
            data["init"]["shape"] = {"variant": "shell", "center": [1.3, 1.3],
                                     "inner_radius": inner, "outer_radius": outer}
            data["init"]["u_half_thickness"] = u_half_thickness

        assert _run_edited(tmp_path, edit) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: inner_radius must be below outer_radius")
        assert f"inner_radius {inner}" in err and f"outer_radius {outer}" in err

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

    def test_interrupted_and_resumed_run_equals_the_uninterrupted_one(self, tmp_path, capsys):
        # Byte equality needs the restart step (10) to be a multiple of
        # trace_every: otherwise the first run's final row, which an
        # uninterrupted run does not write, is an extra row.
        data = json.loads((CONFIGS / "run2d.json").read_text())
        data["grid"]["points"] = [32, 32]
        data["stepper"].update(max_steps=20, trace_every=10, checkpoint_every=10)
        path = tmp_path / "run.json"

        def run(config, out_dir):
            path.write_text(json.dumps(config))
            assert main(["run", "--config", str(path), "--output", str(out_dir)]) == 0

        run(data, tmp_path / "whole")
        run({**data, "stepper": {**data["stepper"], "max_steps": 10}}, tmp_path / "split")
        resumed = {**data, "stepper": {**data["stepper"], "max_steps": 10}, "perturb": None,
                   "init": {"checkpoint": str(tmp_path / "split" / "ckpt_final.okpf")}}
        run(resumed, tmp_path / "split")

        # The resumed run's time is the checkpoint's time plus its own steps'
        # (10*dt + 10*dt), where the uninterrupted run has 20*dt. Rounding can
        # part the two sums by an ulp; here they agree, as 20*dt = 2*(10*dt).
        def assert_same_time(a, b):
            assert abs(a - b) <= np.spacing(max(abs(a), abs(b)))

        whole = (tmp_path / "whole" / "trace.csv").read_text().splitlines()
        split = (tmp_path / "split" / "trace.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in split[1:]] == ["0", "10", "20"]
        assert split[0] == whole[0] and len(split) == len(whole)
        for row_whole, row_split in zip(whole[1:], split[1:]):
            (step_a, time_a, *rest_a), (step_b, time_b, *rest_b) = (
                row_whole.split(","), row_split.split(","))
            assert (step_a, rest_a) == (step_b, rest_b)  # 17 digits: equal text, equal bits
            assert_same_time(float(time_a), float(time_b))
        names = sorted(p.name for p in (tmp_path / "whole").glob("ckpt_*.okpf"))
        assert names == sorted(p.name for p in (tmp_path / "split").glob("ckpt_*.okpf"))
        assert names == ["ckpt_00000000.okpf", "ckpt_00000010.okpf", "ckpt_final.okpf"]
        for name in names:
            a = storage.read_checkpoint(tmp_path / "whole" / name)
            b = storage.read_checkpoint(tmp_path / "split" / name)
            assert a.step == b.step
            assert_same_time(a.time, b.time)
            assert np.array_equal(a.u.values, b.u.values) and np.array_equal(a.v.values, b.v.values)

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

    def test_non_finite_point_exits_one(self, capsys, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("m,ratio\n1,15\n2,nan\n3,14\n4,13.5\n")
        assert main(["fit", "--points", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.parametrize("bad,number", [("3,14.3O", 4), ("4", 5), ("m,ratio", 2),
                                            ("3,14,2", 4), ("3 inf", 4)],
                             ids=["typo", "one-column", "second-header", "three-columns", "inf"])
    def test_a_bad_data_line_exits_one_naming_it(self, capsys, tmp_path, bad, number):
        # only the first line may be a header; no data line is skipped or misread
        rows = ["m,ratio", "1,15", "2,14.5", "3,14.3", "4,14.2", "5,14.1"]
        rows[number - 1] = bad
        path = tmp_path / "points.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--points", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path} line {number}: expected two finite numbers, "
                                f"got {bad!r}\n")

    def test_blank_lines_are_skipped(self, capsys, tmp_path):
        path = tmp_path / "points.csv"
        rows = [f"{m},{15 + 2 * m**-2}" for m in (0.4, 0.6, 0.8, 1.0, 1.2)]
        path.write_text("\n".join(rows))
        assert main(["fit", "--points", str(path)]) == 0
        dense = capsys.readouterr().out
        path.write_text("\n\n".join(["m,ratio", *rows]) + "\n\n")
        assert main(["fit", "--points", str(path)]) == 0
        assert capsys.readouterr().out == dense

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_fix_p_exits_one(self, capfd, tmp_path, value):
        # capfd, not capsys: LAPACK reports an illegal argument on the process's stderr
        path = tmp_path / "points.csv"
        path.write_text("m,ratio\n1,15\n2,14.5\n3,14\n4,13.5\n")
        assert main(["fit", "--points", str(path), "--fix-p", value]) == 1
        err = capfd.readouterr().err
        assert err.startswith("error: fix_p must be finite") and "DLASCL" not in err

    def test_from_traces(self, capsys, tmp_path):
        for i, (mass, ratio) in enumerate([(1.0, 10.7), (2.0, 10.5), (4.0, 10.45)]):
            breakdown = pk.EnergyBreakdown.assemble(mass * ratio, 0.0, 0.0, 0.0, gamma=1.0)
            storage.append_trace(tmp_path / f"t{i}.csv", 5, 0.1, breakdown,
                                 (mass, mass), 1.0)
        traces = [str(tmp_path / f"t{i}.csv") for i in range(3)]
        assert main(["fit", "--from-traces", *traces, "--fix-p", "1.0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[2] == "p 1"
