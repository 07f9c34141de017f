"""Workload inputs, timed units and correctness gates.

``relax2d`` and ``relax3d``: a timed unit is one ``pacok run`` of a pinned
config to a fixed physical-time horizon. ``analyze``: a timed unit is one
batch of post-run commands on states and traces written before timing.

Every timed command is one attempted operation. It fails, and makes the
run incorrect, when it exits non-zero or a gate rejects its output.

The radial optimizer refuses (``OptimizationError``, exit 1) 21 of the 168
points of the paper's parameter grid. The timed draws come from the other
147 points, so the count of failed operations does not depend on how many
units fit in a run. The refusals are measured instead by a census of the
whole grid, run before timing on every ``analyze`` run: it lists every
refused point and gates every solved one (see ``Analyze.census``).

Inputs come only from the workload seed, through ``random.Random`` seeded
with the workload name and seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
NOISE_AMPLITUDE = 0.01


@dataclass
class Op:
    """One CLI command as run: its argv, exit code, output and gate verdicts."""

    argv: list[str]
    code: int | None  # None: cli.main raised instead of returning a code
    stdout: str
    stderr: str
    seconds: float
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def _load_input(name: str) -> dict:
    return json.loads((HERE / "inputs" / f"{name}.json").read_text())


def _write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def _number(text: str, key: str) -> float:
    """The number printed after ``key`` (first occurrence), NaN when absent."""
    found = re.search(rf"(?:^|\s){re.escape(key)} (\S+)", text, re.MULTILINE)
    try:
        return float(found.group(1)) if found else math.nan
    except ValueError:
        return math.nan


def _close(value: float, expected: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rtol * abs(expected)


def _require_exit(op: Op) -> bool:
    """True when the command succeeded; records a problem otherwise."""
    if op.code == 0:
        return True
    op.problems.append(f"exit {op.code}: {op.stderr.strip()[-300:]}")
    return False


def _radial_argv(n, zeta, gamma, m) -> list[str]:
    return ["radial", "--n", str(n), "--zeta", repr(zeta), "--gamma", repr(gamma), "--m", repr(m)]


def _translate(values, grid, shift):
    """values(x + shift) by Fourier phase shift on the periodic grid.

    Written apart from pacok's own translation, so the dipole gate does not
    check the CLI against itself.
    """
    import numpy as np  # not at module level: run.py times the first numpy import

    spectrum = np.fft.rfftn(values)
    for axis in range(grid.dim):
        n, array_axis = grid.points[axis], grid.dim - 1 - axis
        freq = np.fft.rfftfreq(n) if array_axis == grid.dim - 1 else np.fft.fftfreq(n)
        shape = [1] * grid.dim
        shape[array_axis] = freq.size
        spectrum = spectrum * np.exp(2j * np.pi * freq.reshape(shape) * n * shift[axis] / grid.lengths[axis])
    return np.fft.irfftn(spectrum, s=values.shape)


class Relax:
    """``pacok run`` of a pinned config to a fixed horizon.

    The seed moves the seed shape by whole grid cells, which leaves the
    discrete problem the same up to rounding, and, where the config perturbs
    the seed with noise, draws the noise seed.
    """

    def __init__(self, name: str, seed: int, work: Path):
        self.work = work
        self.reference = REFERENCE[name]
        cfg = _load_input(name)
        rng = random.Random(f"{name}/{seed}")
        shape, grid = cfg["init"]["shape"], cfg["grid"]
        shape["center"] = [(c + rng.randrange(n) * length / n) % length
                           for c, n, length in zip(shape["center"], grid["points"], grid["lengths"])]
        if cfg["perturb"] is not None:
            cfg["perturb"]["seed"] = rng.randrange(2**31)
        cfg["stepper"]["max_steps"] = self.reference["steps"]
        cfg["output_dir"] = str(work / "out")
        self.cfg = cfg
        self.horizon = self.reference["steps"] * cfg["stepper"]["dt"]
        self.config = _write_json(work / "run.json", cfg)
        zero = json.loads(json.dumps(cfg))
        zero["stepper"]["max_steps"] = 0
        self.setup_config = _write_json(work / "setup.json", zero)

    def prepare(self, pk) -> None:
        self.pk = pk
        self.params = pk.PhysParams(**self.cfg["params"])

    def census(self, invoke) -> list[Op]:
        """Untimed commands run before timing; a relax workload has none."""
        return []

    def run_unit(self, invoke, index: int) -> list[Op]:
        out = self.work / f"unit{index}"
        op = invoke(["run", "--config", str(self.config), "--output", str(out)])
        if _require_exit(op):
            self._check(op, out)
        shutil.rmtree(out, ignore_errors=True)
        return [op]

    def _check(self, op: Op, out: Path) -> None:
        pk, p, ref = self.pk, self.params, self.reference
        e_per_m = _number(op.stdout, "E/m")
        if not _close(e_per_m, ref["E_per_m"], ref["rtol"]):
            op.problems.append(f"E/m {e_per_m!r} not within {ref['rtol']} of {ref['E_per_m']!r}")
        trace = pk.storage.read_trace(out / "trace.csv")
        energy = trace["E"]
        if any(later > earlier for earlier, later in zip(energy, energy[1:])):
            op.problems.append("trace energy increased")
        if not trace["time"][-1] >= self.horizon * (1.0 - 1e-12):
            op.problems.append(f"stopped at t={trace['time'][-1]!r} before the horizon {self.horizon!r}")
        drift_u = abs(trace["mass_u"][-1] - p.mass)
        drift_v = abs(trace["mass_v"][-1] - p.zeta * p.mass)
        if not (drift_u <= 50.0 / p.K1 and drift_v <= 50.0 / p.K2):
            op.problems.append(f"mass drift ({drift_u!r}, {drift_v!r}) beyond (50/K1, 50/K2)")
        final = pk.storage.read_checkpoint(out / "ckpt_final.okpf")
        reread = pk.total_energy(final.u, final.v, p).total
        if not _close(reread, energy[-1], 1e-12):
            op.problems.append(f"final checkpoint energy {reread!r} != trace {energy[-1]!r}")


# The radial grid of the paper's ranges, and the points of it the optimizer
# refused at the commit that defined this benchmark. Timed draws are sampled
# without replacement from the solved points; the census runs them all.
RADIAL_GRID = list(itertools.product(
    (2, 3),
    tuple(0.5 + 0.5 * i for i in range(7)),
    (200.0, 500.0, 1000.0, 1500.0),
    (1.0, 2.4, 7.0),
))
RADIAL_REFUSED = {tuple(point) for point in REFERENCE["analyze"]["radial_refused"]}
RADIAL_SOLVED = [point for point in RADIAL_GRID if point not in RADIAL_REFUSED]
RADIAL_DRAWS = 32
FIT_TRACES = 5
ROOTS_TABLE = ("0.5", "3.5", "40")


class Analyze:
    """Post-run commands on seeded 128^2 and 64^3 states and trace files."""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.rng = random.Random(f"analyze/{seed}")
        self.base2d, self.base3d = _load_input("relax2d"), _load_input("relax3d")
        rng = self.rng
        center = [1.3 + rng.uniform(-0.1, 0.1) for _ in range(2)]
        inner = rng.uniform(0.55, 0.7)
        self.shell2d = {"variant": "shell", "center": center, "inner_radius": inner,
                        "outer_radius": inner + rng.uniform(0.15, 0.22)}
        zero = json.loads(json.dumps(self.base2d))
        zero["init"] = {"shape": self.shell2d, "epsilon": zero["params"]["epsilon"],
                        "u_half_thickness": None, "v_thickness": None,
                        "zeta": zero["params"]["zeta"]}
        zero["stepper"]["max_steps"] = 0
        zero["perturb"] = {"kind": "noise", "amplitude": NOISE_AMPLITUDE,
                           "seed": rng.randrange(2**31)}
        self.setup_config = _write_json(work / "setup.json", zero)

    def _shapes(self, pk):
        """(label, base config, shape, u half thickness) of every seeded state."""
        rng = self.rng
        shell = self.shell2d
        yield ("shell2d", self.base2d,
               pk.Shell(center=tuple(shell["center"]), inner_radius=shell["inner_radius"],
                        outer_radius=shell["outer_radius"]),
               None)
        yield ("ball2d", self.base2d,
               pk.Ball(center=(1.3 + rng.uniform(-0.1, 0.1), 1.3 + rng.uniform(-0.1, 0.1)),
                       radius=rng.uniform(0.2, 0.35)), None)
        c3 = tuple(1.4 + rng.uniform(-0.1, 0.1) for _ in range(3))
        inner = rng.uniform(0.35, 0.5)
        yield ("shell3d", self.base3d,
               pk.Shell(center=c3, inner_radius=inner, outer_radius=inner + rng.uniform(0.2, 0.3)),
               None)
        yield "ball3d", self.base3d, pk.Ball(center=c3, radius=rng.uniform(0.2, 0.35)), None
        yield ("torus3d", self.base3d,
               pk.Torus(center=c3, major_radius=rng.uniform(0.5, 0.6),
                        minor_radius=rng.uniform(0.2, 0.3),
                        deform_factor=rng.uniform(1.0, 1.05)),
               rng.uniform(0.08, 0.12))
        yield ("gyroid3d", self.base3d, pk.Gyroid(level=rng.uniform(-0.3, 0.3)),
               rng.uniform(0.08, 0.12))

    def prepare(self, pk) -> None:
        """Write every input before timing: states, configs, traces, draws."""
        self.pk, rng, inputs = pk, self.rng, self.work / "inputs"
        inputs.mkdir()
        self.states = []
        for label, base, shape, u_half in self._shapes(pk):
            params = pk.PhysParams(**base["params"])
            grid = pk.GridSpec(tuple(base["grid"]["points"]), tuple(base["grid"]["lengths"]))
            spec = pk.BilayerSpec(shape=shape, epsilon=params.epsilon,
                                  u_half_thickness=u_half, zeta=params.zeta)
            u, v = pk.build_bilayer(spec, grid)
            noise = rng.randrange(2**31)
            u = pk.initcond.add_noise(u, NOISE_AMPLITUDE, noise)
            v = pk.initcond.add_noise(v, NOISE_AMPLITUDE, noise + 1)
            checkpoint = inputs / f"{label}.okpf"
            pk.write_checkpoint(checkpoint, pk.RunState(u=u, v=v))
            config = dict(base, init={"checkpoint": str(checkpoint)})
            self.states.append({
                "label": label, "grid": grid, "params": params,
                "checkpoint": checkpoint,
                "config": _write_json(inputs / f"{label}.json", config),
                "energy": pk.total_energy(u, v, params).total,
                "plane": (rng.choice("xyz"), rng.randrange(grid.points[0])) if grid.dim == 3 else None,
            })
        self.stacked = rng.choice([s for s in self.states if s["grid"].dim == 3])
        self.draws = rng.sample(RADIAL_SOLVED, RADIAL_DRAWS)
        self.fit_truth = (rng.uniform(10.0, 15.0), rng.uniform(0.5, 3.0), rng.choice((0.5, 1.0, 2.0)))
        self.traces = []
        for index, m in enumerate(sorted(rng.sample((1.0, 1.5, 2.4, 3.5, 5.0, 7.0, 10.0), FIT_TRACES))):
            a, b, p = self.fit_truth
            path = inputs / f"trace{index}.csv"
            for step, excess in enumerate((0.02, 0.005, 0.0)):
                energy = m * (a + b * m ** -p) * (1.0 + excess)
                pk.storage.append_trace(path, 100 * step, 0.0125 * step,
                                        pk.EnergyBreakdown.assemble(energy, 0.0, 0.0, 0.0, 1.0),
                                        (m, m), 1.0)
            self.traces.append(path)

    def run_unit(self, invoke, index: int) -> list[Op]:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        ops = []
        for state in self.states:
            label, config, checkpoint = state["label"], str(state["config"]), str(state["checkpoint"])
            op = invoke(["energy", "--config", config, "--checkpoint", checkpoint])
            ops.append(op)
            if _require_exit(op):
                self._check_energy(op, state)
            moved = out / f"{label}_dipole.okpf"
            op = invoke(["dipole", "--config", config, "--checkpoint", checkpoint, "--out", str(moved)])
            ops.append(op)
            if _require_exit(op):
                self._check_dipole(op, state, moved)
            image = out / f"{label}.png"
            argv = ["render", "--checkpoint", checkpoint, "--out", str(image)]
            if state["plane"] is not None:
                argv += ["--axis", state["plane"][0], "--index", str(state["plane"][1])]
            op = invoke(argv)
            ops.append(op)
            if _require_exit(op):
                grid = state["grid"]
                self._check_png(op, image, grid.size if grid.dim == 2 else grid.size // grid.points[0])
        stack = out / "stack" / "plane.png"
        stack.parent.mkdir()
        op = invoke(["render", "--checkpoint", str(self.stacked["checkpoint"]),
                     "--out", str(stack), "--axis", "z", "--stack"])
        ops.append(op)
        if _require_exit(op):
            self._check_stack(op, stack.parent, self.stacked["grid"])
        for draw in self.draws:
            argv = _radial_argv(*draw)
            op = invoke(argv)
            ops.append(op)
            if _require_exit(op):
                self._check_radial(op)
            op = invoke(argv + ["--asymptotic"])
            ops.append(op)
            if _require_exit(op):
                self._check_asymptotic(op)
        op = invoke(["roots", "--table", *ROOTS_TABLE])
        ops.append(op)
        if _require_exit(op):
            self._check_roots(op)
        op = invoke(["fit", "--from-traces", *map(str, self.traces)])
        ops.append(op)
        if _require_exit(op):
            self._check_fit(op)
        return ops

    def census(self, invoke) -> list[Op]:
        """``radial`` on every point of the grid, untimed; one Op per point.

        A refusal (exit 1) at a point refused at the defining commit is
        recorded, not a problem: it is the optimizer's known weakness at
        small gamma * m. A refusal anywhere else, any other non-zero exit,
        and a solved point that fails the stationarity gate are problems.
        """
        ops = []
        for point in RADIAL_GRID:
            op = invoke(_radial_argv(*point))
            ops.append(op)
            if op.code == 0:
                self._check_radial(op)
            elif not (op.code == 1 and point in RADIAL_REFUSED):
                _require_exit(op)
        return ops

    def _check_energy(self, op: Op, state) -> None:
        total = _number(op.stdout, "total")
        if not _close(total, state["energy"], 1e-12):
            op.problems.append(f"printed total {total!r} != total_energy {state['energy']!r}")

    def _check_dipole(self, op: Op, state, moved: Path) -> None:
        """The printed shift zeroes the dipole, and the output is u, v moved by it."""
        pk, grid, params = self.pk, state["grid"], state["params"]
        shift = [float(x) for x in op.stdout.split("shift", 1)[1].split()[: grid.dim]]
        before = pk.read_checkpoint(state["checkpoint"])
        after = pk.read_checkpoint(moved)
        f, _ = pk.energy.interpolant_pair(params)
        w = f(before.u.values) - f(before.v.values) / params.zeta
        w = _translate(w - w.mean(), grid, shift)
        scale = float(abs(w).sum()) * grid.cell_volume * max(grid.lengths)
        moment = float(abs(pk.analysis.dipole_moment(pk.Field(grid, w))).max())
        if not moment < 1e-8 * scale:
            op.problems.append(f"dipole moment {moment!r} not below 1e-8 * {scale!r}")
        for name in ("u", "v"):
            expected = _translate(getattr(before, name).values, grid, shift)
            error = float(abs(getattr(after, name).values - expected).max())
            if not error <= 1e-12 * float(abs(expected).max()):
                op.problems.append(f"output {name} differs from the input moved by the shift by {error!r}")

    def _check_png(self, op: Op, path: Path, pixels: int) -> None:
        data = path.read_bytes() if path.exists() else b""
        if data[:8] != b"\x89PNG\r\n\x1a\n" or data[12:16] != b"IHDR":
            op.problems.append(f"{path.name} is not a PNG")
            return
        width, height = struct.unpack(">II", data[16:24])
        if width * height != pixels:
            op.problems.append(f"{path.name} is {width}x{height}, expected {pixels} pixels")

    def _check_stack(self, op: Op, directory: Path, grid) -> None:
        planes = sorted(directory.glob("plane_*.png"))
        if len(planes) != grid.points[2]:
            op.problems.append(f"{len(planes)} planes written, expected {grid.points[2]}")
        for plane in planes:
            self._check_png(op, plane, grid.size // grid.points[2])

    def _check_radial(self, op: Op) -> None:
        found = re.search(r"^stationarity_residual (\S+) (\S+)$", op.stdout, re.MULTILINE)
        residual = [float(x) for x in found.groups()] if found else [math.nan]
        e_per_m = _number(op.stdout, "E/m")
        if not (all(abs(r) < 1e-8 for r in residual) and e_per_m > 0):
            op.problems.append(f"stationarity residual {residual} or E/m {e_per_m!r} out of range")

    def _check_asymptotic(self, op: Op) -> None:
        e_per_m = _number(op.stdout, "E/m")
        leading = _number(op.stdout, "E/m leading")
        if not (math.isfinite(e_per_m) and e_per_m >= leading):
            op.problems.append(f"asymptotic E/m {e_per_m!r} below its leading term {leading!r}")

    def _check_roots(self, op: Op) -> None:
        ref = REFERENCE["analyze"]
        for key in ("zeta0", "zeta1", "zeta2"):
            value = _number(op.stdout, key)
            if not _close(value, ref[key], 1e-12):
                op.problems.append(f"{key} {value!r} != {ref[key]!r}")
        rows = op.stdout.split("zeta c branch applicable")[-1].split("\n")
        if sum(1 for row in rows if row.strip()) != int(ROOTS_TABLE[2]):
            op.problems.append("c(zeta) table has the wrong number of rows")

    def _check_fit(self, op: Op) -> None:
        for key, truth in zip("abp", self.fit_truth):
            value = _number(op.stdout, key)
            if not _close(value, truth, 1e-6):
                op.problems.append(f"fit {key} {value!r} != {truth!r}")


def make(name: str, seed: int, work: Path):
    if name == "analyze":
        return Analyze(seed, work)
    if name in ("relax2d", "relax3d"):
        return Relax(name, seed, work)
    raise ValueError(f"unknown workload {name!r}")
