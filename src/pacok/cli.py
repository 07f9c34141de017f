"""Command-line surface: run | energy | radial | roots | fit | render | dipole.

Exit codes: 0 success, 1 usage error, 2 numeric divergence, 3 IO/corrupt file,
130 interrupted (SIGINT). A diverged run writes ``ckpt_lastgood.okpf``, the
last state whose samples are finite, before it exits 2 (still 2, with an io
error line first, when that write fails).
All numbers print with 17 significant digits.

run, energy, dipole and render --stack work on two threads when a field
takes at least 1 MiB and two CPUs are offered (``dynamics._Workers``, taken
as a ``with`` item, whose end stops the helper); their output is bitwise
that of one thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import analysis, dynamics, initcond, radial, storage
from .energy import charge_density, total_energy
from .errors import CorruptCheckpointError, DivergenceError, PacokError
from .grid import Field, apply_multiplier, spectrum_buffer, translation


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by every later
    :func:`main` call: parsing keeps no state in it, so reuse is safe."""
    parser = _Parser(prog="pacok", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve the gradient flow from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", help="override the config's output directory")

    p_energy = sub.add_parser("energy", help="energy breakdown of a checkpoint")
    p_energy.add_argument("--config", required=True)
    p_energy.add_argument("--checkpoint", required=True)

    p_radial = sub.add_parser("radial", help="sharp-interface radial candidates")
    p_radial.add_argument("--n", type=int, choices=(2, 3), required=True)
    p_radial.add_argument("--zeta", type=float, required=True)
    p_radial.add_argument("--gamma", type=float, required=True)
    p_radial.add_argument("--m", type=float, required=True)
    p_radial.add_argument("--equal-mass", action="store_true")
    p_radial.add_argument("--asymptotic", action="store_true",
                          help="print the series prediction instead of optimizing")

    p_roots = sub.add_parser("roots", help="morphology thresholds and c(zeta)")
    p_roots.add_argument("--table", nargs=3, metavar=("ZMIN", "ZMAX", "COUNT"),
                         help="also print a c(zeta) table")

    p_fit = sub.add_parser("fit", help="fit ratio = a + b*m^-p to points")
    p_fit.add_argument("--points", help="CSV of m,ratio rows (optional header)")
    p_fit.add_argument("--from-traces", nargs="+",
                       help="trace files; each contributes its final (mass_u, E/mass_u)")
    p_fit.add_argument("--fix-p", type=float, default=None)

    p_render = sub.add_parser("render", help="PNG cross-section(s) of a checkpoint")
    p_render.add_argument("--checkpoint", required=True)
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--axis", choices=("x", "y", "z"), default="z")
    planes = p_render.add_mutually_exclusive_group()
    planes.add_argument("--index", type=int, default=None)
    planes.add_argument("--stack", action="store_true",
                        help="write every plane along --axis as NAME_NNN.png")

    p_dipole = sub.add_parser("dipole", help="translate a checkpoint to zero dipole")
    p_dipole.add_argument("--config", required=True)
    p_dipole.add_argument("--checkpoint", required=True)
    p_dipole.add_argument("--out", required=True)
    return parser


def _read_state(path, cfg: storage.RunConfig) -> dynamics.RunState:
    """The checkpoint at ``path``, refused unless it lies on the config's grid,
    whose parameters (eps, gamma, m, K1, K2) were chosen for that grid."""
    state = storage.read_checkpoint(path)
    if state.u.grid != cfg.grid:
        raise PacokError("checkpoint grid does not match the config grid")
    return state


def _initial_state(cfg: storage.RunConfig) -> dynamics.RunState:
    """The run's first state: a checkpoint as read, or a shape seed built on
    the grid; then the perturbation, and for a shape seed the mass rescale."""
    restart = isinstance(cfg.init, str)
    if restart:
        state = _read_state(cfg.init, cfg)
    else:
        u, v = initcond.build_bilayer(cfg.init, cfg.grid)
        state = dynamics.RunState(u=u, v=v)
    if cfg.perturb is not None:
        if isinstance(cfg.perturb, storage.NoisePerturbation):
            u = initcond.add_noise(state.u, cfg.perturb.amplitude, cfg.perturb.seed)
            v = initcond.add_noise(state.v, cfg.perturb.amplitude, cfg.perturb.seed + 1)
        else:
            u, v = initcond.perforate(state.u, state.v, cfg.perturb.center, cfg.perturb.radius)
        state = dynamics.RunState(u=u, v=v, time=state.time, step=state.step)
    if cfg.rescale_masses and not restart:
        state = dynamics.RunState(
            u=initcond.mass_rescale(state.u, cfg.params.mass),
            v=initcond.mass_rescale(state.v, cfg.params.zeta * cfg.params.mass),
            time=state.time,
            step=state.step,
        )
    return state


def _cmd_run(args) -> int:
    cfg = storage.load_config(args.config)
    if args.output:
        cfg = dataclasses.replace(cfg, output_dir=args.output)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state = _initial_state(cfg)
    trace_path = out_dir / "trace.csv"
    # a restart that steps on skips its input: the run that wrote it traced it last
    resumed = isinstance(cfg.init, str) and cfg.stepper.max_steps > 0

    def on_trace(step, time, energy, residual):
        if not (resumed and step == state.step):
            storage.append_trace(trace_path, step, time, energy, energy.masses, residual)

    def on_checkpoint(current):
        storage.write_checkpoint(out_dir / f"ckpt_{current.step:08d}.okpf", current)

    # a diverging run overflows on its way to the non-finite sample or energy
    # that run() reports as DivergenceError; numpy's warnings would only precede it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = dynamics.run(state, cfg.params, cfg.stepper, on_trace=on_trace,
                                  on_checkpoint=on_checkpoint)
        except DivergenceError as exc:  # keep the last state with finite samples, then exit 2
            try:
                storage.write_checkpoint(out_dir / "ckpt_lastgood.okpf", exc.state)
            except OSError as failed:  # the divergence stays the run's outcome
                print(f"io error: {failed}", file=sys.stderr)
            raise
    storage.write_checkpoint(out_dir / "ckpt_final.okpf", result.state)
    energy = result.energy.total
    print(f"terminated: {result.reason} after step {result.state.step}")
    print(f"residual {_fmt(result.residual)}")
    print(f"E {_fmt(energy)}  E/m {_fmt(energy / cfg.params.mass)}")
    return 0


def _cmd_energy(args) -> int:
    cfg = storage.load_config(args.config)
    state = _read_state(args.checkpoint, cfg)
    with dynamics._Workers.for_grid(state.u.grid) as workers:
        breakdown = total_energy(state.u, state.v, cfg.params, schedule=workers)
    mass_u, mass_v = breakdown.masses
    print(f"perimeter {_fmt(breakdown.perimeter)}")
    print(f"nonlocal {_fmt(breakdown.nonlocal_)}")
    print(f"constraint {_fmt(breakdown.constraint)}")
    print(f"v_regularization {_fmt(breakdown.v_regularization)}")
    print(f"total {_fmt(breakdown.total)}")
    print(f"E/m {_fmt(breakdown.total / cfg.params.mass)}")
    print(f"mass_u {_fmt(mass_u)}")
    print(f"mass_v {_fmt(mass_v)}")
    return 0


def _cmd_radial(args) -> int:
    if args.asymptotic:
        pred = radial.asymptotic_liposome(args.m, args.zeta, args.gamma, args.n,
                                          equal_mass=args.equal_mass)
        leading = radial.branch_bilayer(args.zeta) * args.gamma ** (1.0 / 3.0)
        print(f"E/m {_fmt(pred.energy_per_mass)}")
        print(f"E/m leading {_fmt(leading)}")
        print(f"thickness_inner {_fmt(pred.thickness_inner)}")
        print(f"thickness_middle {_fmt(pred.thickness_middle)}")
        print(f"thickness_outer {_fmt(pred.thickness_outer)}")
        print(f"mid_radius {_fmt(pred.mid_radius)}")
        print(f"shell_mass_imbalance {_fmt(pred.shell_mass_imbalance)}")
        print(f"remainder {pred.remainder_order}")
        return 0
    cand = radial.optimize_liposome(args.m, args.zeta, args.gamma, args.n,
                                    equal_mass=args.equal_mass)
    energy = radial.liposome_energy(cand, args.gamma)
    res = radial.stationarity_residual(cand, args.gamma)
    print("radii " + " ".join(_fmt(r) for r in cand.radii))
    print("thicknesses " + " ".join(_fmt(t) for t in cand.thicknesses))
    print(f"perimeter {_fmt(energy.perimeter)}")
    print(f"nonlocal {_fmt(energy.nonlocal_)}")
    print(f"E {_fmt(energy.total)}")
    print(f"E/m {_fmt(energy.total / args.m)}")
    print("stationarity_residual " + " ".join(_fmt(r) for r in res))
    return 0


def _cmd_roots(args) -> int:
    th = radial.thresholds()
    print(f"zeta0 {_fmt(th.zeta0)}")
    print(f"zeta1 {_fmt(th.zeta1)}")
    print(f"zeta2 {_fmt(th.zeta2)}")
    if args.table:
        zmin, zmax, count = float(args.table[0]), float(args.table[1]), int(args.table[2])
        print("zeta c branch applicable")
        for z in np.linspace(zmin, zmax, count):
            point = radial.morphology(float(z))
            print(f"{_fmt(z)} {_fmt(point.value)} {point.branch} {point.applicable}")
    return 0


def _read_points(path) -> list[list[float]]:
    """The (m, ratio) rows of a points file: two finite numbers a line,
    separated by a comma or blanks. Blank lines are skipped, and the first
    line may be a header, one with a field that is not a number; any other
    line is a ValueError that names the file and the line."""
    points = []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = line.replace(",", " ").split()
        if not parts:
            continue
        try:
            values = [float(part) for part in parts]
        except ValueError:
            if number == 1:
                continue  # the header
            values = []
        if len(values) != 2 or not np.isfinite(values).all():
            raise ValueError(f"{path} line {number}: expected two finite numbers, got {line!r}")
        points.append(values)
    return points


def _load_points(args) -> np.ndarray:
    points = _read_points(args.points) if args.points else []
    if args.from_traces:
        for trace_file in args.from_traces:
            columns = storage.read_trace(trace_file)
            if len(columns["E"]) == 0:
                raise ValueError(f"empty trace {trace_file}")
            mass = columns["mass_u"][-1]
            points.append([mass, columns["E"][-1] / mass])
    return np.asarray(points, dtype=np.float64)


def _cmd_fit(args) -> int:
    points = _load_points(args)
    result = analysis.fit_energy_mass(points, fix_p=args.fix_p)
    print(f"a {_fmt(result.a)}")
    print(f"b {_fmt(result.b)}")
    print(f"p {_fmt(result.p)}")
    print(f"rms_residual {_fmt(result.rms_residual)}")
    return 0


def _cmd_render(args) -> int:
    state = storage.read_checkpoint(args.checkpoint)
    if state.u.grid.dim == 2 and (args.stack or args.index is not None):
        flag = "--stack" if args.stack else "--index"
        raise ValueError(f"{flag} needs a 3-D checkpoint; a 2-D one renders as a single image")
    if args.stack:
        with dynamics._Workers.for_grid(state.u.grid) as workers:
            count = storage.render_stack(state.u, state.v, args.axis, args.out, workers)
        print(f"wrote {count} planes to {Path(args.out).parent}")
        return 0
    storage.render_cross_section(state.u, state.v, (args.axis, args.index), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_dipole(args) -> int:
    cfg = storage.load_config(args.config)
    state = _read_state(args.checkpoint, cfg)
    grid = state.u.grid
    w = charge_density(state.u, state.v, cfg.params)
    w -= w.mean()
    shift = analysis.zero_dipole_shift(Field(grid, w))
    del w
    # the same translation of both phases, one beside the other, in place:
    # the checkpoint's arrays are this command's own
    phases = translation(grid, shift)
    specs = spectrum_buffer(grid), spectrum_buffer(grid)
    u, v = state.u.values, state.v.values
    with dynamics._Workers.for_grid(grid) as workers:
        workers.pair(lambda: apply_multiplier(grid, u, *phases, spec=specs[0], out=u),
                     lambda: apply_multiplier(grid, v, *phases, spec=specs[1], out=v))
    storage.write_checkpoint(args.out, dynamics.RunState(
        u=Field(grid, u), v=Field(grid, v), time=state.time, step=state.step))
    print("shift " + " ".join(_fmt(t) for t in shift))
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    handlers = {
        "run": _cmd_run,
        "energy": _cmd_energy,
        "radial": _cmd_radial,
        "roots": _cmd_roots,
        "fit": _cmd_fit,
        "render": _cmd_render,
        "dipole": _cmd_dipole,
    }
    try:
        return handlers[args.command](args)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    except (CorruptCheckpointError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (PacokError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
