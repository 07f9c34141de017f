"""Per-phase times of one convex-splitting step, appended to ``BENCH_step.json``.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/bench_step.py --tier1-s SECONDS --label TEXT

A step (``dynamics._Stepper.advance``) makes four top-level hand-offs of its
``_Workers``: a rows ``split`` (densities and the Poisson transform over the
inner axes), a columns ``pair`` (the Poisson solve along axis 0 beside the
masses), a rows ``split`` (the inverse and the half-step z - lam*F) and a
``pair`` of the u and v solves with their residuals. This script times them
by wrapping one ``_Workers`` instance's ``split`` and ``pair`` from outside,
so the package keeps no timer. Per grid (128^2, 256^2, 48^3, 64^3) and per
schedule (one worker; two workers, forced whatever the field size), each
repeat times a burst of steps after two warm ones and takes the mean ms
per phase and per step, in rounds over all of them; the record holds the
median and quartiles over the repeats, with the numpy and scipy versions,
the CPU count, the source's git revision and the Tier-1 wall time given
on the command line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy

import pacok as pk
from pacok import initcond
from pacok.dynamics import _Stepper, _Workers

PHASES = ("rows_densities", "columns_poisson", "rows_half_step", "solves")
GRIDS = {"128^2": (128, 128), "256^2": (256, 256), "48^3": (48, 48, 48), "64^3": (64, 64, 64)}
CFG = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=1, stop_tol=np.inf)
REPEATS = 9  # rounds over every grid and schedule
BURST_S = 0.3  # about how long each repeat of one case steps
OUT = Path("BENCH_step.json")


def noisy_shell(points):
    """A noisy bilayer shell on a box of side 2 and parameters whose mass
    targets it matches, so that its steps stay tame."""
    grid = pk.GridSpec(points, (2.0,) * len(points))
    center = (1.0,) * len(points)
    spec = pk.BilayerSpec(shape=pk.Shell(center=center, inner_radius=0.3, outer_radius=0.45),
                          epsilon=0.1, zeta=1.0)
    u, v = pk.build_bilayer(spec, grid)
    u, v = initcond.add_noise(u, 0.01, seed=3), initcond.add_noise(v, 0.01, seed=4)
    f = pk.energy.interpolant
    mass_u, mass_v = pk.integrate(pk.Field(grid, f(u.values))), pk.integrate(pk.Field(grid, f(v.values)))
    params = pk.PhysParams(zeta=mass_v / mass_u, gamma=1500.0, mass=mass_u, epsilon=0.1,
                           K1=3e4, K2=4800.0)
    return pk.RunState(u=u, v=v), params


class PhaseClock:
    """Wraps ``workers.split`` and ``workers.pair`` on the instance; a call
    made inside another (``split`` hands its halves to ``pair`` with two
    workers) is not timed apart."""

    def __init__(self, workers: _Workers):
        self.laps: list[float] = []
        self._inside = False
        workers.split = self._timed(workers.split)
        workers.pair = self._timed(workers.pair)

    def _timed(self, call):
        def timed(*args):
            if self._inside:
                return call(*args)
            self._inside = True
            start = time.perf_counter()
            try:
                return call(*args)
            finally:
                self.laps.append(time.perf_counter() - start)
                self._inside = False

        return timed


def measure() -> dict:
    """{grid: {"one"|"two": phases}}. Each repeat is one round over every
    grid and schedule, so the host's drift during a run spreads over all of
    them and shows in each one's quartiles."""
    cases = [(name, workers) for name in GRIDS for workers in ("one", "two")]
    with contextlib.ExitStack() as stack:
        steppers, clocks, steps, laps = {}, {}, {}, {case: [] for case in cases}
        for name, workers in cases:
            state, params = noisy_shell(GRIDS[name])
            schedule = stack.enter_context(_Workers(state.u.grid, workers == "two"))
            clocks[name, workers] = PhaseClock(schedule)
            stepper = steppers[name, workers] = _Stepper(state, params, CFG, schedule)
            stepper.advance()  # warm the FFT plans and the helper
            start = time.perf_counter()
            stepper.advance()
            steps[name, workers] = max(5, round(BURST_S / (time.perf_counter() - start)))
        for _ in range(REPEATS):
            for case in cases:
                stepper, clock, count = steppers[case], clocks[case], steps[case]
                clock.laps.clear()
                start = time.perf_counter()
                for _ in range(count):
                    stepper.advance()
                step_s = (time.perf_counter() - start) / count
                phases = np.array(clock.laps).reshape(count, len(PHASES)).mean(axis=0)
                laps[case].append([*phases, step_s])
        for case, stepper in steppers.items():
            if not (np.isfinite(stepper.u).all() and np.isfinite(stepper.v).all()):
                raise RuntimeError(f"the {case} run diverged")
    result = {name: {} for name in GRIDS}
    for (name, workers), rows in laps.items():
        q1, median, q3 = np.percentile(1e3 * np.array(rows), [25, 50, 75], axis=0)
        result[name][workers] = {
            "steps_per_repeat": steps[name, workers],
            **{phase: {"median_ms": round(float(m), 4), "q1_ms": round(float(a), 4),
                       "q3_ms": round(float(b), 4)}
               for phase, m, a, b in zip((*PHASES, "step"), median, q1, q3)}}
    return result


def git_revision() -> str:
    source = Path(pk.__file__).resolve().parent
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=source,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier1-s", type=float, required=True,
                        help="wall seconds of the Tier-1 suite on this tree and host")
    parser.add_argument("--label", default="", help="what the record measures")
    args = parser.parse_args()
    grids = measure()
    record = {
        "label": args.label,
        "git_revision": git_revision(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "tier1_wall_s": args.tier1_s,
        "repeats": REPEATS,
        "grids": grids,
    }
    records = json.loads(OUT.read_text()) if OUT.exists() else []
    records.append(record)
    OUT.write_text(json.dumps(records, indent=1) + "\n")
    for name, schedules in grids.items():
        for workers, phases in schedules.items():
            print(name, workers, " ".join(f"{phase} {phases[phase]['median_ms']:.3f}"
                                          for phase in (*PHASES, "step")))


if __name__ == "__main__":
    main()
