"""Benchmark of pacok, driven through its command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload relax2d --seed 1 --seconds 30 --trace 0

Workloads: relax2d, relax3d, analyze (see perfbench/README.md). Each
invocation is one fresh single-threaded process. It writes its inputs from
the seed, then calls ``pacok.cli.main`` in-process, one command at a time
(closed loop), for about ``--seconds`` of timed units, and gates every
output.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds per
timed unit), ``setup_s`` (median over fresh processes of importing pacok
plus a zero-step run), both in reference-host seconds (see hostclock.py),
and ``peak_rss_mb``. ``--trace 1`` alternates untraced and traced units and
reports the per-layer metrics of the traced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Scratch files go to .perfbench_work/ at the
repository root.
"""

import os

# One thread for every numeric library; must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import workloads
from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
MIN_UNITS = 3  # untraced units in a --trace 0 run
MIN_PAIRS = 2  # untraced/traced pairs in a --trace 1 run
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("relax2d", "relax3d", "analyze"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe_setup(config: Path, output: Path) -> float:
    """Import plus zero-step run, timed inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(SRC), str(config), str(output)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    shutil.rmtree(output, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}:\n{done.stderr[-2000:]}")
    times = json.loads(done.stdout.strip().splitlines()[-1])
    return times["import_s"] + times["run_s"]


class Harness:
    """Runs CLI commands in-process, timed, optionally inside the tracer."""

    def __init__(self, cli, tracer, clock):
        self.cli, self.tracer, self.clock = cli, tracer, clock

    def invoke(self, argv, traced=False) -> workloads.Op:
        out, err = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.install()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    if traced:
                        code = self.tracer.span("cli.main", self.cli.main, argv)
                    else:
                        code = self.cli.main(argv)
                except Exception:  # a crash the CLI did not map to an exit code
                    code = None
                    traceback.print_exc()
                seconds = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        return workloads.Op(argv, code, out.getvalue(), err.getvalue(), seconds)

    def measure(self, workload, seconds: float, alternate: bool) -> list[dict]:
        """Timed units until the next one would overrun ``seconds``.

        With ``alternate`` the units go untraced, traced, untraced, ... and at
        least MIN_PAIRS of each kind run; otherwise at least MIN_UNITS run.
        The host clock, if any, is sampled before every unit and once after
        the last.
        """
        units, start = [], time.perf_counter()
        minimum = 2 * MIN_PAIRS if alternate else MIN_UNITS
        while True:
            if self.clock:
                self.clock.sample()
            traced = alternate and len(units) % 2 == 1
            ops = workload.run_unit(lambda argv: self.invoke(argv, traced), len(units))
            wall = sum(op.seconds for op in ops)
            spans = self.tracer.take() if traced else None
            units.append({"traced": traced, "wall": wall, "ops": ops, "spans": spans})
            elapsed = time.perf_counter() - start
            if len(units) >= minimum and elapsed * (len(units) + 1) / len(units) > seconds:
                if self.clock:
                    self.clock.sample()
                return units


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report_failures(ops, work: Path) -> None:
    failures = Counter()
    for op in ops:
        if op.failed:
            reason = "; ".join(op.problems) or (op.stderr.strip().splitlines() or ["?"])[-1]
            failures[" ".join(["pacok", *op.argv]), reason] += 1
    lines = [f"{count}x {argv} -> {reason}" for (argv, reason), count in sorted(failures.items())]
    (work / "failures.txt").write_text("".join(line + "\n" for line in lines))
    for line in lines:
        print(f"failed: {line}")


def main(argv=None) -> int:
    args = _parse(argv)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.make(args.workload, args.seed, work)
    setup, setup_clock, loop_clock = [], None, None
    if not args.trace:
        setup_clock, loop_clock = HostClock(), HostClock()
        setup_clock.sample()
        for i in range(SETUP_REPEATS):
            setup.append(_probe_setup(workload.setup_config, work / f"setup{i}"))
            setup_clock.sample()

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import pacok
    from pacok import cli

    import_s = time.perf_counter() - start
    if not Path(pacok.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pacok was imported from {pacok.__file__}, not from {SRC}")
    import tracing

    workload.prepare(pacok)
    harness = Harness(cli, tracing.Tracer() if args.trace else None, loop_clock)
    census = workload.census(harness.invoke)
    units = harness.measure(workload, args.seconds, alternate=bool(args.trace))

    ops = [op for unit in units for op in unit["ops"]]
    _report_failures(ops + [op for op in census if op.problems], work)
    refused = [op for op in census if op.code == 1]
    if census:
        print(f"radial grid census (untimed, not counted as operations): {len(refused)} of "
              f"{len(census)} points refused")
        for op in refused:
            print(f"refused: pacok {' '.join(op.argv)} -> {(op.stderr.strip().splitlines() or ['?'])[-1]}")
    plain = [unit["wall"] for unit in units if not unit["traced"]]
    print(f"{args.workload} seed {args.seed}: {len(ops)} commands in {len(units)} units; unit wall s: "
          + ", ".join(f"{unit['wall']:.4f}{' traced' if unit['traced'] else ''}" for unit in units))
    if args.trace:
        traced = [unit for unit in units if unit["traced"]]
        per_unit = [tracing.layer_metrics(unit["spans"], unit["wall"]) for unit in traced]
        values = {name: statistics.median(m[name] for m in per_unit) for name in per_unit[0]}
        if census:
            values["radial.optimize_liposome.failed"] = len(refused)
        values["import.pacok_s"] = import_s
        values["trace.overhead"] = (statistics.median(unit["wall"] for unit in traced)
                                    / statistics.median(plain) - 1.0)
        metrics = {name: _metric(values[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()}
        with (work / "spans.jsonl").open("w") as handle:
            for index, unit in enumerate(traced):
                for name, begin, end, parent, _ in unit["spans"]:
                    handle.write(json.dumps({"unit": index, "name": name, "start": begin,
                                             "end": end, "parent": parent}) + "\n")
    else:
        values = {
            "wall_s": statistics.median(plain) * loop_clock.factor(),
            "setup_s": statistics.median(setup) * setup_clock.factor(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"setup s per fresh process: {', '.join(f'{s:.4f}' for s in setup)}")
        for name, clock in (("set-up", setup_clock), ("unit", loop_clock)):
            print(f"host kernel s during {name} timing: "
                  f"{', '.join(f'{s:.4f}' for s in clock.samples)}; factor {clock.factor():.4f}")
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": not any(op.problems for op in ops + census),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
