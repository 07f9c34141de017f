"""Spans for the traced run, recorded from outside the program.

While installed, the tracer replaces public callables with timing wrappers
at the place their callers look them up (``numpy.fft.rfftn``,
``pacok.dynamics.total_energy``, ``pacok.storage.write_checkpoint``, ...).
Each call becomes a span ``[name, start, end, parent, attrs]`` kept in
memory; per-layer metrics are derived from the spans of one timed unit.
Uninstalling restores every original, so untraced units run the program
exactly as shipped.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import numpy.fft

# (unit, better) of every per-layer metric, in report order
PER_LAYER = {
    "dynamics.steps": ("count", "lower"),
    "dynamics.step_ms": ("ms", "lower"),
    "dynamics.self_share": ("ratio", "lower"),
    "fft.calls_per_step": ("count", "lower"),
    "fft.ms_per_step": ("ms", "lower"),
    "fft.share": ("ratio", "lower"),
    "energy.W_grad.calls": ("count", "lower"),
    "energy.W_grad.ms": ("ms", "lower"),
    "energy.W_grad.GBps_min": ("GB/s", "higher"),
    "energy.total_energy.calls": ("count", "lower"),
    "energy.total_energy.ms": ("ms", "lower"),
    "storage.write_checkpoint.calls": ("count", "lower"),
    "storage.write_checkpoint.ms": ("ms", "lower"),
    "storage.write_checkpoint.MBps": ("MB/s", "higher"),
    "storage.append_trace.calls": ("count", "lower"),
    "storage.append_trace.ms": ("ms", "lower"),
    "storage.read_checkpoint.ms": ("ms", "lower"),
    "storage.read_checkpoint.MBps": ("MB/s", "higher"),
    "storage.render_cross_section.ms": ("ms", "lower"),
    "storage.load_config.ms": ("ms", "lower"),
    "initcond.build_bilayer.ms": ("ms", "lower"),
    "initcond.mass_rescale.ms": ("ms", "lower"),
    "radial.optimize_liposome.calls": ("count", "lower"),
    "radial.optimize_liposome.ms": ("ms", "lower"),
    "radial.optimize_liposome.failed": ("count", "lower"),
    "radial.asymptotic_liposome.ms": ("ms", "lower"),
    "analysis.zero_dipole_shift.ms": ("ms", "lower"),
    "analysis.fit_energy_mass.ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "import.pacok_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# Bytes of one potential_W_grad call, at least: u and v in, dW/du and dW/dv
# out, 8 bytes each per grid point. Computed from array sizes, not measured.
_W_GRAD_BYTES_PER_POINT = 4 * 8


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _grid_points(args, kwargs, result):
    return {"points": args[0].size}


def _steps_taken(args, kwargs, result):
    return {"steps": result.state.step - args[0].step}


class Tracer:
    """In-memory span recorder that wraps callables where callers find them."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (the harness's root span)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = {"failed": 1}
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                record[4] = after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, after))

    def install(self) -> None:
        """Wrap numpy.fft and the pacok module attributes the CLI calls."""
        from pacok import analysis, cli, dynamics, initcond, radial, storage

        self._patch(numpy.fft, "rfftn", "fft.rfftn")
        self._patch(numpy.fft, "irfftn", "fft.irfftn")
        self._patch(dynamics, "potential_W_grad", "energy.W_grad", _grid_points)
        self._patch(dynamics, "total_energy", "energy.total_energy")
        self._patch(cli, "total_energy", "energy.total_energy")
        original_run = dynamics.run

        def run_with_traced_callbacks(*args, **kwargs):
            for key in ("on_trace", "on_checkpoint"):
                if kwargs.get(key) is not None:
                    kwargs[key] = self._wrap(kwargs[key], "cli.callback")
            return original_run(*args, **kwargs)

        self._saved.append((dynamics, "run", original_run))
        dynamics.run = self._wrap(run_with_traced_callbacks, "dynamics.run", _steps_taken)
        for attr in ("load_config", "append_trace", "read_trace", "render_cross_section"):
            self._patch(storage, attr, f"storage.{attr}")
        self._patch(storage, "write_checkpoint", "storage.write_checkpoint", _file_bytes)
        self._patch(storage, "read_checkpoint", "storage.read_checkpoint", _file_bytes)
        for attr in ("build_bilayer", "add_noise", "perforate", "mass_rescale"):
            self._patch(initcond, attr, f"initcond.{attr}")
        for attr in ("optimize_liposome", "asymptotic_liposome", "liposome_energy",
                     "stationarity_residual", "thresholds", "morphology"):
            self._patch(radial, attr, f"radial.{attr}")
        for attr in ("zero_dipole_shift", "fit_energy_mass"):
            self._patch(analysis, attr, f"analysis.{attr}")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Spans recorded since the last take; the recorder starts empty again."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def layer_metrics(spans: list[list], wall: float) -> dict[str, float]:
    """Per-layer metrics of one timed unit from its spans.

    Self time is a span's duration minus the durations of its direct
    children. Step metrics count only work directly under ``dynamics.run``,
    so the trace-cadence energy and the CLI callbacks are not stepping.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    total, self_time = defaultdict(float), defaultdict(float)
    calls, extra = Counter(), Counter()
    step_fft_calls, step_fft_s, run_not_stepping = 0, 0.0, 0.0
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        total[name] += dur[i]
        self_time[name] += dur[i] - child[i]
        calls[name] += 1
        for key, value in (attrs or {}).items():
            extra[name, key] += value
        if parent >= 0 and spans[parent][0] == "dynamics.run":
            if name.startswith("fft."):
                step_fft_calls += 1
                step_fft_s += dur[i]
            elif name in ("energy.total_energy", "cli.callback"):
                run_not_stepping += dur[i]

    def ms(name):
        return 1e3 * total[name]

    def rate(name, key, scale):
        seconds = total[name]
        return extra[name, key] * scale / seconds if seconds > 0 else 0.0

    steps = extra["dynamics.run", "steps"]
    per_step = 1.0 / steps if steps else 0.0
    fft_s = total["fft.rfftn"] + total["fft.irfftn"]
    return {
        "dynamics.steps": steps,
        "dynamics.step_ms": 1e3 * (total["dynamics.run"] - run_not_stepping) * per_step,
        "dynamics.self_share": self_time["dynamics.run"] / wall,
        "fft.calls_per_step": step_fft_calls * per_step,
        "fft.ms_per_step": 1e3 * step_fft_s * per_step,
        "fft.share": fft_s / wall,
        "energy.W_grad.calls": calls["energy.W_grad"],
        "energy.W_grad.ms": ms("energy.W_grad"),
        "energy.W_grad.GBps_min": rate("energy.W_grad", "points", _W_GRAD_BYTES_PER_POINT / 1e9),
        "energy.total_energy.calls": calls["energy.total_energy"],
        "energy.total_energy.ms": ms("energy.total_energy"),
        "storage.write_checkpoint.calls": calls["storage.write_checkpoint"],
        "storage.write_checkpoint.ms": ms("storage.write_checkpoint"),
        "storage.write_checkpoint.MBps": rate("storage.write_checkpoint", "bytes", 1e-6),
        "storage.append_trace.calls": calls["storage.append_trace"],
        "storage.append_trace.ms": ms("storage.append_trace"),
        "storage.read_checkpoint.ms": ms("storage.read_checkpoint"),
        "storage.read_checkpoint.MBps": rate("storage.read_checkpoint", "bytes", 1e-6),
        "storage.render_cross_section.ms": ms("storage.render_cross_section"),
        "storage.load_config.ms": ms("storage.load_config"),
        "initcond.build_bilayer.ms": ms("initcond.build_bilayer"),
        "initcond.mass_rescale.ms": ms("initcond.mass_rescale"),
        "radial.optimize_liposome.calls": calls["radial.optimize_liposome"],
        "radial.optimize_liposome.ms": ms("radial.optimize_liposome"),
        "radial.optimize_liposome.failed": extra["radial.optimize_liposome", "failed"],
        "radial.asymptotic_liposome.ms": ms("radial.asymptotic_liposome"),
        "analysis.zero_dipole_shift.ms": ms("analysis.zero_dipole_shift"),
        "analysis.fit_energy_mass.ms": ms("analysis.fit_energy_mass"),
        "cli.self_ms": 1e3 * (self_time["cli.main"] + self_time["cli.callback"]),
    }
