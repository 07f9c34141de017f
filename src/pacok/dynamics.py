"""Semi-implicit convex-splitting integrator for the penalized L^2 gradient flow.

The flow is du/dt = -L1 dE/du, dv/dt = -L2 dE/dv (pACOK dynamics). The well
splits as W = W1 + W2 with the convex quadratic W1 = 87u^2/2 + 27uv + 27v^2;
diffusion and the diagonal pieces (87/eps)u, (54/eps)v of grad W1 are implicit,
everything else (cross terms, grad W2, nonlocal coupling, mass penalties) is
the explicit force (F_u, F_v) of :class:`~pacok.energy.ExplicitForce` at the
old state. Each Fourier mode then updates by a scalar division:

    u+ = (u - dt*L1*F_u)^ / (1 + dt*L1*(eps|k|^2 + 87/eps))
    v+ = (v - dt*L2*F_v)^ / (1 + dt*L2*(2*v_reg|k|^2 + 54/eps))

Fixed points of the update are exactly the zeros of both variational
derivatives. Stability for every dt holds only for the linearized scheme,
with W2, the nonlocal coupling and the mass penalties switched off: there
the 2x2 update matrix of every mode has spectral radius <= 1 because
27^2 <= 87*54. The full scheme has no such guarantee; with the explicit mass
penalties a large dt can raise the energy or diverge, which :func:`run`
reports as :class:`DivergenceError`.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .energy import (
    A_UU,
    A_VV,
    EnergyBreakdown,
    ExplicitForce,
    PhysParams,
    charge_density,
    total_energy,
)
from .errors import DivergenceError, is_real, require_positive, whole_number
from .grid import (Field, GridSpec, _k_squared, apply_multiplier, poisson_solve,
                   require_same_grid, spectrum_buffer)

#: the field size from which a run steps on two threads when it may use two
#: CPUs: two were slower at 128^2 (128 KiB), unresolved at 256^2 (512 KiB)
#: and 48^3 (864 KiB), and faster at 64^3 (2 MiB) (README, "Threads")
TWO_WORKER_BYTES = 1 << 20


@dataclass(frozen=True)
class StepperConfig:
    """Mobilities, step size and run control."""

    L1: float
    L2: float
    dt: float
    max_steps: int
    stop_tol: float
    checkpoint_every: int = 1000
    trace_every: int = 100

    def __post_init__(self) -> None:
        require_positive(L1=self.L1, L2=self.L2, dt=self.dt)
        if not (is_real(self.stop_tol) and self.stop_tol > 0):  # inf switches the check off
            raise ValueError(f"stop_tol must be positive, got {self.stop_tol!r}")
        for name in ("max_steps", "checkpoint_every", "trace_every"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        require_positive(checkpoint_every=self.checkpoint_every, trace_every=self.trace_every)


@dataclass(frozen=True)
class RunState:
    """Instantaneous state of one run; u and v share a grid, time = step*dt."""

    u: Field
    v: Field
    time: float = 0.0
    step: int = 0

    def __post_init__(self) -> None:
        require_same_grid(self.u, self.v)


@dataclass(frozen=True)
class RunResult:
    """Final state and its energy, why the loop stopped, and the last residual."""

    state: RunState
    energy: EnergyBreakdown
    reason: str
    residual: float


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


class _Workers:
    """Runs the independent halves of a step's work: both on the calling
    thread, in order, or, with ``two``, the second on one helper thread while
    the first runs here.

    The helper starts at the first call that needs it and stops when the
    ``with`` block ends, so a run that takes no step starts no thread. It
    runs each call in a copy of the caller's context, and so under the
    caller's ``np.errstate``: numpy keeps that in a context variable, which
    a thread does not inherit. numpy releases the interpreter lock inside
    its ufuncs, reductions and FFTs, so the two threads drive both cores.
    """

    def __init__(self, two: bool = False):
        self.two = two
        self._helper = None

    @classmethod
    def for_grid(cls, grid: GridSpec) -> "_Workers":
        """Two workers when a field takes at least :data:`TWO_WORKER_BYTES`
        and the process may run on two CPUs; otherwise inline."""
        return cls(8 * grid.size >= TWO_WORKER_BYTES and _cpu_count() >= 2)

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, *exc) -> None:
        if self._helper is not None:
            self._helper.shutdown()
            self._helper = None

    def pair(self, first, second) -> tuple:
        """``(first(), second())``; returns or raises only when both are done."""
        if not self.two:
            return first(), second()
        if self._helper is None:
            from concurrent.futures import ThreadPoolExecutor  # ~5 ms, paid by stepping runs only
            self._helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="pacok-step")
        future = self._helper.submit(contextvars.copy_context().run, second)
        try:
            result = first()
        finally:
            other = future.result()  # the helper is done with the buffers
        return result, other

    def split(self, fn, slabs) -> list:
        """``[fn(slab) for slab in slabs]``, the later half on the second worker."""
        if not self.two:
            return [fn(slab) for slab in slabs]
        half = len(slabs) // 2
        first, second = self.pair(lambda: [fn(slab) for slab in slabs[:half]],
                                  lambda: [fn(slab) for slab in slabs[half:]])
        return first + second


class _Stepper:
    """One convex-splitting update on a fixed workspace.

    The workspace is allocated once per run: the force kernel's three field
    buffers and its half-spectrum buffer, plus the Fourier multipliers
    1/den_u and 1/den_v. A step costs six FFTs: two in the force's Poisson
    solve, then two for each implicit solve, which applies 1/den to
    u - dt*L1*F_u (or 1/den_v to v - dt*L2*F_v) in the output's memory by
    :func:`~pacok.grid.apply_multiplier`. The u solve transforms into the
    force's ``spec``, the v solve into ``spec_v``, a half-spectrum in the
    memory of the force's ``work``, which is free by then; so the two solves
    share nothing and ``workers`` (a :class:`_Workers`, inline by default)
    runs them concurrently when it has two threads. It also splits the
    force's slab passes and the slab pass that forms z - lam*F. Every
    transform and inverse writes into a lent buffer, so a step allocates
    nothing field-sized: a warm 32^3 step peaks at ~0.13 MB under
    tracemalloc, numpy's cast buffer for ``spec *= inv_den``, against 0.26 MB
    per field. The stepper owns its workspace and writes only the outputs it
    is handed; between steps the force's ``work`` buffers and ``spec`` are
    free scratch: :func:`run` takes each step's change in ``work[0]`` and
    evaluates its energies in ``work[0]``, ``work[1]`` and ``spec``.
    """

    def __init__(self, grid, params: PhysParams, cfg: StepperConfig, workers=None):
        self.grid = grid
        self.force = ExplicitForce(grid, params)
        self.spec_v = spectrum_buffer(grid, self.force.work)
        self.workers = _Workers() if workers is None else workers
        k2 = _k_squared(grid)
        eps = params.epsilon
        self.lam_u = cfg.dt * cfg.L1
        self.lam_v = cfg.dt * cfg.L2
        self.inv_den_u = 1.0 / (1.0 + self.lam_u * (eps * k2 + A_UU / eps))
        self.inv_den_v = 1.0 / (1.0 + self.lam_v * (2.0 * params.v_reg * k2 + A_VV / eps))

    def advance(self, u: np.ndarray, v: np.ndarray, out_u: np.ndarray, out_v: np.ndarray):
        """One step from (u, v); writes u+ into ``out_u`` and v+ into ``out_v``
        (which must not alias u, v or the workspace) and returns them."""
        grid, workers = self.grid, self.workers
        self.force(u, v, out_u, out_v, workers.split)

        def explicit_part(s):  # z - lam*F, in F's memory
            for z, out, lam in ((u, out_u, self.lam_u), (v, out_v, self.lam_v)):
                block = out[s]
                block *= -lam
                block += z[s]

        workers.split(explicit_part, grid.slabs)
        workers.pair(
            lambda: apply_multiplier(grid, out_u, self.inv_den_u, spec=self.force.spec, out=out_u),
            lambda: apply_multiplier(grid, out_v, self.inv_den_v, spec=self.spec_v, out=out_v))
        return out_u, out_v


def _max_change(workers: _Workers, grid: GridSpec, new, old, work: np.ndarray) -> float:
    """max(|u+ - u|, |v+ - v|) for new = (u+, v+) and old = (u, v), slab by
    slab through ``work``; NaN or inf when a field holds one."""
    def slab_max(s):
        change = work[s]
        maxima = []
        for after, before in zip(new, old):
            np.subtract(after[s], before[s], out=change)
            np.abs(change, out=change)
            maxima.append(change.max())
        return np.maximum(*maxima)

    # np.maximum, unlike max(), keeps a NaN of any slab
    return float(functools.reduce(np.maximum, workers.split(slab_max, grid.slabs)))


def run(
    state: RunState,
    params: PhysParams,
    cfg: StepperConfig,
    on_trace=None,
    on_checkpoint=None,
) -> RunResult:
    """Iterate until the max-norm of (u+ - u)/dt drops below stop_tol.

    ``stop_tol = inf`` disables the stationarity check, so the loop runs
    for exactly max_steps. Emission: each state before the final one whose
    step is a multiple of a callback's cadence goes to that callback, the
    input included: ``on_trace(step, time, energy, residual)`` gets a row,
    with the state's :class:`~pacok.energy.EnergyBreakdown` (residual NaN
    at the input), and ``on_checkpoint(state)`` the state. The final state
    is traced whatever its step, and its energy is ``result.energy``.

    Memory: besides the input, the loop holds about ten field-sized arrays:
    two buffer pairs that u+ and v+ alternate between, the stepper's three
    scratch fields, and about three fields' worth of half-spectrum and
    multipliers (``spec``, |k|^2, 1/|k|^2, 1/den_u, 1/den_v). Energies are
    evaluated in the force's scratch; a checkpoint state after the input
    adds two while ``on_checkpoint`` holds it. Before the final energy the
    loop frees all but the last pair, the force's scratch block (whose
    first two fields the energy uses) and ``spec``.

    Ownership: no array a checkpoint state holds is written afterwards: the
    input, which is only read, is handed on as it is, and every later state
    owns a copy. The result's state holds the last pair (a copy of the
    input when no step was taken, and then the residual is inf).
    DivergenceError is raised when a step produces a non-finite sample or
    an energy overflows or is not finite.

    Threads: when a field takes at least :data:`TWO_WORKER_BYTES` (64^3 does,
    48^3 and 128^2 do not) and ``os.sched_getaffinity`` offers two CPUs, the
    steps run on two threads, this one and a helper (:class:`_Workers`).
    They split the slab passes of the force, of z - lam*F and of the
    residual maxima, and run the u and v solves at once. The helper starts at the first step and stops before ``run``
    returns or raises; the callbacks run on this thread. Every output is
    bitwise that of the inline path.
    """
    grid = state.u.grid
    workers = _Workers.for_grid(grid)
    stepper = _Stepper(grid, params, cfg, workers)
    # u+ and v+ alternate between two buffer pairs; the input is only read
    pairs = [(np.empty(grid.shape), np.empty(grid.shape)) for _ in range(2)]
    work = stepper.force.work[0]
    energy_buffers = (*stepper.force.work[:2], stepper.force.spec)
    u, v = state.u.values, state.v.values
    check_stationary = np.isfinite(cfg.stop_tol)
    residual = np.nan
    reason = "max_steps"
    done = 0

    def _energy(step: int) -> EnergyBreakdown:
        # the energy of (u, v), in the lent buffers; a non-finite one is divergence
        try:
            energy = total_energy(Field(grid, u), Field(grid, v), params, energy_buffers)
        except OverflowError:
            raise DivergenceError(step, f"energy overflowed at step {step}") from None
        if not math.isfinite(energy.total):
            raise DivergenceError(step, f"non-finite energy at step {step}")
        return energy

    with workers:
        while done < cfg.max_steps:
            nstep, time = state.step + done, state.time + done * cfg.dt
            if on_trace is not None and nstep % cfg.trace_every == 0:
                on_trace(nstep, time, _energy(nstep), residual)
            if on_checkpoint is not None and nstep % cfg.checkpoint_every == 0:
                # no step writes the input's arrays; later states are copied out
                on_checkpoint(state if done == 0 else
                              RunState(Field(grid, u.copy()), Field(grid, v.copy()), time, nstep))
            u_new, v_new = stepper.advance(u, v, *pairs[done % 2])
            change = _max_change(workers, grid, (u_new, v_new), (u, v), work)
            if not math.isfinite(change):
                raise DivergenceError(nstep + 1)
            residual = change / cfg.dt
            u, v = u_new, v_new
            done += 1
            if check_stationary and residual < cfg.stop_tol:
                reason = "stationary"
                break

    # the final energy needs only the state and the buffers lent to it: free
    # the other pair and the multipliers
    del stepper, pairs
    nstep, time = state.step + done, state.time + done * cfg.dt
    energy = _energy(nstep)
    if on_trace is not None:
        on_trace(nstep, time, energy, residual)
    if done == 0:  # the result owns its arrays: a copy of the input
        u, v = u.copy(), v.copy()
    return RunResult(state=RunState(Field(grid, u), Field(grid, v), time, nstep), energy=energy,
                     reason=reason, residual=float(residual) if done else np.inf)


def screening_check(state: RunState, params: PhysParams, threshold: float = 0.01) -> float:
    """Flatness of the potential outside the supports.

    Returns max|phi - g| over {u+v < threshold} divided by max|phi - g|
    overall, where g is the exterior median. The periodic zero-mean potential
    of a screened state is constant (not zero) outside the supports, so the
    exterior gauge g is removed before comparing; a screened state yields a
    small ratio, a charge-imbalanced one O(1). Returns NaN when the exterior
    is empty or phi vanishes identically (not applicable).
    """
    phi = poisson_solve(Field(state.u.grid, charge_density(state.u, state.v, params)))
    outside = state.u.values + state.v.values < threshold
    if not outside.any():
        return float("nan")
    gauge = float(np.median(phi.values[outside]))
    deviation = np.abs(phi.values - gauge)
    overall = float(deviation.max())
    if overall == 0.0:
        return float("nan")
    return float(deviation[outside].max()) / overall
