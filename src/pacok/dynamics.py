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

#: bytes of one field in a slab: the seven fields a pointwise pass of the
#: force touches then take 1.75 MiB, within a 2 MiB L2
SLAB_BYTES = 256 * 1024

#: the field size from which a run steps on two threads when it may use two
#: CPUs. In the sweep of README "Threads" two were slower at 128^2 (128 KiB),
#: faster in 4 of 6 pairs at 256^2 (512 KiB), and faster at 48^3 (864 KiB:
#: 13.6 against 16.9 ms per step, 6 of 6 pairs) and 64^3 (2 MiB). 48^3 stays
#: inline because an energy every 20 steps made two workers slower there:
#: 12.5-14.1 against 10.6-11.6 ms per step.
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
    """Walks a field's slabs and runs the independent halves of a step's
    work: both on the calling thread, in order, or, with ``two``, the second
    on one helper thread while the first runs here.

    The slabs are axis-0 slices that cut a float64 field into as few runs of
    whole planes as keep each within :data:`SLAB_BYTES`, as equal as the
    plane count allows, one plane each when a plane alone is larger: the
    few fields one pass touches then stay in a core's cache.

    The helper starts at the first call that needs it and stops when the
    ``with`` block ends, so a run that takes no step starts no thread. It
    runs each call in a copy of the caller's context, and so under the
    caller's ``np.errstate``: numpy keeps that in a context variable, which
    a thread does not inherit. numpy releases the interpreter lock inside
    its ufuncs, reductions and FFTs, so the two threads drive both cores.
    """

    def __init__(self, grid: GridSpec, two: bool = False):
        planes = grid.shape[0]
        count = min(planes, -(-8 * grid.size // SLAB_BYTES))
        bounds = [planes * i // count for i in range(count + 1)]
        self.slabs = tuple(slice(start, stop) for start, stop in zip(bounds, bounds[1:]))
        self.two = two
        self._helper = None

    @classmethod
    def for_grid(cls, grid: GridSpec) -> "_Workers":
        """Two workers when a field takes at least :data:`TWO_WORKER_BYTES`
        and the process may run on two CPUs; otherwise inline."""
        return cls(grid, 8 * grid.size >= TWO_WORKER_BYTES and _cpu_count() >= 2)

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

    def split(self, fn) -> list:
        """``[fn(slab) for slab in self.slabs]``, the later half on the second worker."""
        slabs = self.slabs
        if not self.two:
            return [fn(slab) for slab in slabs]
        half = len(slabs) // 2
        first, second = self.pair(lambda: [fn(slab) for slab in slabs[:half]],
                                  lambda: [fn(slab) for slab in slabs[half:]])
        return first + second


class _Stepper:
    """A run's state and the convex-splitting step that advances it.

    It owns a run's arrays: the current (u, v), which starts as the input's
    arrays and is only read; two buffer pairs that u+ and v+ alternate
    between; the explicit force, with its scratch fields ``work`` and
    half-spectrum ``spec``; and the Fourier multipliers 1/den_u and 1/den_v.
    The state before the last step (the input, after the first) stays
    intact until the next step overwrites it.

    :meth:`advance` costs six FFTs: two in the force's Poisson solve, then
    two for each implicit solve, which applies 1/den to u - dt*L1*F_u (or
    1/den_v to v - dt*L2*F_v) in the output's memory. The u solve transforms
    into ``spec``, the v solve into ``spec_v``, a half-spectrum laid over
    ``work``, which is free by then; so ``workers`` (a :class:`_Workers`,
    inline by default) may run the two solves at once, and it walks the
    slabs of the force, of z - lam*F and of the change. :meth:`energy`
    evaluates in ``work`` and ``spec``. Neither allocates anything
    field-sized: a warm 32^3 step peaks at ~0.13 MB under tracemalloc,
    numpy's cast buffer for ``spec *= inv_den``, against 0.26 MB per field.
    """

    def __init__(self, state: RunState, params: PhysParams, cfg: StepperConfig, workers=None):
        grid = self.grid = state.u.grid
        self.params = params
        self.u, self.v = state.u.values, state.v.values
        self.force = ExplicitForce(grid, params)
        self.spec_v = spectrum_buffer(grid, self.force.work)
        self.workers = _Workers(grid) if workers is None else workers
        k2 = _k_squared(grid)
        eps = params.epsilon
        self.lam_u = cfg.dt * cfg.L1
        self.lam_v = cfg.dt * cfg.L2
        self.inv_den_u = 1.0 / (1.0 + self.lam_u * (eps * k2 + A_UU / eps))
        self.inv_den_v = 1.0 / (1.0 + self.lam_v * (2.0 * params.v_reg * k2 + A_VV / eps))
        # after the multipliers, whose temporaries would otherwise raise the peak
        self._pairs = [(np.empty(grid.shape), np.empty(grid.shape)) for _ in range(2)]

    def advance(self) -> float:
        """One step: (u, v) moves to (u+, v+); returns max(|u+ - u|, |v+ - v|),
        NaN or inf when a field holds one."""
        grid, workers = self.grid, self.workers
        u, v = self.u, self.v
        out_u, out_v = self._pairs[0]
        self.force(u, v, out_u, out_v, workers.split)

        def explicit_part(s):  # z - lam*F, in F's memory
            for z, out, lam in ((u, out_u, self.lam_u), (v, out_v, self.lam_v)):
                block = out[s]
                block *= -lam
                block += z[s]

        workers.split(explicit_part)
        workers.pair(
            lambda: apply_multiplier(grid, out_u, self.inv_den_u, spec=self.force.spec, out=out_u),
            lambda: apply_multiplier(grid, out_v, self.inv_den_v, spec=self.spec_v, out=out_v))
        work = self.force.work[0]  # free again once the solves are done

        def slab_max(s):
            change = work[s]
            maxima = []
            for after, before in ((out_u, u), (out_v, v)):
                np.subtract(after[s], before[s], out=change)
                np.abs(change, out=change)
                maxima.append(change.max())
            return np.maximum(*maxima)

        maxima = workers.split(slab_max)
        self._pairs.reverse()
        self.u, self.v = out_u, out_v
        # np.maximum, unlike max(), keeps a NaN of any slab
        return float(functools.reduce(np.maximum, maxima))

    def energy(self) -> EnergyBreakdown:
        """The energy of (u, v), evaluated in the force's scratch."""
        a, b, _ = self.force.work
        return total_energy(Field(self.grid, self.u), Field(self.grid, self.v), self.params,
                            (a, b, self.force.spec))


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

    The arrays, the step and the threads are a :class:`_Stepper`'s; the
    loop keeps the cadence, the callbacks, the stop rule and the divergence
    rule. Besides the input it holds about ten fields (README, "Memory of a
    run"), and a checkpoint state after the input adds two while
    ``on_checkpoint`` holds it.

    Ownership: no array a checkpoint state holds is written afterwards: the
    input, which is only read, is handed on as it is, and every later state
    owns a copy. The result's state holds the last pair (a copy of the
    input when no step was taken, and then the residual is inf).
    DivergenceError is raised when a step produces a non-finite sample or
    an energy overflows or is not finite.

    Threads: a field of at least :data:`TWO_WORKER_BYTES` steps on this
    thread and one helper when two CPUs are offered (:class:`_Workers`).
    The helper starts at the first step and stops before ``run`` returns or
    raises; the callbacks run on this thread. Every output is bitwise that
    of the inline path.
    """
    grid = state.u.grid
    workers = _Workers.for_grid(grid)
    stepper = _Stepper(state, params, cfg, workers)
    check_stationary = np.isfinite(cfg.stop_tol)
    residual = np.nan
    reason = "max_steps"
    done = 0

    def _energy(step: int) -> EnergyBreakdown:
        # a non-finite energy is divergence
        try:
            energy = stepper.energy()
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
                on_checkpoint(state if done == 0 else RunState(
                    Field(grid, stepper.u.copy()), Field(grid, stepper.v.copy()), time, nstep))
            change = stepper.advance()
            if not math.isfinite(change):
                raise DivergenceError(nstep + 1)
            residual = change / cfg.dt
            done += 1
            if check_stationary and residual < cfg.stop_tol:
                reason = "stationary"
                break

    nstep, time = state.step + done, state.time + done * cfg.dt
    energy = _energy(nstep)
    if on_trace is not None:
        on_trace(nstep, time, energy, residual)
    u, v = stepper.u, stepper.v
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
