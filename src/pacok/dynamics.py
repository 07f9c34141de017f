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
#: CPUs. In the sweep of README "Threads" two were slower at 128^2 (128 KiB,
#: 0 of 6 pairs faster) and faster in 5 of 6 pairs at 256^2 (512 KiB), in 6 of
#: 6 at 48^3 (864 KiB: 4.65 against 7.32 ms per step) and at 64^3 (2 MiB).
#: 48^3 and 256^2 stay inline all the same: with the energy on both workers
#: too, an energy every 20 steps read 4.85 against 7.51 ms per step at 48^3
#: and 2.47 against 3.39 at 256^2, two faster in 6 of 6 pairs each, but the
#: threshold has not been moved since the sweep that set it.
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
    on one helper thread while the first runs here. It is the schedule an
    :class:`~pacok.energy.ExplicitForce`, :func:`~pacok.energy.total_energy`
    or :func:`~pacok.storage.render_stack` call takes.

    The slabs are axis-0 slices that cut a float64 field into as few runs of
    whole planes as keep each within :data:`SLAB_BYTES`, as equal as the
    plane count allows, one plane each when a plane alone is larger: the
    few fields one pass touches then stay in a core's cache. With ``two``
    both threads take the next slab left until none is, so a thread that
    the host slows takes fewer. ``columns`` cuts the half-spectrum's axis 1
    into one slice per worker: the whole axis inline, two halves with
    ``two``.

    The helper is one thread fed through two ``queue.SimpleQueue``: a call
    to hand over, then its outcome back. It starts at the first ``pair``
    inside the ``with`` block and stops when the block ends, after the call
    it holds. Outside the block ``pair`` runs both calls here, so no thread
    outlives the block. It runs each call in a copy of the caller's
    context, and so under the caller's ``np.errstate``: numpy keeps that in
    a context variable, which a thread does not inherit. numpy releases the
    interpreter lock inside its ufuncs, reductions and FFTs, and zlib while
    it compresses, so the two threads drive both cores.

    A call handed to the helper writes its results only into arrays
    allocated on the calling thread, and allocates no more than small
    temporaries itself: what the helper allocates stays in its own malloc
    arena and raises the peak resident memory (README, "Memory of a run").
    """

    def __init__(self, grid: GridSpec, two: bool = False):
        planes = grid.shape[0]
        count = min(planes, -(-8 * grid.size // SLAB_BYTES))
        bounds = [planes * i // count for i in range(count + 1)]
        self.slabs = tuple(slice(start, stop) for start, stop in zip(bounds, bounds[1:]))
        half = grid.spectrum_shape[1] // 2
        self.columns = (slice(0, half), slice(half, None)) if two else (slice(None),)
        self.two = two
        self._open = False
        self._helper = None

    @classmethod
    def for_grid(cls, grid: GridSpec) -> "_Workers":
        """Two workers when a field takes at least :data:`TWO_WORKER_BYTES`
        and the process may run on two CPUs; otherwise inline."""
        return cls(grid, 8 * grid.size >= TWO_WORKER_BYTES and _cpu_count() >= 2)

    def __enter__(self) -> "_Workers":
        self._open = True
        return self

    def __exit__(self, *exc) -> None:
        self._open = False
        if self._helper is not None:
            self._calls.put(None)
            self._helper.join()
            self._helper = None

    def _serve(self) -> None:
        """The helper's loop: run each call handed over, until handed None."""
        while (call := self._calls.get()) is not None:
            try:
                outcome = True, call()
            except BaseException as exc:  # re-raised on the calling thread
                outcome = False, exc
            self._outcomes.put(outcome)

    def pair(self, first, second) -> tuple:
        """``(first(), second())``; returns or raises only when both are done.
        Inline, or outside the ``with`` block, both run here in turn."""
        if not (self.two and self._open):
            return first(), second()
        if self._helper is None:
            import queue
            import threading

            self._calls, self._outcomes = queue.SimpleQueue(), queue.SimpleQueue()
            self._helper = threading.Thread(target=self._serve, name="pacok-step")
            self._helper.start()
        self._calls.put(functools.partial(contextvars.copy_context().run, second))
        try:
            result = first()
        finally:
            done, other = self._outcomes.get()  # the helper is done with the buffers
        if not done:
            raise other
        return result, other

    def split(self, fn) -> list:
        """``[fn(slab) for slab in self.slabs]``, in any order; with ``two``
        each worker takes the next slab left."""
        if not self.two:
            return [fn(slab) for slab in self.slabs]
        left = iter(self.slabs)  # next() hands each slab out once, under the interpreter lock
        first, second = self.pair(lambda: [fn(slab) for slab in left],
                                  lambda: [fn(slab) for slab in left])
        return first + second


class _Stepper:
    """A run's state and the convex-splitting step that advances it.

    It owns a run's arrays: the current (u, v), which starts as the input's
    arrays and is only read; two buffer pairs that u+ and v+ alternate
    between; the explicit force, with its scratch fields ``work`` and
    half-spectrum ``spec``; and the Fourier multipliers 1/den_u and 1/den_v.
    The state before the last step (the input, after the first) stays
    intact until the next step overwrites it.

    :meth:`advance` costs six FFTs in four phases, each one hand-off
    (``pair``) of ``workers`` (a :class:`_Workers`, inline by default), so
    with two workers no part of a step runs on one thread alone:

    1. rows: the force's pointwise densities and the forward transform of
       the charge density over all but axis 0, slab by slab;
    2. columns: the Poisson solve along axis 0, half the columns on each
       side, beside one mass sum each;
    3. rows: the inverse into phi, F, and z - lam*F in F's memory;
    4. the u solve and max|u+ - u| beside the v solve and max|v+ - v|.
       Each solve applies 1/den in the output's memory: the u solve
       transforms into ``spec``, the v solve into ``spec_v``, a
       half-spectrum laid over ``work``, which is free by then. The u
       residual is formed in phi's memory, which ``spec_v`` leaves alone,
       and the v residual in the memory of ``spec_v`` once the v solve is
       done.

    :meth:`energy` runs :func:`~pacok.energy.total_energy` on ``workers``
    in buffers that are free between steps: ``work``, with ``spec_v`` laid
    over it, ``spec``, and the u buffer that the next step writes. So it
    overwrites u of the state before the last step, which the next step
    would overwrite too. Neither method allocates anything field-sized: a
    warm 32^3 step peaks at ~0.13 MB under tracemalloc, numpy's cast
    buffer for ``spec *= inv_den``, against 0.26 MB per field; a warm
    two-worker 64^3 step at ~0.36 MB, the cast buffers of the strided
    column halves, against 2 MiB per field.
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

        def explicit_part(s):  # z - lam*F, in F's memory
            for z, out, lam in ((u, out_u, self.lam_u), (v, out_v, self.lam_v)):
                block = out[s]
                block *= -lam
                block += z[s]

        self.force(u, v, out_u, out_v, workers, then=explicit_part)
        work = self.force.work

        def solve(z, out, inv_den, spec, scratch):
            apply_multiplier(grid, out, inv_den, spec=spec, out=out)
            maxima = []
            for s in workers.slabs:
                change = scratch[s]
                np.subtract(out[s], z[s], out=change)
                np.abs(change, out=change)
                maxima.append(change.max())
            # np.maximum, unlike max(), keeps a NaN of any slab
            return functools.reduce(np.maximum, maxima)

        change = np.maximum(*workers.pair(
            lambda: solve(u, out_u, self.inv_den_u, self.force.spec, work[2]),
            lambda: solve(v, out_v, self.inv_den_v, self.spec_v, work[0])))
        self._pairs.reverse()
        self.u, self.v = out_u, out_v
        return float(change)

    def energy(self) -> EnergyBreakdown:
        """The energy of (u, v), evaluated on ``workers`` in the force's
        scratch and the next step's u buffer."""
        buffers = self.force.work[2], self._pairs[0][0], self.force.spec, self.spec_v
        return total_energy(Field(self.grid, self.u), Field(self.grid, self.v), self.params,
                            buffers, self.workers)


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

    Threads: a field of at least :data:`TWO_WORKER_BYTES` steps, and has
    its energies evaluated, on this thread and one helper when two CPUs are
    offered (:class:`_Workers`). The helper starts at the first step or
    energy and stops before ``run`` returns or raises; the callbacks run on
    this thread. Every output is bitwise that of the inline path.
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
