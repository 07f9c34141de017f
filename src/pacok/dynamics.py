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

import math
from dataclasses import dataclass, replace

import numpy as np

from .energy import (
    SPLIT,
    EnergyBreakdown,
    ExplicitForce,
    PhysParams,
    SplitConstants,  # noqa: F401  (re-exported: the split belongs to the scheme)
    charge_density,
    total_energy,
)
from .errors import DivergenceError
from .grid import Field, _k_squared, irfftn_into, poisson_solve, require_same_grid


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
        for name in ("L1", "L2", "dt"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.stop_tol > 0:  # inf allowed: it switches the stationarity check off
            raise ValueError(f"stop_tol must be positive, got {self.stop_tol}")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        if self.checkpoint_every <= 0 or self.trace_every <= 0:
            raise ValueError("cadences must be positive")


@dataclass(frozen=True)
class RunState:
    """Instantaneous state of one run; u and v share a grid, time = step*dt."""

    u: Field
    v: Field
    time: float = 0.0
    step: int = 0
    last_energy: EnergyBreakdown | None = None

    def __post_init__(self) -> None:
        require_same_grid(self.u, self.v)


@dataclass(frozen=True)
class RunResult:
    """Final state plus why the loop stopped and the last residual."""

    state: RunState
    reason: str
    residual: float


class _Stepper:
    """One convex-splitting update on a fixed workspace.

    The workspace is allocated once per run: the force kernel's four field
    buffers and its half-spectrum buffer, plus the spectral factors 1/den_u
    and 1/den_v. A step costs six FFTs: the Poisson solve inside the force
    (rfftn + inverse), then one rfftn of u - dt*L1*F_u and one of
    v - dt*L2*F_v, each multiplied in place by its 1/den and brought back by
    one inverse. Every transform writes into a workspace or output buffer
    (the inverses through :func:`~pacok.grid.irfftn_into`), so a step
    allocates nothing field-sized: a warm 32^3 step peaks at ~0.13 MB under
    tracemalloc, numpy's cast buffer for ``spec *= inv_den``, against 0.26 MB
    per field. Between steps the force's ``work`` buffers are free scratch.
    """

    def __init__(self, grid, params: PhysParams, cfg: StepperConfig):
        self.grid = grid
        self.force = ExplicitForce(grid, params)
        k2 = _k_squared(grid)
        eps = params.epsilon
        self.lam_u = cfg.dt * cfg.L1
        self.lam_v = cfg.dt * cfg.L2
        self.inv_den_u = 1.0 / (1.0 + self.lam_u * (eps * k2 + SPLIT.a_uu / eps))
        self.inv_den_v = 1.0 / (
            1.0 + self.lam_v * (2.0 * params.v_reg * k2 + SPLIT.a_vv / eps)
        )

    def advance(self, u: np.ndarray, v: np.ndarray, out_u: np.ndarray, out_v: np.ndarray):
        """One step from (u, v); writes u+ into ``out_u`` and v+ into ``out_v``
        (which must not alias u, v or the workspace) and returns them."""
        self.force(u, v, out_u, out_v)
        spec = self.force.spec
        for z, out, lam, inv_den in ((u, out_u, self.lam_u, self.inv_den_u),
                                     (v, out_v, self.lam_v, self.inv_den_v)):
            out *= -lam
            out += z
            np.fft.rfftn(out, out=spec)
            spec *= inv_den
            irfftn_into(spec, out)
        return out_u, out_v


def _max_change(new: np.ndarray, old: np.ndarray, work: np.ndarray) -> float:
    """max|new - old| through ``work``; NaN or inf when either holds one."""
    np.subtract(new, old, out=work)
    np.abs(work, out=work)
    return float(work.max())


def _with_energy(state: RunState, params: PhysParams) -> RunState:
    """``state`` with ``last_energy`` set; a non-finite energy is divergence."""
    try:
        energy = total_energy(state.u, state.v, params)
    except OverflowError:
        raise DivergenceError(state.step, f"energy overflowed at step {state.step}") from None
    if not math.isfinite(energy.total):
        raise DivergenceError(state.step, f"non-finite energy at step {state.step}")
    return replace(state, last_energy=energy)


def step(state: RunState, params: PhysParams, cfg: StepperConfig) -> RunState:
    """One update of (u, v): a one-step :func:`run` without the stationarity
    check, so the new state carries its own energy. Raises DivergenceError
    as :func:`run` does."""
    return run(state, params, replace(cfg, max_steps=1, stop_tol=math.inf)).state


def run(
    state: RunState,
    params: PhysParams,
    cfg: StepperConfig,
    on_trace=None,
    on_checkpoint=None,
) -> RunResult:
    """Iterate until the max-norm of (u+ - u)/dt drops below stop_tol.

    ``stop_tol = inf`` disables the stationarity check, so the loop runs
    for exactly max_steps. Emission: every state before the final one is
    handed to ``on_trace(state, residual)`` and ``on_checkpoint(state)`` when
    its step is a multiple of that callback's cadence (the input state
    included, with residual NaN); the final state goes to both callbacks
    once, whatever its step. Each emitted state is one snapshot that owns its
    arrays; it carries ``last_energy`` when traced, and the final one always
    does. The result's state holds that energy and its own copy of the
    arrays; its residual is inf when no step was taken. DivergenceError is
    raised when a step produces a non-finite sample or an emitted energy
    overflows or is not finite.
    """
    grid = state.u.grid
    stepper = _Stepper(grid, params, cfg)
    # u+ and v+ alternate between two buffer pairs; the input is only read
    pairs = [(np.empty(grid.shape), np.empty(grid.shape)) for _ in range(2)]
    work = stepper.force.work[0]
    u, v = state.u.values, state.v.values
    check_stationary = np.isfinite(cfg.stop_tol)
    residual = np.nan
    reason = "max_steps"
    done = 0

    def _emit(trace: bool, checkpoint: bool, energy: bool = False) -> RunState:
        current = RunState(Field(grid, u.copy()), Field(grid, v.copy()),
                           state.time + done * cfg.dt, state.step + done)
        if trace or energy:
            current = _with_energy(current, params)
        if trace:
            on_trace(current, residual)
        if checkpoint:
            on_checkpoint(current)
        return current

    while done < cfg.max_steps:
        nstep = state.step + done
        trace = on_trace is not None and nstep % cfg.trace_every == 0
        checkpoint = on_checkpoint is not None and nstep % cfg.checkpoint_every == 0
        if trace or checkpoint:
            _emit(trace, checkpoint)
        u_new, v_new = stepper.advance(u, v, *pairs[done % 2])
        change_u = _max_change(u_new, u, work)
        change_v = _max_change(v_new, v, work)
        if not (math.isfinite(change_u) and math.isfinite(change_v)):
            raise DivergenceError(nstep + 1)
        residual = max(change_u, change_v) / cfg.dt
        u, v = u_new, v_new
        done += 1
        if check_stationary and residual < cfg.stop_tol:
            reason = "stationary"
            break

    final = _emit(on_trace is not None, on_checkpoint is not None, energy=True)
    # the callbacks may keep ``final``; the result gets arrays of its own
    final = replace(final, u=Field(grid, u.copy()), v=Field(grid, v.copy()))
    return RunResult(state=final, reason=reason, residual=float(residual) if done else np.inf)


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
