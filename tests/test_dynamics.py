"""Convex splitting, step/run control, stability, screening diagnostics."""

import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import pacok as pk
from pacok import dynamics, initcond
from pacok.dynamics import _Stepper, _Workers
from pacok.energy import A_UU, A_VV, ExplicitForce, interpolant_pair
from pacok.errors import DivergenceError
from pacok.grid import _inv_k_squared, _k_squared, apply_multiplier, integrate_array

from conftest import peak_bytes, potential_W, potential_W_grad

GRID = pk.GridSpec((32, 32), (1.8, 1.8))
PARAMS = pk.PhysParams(zeta=1.0, gamma=1500.0, mass=0.4, epsilon=0.05, K1=3e4, K2=4800.0)
CFG = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=100, stop_tol=1e-9)
A_UV = 27.0  # the cross coefficient of W1, which the stepper keeps explicit


def _liposome_state(grid=GRID, mass=0.4, eps=0.05, noise=None):
    cand = pk.optimize_liposome(mass, 1.0, 1500.0, 2)
    center = tuple(0.5 * length for length in grid.lengths)
    spec = pk.BilayerSpec(
        shape=pk.Shell(center=center, inner_radius=cand.radii[1], outer_radius=cand.radii[2]),
        epsilon=eps, zeta=1.0)
    u, v = pk.build_bilayer(spec, grid)
    if noise is not None:
        u = initcond.add_noise(u, noise, seed=11)
        v = initcond.add_noise(v, noise, seed=12)
    u = pk.mass_rescale(u, mass)
    v = pk.mass_rescale(v, mass)
    return pk.RunState(u=u, v=v)


def split_W(u, v):
    """(W1, W2) with W1 = 87u^2/2 + 27uv + 27v^2 and W2 = W - W1."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w1 = 43.5 * u * u + 27.0 * u * v + 27.0 * v * v
    return w1, potential_W(u, v) - w1


def amplification_matrix(k2: float, dt: float, params, cfg) -> np.ndarray:
    """Mode update matrix of the linearized scheme (W2, nonlocal, penalties off).

    Its spectral radius is <= 1 for every mode and every dt because
    A_UV^2 <= A_UU*A_VV; it says nothing about the full scheme's explicit terms.
    """
    eps = params.epsilon
    den_u = 1.0 + dt * cfg.L1 * (eps * k2 + A_UU / eps)
    den_v = 1.0 + dt * cfg.L2 * (2.0 * params.v_reg * k2 + A_VV / eps)
    c_u = dt * cfg.L1 * A_UV / eps
    c_v = dt * cfg.L2 * A_UV / eps
    return np.array([[1.0 / den_u, -c_u / den_u], [-c_v / den_v, 1.0 / den_v]])


@pytest.mark.parametrize("name", ["max_steps", "checkpoint_every", "trace_every"])
def test_step_counts_must_be_whole_numbers(name):
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        replace(CFG, **{name: 2.5})
    assert getattr(replace(CFG, **{name: 3.0}), name) == 3
    assert type(getattr(replace(CFG, **{name: 3.0}), name)) is int


class TestSplitW:
    def test_sum_recovers_w(self, rng):
        u = rng.uniform(-0.5, 1.5, 2000)
        v = rng.uniform(-0.5, 1.5, 2000)
        w1, w2 = split_W(u, v)
        assert np.allclose(w1 + w2, potential_W(u, v), rtol=1e-14, atol=1e-14)

    def test_w1_hessian_positive_definite(self):
        hessian = np.array([[A_UU, A_UV], [A_UV, A_VV]])
        assert np.linalg.det(hessian) == pytest.approx(3969.0)
        assert np.trace(hessian) == pytest.approx(141.0)
        assert np.all(np.linalg.eigvalsh(hessian) > 0)

    def test_w2_concave_on_window(self):
        # sampled finite-difference Hessian of W2 on [-0.1, 1.1]^2. W2 is
        # piecewise quadratic in v, so a coarse step is exact there and keeps
        # roundoff below the tolerance; the quartic-in-u truncation only makes
        # the (strictly negative) uu entry look more negative than -0.2.
        h = 1e-2
        worst = -np.inf
        for u in np.linspace(-0.1 + h, 1.1 - h, 25) + 3.1e-4:
            for v in np.linspace(-0.1 + h, 1.1 - h, 25) + 2.7e-4:
                def w2(a, b):
                    return split_W(a, b)[1]
                duu = (w2(u + h, v) - 2 * w2(u, v) + w2(u - h, v)) / h**2
                dvv = (w2(u, v + h) - 2 * w2(u, v) + w2(u, v - h)) / h**2
                duv = (w2(u + h, v + h) - w2(u + h, v - h)
                       - w2(u - h, v + h) + w2(u - h, v - h)) / (4 * h**2)
                eig_max = 0.5 * (duu + dvv) + np.hypot(0.5 * (duu - dvv), duv)
                worst = max(worst, eig_max)
        assert worst <= 1e-8


class TestAmplification:
    def test_unconditional_linear_stability(self):
        for dt in np.logspace(-6, 6, 25):
            for k2 in np.concatenate([[0.0], np.logspace(-2, 6, 17)]):
                matrix = amplification_matrix(float(k2), float(dt), PARAMS, CFG)
                rho = max(abs(np.linalg.eigvals(matrix)))
                assert rho <= 1.0 + 1e-12

    def test_relies_on_split_definiteness(self):
        # the bound rho <= 1 is exactly A_UV^2 <= A_UU * A_VV
        assert A_UV**2 <= A_UU * A_VV


def _one_step(state, params, cfg):
    """The state after one update: a one-step run without the stationarity check."""
    return pk.run(state, params, replace(cfg, max_steps=1, stop_tol=np.inf)).state


class TestStep:
    def test_fixed_point_flat_state(self):
        # u = 0, v = c with the v-mass penalty exactly satisfied: a critical point
        area = 1.8 * 1.8
        c_level = 0.5  # f(1/2) = 1/2
        params = pk.PhysParams(zeta=1.0, gamma=1500.0, mass=0.5 * c_level * area,
                               epsilon=0.05, K1=3e4, K2=4800.0, v_reg=0.0)
        # zeta*m = f(c)*area requires m = f(c)*area / zeta
        params = pk.PhysParams(zeta=1.0, gamma=1500.0, mass=pk.interpolant(c_level) * area,
                               epsilon=0.05, K1=0.0001, K2=4800.0, v_reg=0.0)
        state = pk.RunState(u=pk.Field.full(GRID, 0.0), v=pk.Field.full(GRID, c_level))
        du, dv = pk.variational_derivatives(state.u, state.v, params)
        assert np.max(np.abs(du.values)) < 1e-12
        assert np.max(np.abs(dv.values)) < 1e-12
        new = _one_step(state, params, CFG)
        assert np.max(np.abs(new.u.values - state.u.values)) < 1e-13
        assert np.max(np.abs(new.v.values - state.v.values)) < 1e-13

    def test_first_order_consistency(self):
        state = _liposome_state()
        du, dv = pk.variational_derivatives(state.u, state.v, PARAMS)

        def rate_error(dt):
            cfg = pk.StepperConfig(L1=CFG.L1, L2=CFG.L2, dt=dt, max_steps=1, stop_tol=1e-12)
            new = _one_step(state, PARAMS, cfg)
            rate_u = (new.u.values - state.u.values) / dt
            rate_v = (new.v.values - state.v.values) / dt
            return max(np.max(np.abs(rate_u + CFG.L1 * du.values)),
                       np.max(np.abs(rate_v + CFG.L2 * dv.values)))

        errors = [rate_error(dt) for dt in (2e-6, 1e-6, 5e-7)]
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.25)
        assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.25)

    def test_divergence_guard_names_step(self):
        state = pk.RunState(u=pk.Field.full(GRID, 1e160), v=pk.Field.full(GRID, 0.0))
        cfg = pk.StepperConfig(L1=1.0, L2=1.0, dt=1e10, max_steps=5, stop_tol=1e-12)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                _one_step(state, PARAMS, cfg)
        assert err.value.step == 1
        assert "step 1" in str(err.value)

    def test_time_and_step_advance(self):
        state = _liposome_state()
        new = _one_step(state, PARAMS, CFG)
        assert new.step == 1
        assert new.time == pytest.approx(CFG.dt)

    def test_carries_the_energy_of_the_new_state(self):
        result = pk.run(_liposome_state(), PARAMS, replace(CFG, max_steps=1, stop_tol=np.inf))
        assert result.energy == pk.total_energy(result.state.u, result.state.v, PARAMS)


def _oracle_advance(grid, params, cfg, u, v):
    """The earlier 8-FFT update (transforms of u and of the force taken
    apart, W gradient unfused), kept as an independent oracle."""
    p, eps, axes = params, params.epsilon, tuple(range(grid.dim))
    k2 = _k_squared(grid)
    den_u = 1.0 + cfg.dt * cfg.L1 * (eps * k2 + A_UU / eps)
    den_v = 1.0 + cfg.dt * cfg.L2 * (2.0 * p.v_reg * k2 + A_VV / eps)
    f, fp = interpolant_pair(p)
    fu, fv = f(u), f(v)
    w_hat = np.fft.rfftn(fu - fv / p.zeta)
    phi_hat = np.zeros_like(w_hat)
    np.divide(w_hat, k2, out=phi_hat, where=k2 > 0)
    phi = np.fft.irfftn(phi_hat, s=grid.shape, axes=axes)
    mass_u, mass_v = integrate_array(grid, fu), integrate_array(grid, fv)
    w_u, w_v = potential_W_grad(u, v)
    force_u = (w_u - A_UU * u) / eps + (p.gamma * phi - p.K1 * (p.mass - mass_u)) * fp(u)
    force_v = (w_v - A_VV * v) / eps - (
        p.gamma / p.zeta * phi + p.K2 * (p.zeta * p.mass - mass_v)) * fp(v)
    u_hat = (np.fft.rfftn(u) - cfg.dt * cfg.L1 * np.fft.rfftn(force_u)) / den_u
    v_hat = (np.fft.rfftn(v) - cfg.dt * cfg.L2 * np.fft.rfftn(force_v)) / den_v
    return (np.fft.irfftn(u_hat, s=grid.shape, axes=axes),
            np.fft.irfftn(v_hat, s=grid.shape, axes=axes))


def _noisy_shell(grid, interpolant):
    """A noisy shell seed and parameters whose mass targets it matches.

    With the identity interpolant f' = 1 spreads the explicit mass penalty
    over the whole box, so its penalties are 1000x weaker to stay stable.
    """
    center = tuple(0.5 * length for length in grid.lengths)
    spec = pk.BilayerSpec(shape=pk.Shell(center=center, inner_radius=0.3, outer_radius=0.45),
                          epsilon=0.1, zeta=1.0)
    u, v = pk.build_bilayer(spec, grid)
    u = initcond.add_noise(u, 0.01, seed=3)
    v = initcond.add_noise(v, 0.01, seed=4)
    f, _ = interpolant_pair(pk.PhysParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                                          interpolant=interpolant))
    mass_u, mass_v = integrate_array(grid, f(u.values)), integrate_array(grid, f(v.values))
    weaken = 1.0 if interpolant == "cubic" else 1e-3
    params = pk.PhysParams(zeta=mass_v / mass_u, gamma=1500.0, mass=mass_u, epsilon=0.1,
                           K1=3e4 * weaken, K2=4800.0 * weaken, interpolant=interpolant)
    return pk.RunState(u=u, v=v), params


class TestWorkspaceStepper:
    @pytest.mark.parametrize("interpolant", ["cubic", "identity"])
    @pytest.mark.parametrize("points,lengths", [((32, 32), (2.0, 2.0)),
                                                ((16, 16, 16), (2.0, 2.0, 2.0))])
    def test_matches_eight_fft_oracle(self, points, lengths, interpolant):
        grid = pk.GridSpec(points, lengths)
        state, params = _noisy_shell(grid, interpolant)
        stepper = _Stepper(state, params, CFG)
        old = (state.u.values, state.v.values)
        for _ in range(50):
            before = stepper.u.copy(), stepper.v.copy()
            change = stepper.advance()
            assert change == max(np.max(np.abs(after - prev))
                                 for after, prev in zip((stepper.u, stepper.v), before))
            old = _oracle_advance(grid, params, CFG, *old)
        new = stepper.u, stepper.v
        assert np.all(np.isfinite(new[0])) and np.all(np.isfinite(new[1]))
        assert np.max(np.abs(new[0] - state.u.values)) > 1e-6  # the state moved
        assert np.max(np.abs(new[0] - old[0])) <= 1e-12
        assert np.max(np.abs(new[1] - old[1])) <= 1e-12

    def test_warm_step_allocates_less_than_one_field(self):
        grid = pk.GridSpec((32, 32, 32), (2.0, 2.0, 2.0))
        state, params = _noisy_shell(grid, "cubic")
        stepper = _Stepper(state, params, CFG)
        stepper.advance()  # warm
        peak = peak_bytes(stepper.advance)
        assert peak < state.u.values.nbytes  # one field: 262 144 B

    def test_warm_energy_allocates_less_than_one_field(self):
        grid = pk.GridSpec((32, 32, 32), (2.0, 2.0, 2.0))
        state, params = _noisy_shell(grid, "cubic")
        stepper = _Stepper(state, params, CFG)
        assert stepper.energy() == pk.total_energy(state.u, state.v, params)  # warm
        peak = peak_bytes(stepper.energy)
        assert peak < state.u.values.nbytes  # one field: 262 144 B

    @pytest.mark.parametrize("interpolant", ["cubic", "identity"])
    @pytest.mark.parametrize("points,lengths", [((32, 32), (2.0, 2.0)),
                                                ((16, 16, 16), (2.0, 2.0, 2.0))])
    def test_run_energies_equal_standalone(self, points, lengths, interpolant):
        grid = pk.GridSpec(points, lengths)
        state, params = _noisy_shell(grid, interpolant)
        cfg = replace(CFG, max_steps=4, stop_tol=np.inf, trace_every=2, checkpoint_every=2)
        traced, checked = [], []
        result = pk.run(state, params, cfg,
                        on_trace=lambda step, time, e, r: traced.append((step, e)),
                        on_checkpoint=checked.append)
        assert [step for step, _ in traced] == [0, 2, 4]
        for current, (step, energy) in zip([*checked, result.state], traced, strict=True):
            assert current.step == step
            assert energy == pk.total_energy(current.u, current.v, params)

    def test_six_ffts_per_step(self, fft_calls):
        state = _liposome_state()
        _Stepper(state, PARAMS, CFG).advance()
        assert fft_calls == {"rfftn": 3, "irfft": 3}
        fft_calls.clear()
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=5, stop_tol=np.inf)
        pk.run(state, PARAMS, cfg)
        assert fft_calls.total() == 6 * 5 + 3  # five steps, then the final energy
        # the force's transforms in eight slabs, shared between the two threads
        fft_calls.clear()
        state, params = _noisy_shell(GRID64, "cubic")
        with _Workers(GRID64, two=True) as workers:
            _Stepper(state, params, CFG, workers).advance()
        assert fft_calls == {"rfftn": 3, "irfft": 3}

    def test_callback_states_own_their_arrays(self):
        state = _liposome_state(noise=0.01)
        before = (state.u.values.copy(), state.v.values.copy())
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=6, stop_tol=1e-12,
                               trace_every=1, checkpoint_every=2)
        traced, checked = [], []

        def on_checkpoint(current):
            checked.append((current, current.u.values.copy(), current.v.values.copy()))

        result = pk.run(state, PARAMS, cfg, on_checkpoint=on_checkpoint,
                        on_trace=lambda step, time, energy, r: traced.append((step, energy)))
        assert [step for step, _ in traced] == list(range(7))
        assert traced[-1][1] is result.energy
        assert [s.step for s, _, _ in checked] == [0, 2, 4]
        # no array a checkpoint state holds is written afterwards, the input's included
        for current, u, v in checked:
            assert np.array_equal(current.u.values, u)
            assert np.array_equal(current.v.values, v)
        assert np.array_equal(state.u.values, before[0])
        assert np.array_equal(state.v.values, before[1])
        first = checked[0][0]
        assert first.u.values is state.u.values and first.v.values is state.v.values
        for current, _, _ in checked:
            for emitted in (current.u.values, current.v.values):
                assert not np.shares_memory(emitted, result.state.u.values)
                assert not np.shares_memory(emitted, result.state.v.values)

    @pytest.mark.parametrize("trace_every,bound", [(None, 11.0), (2, 10.5)],
                             ids=["final-only", "every-2"])
    def test_run_peak_memory_in_fields(self, trace_every, bound):
        # the loop holds ~10 fields (two buffer pairs, three force scratch
        # fields, spectrum and multipliers); a traced row is evaluated in the
        # force's scratch and adds nothing field-sized
        grid = pk.GridSpec((32, 32, 32), (2.0, 2.0, 2.0))
        state, params = _noisy_shell(grid, "cubic")
        cfg = replace(CFG, max_steps=6, stop_tol=np.inf, trace_every=trace_every or 1)
        callbacks = {} if trace_every is None else {"on_trace": lambda step, t, e, r: None}
        pk.run(state, params, cfg, **callbacks)  # warm the wavenumber caches
        peak = peak_bytes(lambda: pk.run(state, params, cfg, **callbacks))
        assert peak / state.u.values.nbytes < bound

    @pytest.mark.parametrize("phase", [0, 1])
    def test_nan_raises_at_its_step(self, monkeypatch, phase):
        steps = _poison_third_step(monkeypatch, phase, (3, 5))
        base = _liposome_state()
        state = pk.RunState(u=base.u, v=base.v, time=10 * CFG.dt, step=10)
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=8, stop_tol=np.inf)
        with pytest.raises(DivergenceError) as err:
            pk.run(state, PARAMS, cfg)
        assert err.value.step == 13
        assert len(steps) == 3


def _poison_third_step(monkeypatch, phase, index):
    """Sets sample ``index`` of u+ (``phase`` 0) or v+ (1) to NaN inside the
    third step, as its implicit solve returns and before its residual is
    taken; returns a list that gains one entry per step."""
    steppers, steps, solves = [], [], [0, 0]
    original_init, original_solve = _Stepper.__init__, dynamics.apply_multiplier

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        steppers.append(self)

    def solve(grid, values, inv_den, **buffers):
        out = original_solve(grid, values, inv_den, **buffers)
        side = 0 if inv_den is steppers[-1].inv_den_u else 1
        solves[side] += 1  # each side solves on one thread at a time
        if side == 0:
            steps.append(None)
        if side == phase and solves[side] == 3:
            out[index] = np.nan
        return out

    monkeypatch.setattr(_Stepper, "__init__", init)
    monkeypatch.setattr(dynamics, "apply_multiplier", solve)
    return steps


def _whole_array_force(grid, params, u, v):
    """(F_u, F_v) by the fused operations of ``ExplicitForce``, each over
    whole fields: the reference that its slab passes must match bit for bit."""
    p, eps, zeta = params, params.epsilon, params.zeta
    s_u, s_v, phi = (np.empty(grid.shape) for _ in range(3))
    out_u, out_v = np.empty(grid.shape), np.empty(grid.shape)
    np.multiply(u, u, out=s_u)
    np.subtract(u, s_u, out=s_u)
    if p.interpolant == "cubic":
        np.multiply(v, v, out=s_v)
        np.subtract(v, s_v, out=s_v)
        fu, fv = out_u, out_v
        for z, s, f in ((u, s_u, fu), (v, s_v, fv)):
            np.multiply(s, 2.0, out=f)
            f += z
            f *= z
        slope = 6.0
    else:
        fu, fv = u, v
        slope = 1.0
    mass_u, mass_v = integrate_array(grid, fu), integrate_array(grid, fv)
    np.divide(fv, zeta, out=phi)
    np.subtract(fu, phi, out=phi)
    apply_multiplier(grid, phi, _inv_k_squared(grid), out=phi)
    np.multiply(phi, slope * p.gamma, out=out_u)
    out_u -= slope * p.K1 * (p.mass - mass_u)
    np.multiply(phi, -slope * p.gamma / zeta, out=out_v)
    out_v -= slope * p.K2 * (zeta * p.mass - mass_v)
    if p.interpolant == "cubic":
        out_u *= s_u
        out_v *= s_v
    overlap, tmp = phi, s_v
    np.add(u, v, out=overlap)
    overlap -= 1.0
    np.maximum(overlap, 0.0, out=overlap)
    np.clip(v, 0.0, 1.0, out=tmp)
    np.subtract(overlap, tmp, out=tmp)
    tmp *= 27.0 / eps
    out_v += tmp
    np.multiply(v, (27.0 - A_VV) / eps, out=tmp)
    out_v += tmp
    np.multiply(u, -2.0, out=tmp)
    tmp += 1.0
    tmp *= s_u
    tmp *= 36.0 / eps
    out_u += tmp
    overlap *= 27.0 / eps
    out_u += overlap
    np.multiply(u, A_UU / eps, out=tmp)
    out_u -= tmp
    return out_u, out_v


GRID64 = pk.GridSpec((64, 64, 64), (2.0, 2.0, 2.0))  # 2 MiB fields: eight slabs, two workers
# 1.125 MiB fields: five slabs, two workers, and the column halves cut the
# half-spectrum's rfft-halved axis (193 columns)
GRID384 = pk.GridSpec((384, 384), (2.0, 2.0))


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs ``os.sched_getaffinity`` offers the run, and
    returns the list of threads started while the test runs."""
    started = []
    original = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)

    def offer(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        return started

    return offer


class TestTwoWorkers:
    @pytest.mark.parametrize("interpolant", ["cubic", "identity"])
    @pytest.mark.parametrize("grid", [GRID64, GRID384], ids=["64^3", "384^2"])
    def test_steps_are_bitwise_the_inline_steps(self, grid, interpolant):
        state, params = _noisy_shell(grid, interpolant)
        finals = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads trade the interpreter lock often
        try:
            for two in (False, True):
                with _Workers(grid, two) as workers:
                    stepper = _Stepper(state, params, CFG, workers)
                    changes = [stepper.advance() for _ in range(5)]
                    assert (workers._helper is not None) == two
                finals.append((stepper.u, stepper.v, changes))
        finally:
            sys.setswitchinterval(interval)
        (u1, v1, changes1), (u2, v2, changes2) = finals
        assert np.max(np.abs(u1 - state.u.values)) > 1e-6  # the state moved
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
        assert changes1 == changes2

    @pytest.mark.parametrize("interpolant", ["cubic", "identity"])
    @pytest.mark.parametrize("grid", [GRID64, GRID384], ids=["64^3", "384^2"])
    def test_energy_is_bitwise_the_inline_energy(self, grid, interpolant):
        state, params = _noisy_shell(grid, interpolant)
        inline = pk.total_energy(state.u, state.v, params)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _Workers(grid, two=True) as workers:
                assert pk.total_energy(state.u, state.v, params, schedule=workers) == inline
                stepper = _Stepper(state, params, CFG, workers)
                assert stepper.energy() == inline
                assert workers._helper is not None
        finally:
            sys.setswitchinterval(interval)
        assert _Stepper(state, params, CFG).energy() == inline

    def test_a_warm_two_worker_energy_allocates_less_than_a_field(self):
        state, params = _noisy_shell(GRID64, "cubic")
        with _Workers(GRID64, two=True) as workers:
            stepper = _Stepper(state, params, CFG, workers)
            stepper.advance()
            stepper.energy()  # warm numpy's FFT plans and the helper
            assert peak_bytes(stepper.energy) < 8 * GRID64.size

    def test_pair_outside_the_with_block_runs_inline(self):
        # a stray pair starts no thread that no block's end would join
        workers = _Workers(GRID64, two=True)
        before, here = threading.active_count(), threading.get_ident()
        assert workers.pair(threading.get_ident, threading.get_ident) == (here, here)
        with workers:
            assert workers.pair(threading.get_ident, threading.get_ident)[1] != here
        assert workers.pair(threading.get_ident, threading.get_ident) == (here, here)
        assert workers._helper is None and threading.active_count() == before

    @pytest.mark.parametrize("interpolant", ["cubic", "identity"])
    def test_force_and_derivatives_are_bitwise_the_whole_array_force(self, interpolant):
        state, params = _noisy_shell(GRID64, interpolant)
        u, v = state.u.values, state.v.values
        reference = _whole_array_force(GRID64, params, u, v)
        force = ExplicitForce(GRID64, params)
        for two in (False, True):
            out = (np.empty(GRID64.shape), np.empty(GRID64.shape))
            with _Workers(GRID64, two) as workers:
                force(u, v, *out, workers)
            assert np.array_equal(out[0], reference[0]) and np.array_equal(out[1], reference[1])
        du, dv = pk.energy.variational_derivatives(state.u, state.v, params)
        lap_u, lap_v = pk.laplacian(state.u).values, pk.laplacian(state.v).values
        eps = params.epsilon
        assert np.array_equal(du.values, reference[0] + (A_UU / eps * u - eps * lap_u))
        assert np.array_equal(dv.values, reference[1] + (A_VV / eps * v - 2.0 * params.v_reg * lap_v))

    @pytest.mark.parametrize("count", [1, 2], ids=["inline", "two-workers"])
    def test_nan_in_the_last_slab_raises_at_its_step(self, monkeypatch, cpus, count):
        # the last slab is in the half the helper thread takes
        steps = _poison_third_step(monkeypatch, 1, (-1, -1, -1))
        started = cpus(count)
        base, params = _noisy_shell(GRID64, "cubic")
        state = pk.RunState(u=base.u, v=base.v, time=10 * CFG.dt, step=10)
        with pytest.raises(DivergenceError) as err:
            pk.run(state, params, replace(CFG, max_steps=8, stop_tol=np.inf))
        assert err.value.step == 13
        assert len(steps) == 3
        assert len(started) == count - 1

    def test_a_step_makes_four_hand_offs(self, monkeypatch):
        # rows, columns with the masses, rows, and the two solves with their residuals
        calls = []
        original = _Workers.pair

        def pair(self, first, second):
            calls.append(None)
            return original(self, first, second)

        monkeypatch.setattr(_Workers, "pair", pair)
        state, params = _noisy_shell(GRID64, "cubic")
        with _Workers(GRID64, two=True) as workers:
            stepper = _Stepper(state, params, CFG, workers)
            for _ in range(2):
                stepper.advance()
        assert len(calls) == 4 * 2

    @pytest.mark.parametrize("points,planes", [
        ((64, 64, 64), [8] * 8),  # 2 MiB: eight slabs of 256 KiB
        ((48, 48, 48), [12] * 4),  # 864 KiB: four of 216 KiB
        ((128, 128), [128]),  # 128 KiB: one slab
        ((100, 100, 10), [2, 3, 2, 3]),  # 781 KiB: as equal as whole planes allow
        ((512, 512, 4), [1] * 4),  # a 2 MiB plane: one plane each
    ])
    def test_slabs_cut_axis_0_into_runs_of_whole_planes(self, points, planes):
        slabs = _Workers(pk.GridSpec(points, (1.0,) * len(points))).slabs
        assert [s.stop - s.start for s in slabs] == planes
        assert slabs[0].start == 0 and all(a.stop == b.start for a, b in zip(slabs, slabs[1:]))

    @pytest.mark.parametrize("points,two", [((128, 128), False), ((256, 256), False),
                                            ((48, 48, 48), False), ((64, 64, 64), True)])
    def test_two_workers_from_the_measured_field_size(self, cpus, points, two):
        grid = pk.GridSpec(points, (1.0,) * len(points))
        cpus(2)
        assert _Workers.for_grid(grid).two == two
        cpus(1)
        assert not _Workers.for_grid(grid).two

    # a zero-step run evaluates its one energy on both workers
    @pytest.mark.parametrize("count,max_steps,threads", [(1, 2, 0), (2, 2, 1), (2, 0, 1)],
                             ids=["one-cpu", "two-cpus", "zero-steps"])
    def test_threads_started(self, cpus, count, max_steps, threads):
        state, params = _noisy_shell(GRID64, "cubic")
        before = threading.active_count()
        started = cpus(count)
        pk.run(state, params, replace(CFG, max_steps=max_steps, stop_tol=np.inf))
        assert len(started) == threads
        assert threading.active_count() == before

    def test_helper_runs_under_the_callers_errstate(self):
        # numpy keeps errstate in a context variable, which threads do not inherit
        def overflow():
            return np.multiply(np.full(4, 1e300), 1e300)

        with _Workers(GRID64, two=True) as workers, np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                workers.pair(lambda: None, overflow)
            with np.errstate(over="ignore"):
                assert np.isinf(workers.pair(lambda: None, overflow)[1]).all()

    def test_pair_waits_for_the_helper_when_the_first_call_raises(self):
        finished = []

        def fail():
            raise ValueError("first")

        def slow():
            time.sleep(0.05)
            finished.append("second")

        with _Workers(GRID64, two=True) as workers:
            with pytest.raises(ValueError, match="first"):
                workers.pair(fail, slow)
            assert finished == ["second"]  # no buffer is written after pair() raises

    def test_split_hands_each_slab_out_once(self):
        # both workers take slabs from one iterator
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _Workers(GRID64, two=True) as workers:
                for _ in range(200):
                    starts = workers.split(lambda s: s.start)
                    assert sorted(starts) == [s.start for s in workers.slabs]
        finally:
            sys.setswitchinterval(interval)


class TestRun:
    def test_disabled_stationarity_runs_max_steps(self):
        state = _liposome_state()
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=7, stop_tol=np.inf)
        result = pk.run(state, PARAMS, cfg)
        assert result.reason == "max_steps"
        assert result.state.step == 7

    def test_zero_state_terminates_immediately(self):
        params = pk.PhysParams(zeta=1.0, gamma=1500.0, mass=0.4, epsilon=0.05,
                               K1=1e-12, K2=1e-12, v_reg=0.0)
        state = pk.RunState(u=pk.Field.full(GRID, 0.0), v=pk.Field.full(GRID, 0.0))
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=50, stop_tol=1e-6)
        result = pk.run(state, params, cfg)
        assert result.reason == "stationary"
        assert result.state.step == 1

    def test_callbacks_fire_on_cadence(self):
        state = _liposome_state()
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=10, stop_tol=1e-12,
                               trace_every=4, checkpoint_every=5)
        traced, checked = [], []
        result = pk.run(state, PARAMS, cfg,
                        on_trace=lambda step, time, e, r: traced.append(step),
                        on_checkpoint=lambda s: checked.append(s.step))
        assert traced == [0, 4, 8, 10]
        assert checked == [0, 5]  # the final state is the caller's to write
        assert result.energy is not None

    @pytest.mark.parametrize("max_steps,traced,calls", [(12, True, 12 // 4 + 1),
                                                         (12, False, 1),
                                                         (0, True, 1)])
    def test_one_energy_per_emitted_state(self, monkeypatch, max_steps, traced, calls):
        energies = []

        def counted(*args, **kwargs):
            energies.append(original(*args, **kwargs))
            return energies[-1]

        original = dynamics.total_energy
        monkeypatch.setattr(dynamics, "total_energy", counted)
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=max_steps,
                               stop_tol=np.inf, trace_every=4, checkpoint_every=3)
        rows = []
        callbacks = dict(on_trace=lambda step, time, e, r: rows.append((step, r)),
                         on_checkpoint=lambda s: None) if traced else {}
        result = pk.run(_liposome_state(), PARAMS, cfg, **callbacks)
        assert len(energies) == calls
        assert result.energy is energies[-1]
        if traced:
            assert [step for step, _ in rows] == list(range(0, max_steps + 1, 4))
            assert np.isnan(rows[0][1])
        assert (result.residual == np.inf) == (max_steps == 0)

    def test_max_steps_zero_emits_initial_only(self):
        state = _liposome_state()
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=0, stop_tol=1e-12)
        traced = []
        pk.run(state, PARAMS, cfg, on_trace=lambda step, time, e, r: traced.append(step))
        assert traced == [0]

    def test_energy_decreases_and_traces(self):
        state = _liposome_state(noise=0.01)
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=400, stop_tol=1e-12,
                               trace_every=1)
        energies = []
        pk.run(state, PARAMS, cfg, on_trace=lambda step, time, e, r: energies.append(e.total))
        energy = np.array(energies)
        increments = np.diff(energy[10:])
        assert np.all(increments <= 1e-8 * np.abs(energy[10:-1]))

    def test_mass_deviation_scales_inversely_with_penalty(self):
        # halving K roughly doubles the stationary mass deviation
        deviations = []
        for k_scale in (1.0, 2.0):
            params = pk.PhysParams(zeta=1.0, gamma=1500.0, mass=0.4, epsilon=0.05,
                                   K1=1.5e4 * k_scale, K2=2400.0 * k_scale)
            cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=2500, stop_tol=1e-12)
            result = pk.run(_liposome_state(), params, cfg)
            mass_u = pk.integrate(pk.Field(GRID, pk.interpolant(result.state.u.values)))
            deviations.append(abs(mass_u - params.mass))
        assert deviations[0] / deviations[1] == pytest.approx(2.0, rel=0.35)


class TestPerforatedLiposome2D:
    def test_hole_opens_and_energy_descends(self):
        # in 2-D a perforated ring does not heal: the arc straightens out
        # while the energy decreases monotonically
        params = pk.PhysParams(zeta=1.0, gamma=1500.0, mass=0.6, epsilon=0.05,
                               K1=3e4, K2=4800.0)
        grid = pk.GridSpec((96, 96), (2.6, 2.6))
        cand = pk.optimize_liposome(0.6, 1.0, 1500.0, 2)
        spec = pk.BilayerSpec(
            shape=pk.Shell(center=(1.3, 1.3), inner_radius=cand.radii[1],
                           outer_radius=cand.radii[2]),
            epsilon=0.05, zeta=1.0)
        u, v = pk.build_bilayer(spec, grid)
        u = pk.mass_rescale(u, 0.6)
        v = pk.mass_rescale(v, 0.6)
        relax = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=2000, stop_tol=1e-12)
        settled = pk.run(pk.RunState(u=u, v=v), params, relax).state
        hole_center = (1.3 + cand.mid_radius, 1.3)
        u2, v2 = pk.perforate(settled.u, settled.v, hole_center, 0.09)
        u2 = pk.mass_rescale(u2, 0.6)
        v2 = pk.mass_rescale(v2, 0.6)
        energies = []
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=4000, stop_tol=1e-12,
                               trace_every=50)
        result = pk.run(pk.RunState(u=u2, v=v2), params, cfg,
                        on_trace=lambda step, time, e, r: energies.append(e.total))
        energy = np.array(energies)
        assert energy[-1] < energy[0]
        assert np.all(np.diff(energy[2:]) <= 1e-8 * np.abs(energy[2:-1]))
        # the gap in the ring persists: u on the row through the center (node
        # 48 of 96 on both axes), within unit distance right and left of it
        row = result.state.u.values[48]
        reach = int(1.0 / grid.spacing[0])
        assert row[48:48 + reach + 1].max() < 0.1
        assert row[48 - reach:48 + 1].max() > 0.9


class TestScreening:
    def test_not_applicable_for_empty_state(self):
        state = pk.RunState(u=pk.Field.full(GRID, 0.0), v=pk.Field.full(GRID, 0.0))
        assert np.isnan(pk.screening_check(state, PARAMS))

    def test_charge_balanced_liposome_screens(self):
        state = _liposome_state()
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=1200, stop_tol=1e-12)
        result = pk.run(state, PARAMS, cfg)
        assert pk.screening_check(result.state, PARAMS) < 0.05

    def test_charge_imbalance_breaks_screening(self):
        state = _liposome_state()
        # strip the heads: the tails' charge has nothing to cancel it
        bare = pk.RunState(u=state.u, v=pk.Field.full(GRID, 0.0))
        assert pk.screening_check(bare, PARAMS) > 0.5

    def test_full_exterior_not_applicable(self):
        state = pk.RunState(u=pk.Field.full(GRID, 0.6), v=pk.Field.full(GRID, 0.4))
        assert np.isnan(pk.screening_check(state, PARAMS, threshold=0.01))
