"""Convex splitting, step/run control, stability, screening diagnostics."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import pacok as pk
from pacok import analysis, dynamics, initcond
from pacok.dynamics import SPLIT, _Stepper
from pacok.energy import interpolant_pair
from pacok.errors import DivergenceError
from pacok.grid import _k_squared, integrate_array

from conftest import potential_W_grad

GRID = pk.GridSpec((32, 32), (1.8, 1.8))
PARAMS = pk.PhysParams(zeta=1.0, gamma=1500.0, mass=0.4, epsilon=0.05, K1=3e4, K2=4800.0)
CFG = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=100, stop_tol=1e-9)


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
    return w1, pk.potential_W(u, v) - w1


def amplification_matrix(k2: float, dt: float, params, cfg) -> np.ndarray:
    """Mode update matrix of the linearized scheme (W2, nonlocal, penalties off).

    Its spectral radius is <= 1 for every mode and every dt because
    a_uv^2 <= a_uu*a_vv; it says nothing about the full scheme's explicit terms.
    """
    eps = params.epsilon
    den_u = 1.0 + dt * cfg.L1 * (eps * k2 + SPLIT.a_uu / eps)
    den_v = 1.0 + dt * cfg.L2 * (2.0 * params.v_reg * k2 + SPLIT.a_vv / eps)
    c_u = dt * cfg.L1 * SPLIT.a_uv / eps
    c_v = dt * cfg.L2 * SPLIT.a_uv / eps
    return np.array([[1.0 / den_u, -c_u / den_u], [-c_v / den_v, 1.0 / den_v]])


class TestSplitW:
    def test_sum_recovers_w(self, rng):
        u = rng.uniform(-0.5, 1.5, 2000)
        v = rng.uniform(-0.5, 1.5, 2000)
        w1, w2 = split_W(u, v)
        assert np.allclose(w1 + w2, pk.potential_W(u, v), rtol=1e-14, atol=1e-14)

    def test_w1_hessian_positive_definite(self):
        hessian = pk.SplitConstants().hessian()
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
        # the bound rho <= 1 is exactly a_uv^2 <= a_uu * a_vv
        assert SPLIT.a_uv**2 <= SPLIT.a_uu * SPLIT.a_vv


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
        new = pk.step(state, params, CFG)
        assert np.max(np.abs(new.u.values - state.u.values)) < 1e-13
        assert np.max(np.abs(new.v.values - state.v.values)) < 1e-13

    def test_first_order_consistency(self):
        state = _liposome_state()
        du, dv = pk.variational_derivatives(state.u, state.v, PARAMS)

        def rate_error(dt):
            cfg = pk.StepperConfig(L1=CFG.L1, L2=CFG.L2, dt=dt, max_steps=1, stop_tol=1e-12)
            new = pk.step(state, PARAMS, cfg)
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
                pk.step(state, PARAMS, cfg)
        assert err.value.step == 1
        assert "step 1" in str(err.value)

    def test_time_and_step_advance(self):
        state = _liposome_state()
        new = pk.step(state, PARAMS, CFG)
        assert new.step == 1
        assert new.time == pytest.approx(CFG.dt)

    def test_carries_the_energy_of_the_new_state(self):
        new = pk.step(_liposome_state(), PARAMS, CFG)
        assert new.last_energy.total == pk.total_energy(new.u, new.v, PARAMS).total

    def test_equals_first_step_of_run(self):
        state = _liposome_state(noise=0.01)
        new = pk.step(state, PARAMS, CFG)
        traced = []
        cfg = replace(CFG, max_steps=3, stop_tol=np.inf, trace_every=1)
        pk.run(state, PARAMS, cfg, on_trace=lambda s, r: traced.append(s))
        first = traced[1]
        assert np.array_equal(new.u.values, first.u.values)
        assert np.array_equal(new.v.values, first.v.values)
        assert (new.step, new.time) == (first.step, first.time)
        assert new.last_energy == first.last_energy


def _oracle_advance(grid, params, cfg, u, v):
    """The earlier 8-FFT update (transforms of u and of the force taken
    apart, W gradient unfused), kept as an independent oracle."""
    p, eps, axes = params, params.epsilon, tuple(range(grid.dim))
    k2 = _k_squared(grid)
    den_u = 1.0 + cfg.dt * cfg.L1 * (eps * k2 + SPLIT.a_uu / eps)
    den_v = 1.0 + cfg.dt * cfg.L2 * (2.0 * p.v_reg * k2 + SPLIT.a_vv / eps)
    f, fp = interpolant_pair(p)
    fu, fv = f(u), f(v)
    w_hat = np.fft.rfftn(fu - fv / p.zeta)
    phi_hat = np.zeros_like(w_hat)
    np.divide(w_hat, k2, out=phi_hat, where=k2 > 0)
    phi = np.fft.irfftn(phi_hat, s=grid.shape, axes=axes)
    mass_u, mass_v = integrate_array(grid, fu), integrate_array(grid, fv)
    w_u, w_v = potential_W_grad(u, v)
    force_u = (w_u - SPLIT.a_uu * u) / eps + (p.gamma * phi - p.K1 * (p.mass - mass_u)) * fp(u)
    force_v = (w_v - SPLIT.a_vv * v) / eps - (
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
        stepper = _Stepper(grid, params, CFG)
        buffers = [(np.empty(grid.shape), np.empty(grid.shape)) for _ in range(2)]
        new = old = (state.u.values, state.v.values)
        for k in range(50):
            new = stepper.advance(*new, *buffers[k % 2])
            old = _oracle_advance(grid, params, CFG, *old)
        assert np.all(np.isfinite(new[0])) and np.all(np.isfinite(new[1]))
        assert np.max(np.abs(new[0] - state.u.values)) > 1e-6  # the state moved
        assert np.max(np.abs(new[0] - old[0])) <= 1e-12
        assert np.max(np.abs(new[1] - old[1])) <= 1e-12

    def test_warm_step_allocates_less_than_one_field(self):
        grid = pk.GridSpec((32, 32, 32), (2.0, 2.0, 2.0))
        state, params = _noisy_shell(grid, "cubic")
        stepper = _Stepper(grid, params, CFG)
        out = (np.empty(grid.shape), np.empty(grid.shape))
        stepper.advance(state.u.values, state.v.values, *out)  # warm
        tracemalloc.start()
        try:
            stepper.advance(state.u.values, state.v.values, *out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state.u.values.nbytes  # one field: 262 144 B

    def test_six_ffts_per_step(self, fft_calls):
        state = _liposome_state()
        out = (np.empty(GRID.shape), np.empty(GRID.shape))
        _Stepper(GRID, PARAMS, CFG).advance(state.u.values, state.v.values, *out)
        assert sorted(fft_calls) == ["irfft"] * 3 + ["rfftn"] * 3
        fft_calls.clear()
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=5, stop_tol=np.inf)
        pk.run(state, PARAMS, cfg)
        assert len(fft_calls) == 6 * 5 + 3  # five steps, then the final energy

    def test_callback_states_own_their_arrays(self):
        state = _liposome_state(noise=0.01)
        before = (state.u.values.copy(), state.v.values.copy())
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=6, stop_tol=1e-12,
                               trace_every=1, checkpoint_every=2)
        traced, checked = [], []

        def on_trace(current, residual):
            traced.append((current, current.u.values.copy(), current.v.values.copy()))

        def on_checkpoint(current):
            checked.append((current, current.u.values.copy(), current.v.values.copy()))

        result = pk.run(state, PARAMS, cfg, on_trace=on_trace, on_checkpoint=on_checkpoint)
        assert [s.step for s, _, _ in traced] == list(range(7))
        for current, u, v in traced + checked:
            assert np.array_equal(current.u.values, u)
            assert np.array_equal(current.v.values, v)
        assert np.array_equal(traced[-1][0].u.values, result.state.u.values)
        assert not np.shares_memory(traced[-1][0].u.values, result.state.u.values)
        assert np.array_equal(state.u.values, before[0])
        assert np.array_equal(state.v.values, before[1])

    @pytest.mark.parametrize("phase", [0, 1])
    def test_nan_raises_at_its_step(self, monkeypatch, phase):
        original = _Stepper.advance
        steps = []

        def poisoned(self, u, v, out_u=None, out_v=None):
            out = original(self, u, v, out_u, out_v)
            steps.append(None)
            if len(steps) == 3:
                out[phase][3, 5] = np.nan
            return out

        monkeypatch.setattr(_Stepper, "advance", poisoned)
        base = _liposome_state()
        state = pk.RunState(u=base.u, v=base.v, time=10 * CFG.dt, step=10)
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=8, stop_tol=np.inf)
        with pytest.raises(DivergenceError) as err:
            pk.run(state, PARAMS, cfg)
        assert err.value.step == 13
        assert len(steps) == 3


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
                        on_trace=lambda s, r: traced.append(s.step),
                        on_checkpoint=lambda s: checked.append(s.step))
        assert traced == [0, 4, 8, 10]
        assert checked == [0, 5, 10]
        assert result.state.last_energy is not None

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
        callbacks = dict(on_trace=lambda s, r: rows.append((s.step, r)),
                         on_checkpoint=lambda s: None) if traced else {}
        result = pk.run(_liposome_state(), PARAMS, cfg, **callbacks)
        assert len(energies) == calls
        assert result.state.last_energy is energies[-1]
        if traced:
            assert [step for step, _ in rows] == list(range(0, max_steps + 1, 4))
            assert np.isnan(rows[0][1])
        assert (result.residual == np.inf) == (max_steps == 0)

    def test_max_steps_zero_emits_initial_only(self):
        state = _liposome_state()
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=0, stop_tol=1e-12)
        traced = []
        pk.run(state, PARAMS, cfg, on_trace=lambda s, r: traced.append(s.step))
        assert traced == [0]

    def test_energy_decreases_and_traces(self):
        state = _liposome_state(noise=0.01)
        cfg = pk.StepperConfig(L1=1.0, L2=5.0, dt=1.25e-4, max_steps=400, stop_tol=1e-12,
                               trace_every=1)
        energies = []
        pk.run(state, PARAMS, cfg, on_trace=lambda s, r: energies.append(s.last_energy.total))
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
                        on_trace=lambda s, r: energies.append(s.last_energy.total))
        energy = np.array(energies)
        assert energy[-1] < energy[0]
        assert np.all(np.diff(energy[2:]) <= 1e-8 * np.abs(energy[2:-1]))
        # the gap in the ring persists
        probe = analysis._interp_along_ray(result.state.u, (1.3, 1.3), (1.0, 0.0),
                                           np.linspace(0.0, 1.0, 400))
        opposite = analysis._interp_along_ray(result.state.u, (1.3, 1.3), (-1.0, 0.0),
                                              np.linspace(0.0, 1.0, 400))
        assert probe.max() < 0.1
        assert opposite.max() > 0.9


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
