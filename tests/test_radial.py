"""Sharp-interface radial theory: energies, potential, optimizers, series, branches."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import pacok as pk
from pacok import radial
from pacok.errors import InvalidCandidateError, OptimizationError, OutOfRangeError

from conftest import dilated, mp_nonlocal, mp_potential, quadrature_nonlocal, radial_potential


class TestRadialCandidate:
    def test_properties(self):
        c = radial.liposome_candidate(2.0, 0.7, 2, 0.7, 0.9)
        assert c.kind == "liposome"
        assert c.mass == pytest.approx(2.0, rel=1e-12)
        r0, r1, r2, r3 = c.radii
        assert c.mid_radius == pytest.approx(0.5 * (r1 + r2))
        assert c.thicknesses == (r1 - r0, r2 - r1, r3 - r2)

    def test_micelle_kind(self):
        c = radial.liposome_candidate(1.0, 1.0, 3, 0.0, 0.0)
        assert c.kind == "micelle"
        assert c.mass == pytest.approx(1.0, rel=1e-12)

    def test_rejects_constraint_violation(self):
        with pytest.raises(InvalidCandidateError):
            pk.RadialCandidate(3, 1.0, (1.0, 2.0, 3.0, 3.5))

    def test_rejects_bad_ordering(self):
        with pytest.raises(InvalidCandidateError):
            pk.RadialCandidate(2, 1.0, (0.9, 0.7, 1.2, 1.4))

    @pytest.mark.parametrize("zeta,radii,named", [
        (float("nan"), (0.1, 0.2, 0.3, 0.4), "zeta must be finite and positive"),
        (1.0, (0.1, 0.2, 0.3, float("inf")), "R3 < inf"),
    ], ids=["nan-zeta", "inf-R3"])
    def test_rejects_non_finite(self, zeta, radii, named):
        # both slip past the mass constraint, whose comparison never fires on NaN
        with pytest.raises(InvalidCandidateError, match=re.escape(named)):
            pk.RadialCandidate(2, zeta, radii)

    def test_rejects_hollow_core_variant(self):
        # R0 = 0 < R1 configurations are not part of the model
        with pytest.raises(InvalidCandidateError):
            radial.liposome_candidate(1.0, 1.0, 3, 0.0, 0.5)

    def test_dilation_preserves_constraints(self):
        c = radial.liposome_candidate(5.0, 1.3, 3, 0.8, 1.1)
        d = dilated(c, 2.5)
        assert d.kind == "liposome"
        assert d.mass == pytest.approx(c.mass * 2.5**3, rel=1e-12)


class TestClosedForms:
    def test_hand_example_n3(self):
        # zeta=1, radii (1, 2, 3, 39^(1/3)): value frozen from two independent
        # routes (polynomial closed form and potential quadrature)
        c = pk.RadialCandidate(3, 1.0, (1.0, 2.0, 3.0, 39.0 ** (1.0 / 3.0)))
        energy = pk.liposome_energy(c, 1.0)
        assert energy.nonlocal_ == pytest.approx(7.3149425613422485, rel=1e-12)
        assert energy.perimeter == pytest.approx(4 * math.pi * (4.0 + 9.0), rel=1e-14)
        assert energy.total == energy.perimeter + 1.0 * energy.nonlocal_

    @pytest.mark.parametrize("n,m,zeta,r0_frac,r1_frac", [
        (2, 2.0, 0.7, 0.80, 0.95),
        (2, 5.0, 1.5, 0.50, 0.70),
        (3, 1.0, 1.0, 0.60, 0.80),
        (3, 8.0, 0.4, 0.90, 0.92),
        (3, 20.0, 2.5, 0.40, 0.55),
    ])
    def test_matches_quadrature_oracle(self, n, m, zeta, r0_frac, r1_frac):
        outer = ((zeta + 1.0) * radial.mass_content(m, n)) ** (1.0 / n)
        r1 = r1_frac * outer
        r0 = r0_frac * r1
        c = radial.liposome_candidate(m, zeta, n, r0, r1)
        oracle = quadrature_nonlocal(c)
        assert pk.liposome_energy(c, 1.0).nonlocal_ == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("n,zeta,gamma", [
        (n, zeta, gamma) for n in (2, 3) for zeta in (0.5, 1.0, 2.0) for gamma in (1.0, 1500.0)])
    def test_optimal_energy_matches_50_digit_oracle(self, n, zeta, gamma):
        # every mass of (1, 7, 1e2, 1e3, 1e4, 1e6) the optimizer solves; at
        # gamma = 1 the smaller ones have no interior liposome minimum
        masses = (1.0, 7.0, 1e2, 1e3, 1e4, 1e6)
        if gamma == 1.0:
            masses = masses[2:] if n == 2 else masses[3:]
        for m in masses:
            c = pk.optimize_liposome(m, zeta, gamma, n)
            exact = radial.sharp_perimeter(c) + gamma * mp_nonlocal(c)
            total = pk.liposome_energy(c, gamma).total
            assert abs(total - exact) <= 1e-13 * abs(exact), (m, float((total - exact) / exact))

    def test_thick_core_matches_50_digit_oracle(self):
        # R0/R1 down to 1e-4: the inner layer spans four decades of radius
        for n in (2, 3):
            for frac in (1e-1, 1e-2, 1e-4):
                c = radial.liposome_candidate(5.0, 1.0, n, frac * 0.5, 0.5)
                value = radial.sharp_nonlocal(c)
                assert abs(value - mp_nonlocal(c)) <= 1e-13 * value

    def test_degenerate_family_continuity(self):
        # R0 -> R1 and R2 -> R3 along a zeta -> 0 family: N stays finite/continuous
        values = []
        for zeta in (0.1, 0.05, 0.02, 0.01):
            c = radial.liposome_candidate(1.0, zeta, 3, 0.7, 0.701)
            values.append(pk.liposome_energy(c, 1.0).nonlocal_)
        assert np.all(np.isfinite(values))
        assert abs(values[-1] - values[-2]) < abs(values[0] - values[1]) + 1.0

    def test_micelle_degeneration(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 4))
            m = float(rng.uniform(0.2, 30.0))
            zeta = float(rng.uniform(0.2, 4.0))
            gamma = float(rng.uniform(0.5, 100.0))
            mc = radial.liposome_candidate(m, zeta, n, 0.0, 0.0)
            assert pk.liposome_energy(mc, gamma).total == pytest.approx(
                pk.micelle_energy(m, zeta, gamma, n), rel=1e-12)


class TestRadialPotential:
    def test_vanishes_outside(self):
        c = radial.liposome_candidate(2.0, 0.7, 2, 0.7, 0.9)
        assert radial_potential(c, c.radii[3] * 1.0001) == 0.0
        assert np.all(radial_potential(c, np.array([2.0, 5.0, 100.0])) == 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_continuity_at_radii(self, n):
        c = radial.liposome_candidate(3.0, 1.2, n, 0.6, 0.8)
        scale = max(abs(radial_potential(c, r)) for r in c.radii[:3])
        for r in c.radii:
            left = radial_potential(c, r * (1 - 1e-9))
            right = radial_potential(c, r * (1 + 1e-9))
            assert abs(left - right) < 1e-7 * scale

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("large", [False, True])
    def test_potential_matches_50_digit_oracle(self, n, large, rng):
        # small: a hand-picked candidate and a micelle (R0 = R1 = 0, whose core
        # encloses no charge); large: the m = 1e6 minimizer, whose layers are
        # ~1e-7 (2-D) and ~2e-4 (3-D) of its radius thick
        if large:
            candidates = [pk.optimize_liposome(1e6, 1.0, 1500.0, n)]
        else:
            candidates = [radial.liposome_candidate(3.0, 1.2, n, 0.6, 0.8),
                          radial.liposome_candidate(3.0, 1.2, n, 0.0, 0.0)]
        for c in candidates:
            r0, r1, r2, r3 = c.radii
            r = np.concatenate([[0.5 * r0], *(rng.uniform(a, b, 4)
                                              for a, b in zip(c.radii, c.radii[1:]))])
            exact = np.array([float(mp_potential(c, x)) for x in r])
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(radial_potential(c, r) - exact)) <= 1e-13 * scale
            drops = radial.potential_drops(c.radii, c.zeta, n)
            exact_drops = [float(mp_potential(c, x)) for x in (r0, r1, r2)]
            assert np.max(np.abs(np.subtract(drops, exact_drops))) <= 1e-13 * scale

    def test_quadrature_identity(self):
        # int phi (1_U - 1_V/zeta) = 2 N, via fixed Gauss-Legendre panels
        c = radial.liposome_candidate(4.0, 1.0, 3, 0.5, 0.9)
        assert quadrature_nonlocal(c) == pytest.approx(
            pk.liposome_energy(c, 1.0).nonlocal_, rel=1e-8)


class TestMicelle:
    def test_optimal_n3_frozen(self):
        m_star, ratio = pk.micelle_optimal(1.0, 1.0, 3)
        assert m_star == pytest.approx(20 * math.pi / (2 * (5 - 3 * 2 ** (2 / 3))), rel=1e-12)
        assert m_star == pytest.approx(132.11246202785665, rel=1e-10)
        assert ratio == pytest.approx(1.4242758862554237, rel=1e-12)

    @pytest.mark.parametrize("n,zeta,gamma", [(2, 1.0, 1.0), (3, 1.0, 1.0),
                                              (2, 0.6, 3.0), (3, 2.0, 7.0)])
    def test_optimal_matches_brute_force(self, n, zeta, gamma):
        m_star, ratio = pk.micelle_optimal(zeta, gamma, n)
        result = minimize_scalar(lambda m: pk.micelle_energy(m, zeta, gamma, n) / m,
                                 bounds=(m_star / 50, m_star * 50), method="bounded",
                                 options={"xatol": 1e-12 * m_star})
        assert result.x == pytest.approx(m_star, rel=1e-6)
        assert result.fun == pytest.approx(ratio, rel=1e-10)

    def test_n2_value_equals_cylinder_branch(self):
        # gamma=1: the optimal n=2 micelle ratio is the cylinder coefficient
        _, ratio = pk.micelle_optimal(1.0, 1.0, 2)
        assert ratio == pytest.approx(radial.branch_cylinder(1.0), rel=1e-14)


class TestStationarity:
    @pytest.mark.parametrize("n,m,zeta,gamma", [
        (2, 1.0, 1.0, 1500.0), (2, 40.0, 0.5, 20.0),
        (3, 1.0, 1.0, 500.0), (3, 1e4, 2.0, 1.0),
    ])
    def test_optimizer_zeroes_residual(self, n, m, zeta, gamma):
        c = pk.optimize_liposome(m, zeta, gamma, n)
        assert float(np.max(np.abs(pk.stationarity_residual(c, gamma)))) < 1e-8

    def test_perturbation_grows_linearly(self):
        c = pk.optimize_liposome(1.0, 1.0, 1500.0, 2)
        r0, r1 = c.radii[0], c.radii[1]

        def residual_norm(delta):
            moved = radial.liposome_candidate(1.0, 1.0, 2, r0, r1 + delta)
            return float(np.max(np.abs(pk.stationarity_residual(moved, 1500.0))))

        big, small = residual_norm(1e-3), residual_norm(5e-4)
        assert big / small == pytest.approx(2.0, rel=0.2)

    def test_asymptotic_candidate_residual_shrinks(self):
        def residual_of_series(m):
            r0, r1 = radial.asymptotic_initial_radii(m, 1.0, 1.0, 3)
            cand = radial.liposome_candidate(m, 1.0, 3, r0, r1)
            return float(np.max(np.abs(pk.stationarity_residual(cand, 1.0))))

        assert residual_of_series(1e8) < residual_of_series(1e6) < residual_of_series(1e4)

    def test_micelle_rejected(self):
        with pytest.raises(InvalidCandidateError):
            pk.stationarity_residual(radial.liposome_candidate(1.0, 1.0, 3, 0.0, 0.0), 1.0)


class TestOptimize:
    def test_mass_constraints_hold(self):
        for n, m, zeta, gamma in [(2, 1.0, 1.0, 1500.0), (3, 10.0, 0.5, 100.0)]:
            c = pk.optimize_liposome(m, zeta, gamma, n)
            assert c.mass == pytest.approx(m, rel=1e-10)
            lhs = c.radii[3] ** n - c.radii[0] ** n
            rhs = (zeta + 1.0) * (c.radii[2] ** n - c.radii[1] ** n)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_thicknesses_match_asymptotics_n3(self):
        c = pk.optimize_liposome(1e6, 1.0, 1.0, 3)
        pred = pk.asymptotic_liposome(1e6, 1.0, 1.0, 3)
        unit = 1.5 ** (1.0 / 3.0)
        assert pred.thickness_middle == pytest.approx(12.0 ** (1.0 / 3.0), rel=1e-14)
        assert c.thicknesses[0] == pytest.approx(pred.thickness_inner, abs=2e-4)
        assert c.thicknesses[1] == pytest.approx(pred.thickness_middle, abs=2e-4)
        assert c.thicknesses[2] == pytest.approx(pred.thickness_outer, abs=2e-4)
        assert c.thicknesses[1] == pytest.approx(2 * unit, abs=1e-2)

    def test_sharp_ratio_at_perforation_mass(self):
        # E/m of the sharp minimizer at m=0.6, gamma=1500: the starting level
        # of the 2-D perforation experiment (see the dynamics tests)
        cand = pk.optimize_liposome(0.6, 1.0, 1500.0, 2)
        ratio = pk.liposome_energy(cand, 1500.0).total / 0.6
        assert ratio == pytest.approx(15.0914588808528, rel=1e-10)
        assert ratio == pytest.approx(15.09, abs=5e-3)

    def test_large_m_thickness_2d_published_values(self):
        c = pk.optimize_liposome(1e4, 1.0, 1500.0, 2)
        assert c.thicknesses[0] == pytest.approx(0.1, abs=1e-3)
        assert c.thicknesses[1] == pytest.approx(0.2, abs=1e-3)
        assert c.thicknesses[2] == pytest.approx(0.1, abs=1e-3)

    def test_inner_layer_thicker_than_outer(self):
        for n, m, zeta, gamma in [(2, 10.0, 1.0, 100.0), (3, 50.0, 0.5, 30.0),
                                  (3, 1e5, 2.0, 1.0)]:
            c = pk.optimize_liposome(m, zeta, gamma, n)
            assert c.thicknesses[0] > c.thicknesses[2]

    def test_matches_nelder_mead_cross_check(self):
        m, zeta, gamma, n = 20.0, 1.0, 10.0, 2
        c = pk.optimize_liposome(m, zeta, gamma, n)
        content = radial.mass_content(m, n)

        def energy_of(x):
            r0, r1 = x
            if r0 <= 0 or r1 <= r0 or r1**n - r0**n >= zeta * content:
                return np.inf
            return pk.liposome_energy(radial.liposome_candidate(m, zeta, n, r0, r1), gamma).total

        from scipy.optimize import minimize
        best = None
        for scale in (0.8, 1.0, 1.2):
            result = minimize(energy_of, [c.radii[0] * scale, c.radii[1] * scale],
                              method="Nelder-Mead",
                              options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
            if best is None or result.fun < best.fun:
                best = result
        assert best.x[0] == pytest.approx(c.radii[0], rel=1e-6)
        assert best.x[1] == pytest.approx(c.radii[1], rel=1e-6)

    def test_equal_mass_constraint_holds(self):
        c = pk.optimize_liposome(1e4, 1.0, 1.0, 3, equal_mass=True)
        inner = c.radii[1] ** 3 - c.radii[0] ** 3
        outer = c.radii[3] ** 3 - c.radii[2] ** 3
        assert inner == pytest.approx(outer, rel=1e-10)
        # equal-mass optimum has higher energy than the free optimum
        free = pk.optimize_liposome(1e4, 1.0, 1.0, 3)
        assert pk.liposome_energy(c, 1.0).total > pk.liposome_energy(free, 1.0).total

    @pytest.mark.parametrize("m,zeta,gamma", [(1e9, 1.0, 1.0), (1e6, 0.5, 1500.0),
                                              (1e9, 1.0, 1500.0)])
    def test_large_mass_2d_converges(self, m, zeta, gamma):
        # the hybrid method works in (log R0, log(R1 - R0)), so its difference
        # steps follow the inner V thickness, which is far below R0 here
        c = pk.optimize_liposome(m, zeta, gamma, 2)
        assert float(np.max(np.abs(pk.stationarity_residual(c, gamma)))) < 1e-15
        pred = pk.asymptotic_liposome(m, zeta, gamma, 2)
        assert c.thicknesses[1] == pytest.approx(pred.thickness_middle, rel=1e-6)

    def test_empty_outer_layer_refused(self):
        # the stationary point lies where R3 would fall to R2
        with pytest.raises(OptimizationError):
            pk.optimize_liposome(7.0, 0.5, 1.0, 2)

    def test_small_liposome_keeps_its_basin(self):
        # MINPACK's default first step (factor 100) runs into its evaluation limit here
        c = pk.optimize_liposome(10 ** (-1 / 3), 0.5, 500.0, 3)
        expected = (0.03253035048944942, 0.2034340882495248, 0.4921837530874566, 0.5498612111387516)
        assert c.radii == pytest.approx(expected, rel=1e-12)

    def test_equal_mass_bracket_is_capped(self, monkeypatch):
        # a gradient that never turns positive exhausts the doublings
        monkeypatch.setattr(radial, "potential_drops", lambda radii, zeta, n: (-1.0, 0.0, 0.0))
        with pytest.raises(OptimizationError, match="failed to bracket"):
            pk.optimize_liposome(1.0, 1.0, 1500.0, 2, equal_mass=True)

    def test_census_refusals(self):
        # the grid of perfbench/workloads.py (RADIAL_GRID) and its known refusals
        reference = Path(__file__).parents[1] / "perfbench" / "reference.json"
        expected = {tuple(p) for p in json.loads(reference.read_text())["analyze"]["radial_refused"]}
        refused = set()
        for n, zeta, gamma, m in itertools.product((2, 3), [0.5 + 0.5 * i for i in range(7)],
                                                   (200.0, 500.0, 1000.0, 1500.0), (1.0, 2.4, 7.0)):
            try:
                c = pk.optimize_liposome(m, zeta, gamma, n)
            except OptimizationError:
                refused.add((n, zeta, gamma, m))
                continue
            assert float(np.max(np.abs(pk.stationarity_residual(c, gamma)))) < 1e-8
        assert refused == expected

    def test_equal_mass_grid_refusals(self):
        # 144 points, pinned: 120 solve, and these 24 (all at small gamma*m) are refused
        expected = {
            (2, 0.5, 1.0, 1.0), (2, 0.5, 1.0, 7.0), (2, 1.0, 1.0, 1.0), (2, 1.0, 1.0, 7.0),
            (2, 2.0, 1.0, 1.0), (2, 2.0, 1.0, 7.0), (2, 2.0, 200.0, 1.0), (2, 3.5, 1.0, 1.0),
            (2, 3.5, 1.0, 7.0), (2, 3.5, 200.0, 1.0), (3, 0.5, 1.0, 1.0), (3, 0.5, 1.0, 7.0),
            (3, 1.0, 1.0, 1.0), (3, 1.0, 1.0, 7.0), (3, 1.0, 1.0, 100.0), (3, 1.0, 200.0, 1.0),
            (3, 2.0, 1.0, 1.0), (3, 2.0, 1.0, 7.0), (3, 2.0, 1.0, 100.0), (3, 2.0, 200.0, 1.0),
            (3, 3.5, 1.0, 1.0), (3, 3.5, 1.0, 7.0), (3, 3.5, 1.0, 100.0), (3, 3.5, 200.0, 1.0),
        }
        refused = set()
        for n, zeta, gamma, m in itertools.product((2, 3), (0.5, 1.0, 2.0, 3.5), (1.0, 200.0, 1500.0),
                                                   (1.0, 7.0, 1e2, 1e4, 1e6, 1e8)):
            try:
                c = pk.optimize_liposome(m, zeta, gamma, n, equal_mass=True)
            except OptimizationError:
                refused.add((n, zeta, gamma, m))
                continue
            r0, r1, r2, r3 = (r**n for r in c.radii)
            assert abs((r1 - r0) - (r3 - r2)) < 1e-14 * r3  # equal V masses, to rounding in R3^n
        assert refused == expected

    @pytest.mark.parametrize("n,zeta,gamma,m,floors", [
        (2, 0.5, 1.0, 1e4, 1.3), (2, 2.0, 1500.0, 1.0, 3.0), (2, 2.0, 1500.0, 1e2, 1.3),
        (3, 0.5, 1500.0, 1.0, 1.3), (3, 2.0, 1.0, 1e2, 3.0), (3, 2.0, 1500.0, 1e4, 1.3),
    ])
    def test_equal_mass_gradient_is_the_stationarity_balance(self, n, zeta, gamma, m, floors):
        # dE/dpivot along the equal-mass family = _ball_coef(n) (B + gamma phi(R0)/zeta)
        pivot = floors * (zeta + 1.0) * radial.mass_content(m, n) / 2.0
        step = 1e-4 * pivot

        def energy(p):
            return pk.liposome_energy(radial.equal_mass_candidate(m, zeta, n, p), gamma).total

        slope = (energy(pivot + step) - energy(pivot - step)) / (2.0 * step)
        radii = radial.equal_mass_candidate(m, zeta, n, pivot).radii
        phi0, balance = radial._stationarity(radii, zeta, gamma, n)
        assert slope == pytest.approx(radial._ball_coef(n) * (balance + gamma * phi0 / zeta), rel=1e-6)

    def test_no_interior_minimum_raises(self):
        # at small mass the liposome family minimizes on the micelle boundary
        with pytest.raises(OptimizationError):
            pk.optimize_liposome(100.0, 1.0, 1.0, 3)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            pk.optimize_liposome(-1.0, 1.0, 1.0, 3)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("name,call", [
    ("m", lambda x: pk.micelle_energy(x, 1.0, 1.0, 3)),
    ("gamma", lambda x: radial.micelle_optimal(1.0, x, 2)),
    ("m", lambda x: pk.optimize_liposome(x, 1.0, 1.0, 3)),
    ("gamma", lambda x: pk.optimize_liposome(1e4, 1.0, x, 3, equal_mass=True)),
    ("zeta", lambda x: pk.asymptotic_liposome(1.0, x, 1.0, 2)),
    ("zeta", lambda x: pk.morphology(x)),
    ("zeta", lambda x: pk.helfrich_moduli(x)),
], ids=["micelle_energy", "micelle_optimal", "optimize_liposome", "equal_mass",
        "asymptotic_liposome", "morphology", "helfrich_moduli"])
def test_entry_points_refuse_non_finite_and_nonpositive(name, call, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        call(value)


def test_import_defers_scipy_optimize():
    # stepping never calls scipy.optimize; only the radial and dipole solvers
    # import it, so neither the package nor the CLI that `pacok run` loads does
    code = "import sys, pacok, pacok.cli; print(sorted(m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(pk.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


class TestAsymptotics:
    def test_leading_terms_n3(self):
        pred = pk.asymptotic_liposome(1e6, 1.0, 1.0, 3)
        assert pred.energy_per_mass == pytest.approx(
            (9.0 * 2.0 / 8.0) ** (1 / 3) + 4 * math.pi / 15 * 21.0 / ((2 / 3) ** (2 / 3)) / 1e6,
            rel=1e-14)
        assert pred.remainder_order == "O(m^-3/2)"

    def test_prediction_converges_to_optimizer(self):
        gaps = []
        for m in (1e4, 1e6):
            c = pk.optimize_liposome(m, 1.0, 1.0, 3)
            pred = pk.asymptotic_liposome(m, 1.0, 1.0, 3)
            gaps.append(abs(pk.liposome_energy(c, 1.0).total / m - pred.energy_per_mass))
        assert gaps[1] < gaps[0] / 100.0

    def test_equal_mass_shift_is_three_times(self):
        for n in (2, 3):
            free = pk.asymptotic_liposome(1e5, 1.3, 2.0, n)
            eqm = pk.asymptotic_liposome(1e5, 1.3, 2.0, n, equal_mass=True)
            shift_free = free.thickness_inner - free.thickness_outer
            shift_eq = eqm.thickness_inner - eqm.thickness_outer
            assert shift_eq / shift_free == pytest.approx(3.0, rel=1e-12)
            assert eqm.shell_mass_imbalance == 0.0

    def test_shell_mass_imbalance_n3(self):
        m = 1e6
        c = pk.optimize_liposome(m, 1.0, 1.0, 3)
        pred = pk.asymptotic_liposome(m, 1.0, 1.0, 3)
        measured = (c.radii[3] ** 3 - c.radii[2] ** 3) - (c.radii[1] ** 3 - c.radii[0] ** 3)
        assert measured == pytest.approx(pred.shell_mass_imbalance, rel=1e-2)


class TestRescaledEnergy:
    """The rescaled thin-shell functional through the dilation identity,
    F_rho = rho^(n-d) E(c dilated by 1/rho) at gamma = 1."""

    @staticmethod
    def rescaled(c, rho, d):
        return rho ** (c.n - d) * pk.liposome_energy(dilated(c, 1.0 / rho), 1.0).total

    @pytest.mark.parametrize("n,d,rho", [(2, 1, 0.3), (2, 2, 0.07), (3, 1, 0.5), (3, 3, 0.02)])
    def test_two_evaluation_paths_agree(self, n, d, rho):
        c = radial.liposome_candidate(4.0, 1.1, n, 0.55, 0.8)
        direct = rho ** (1 - d) * radial.sharp_perimeter(c) + rho ** (-2 - d) * radial.sharp_nonlocal(c)
        assert self.rescaled(c, rho, d) == pytest.approx(direct, rel=1e-12)

    def test_thin_shell_limit(self):
        # d=1, n=3: F_rho/m approaches the flat-bilayer coefficient as rho -> 0
        m, c0 = 5.0, (2.0 / (8.0 / 9.0)) ** (1.0 / 3.0)
        gaps = []
        for rho in (3e-2, 1e-2, 3e-3):
            cand = dilated(pk.optimize_liposome(m * rho ** (-2), 1.0, 1.0, 3), rho)
            gaps.append(abs(self.rescaled(cand, rho, 1) / m - c0))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 5e-4


class TestMorphology:
    def test_threshold_values(self):
        th = pk.thresholds()
        assert th.zeta0 == 2.0 * (math.sqrt(2.0) - 1.0)
        assert th.zeta1 == pytest.approx(1.81696, abs=1e-4)
        assert th.zeta2 == pytest.approx(3.64572, abs=1e-4)

    def test_threshold_roots_to_machine_precision(self):
        # roots of the zeta1 and zeta2 equations solved to 40 digits with
        # mpmath.findroot, rounded to double
        th = pk.thresholds()
        assert th.zeta1 == pytest.approx(1.8169605355365108, rel=1e-14)
        assert th.zeta2 == pytest.approx(3.6457216187201062, rel=1e-14)

    def test_branch_continuity_at_thresholds(self):
        th = pk.thresholds()
        assert abs(radial.branch_bilayer(th.zeta1) - radial.branch_cylinder(th.zeta1)) < 1e-10
        assert abs(radial.branch_cylinder(th.zeta2) - radial.branch_sphere(th.zeta2)) < 1e-10

    def test_values_at_unit_zeta(self):
        # frozen from direct evaluation of the three branch formulas
        assert radial.branch_bilayer(1.0) == pytest.approx(1.3103706971044482, rel=1e-14)
        assert radial.branch_cylinder(1.0) == pytest.approx(1.376387481006915, rel=1e-12)
        assert radial.branch_sphere(1.0) == pytest.approx(1.4242758862554237, rel=1e-12)
        point = pk.morphology(1.0)
        assert point.branch == "bilayer"
        assert point.value == radial.branch_bilayer(1.0)
        assert radial.branch_bilayer(1.0) < radial.branch_cylinder(1.0) < radial.branch_sphere(1.0)

    def test_active_branch_is_pointwise_minimum(self):
        th = pk.thresholds()
        for zeta in np.linspace(th.zeta0 + 1e-3, 8.0, 60):
            point = pk.morphology(float(zeta))
            candidates = {
                "bilayer": radial.branch_bilayer(zeta),
                "cylinder": radial.branch_cylinder(zeta),
                "sphere": radial.branch_sphere(zeta),
            }
            assert point.value == pytest.approx(min(candidates.values()), rel=1e-12)
            assert candidates[point.branch] == point.value

    def test_tpms_flag_below_zeta0(self):
        assert not pk.morphology(0.5).applicable
        assert pk.morphology(1.0).applicable


class TestHelfrichModuli:
    def test_values_at_unit_zeta(self):
        moduli = pk.helfrich_moduli(1.0)
        assert moduli.lambda1 == pytest.approx(2.0965931153671176, rel=1e-12)
        assert moduli.lambda2 == pytest.approx(-0.26207413942088964, rel=1e-12)

    def test_lambda2_sign_change_at_zeta0(self):
        assert abs(pk.helfrich_moduli(pk.ZETA0).lambda2) < 1e-13
        assert pk.helfrich_moduli(pk.ZETA0 - 1e-6).lambda2 > 0
        assert pk.helfrich_moduli(pk.ZETA0 + 1e-6).lambda2 < 0
        assert all(pk.helfrich_moduli(z).lambda1 > 0 for z in (0.1, 1.0, 10.0))

    def test_sphere_cylinder_consistency(self):
        # re-derive the moduli from the two coefficient-matching equations
        for zeta in (0.3, 0.8284, 1.0, 2.0, 5.0):
            moduli = pk.helfrich_moduli(zeta)
            base = ((zeta + 1.0) / 3.0) ** (2.0 / 3.0)
            sphere_sum = (zeta**2 + 4 * zeta + 16.0) / (15.0 * base)
            cylinder_l1 = 4.0 / 15.0 * (zeta**2 + 4 * zeta + 1.0) / base
            assert abs(moduli.lambda1 + moduli.lambda2 - sphere_sum) < 1e-12
            assert abs(moduli.lambda1 - cylinder_l1) < 1e-12


class TestWassersteinThickness:
    def test_flat_interface(self):
        assert pk.wasserstein_thickness(0.01, 0.0) == (0.01, 0.01)

    def test_series_residual_third_order(self):
        kappa = 3.0
        residuals = []
        for eps in (0.02, 0.01, 0.005):
            inner, outer = pk.wasserstein_thickness(eps, kappa)
            residuals.append(abs(inner - (eps + eps**2 * kappa / 2)))
            assert outer == pytest.approx(eps - eps**2 * kappa / 2, abs=2 * eps**3 * kappa**2)
        assert residuals[1] / residuals[0] == pytest.approx(1 / 8, rel=0.3)
        assert residuals[2] / residuals[1] == pytest.approx(1 / 8, rel=0.3)

    def test_equal_mass_factor_three(self):
        eps, kappa = 1e-3, 2.0
        inner, outer = pk.wasserstein_thickness(eps, kappa)
        inner_eq, outer_eq = pk.wasserstein_thickness(eps, kappa, equal_mass=True)
        assert (inner_eq - outer_eq) / (inner - outer) == pytest.approx(3.0, rel=1e-3)

    def test_domain_validation(self):
        with pytest.raises(OutOfRangeError):
            pk.wasserstein_thickness(0.2, 2.0)
        with pytest.raises(OutOfRangeError):
            pk.wasserstein_thickness(-0.1, 0.5)

    @pytest.mark.parametrize("eps,kappa", [(float("nan"), 0.5), (0.01, float("nan"))],
                             ids=["nan-eps", "nan-kappa"])
    def test_refuses_nan(self, eps, kappa):
        with pytest.raises(OutOfRangeError):
            pk.wasserstein_thickness(eps, kappa)

    def test_sign_convention(self):
        inner, outer = pk.wasserstein_thickness(0.05, -1.5)  # curvature enters via |kappa|
        assert inner > 0.05 > outer
