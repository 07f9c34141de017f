"""The input rules of ``pacok.errors``, held at every entry point that applies them."""

import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import pacok as pk
from pacok import initcond, radial, storage
from pacok.errors import InvalidCandidateError, OutOfRangeError


def _cases(entry, governed, fixed=None, error=ValueError):
    """One case per argument in ``governed`` (valid values) that the positive
    rule governs; ``fixed`` holds ``entry``'s other arguments."""
    return [pytest.param(name, error,
                         lambda x, name=name: entry(**(fixed or {}), **{**governed, name: x}),
                         id=f"{entry.__name__}-{name}")
            for name in governed]


RADIAL = {"m": 1.0, "zeta": 1.0, "gamma": 1.0}
POSITIVE_RULE = [
    *_cases(pk.PhysParams, {"zeta": 1.0, "gamma": 1500.0, "mass": 1.0, "epsilon": 0.05,
                            "K1": 3e4, "K2": 4800.0}),
    *_cases(pk.StepperConfig, {"L1": 1.0, "L2": 5.0, "dt": 1e-4},
            {"max_steps": 1, "stop_tol": 1e-3}),
    *[pytest.param(f"lengths[{axis}]", ValueError,
                   lambda x, axis=axis: pk.GridSpec((8, 8), [x if a == axis else 1.0 for a in (0, 1)]),
                   id=f"GridSpec-lengths[{axis}]")
      for axis in (0, 1)],
    *_cases(pk.BilayerSpec, {"epsilon": 0.05, "u_half_thickness": 0.05, "v_thickness": 0.05},
            {"shape": pk.Shell(center=(0.5, 0.5), inner_radius=0.2, outer_radius=0.3)}),
    *_cases(pk.tanh_profile, {"epsilon": 0.1}, {"signed_distance": 0.0}),
    *_cases(pk.wasserstein_thickness, {"eps": 0.01}, {"kappa": 0.5}, OutOfRangeError),
    *_cases(pk.RadialCandidate, {"zeta": 1.0},
            {"n": 2, "radii": radial.liposome_candidate(1.0, 1.0, 2, 0.1, 0.2).radii},
            InvalidCandidateError),
    *_cases(pk.Ball, {"radius": 0.3}, {"center": (0.5, 0.5)}),
    *_cases(pk.Shell, {"inner_radius": 0.2, "outer_radius": 0.3}, {"center": (0.5, 0.5)}),
    *_cases(pk.Slab, {"half_thickness": 0.1, "radius": 0.3},
            {"center": (0.5, 0.5), "normal": (1.0, 0.0)}),
    *_cases(pk.Torus, {"major_radius": 0.5, "minor_radius": 0.2}, {"center": (0.5, 0.5, 0.5)}),
    *_cases(pk.CurveBilayer, {"half_thickness": 0.1},
            {"points": ((0.0, 0.0), (1.0, 0.0), (0.5, 1.0))}),
    *_cases(pk.micelle_energy, RADIAL, {"n": 3}),
    *_cases(pk.micelle_optimal, {"zeta": 1.0, "gamma": 1.0}, {"n": 2}),
    *_cases(pk.optimize_liposome, RADIAL, {"n": 3}),
    *_cases(pk.asymptotic_liposome, RADIAL, {"n": 2}),
    *_cases(pk.morphology, {"zeta": 1.0}),
    *_cases(pk.helfrich_moduli, {"zeta": 1.0}),
]


@pytest.mark.parametrize("name,error,call", POSITIVE_RULE)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(value=st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf]))
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=0.0)
@example(value=-0.0)
@example(value=-5e-324)
def test_positive_rule_refuses_every_value_outside_the_open_half_line(name, error, call, value):
    # a site that drifts back to `x <= 0` lets NaN and +inf through
    with pytest.raises(error, match=re.escape(f"{name} must be finite and positive")):
        call(value)


# JSON values that are not real numbers (Python compares true as 1); null is
# left out, since it is the default of some of the governed arguments
NOT_REAL = pytest.mark.parametrize("value", ["1.0", [1.0], True], ids=["string", "list", "true"])


@NOT_REAL
@pytest.mark.parametrize("name,error,call", POSITIVE_RULE)
def test_positive_rule_refuses_a_value_that_is_not_a_real_number(name, error, call, value):
    with pytest.raises(error, match=re.escape(f"{name} must be finite and positive")):
        call(value)


FIELD = pk.Field.full(pk.GridSpec((8, 8), (1.0, 1.0)), 0.5)
NONNEGATIVE_RULE = [
    pytest.param("v_reg", lambda x: pk.PhysParams(zeta=1.0, gamma=1500.0, mass=1.0, epsilon=0.05,
                                                  K1=3e4, K2=4800.0, v_reg=x), id="PhysParams-v_reg"),
    pytest.param("amplitude", lambda x: storage.NoisePerturbation(amplitude=x),
                 id="NoisePerturbation-amplitude"),
    pytest.param("radius", lambda x: storage.HolePerturbation(center=(0.5, 0.5), radius=x),
                 id="HolePerturbation-radius"),
    pytest.param("amplitude", lambda x: initcond.add_noise(FIELD, x), id="add_noise-amplitude"),
    pytest.param("hole_radius", lambda x: pk.perforate(FIELD, FIELD, (0.5, 0.5), x),
                 id="perforate-hole_radius"),
]


@pytest.mark.parametrize("name,call", NONNEGATIVE_RULE)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(value=st.floats(max_value=0.0, exclude_max=True) | st.sampled_from([math.nan, math.inf]))
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=-5e-324)
def test_nonnegative_rule_refuses_every_value_outside_the_closed_half_line(name, call, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite and nonnegative")):
        call(value)


@NOT_REAL
@pytest.mark.parametrize("name,call", NONNEGATIVE_RULE)
def test_nonnegative_rule_refuses_a_value_that_is_not_a_real_number(name, call, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite and nonnegative")):
        call(value)


@pytest.mark.parametrize("name,call", NONNEGATIVE_RULE)
def test_nonnegative_rule_accepts_zero(name, call):
    call(0.0)
    call(-0.0)
