"""The solver ports against scipy.optimize, which only the tests import.

``_solvers.brentq`` must return scipy's roots bitwise and raise what scipy
raises. ``_solvers.hybrd2`` must end where ``scipy.optimize.root(method=
"hybr")`` ends, also when the residuals are inf or NaN or the step norm is
zero, where Python would raise ``ZeroDivisionError`` and C goes on. The
radial optimizer and the dipole shift, which run on both, must refuse and
solve what they refused and solved on scipy.
"""

import importlib.util
import itertools
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

import pacok as pk
from pacok import _solvers, radial
from pacok.errors import OptimizationError

from test_analysis import band_limited

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(workloads)

EPS = float(np.finfo(float).eps)
EQUAL_MASS_GRID = list(itertools.product((2, 3), (0.5, 1.0, 2.0, 3.5), (1.0, 200.0, 1500.0),
                                         (1.0, 7.0, 1e2, 1e4, 1e6, 1e8)))


def ours_hybrd2(fcn, x1, x2):
    """The end point of ``_solvers.hybrd2`` and its number of evaluations of fcn."""
    calls = []

    def counted(a, b):
        calls.append(None)
        return fcn(a, b)

    return (*_solvers.hybrd2(counted, x1, x2), len(calls))


def scipy_hybrd2(fcn, x1, x2):
    """The same from scipy.optimize.root, with the port's tolerance and first trust region."""
    sol = optimize.root(lambda y: fcn(y[0], y[1]), [x1, x2], method="hybr",
                        options={"xtol": _solvers._XTOL, "factor": _solvers._FACTOR})
    # scipy calls fcn at x0 twice before MINPACK's first evaluation, and counts those
    return float(sol.x[0]), float(sol.x[1]), int(sol.nfev) - 2


def scipy_solve(fcn, x1, x2):
    """A stand-in for ``_solvers.hybrd2`` that runs scipy.optimize.root."""
    return scipy_hybrd2(fcn, x1, x2)[:2]


def outcome(solve, *args, **kwargs):
    """repr of what ``solve`` returns, or the name of what it raises."""
    try:
        return repr(solve(*args, **kwargs))
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


@pytest.fixture
def zero_divisions(monkeypatch):
    """Numerators of the divisions by zero that the ports take through ``_div``."""
    seen = []

    def div(num, den, _original=_solvers._div):
        if den == 0.0:
            seen.append(num)
        return _original(num, den)

    monkeypatch.setattr(_solvers, "_div", div)
    return seen


def radial_conditions(monkeypatch, m, zeta, gamma, n):
    """The stationarity conditions and starting point that ``_solve_free`` hands the solver."""
    captured = {}

    def capture(fcn, x1, x2):
        captured.update(fcn=fcn, start=(x1, x2))
        raise OptimizationError("captured")

    with monkeypatch.context() as patch, pytest.raises(OptimizationError, match="captured"):
        patch.setattr(_solvers, "hybrd2", capture)
        radial.optimize_liposome(m, zeta, gamma, n)
    return captured["fcn"], captured["start"]


def solve_grid(points, equal_mass=False):
    """Radii of ``optimize_liposome`` at each (n, zeta, gamma, m), None where it refuses."""
    out = {}
    for n, zeta, gamma, m in points:
        try:
            out[n, zeta, gamma, m] = pk.optimize_liposome(m, zeta, gamma, n, equal_mass=equal_mass).radii
        except OptimizationError:
            out[n, zeta, gamma, m] = None
    return out


class TestBrentq:
    def test_bitwise_scipy_on_a_sweep(self, monkeypatch):
        rng = random.Random(20240817)
        shapes = [
            lambda x, c: x**3 - c,
            lambda x, c: math.cos(x) - c * x,
            lambda x, c: math.expm1(x) - c,
            lambda x, c: (x - c) ** 5,
            lambda x, c: 1e-200 * math.atan(x - c),
            lambda x, c: math.tanh(50.0 * (x - c)),
            lambda x, c: 1e250 * (x - c),
        ]
        cases = 0
        for _ in range(600):
            f, c = rng.choice(shapes), rng.uniform(-1.0, 1.0)
            a, b = c - rng.uniform(0.0, 3.0), c + rng.uniform(0.0, 3.0)
            if rng.random() < 0.5:
                a, b = b, a
            kwargs = dict(args=(c,), xtol=rng.choice([1e-300, 1e-15, 2e-12, 1e-3]),
                          rtol=rng.choice([4.0 * EPS, 8.9e-16, 1e-10]))
            maxiter = rng.choice([5, 100, 100])
            with monkeypatch.context() as patch:
                patch.setattr(_solvers, "_MAXITER", maxiter)
                ours = outcome(_solvers.brentq, f, a, b, **kwargs)
            assert ours == outcome(optimize.brentq, f, a, b, maxiter=maxiter, **kwargs), (a, b, kwargs)
            cases += ours != "RuntimeError"
        assert cases > 400  # most cases converge

    @pytest.mark.parametrize("a,b", [(0.25, 1.0), (-1.0, 0.25)])
    def test_an_endpoint_root_is_returned(self, a, b):
        kwargs = dict(xtol=2e-12, rtol=4.0 * EPS)
        assert (_solvers.brentq(lambda x: x - 0.25, a, b, **kwargs) == 0.25
                == optimize.brentq(lambda x: x - 0.25, a, b, **kwargs))

    def test_thresholds_are_scipys(self):
        th = radial.thresholds()
        assert (th.zeta1, th.zeta2) == (1.8169605355365108, 3.645721618720111)
        kwargs = dict(xtol=1e-300, rtol=4.0 * EPS)
        assert th.zeta1 == optimize.brentq(radial._zeta1_equation, 1.5, 2.2, **kwargs)
        assert th.zeta2 == optimize.brentq(radial._zeta2_equation, 3.0, 4.2, **kwargs)

    @pytest.mark.parametrize("f,kwargs,error", [
        (lambda x: x + 2.0, {}, ValueError),  # one sign on [0, 1]
        (lambda x: 1e-200, {}, ValueError),  # f(a) f(b) underflows to 0
        (lambda x: math.nan, {}, ValueError),
        (lambda x: x - 0.5 if x < 0.75 else math.nan, {}, ValueError),
        (lambda x: x - 0.3, {"xtol": 0.0}, ValueError),
        (lambda x: x - 0.3, {"xtol": -1.0}, ValueError),
        (lambda x: x - 0.3, {"rtol": 3.9 * EPS}, ValueError),
        (lambda x: math.expm1(20.0 * x) - 1.0, {"maxiter": 2}, RuntimeError),
    ], ids=["same-sign", "underflowing-product", "nan", "nan-inside", "xtol-zero",
            "xtol-negative", "rtol-small", "maxiter"])
    def test_raises_what_scipy_raises(self, monkeypatch, f, kwargs, error):
        kwargs = {"xtol": 2e-12, "rtol": 4.0 * EPS, "maxiter": 100, **kwargs}
        with pytest.raises(error):
            optimize.brentq(f, 0.0, 1.0, **kwargs)
        monkeypatch.setattr(_solvers, "_MAXITER", kwargs.pop("maxiter"))
        with pytest.raises(error):
            _solvers.brentq(f, 0.0, 1.0, **kwargs)

    def test_tiny_amplitude_shift_is_scipys(self, rng, monkeypatch, zero_divisions):
        # the moment samples ~1e-170 give equal function values in the
        # extrapolation, whose 0/0 Python would raise on
        grid = pk.GridSpec((32, 32), (2.0, 1.0))
        w = pk.Field(grid, 1e-170 * band_limited(grid, rng, max_mode=7).values)
        ours = pk.zero_dipole_shift(w)
        assert zero_divisions
        monkeypatch.setattr(_solvers, "brentq", optimize.brentq)
        assert ours == pk.zero_dipole_shift(w)

    def test_equal_mass_grid_is_scipys(self, monkeypatch):
        ours = solve_grid(EQUAL_MASS_GRID, equal_mass=True)
        monkeypatch.setattr(_solvers, "brentq", optimize.brentq)
        assert ours == solve_grid(EQUAL_MASS_GRID, equal_mass=True)
        assert sum(radii is None for radii in ours.values()) == 24


class TestHybrd2:
    def test_census_grid_is_scipys(self, monkeypatch):
        ours = solve_grid(workloads.RADIAL_GRID)
        monkeypatch.setattr(_solvers, "hybrd2", scipy_solve)
        theirs = solve_grid(workloads.RADIAL_GRID)
        refused = {point for point, radii in ours.items() if radii is None}
        assert refused == {point for point, radii in theirs.items() if radii is None}
        assert refused == workloads.RADIAL_REFUSED
        solved = [point for point in ours if point not in refused]
        for point in solved:
            assert ours[point] == pytest.approx(theirs[point], rel=1e-12, abs=0.0), point
        same = sum(ours[point] == theirs[point] for point in solved)
        print(f"{same} of {len(solved)} solved census points bitwise scipy's")

    def test_radial_point_with_a_tiny_gradient(self, monkeypatch):
        # the dogleg's scaled gradient here has components below MINPACK's
        # rdwarf, where enorm sums them apart
        fcn, start = radial_conditions(monkeypatch, 100.0, 1.0, 1.0, 3)
        assert ours_hybrd2(fcn, *start) == scipy_hybrd2(fcn, *start)

    @pytest.mark.parametrize("fcn,start", [
        (lambda x, y: (x - 1.0 + 0.1 * y * y, y - 2.0 + 0.3 * math.sin(x)), (0.3, 0.7)),
        (lambda x, y: (1e-300 * (x - 1.0 + 0.1 * y * y), 1e-305 * (y - 2.0)), (0.3, 0.7)),
        (lambda x, y: (1e300 * (x - 1.0), 1e-300 * (y - 2.0 + x * x)), (3.0, -2.0)),
        (lambda x, y: (1e-20 * (x - 1.0 + 0.1 * y * y), 1e-20 * (y - 2.0 + 0.3 * math.sin(x))),
         (3.0, -2.0)),
        (lambda x, y: (x + y - 1.0, 2.0 * x + 2.0 * y - 3.0), (0.3, 0.7)),
        (lambda x, y: (1.0, 2.0), (0.0, 0.0)),
        (lambda x, y: (0.0, 0.0), (0.3, 0.7)),
    ], ids=["smooth", "tiny", "mixed-scales", "straddles-rdwarf", "singular", "constant",
            "zero"])
    @pytest.mark.parametrize("factor", [0.1, 100.0])
    def test_ends_as_scipy_ends(self, monkeypatch, fcn, start, factor):
        monkeypatch.setattr(_solvers, "_FACTOR", factor)
        assert ours_hybrd2(fcn, *start) == scipy_hybrd2(fcn, *start)


def _beyond(cut, value):
    """A smooth system whose residuals are ``value`` where x + y > cut."""
    def fcn(x, y):
        if x + y > cut:
            return value
        return x - 1.0 + 0.1 * y * y, y - 2.0 + 0.3 * math.sin(x)
    return fcn


class TestHybrd2IEEE:
    """Residuals that C carries through as inf or NaN, and a zero step norm."""

    @pytest.mark.parametrize("value", [(math.inf, math.inf), (math.nan, math.nan),
                                       (math.nan, 1.0), (-math.inf, math.inf)],
                             ids=["inf", "nan", "nan-one", "signed-inf"])
    def test_non_finite_at_the_start(self, value):
        fcn = lambda x, y: value  # noqa: E731
        assert ours_hybrd2(fcn, 0.3, 0.7) == scipy_hybrd2(fcn, 0.3, 0.7)

    @pytest.mark.parametrize("cut", [1.5, 2.5, 2.8])
    @pytest.mark.parametrize("value", [(math.inf, math.inf), (math.nan, math.nan), (1.0, math.nan)],
                             ids=["inf", "nan", "one-nan"])
    def test_non_finite_mid_run(self, cut, value):
        fcn = _beyond(cut, value)
        for start in ((0.3, 0.7), (-3.0, 0.1)):
            assert ours_hybrd2(fcn, *start) == scipy_hybrd2(fcn, *start)

    @pytest.mark.parametrize("value", [(math.inf, 1.0), (1.0, math.inf), (math.nan, math.nan)],
                             ids=["inf-one", "one-inf", "nan"])
    @pytest.mark.parametrize("factor", [0.1, 100.0])
    def test_non_finite_jacobian_probe(self, monkeypatch, value, factor):
        # f(x) is finite and a forward-difference probe is not, so the scaling
        # starts at inf or NaN and MINPACK's max and min meet NaN arguments
        fcn = _beyond(1.0 + 5e-9, value)
        monkeypatch.setattr(_solvers, "_FACTOR", factor)
        assert ours_hybrd2(fcn, 0.3, 0.7) == scipy_hybrd2(fcn, 0.3, 0.7)

    def test_zero_step_norm(self, zero_divisions):
        # the step underflows against the scale 1e-300 and its norm is 0;
        # Broyden's update divides by it
        def fcn(x, y):
            return 1e-300 * (x - 0.3) + 1e-310, 1e-300 * (y - 0.7)
        ours = ours_hybrd2(fcn, 0.3, 0.7)
        assert zero_divisions
        assert ours == scipy_hybrd2(fcn, 0.3, 0.7)

    @pytest.mark.parametrize("point", [(7.0, 0.5, 1.0, 2), (1e9, 1.0, 1500.0, 2)],
                             ids=["empty-outer-layer", "large-mass-2d-1e9-1-1500"])
    def test_radial_trials_beyond_the_family(self, monkeypatch, point):
        # trial steps that empty the outer V layer read (inf, inf); at
        # m = 1e9, gamma = 1500 others read NaN, which once took MINPACK's
        # norm through 0/0
        fcn, start = radial_conditions(monkeypatch, *point)
        values = []

        def recorded(x, y):
            values.append(fcn(x, y))
            return values[-1]

        ours = ours_hybrd2(recorded, *start)
        assert not math.isinf(fcn(*start)[0])
        assert any(math.isinf(v[0]) for v in values)
        assert ours == scipy_hybrd2(fcn, *start)
