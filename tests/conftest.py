"""Shared fixtures and oracle helpers for the test suite."""

import struct
import threading
import tracemalloc
import zlib
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import pacok as pk
from pacok import energy, radial


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fft_calls(monkeypatch):
    """Field transforms made while the test runs: a Counter of numpy.fft
    names, each call weighted, as an exact fraction, by the share of axis-0
    planes it covers.

    Every field transform runs in ``grid.quadratic_form`` or in the grid's
    part-transforms, which look numpy.fft up at call time: each forward
    transform starts with ``rfftn`` (``transform_rows``) and each inverse
    ends with ``irfft`` (``invert_rows``); ``irfftn`` is counted too, so that
    a return to the allocating inverse shows up under its own name. A call
    that transforms axis 0 covers every plane; one that does not covers the
    planes of its input, rows cut from a field-shaped array (or a stack of
    them), and weighs their share of that array's planes. So a transform
    taken in slabs, on one thread or two, still counts one.
    """
    calls = Counter()
    lock = threading.Lock()

    def share(a, axes):
        a = np.asarray(a)
        whole = a.base if a.base is not None and a.base.ndim >= a.ndim else a
        if 0 in [axis % a.ndim for axis in axes]:
            return Fraction(1)
        return Fraction(a.shape[0], whole.shape[-a.ndim])

    for name in ("rfftn", "irfft", "irfftn"):
        original = getattr(np.fft, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            if _name == "irfft":
                axes = [kwargs.get("axis", args[1] if len(args) > 1 else -1)]
            else:
                axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
                axes = range(np.ndim(a)) if axes is None else axes
            weight = share(a, axes)
            with lock:
                calls[_name] += weight
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def interpolant_calls(monkeypatch):
    """Shapes of the arrays the cubic interpolant f is evaluated on while the test runs."""
    calls = []

    def counted(z, _original=energy.interpolant, **kwargs):
        calls.append(np.shape(z))
        return _original(z, **kwargs)

    monkeypatch.setattr(energy, "interpolant", counted)
    return calls


def peak_bytes(fn) -> int:
    """Peak bytes that tracemalloc traces while ``fn()`` runs; tracing stops
    whether or not ``fn`` raises."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def potential_W(u, v):
    """Degenerate double well W(u, v) >= 0, elementwise: the unfused oracle
    for ``energy._well_integral``.

    W = 18(u-u^2)^2 + (27/2)[min(v,0)^2 + min(1-v,0)^2 + min(1-u-v,0)^2].
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    well = u - u * u
    penalty = (
        np.minimum(v, 0.0) ** 2
        + np.minimum(1.0 - v, 0.0) ** 2
        + np.minimum(1.0 - u - v, 0.0) ** 2
    )
    return 18.0 * well * well + 13.5 * penalty


def potential_W_grad(u, v):
    """(dW/du, dW/dv), one-sided quadratics differentiated piecewise: the
    unfused oracle for the well part of ``ExplicitForce``."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    overlap = np.maximum(u + v - 1.0, 0.0)
    w_u = 36.0 * (u - u * u) * (1.0 - 2.0 * u) + 27.0 * overlap
    w_v = 27.0 * (np.minimum(v, 0.0) + np.maximum(v - 1.0, 0.0) + overlap)
    return w_u, w_v


def band_limited(grid: pk.GridSpec, rng, max_mode: int = 6, zero_mean: bool = True):
    """Random smooth periodic field with modes up to ``max_mode`` per axis."""
    spec_shape = list(grid.shape)
    spec_shape[-1] = grid.shape[-1] // 2 + 1
    spec = np.zeros(spec_shape, dtype=complex)
    sel = tuple(slice(0, max_mode) for _ in range(grid.dim - 1)) + (slice(0, max_mode),)
    spec[sel] = rng.normal(size=spec[sel].shape) + 1j * rng.normal(size=spec[sel].shape)
    values = np.fft.irfftn(spec, s=grid.shape, axes=tuple(range(grid.dim)))
    if zero_mean:
        values = values - values.mean()
    return pk.Field(grid, values)


def dilated(c: radial.RadialCandidate, scale: float) -> radial.RadialCandidate:
    """The candidate with every radius multiplied by ``scale``."""
    return radial.RadialCandidate(c.n, c.zeta, tuple(r * scale for r in c.radii))


def radial_potential(c: radial.RadialCandidate, r):
    """Potential phi(r) of the candidate, phi(infinity) = 0; vectorized in r.

    Inside the layer [a, b], phi(r) = phi(a) - q_a J(a, r) - s I(a, r) with
    the enclosed charge q_a and density s of ``radial._layers``, the integrals
    J and I of ``radial._drop`` and phi(a) from ``radial.potential_drops``;
    phi is constant inside R0 and zero outside R3.
    """
    r = np.asarray(r, dtype=np.float64)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    phi0, phi1, phi2 = radial.potential_drops(c.radii, c.zeta, c.n)
    drop = np.vectorize(radial._drop, otypes=[np.float64])
    out = np.where(r <= c.radii[0], phi0, 0.0)
    for (a, b, s, q_a), phi_a in zip(radial._layers(c.radii, c.zeta, c.n), (phi0, phi1, phi2)):
        inside = (a < r) & (r <= b)
        out[inside] = phi_a - drop(a, r[inside], s, q_a, c.n)
    return float(out[0]) if scalar else out


def quadrature_nonlocal(candidate: radial.RadialCandidate, nodes: int = 240) -> float:
    """Independent oracle for the Coulombic term: N = (1/2) int phi rho dV,
    with phi from the piecewise potential and fixed Gauss-Legendre panels."""
    from numpy.polynomial.legendre import leggauss

    r0, r1, r2, r3 = candidate.radii
    n, zeta = candidate.n, candidate.zeta
    x, w = leggauss(nodes)
    total = 0.0
    for a, b, density in [(r0, r1, -1.0 / zeta), (r1, r2, 1.0), (r2, r3, -1.0 / zeta)]:
        if b <= a:
            continue
        r = 0.5 * (b - a) * x + 0.5 * (a + b)
        weights = 0.5 * (b - a) * w
        phi = radial_potential(candidate, r)
        surface = 2.0 * np.pi * r if n == 2 else 4.0 * np.pi * r * r
        total += float(np.sum(weights * phi * density * surface))
    return 0.5 * total


def _mp_layers(candidate: radial.RadialCandidate):
    """Radii (as mpf) and charge densities of the three layers, from the inside out."""
    r0, r1, r2, r3 = (mp.mpf(r) for r in candidate.radii)
    zeta = mp.mpf(candidate.zeta)
    return [(r0, r1, -1 / zeta), (r1, r2, mp.mpf(1)), (r2, r3, -1 / zeta)]


def _mp_charge(layers, n: int, r):
    """Enclosed charge int_0^r rho(x) x^(n-1) dx, summed layer by layer."""
    return sum((s * (min(r, b) ** n - a ** n) / n for a, b, s in layers if r > a), mp.mpf(0))


def mp_nonlocal(candidate: radial.RadialCandidate, dps: int = 50):
    """Independent oracle for the Coulombic term at ``dps`` digits:
    N = (c_n/2) int q(r)^2 / r^(n-1) dr by mpmath quadrature over each layer."""
    n = candidate.n
    with mp.workdps(dps):
        layers = _mp_layers(candidate)
        total = sum(mp.quad(lambda r: _mp_charge(layers, n, r) ** 2 / r ** (n - 1), [a, b])
                    for a, b, _ in layers if b > a)
        return (mp.pi if n == 2 else 2 * mp.pi) * total


def mp_potential(candidate: radial.RadialCandidate, r: float, dps: int = 50):
    """Independent oracle for phi(r) at ``dps`` digits: phi(r) = int_r^R3 q(x)/x^(n-1) dx,
    with phi = 0 outside R3, by one mpmath quadrature per interval between radii."""
    n = candidate.n
    with mp.workdps(dps):
        layers = _mp_layers(candidate)
        r = mp.mpf(r)
        points = [r] + [x for x in (layers[0][0], *(b for _, b, _ in layers)) if x > r]
        return sum(mp.quad(lambda x: _mp_charge(layers, n, x) / x ** (n - 1), [lo, hi])
                   for lo, hi in zip(points, points[1:]))


def decode_png(path):
    """RGB pixels (rows top to bottom) of a filter-0, 8-bit RGB PNG."""
    raw = path.read_bytes()
    assert raw[:8] == b"\x89PNG\r\n\x1a\n"
    pos, chunks = 8, {}
    while pos < len(raw):
        (length,) = struct.unpack(">I", raw[pos:pos + 4])
        tag = raw[pos + 4:pos + 8]
        chunks.setdefault(tag, b"")
        chunks[tag] += raw[pos + 8:pos + 8 + length]
        pos += 12 + length
    width, height = struct.unpack(">II", chunks[b"IHDR"][:8])
    data = zlib.decompress(chunks[b"IDAT"])
    stride = 1 + 3 * width
    rows = []
    for row in range(height):
        line = data[row * stride:(row + 1) * stride]
        assert line[0] == 0  # filter byte
        rows.append(np.frombuffer(line[1:], dtype=np.uint8).reshape(width, 3))
    return np.stack(rows)
