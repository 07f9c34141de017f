"""Layering: the Fourier basis is defined in grid.py alone.

Every other module sees only Fourier multipliers and the grid functions that
apply them, so a change of basis (say, to cosine transforms for mirror
symmetry) touches one module. The checks read the source with ``ast``.

Two guards for deletions ride along: no module imports a name it never
uses, and every ``pk.<name>...`` chain that the benchmark's workloads call
still resolves on the package.
"""

import ast
import re
from pathlib import Path

import pytest

import pacok as pk

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pacok"
MODULES = sorted(path.name for path in SRC.glob("*.py"))
# numpy.fft names a module may use; analysis takes the 1-D transform of a
# field's marginal for its dipole moments, which needs no field-sized FFT
ALLOWED_FFT = {"analysis.py": {"rfft"}}


def fft_names(tree: ast.Module) -> set[str]:
    """Names the module takes from numpy.fft: ``np.fft.X`` attributes
    (through any alias of numpy) and imports of or from numpy.fft. A bare
    ``np.fft`` that is not followed by an attribute is reported as "fft"."""
    aliases = {"numpy"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
                elif alias.name.startswith("numpy.fft"):
                    names.add("fft")
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module.startswith("numpy.fft"):
                names.update(alias.name for alias in node.names)
            elif node.module == "numpy" and any(alias.name == "fft" for alias in node.names):
                names.add("fft")
    modules = {id(node) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "fft"
               and isinstance(node.value, ast.Name) and node.value.id in aliases}
    followed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node.value) in modules:
            names.add(node.attr)
            followed.add(id(node.value))
    if followed != modules:
        names.add("fft")
    return names


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports that no ``Name`` node reads;
    ``import a.b`` binds ``a``, and ``__future__`` imports bind nothing."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def spectrum_reshapes(tree: ast.Module) -> list[int]:
    """Lines of ``reshape`` calls whose arguments mention ``spectrum_shape``."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reshape"):
            for arg in [*node.args, *(keyword.value for keyword in node.keywords)]:
                if any(isinstance(sub, ast.Attribute) and sub.attr == "spectrum_shape"
                       or isinstance(sub, ast.Name) and sub.id == "spectrum_shape"
                       for sub in ast.walk(arg)):
                    lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", [name for name in MODULES if name != "grid.py"])
def test_only_grid_uses_numpy_fft(name):
    used = fft_names(ast.parse((SRC / name).read_text()))
    assert used <= ALLOWED_FFT.get(name, set()), f"{name} uses numpy.fft.{sorted(used)}"


@pytest.mark.parametrize("name", ["energy.py", "dynamics.py"])
def test_no_half_spectrum_views_outside_grid(name):
    assert spectrum_reshapes(ast.parse((SRC / name).read_text())) == []


@pytest.mark.parametrize("source,expected", [
    ("import numpy as np\nnp.fft.rfftn(a, out=b)", {"rfftn"}),
    ("import numpy\nnumpy.fft.irfft(a)", {"irfft"}),
    ("import numpy as xp\ntransforms = xp.fft", {"fft"}),
    ("from numpy.fft import rfftn, irfftn", {"rfftn", "irfftn"}),
    ("from numpy import fft", {"fft"}),
    ("import numpy.fft", {"fft"}),
    ("import numpy as np\nnp.sum(a)\nfft = 3", set()),
])
def test_fft_detector_sees_each_form(source, expected):
    assert fft_names(ast.parse(source)) == expected


def test_reshape_detector_sees_a_half_spectrum_view():
    source = "square = a.reshape(-1)[:half].reshape(grid.spectrum_shape)\nb = a.reshape(grid.shape)"
    assert spectrum_reshapes(ast.parse(source)) == [1]


@pytest.mark.parametrize("name", [name for name in MODULES if name != "__init__.py"])
def test_no_unused_imports(name):
    assert unused_imports(ast.parse((SRC / name).read_text())) == set()


def test_unused_import_detector_sees_each_form():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .errors import DegenerateFitError, NoCrossingError as Gone\n"
              "raise DegenerateFitError(np.pi)")
    assert unused_imports(ast.parse(source)) == {"os", "Gone"}


def test_benchmark_workloads_resolve_on_the_package():
    source = (ROOT / "perfbench" / "workloads.py").read_text()
    chains = sorted(set(re.findall(r"\bpk((?:\.[A-Za-z_]\w*)+)", source)))
    missing = []
    for chain in chains:
        obj = pk
        for attr in chain[1:].split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append("pk" + chain)
    assert len(chains) >= 20 and missing == []
    # the analyze workload's dipole gate unpacks (f, f')
    for interpolant in ("cubic", "identity"):
        params = pk.PhysParams(zeta=1.0, gamma=1.0, mass=1.0, epsilon=0.05, K1=1.0, K2=1.0,
                               interpolant=interpolant)
        f, f_prime = pk.energy.interpolant_pair(params)
        assert callable(f) and callable(f_prime)
