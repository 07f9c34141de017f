"""Layering: the Fourier basis is defined in grid.py alone, threads are
started in dynamics.py alone, and a run's arrays are its stepper's alone.
Other modules borrow the stepper's workers (``dynamics._Workers``) only as
the item of a ``with`` statement, whose end stops the helper thread.

Every other module sees only Fourier multipliers and the grid functions that
apply them, so a change of basis (say, to cosine transforms for mirror
symmetry) touches one module. The checks read the source with ``ast``. The
stepper owns the one helper thread a step may use, and ``import pacok``
leaves the thread pool's module unimported, so that a run that takes no
step pays nothing for it. Outside energy.py only the stepper's methods
touch the force's workspace, and grid.py, which describes geometry, holds
no slab or thread policy. No module imports scipy: the radial and dipole
solvers are ported into ``_solvers.py``, and numpy is the one runtime
dependency.

Guards for deletions and renames ride along: no module imports a name it
never uses, every ``pk.<name>...`` chain that the benchmark's workloads call
still resolves on the package, and so does every pacok attribute that the
benchmark's tracer wraps.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
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


def tracer_targets(tree: ast.Module) -> set[str]:
    """``module.attr`` of each attribute of a module imported from pacok that
    the tracer wraps with ``self._patch(module, attr, ...)`` (``attr`` a
    string, or a ``for`` variable over a tuple of strings) or names as
    ``module.attr`` directly."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "pacok"
               for alias in node.names}

    def patches(node):
        return [call for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "_patch" and isinstance(call.args[0], ast.Name)
                and call.args[0].id in modules]

    targets = {f"{call.args[0].id}.{call.args[1].value}" for call in patches(tree)
               if isinstance(call.args[1], ast.Constant)}
    for loop in ast.walk(tree):
        if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Tuple):
            for call in patches(loop):
                if isinstance(call.args[1], ast.Name) and call.args[1].id == loop.target.id:
                    targets.update(f"{call.args[0].id}.{item.value}" for item in loop.iter.elts)
    targets.update(f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules)
    return targets


# modules through which Python code starts threads or processes
CONCURRENCY_MODULES = {"threading", "_thread", "concurrent", "multiprocessing"}


def imported_modules(tree: ast.Module, packages: set[str]) -> set[str]:
    """Modules of ``packages`` (or their submodules) that the module imports,
    at any depth of its code: by ``import``, by ``from ... import``, or by
    ``importlib.import_module`` or ``__import__`` of a literal name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is not None and node.level == 0:
            modules = [node.module]
        elif (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and (isinstance(node.func, ast.Name) and node.func.id == "__import__"
                   or isinstance(node.func, ast.Attribute) and node.func.attr == "import_module")):
            modules = [node.args[0].value]
        else:
            continue
        names.update(name for name in modules if name.split(".")[0] in packages)
    return names


def loose_workers(tree: ast.Module) -> list[int]:
    """Lines that name ``_Workers`` other than to construct it, as
    ``_Workers(...)`` or ``_Workers.for_grid(...)`` through any module path,
    in the item of a ``with`` statement; an import that renames it counts."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    func = item.context_expr.func
                    if isinstance(func, ast.Attribute) and func.attr == "for_grid":
                        func = func.value
                    allowed.add(id(func))
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "_Workers"
                 or isinstance(node, ast.Attribute) and node.attr == "_Workers")
             and id(node) not in allowed]
    lines += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names if alias.name == "_Workers" and alias.asname]
    return sorted(lines)


def workspace_reads(tree: ast.Module) -> list[int]:
    """Lines that read a ``.work`` or ``.spec`` attribute, the force's
    workspace, outside the methods of a class named ``_Stepper``."""
    allowed = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name == "_Stepper"
               for method in cls.body if isinstance(method, ast.FunctionDef)
               for node in ast.walk(method)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("work", "spec")
                  and id(node) not in allowed)


# words that name how a step walks or threads its fields
POLICY_WORDS = ("slab", "worker", "thread")


def policy_names(tree: ast.Module) -> set[str]:
    """Names of :data:`POLICY_WORDS` that the module binds at its top level or
    in a class body: functions, classes, methods and assignment targets."""
    names = set()
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(sub.id for target in targets for sub in ast.walk(target)
                             if isinstance(sub, ast.Name))
    return {name for name in names if any(word in name.lower() for word in POLICY_WORDS)}


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


@pytest.mark.parametrize("name", [name for name in MODULES if name != "dynamics.py"])
def test_only_dynamics_creates_threads(name):
    assert imported_modules(ast.parse((SRC / name).read_text()), CONCURRENCY_MODULES) == set()


def test_concurrency_import_detector_sees_each_form():
    source = ("import threading\nimport concurrent.futures as cf\nfrom multiprocessing import Pool\n"
              "def f():\n    from concurrent.futures import ThreadPoolExecutor\n"
              "import numpy.threading_free\nfrom . import threading_helpers\n")
    assert imported_modules(ast.parse(source), CONCURRENCY_MODULES) == {
        "threading", "concurrent.futures", "multiprocessing"}


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_scipy(name):
    # the solvers are ported (pacok._solvers); scipy is the tests' oracle
    assert imported_modules(ast.parse((SRC / name).read_text()), {"scipy"}) == set()


def test_scipy_import_detector_sees_each_form():
    source = ("import scipy\nimport scipy.linalg as sl\nfrom scipy import optimize\n"
              "def f():\n    from scipy.optimize import brentq\n"
              "    return importlib.import_module('scipy.special'), __import__('scipy.fft')\n"
              "import scipyx\nfrom . import scipy_free\nimportlib.import_module(name)\n"
              "'scipy'.join(parts)\n")
    assert imported_modules(ast.parse(source), {"scipy"}) == {
        "scipy", "scipy.linalg", "scipy.optimize", "scipy.special", "scipy.fft"}


@pytest.mark.parametrize("name", [name for name in MODULES if name != "dynamics.py"])
def test_workers_are_made_only_as_with_items(name):
    assert loose_workers(ast.parse((SRC / name).read_text())) == []


def test_loose_workers_detector_sees_each_form():
    source = ("from . import dynamics\nfrom .dynamics import _Workers as W\n"
              "with dynamics._Workers.for_grid(g) as w:\n    pass\n"
              "with _Workers(g, True) as w, open(p) as f:\n    pass\n"
              "workers = dynamics._Workers.for_grid(g)\n"
              "with workers:\n    pass\n"
              "_Workers(g).pair(f, h)\n"
              "make = dynamics._Workers\n"
              "with dynamics._Workers.for_grid(g).pair(a, b):\n    pass\n"
              "with dynamics._Workers.two:\n    pass\n")
    assert loose_workers(ast.parse(source)) == [2, 7, 10, 11, 12, 14]


@pytest.mark.parametrize("name", [name for name in MODULES if name != "energy.py"])
def test_only_the_stepper_touches_the_force_workspace(name):
    assert workspace_reads(ast.parse((SRC / name).read_text())) == []


def test_workspace_detector_sees_reads_outside_the_stepper():
    source = ("class _Stepper:\n    def advance(self):\n        self.force.spec\n"
              "        def inner(s):\n            return self.force.work[s]\n"
              "def run(stepper):\n    work = stepper.force.work[0]\n"
              "    return (*stepper.force.work[:2], stepper.force.spec)\n"
              "class Other:\n    def f(self):\n        return self.spec_v, self.work\n")
    assert workspace_reads(ast.parse(source)) == [7, 8, 8, 11]


def test_grid_holds_no_slab_or_thread_policy():
    assert policy_names(ast.parse((SRC / "grid.py").read_text())) == set()


def test_policy_detector_sees_each_form():
    source = ("SLAB_BYTES = 256\nx: int = 2\nclass GridSpec:\n    points: tuple\n"
              "    @property\n    def slabs(self):\n        threads = 2\n"
              "def two_workers(): pass\nclass ThreadPool: pass\nn_thread: int = 1\n")
    assert policy_names(ast.parse(source)) == {
        "SLAB_BYTES", "slabs", "two_workers", "ThreadPool", "n_thread"}


def test_import_pacok_leaves_the_thread_pool_unimported():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", "import sys, pacok; "
                           "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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


# Names the tracer wraps that the package no longer defines, so their spans
# read 0; the benchmark's next change re-points them (ROADMAP item 9).
STALE_TRACER_NAMES = {"dynamics.potential_W_grad"}


def test_tracer_targets_resolve_on_the_package():
    targets = tracer_targets(ast.parse((ROOT / "perfbench" / "tracing.py").read_text()))
    module_names = {target.split(".")[0] for target in targets}
    modules = {name: importlib.import_module(f"pacok.{name}") for name in module_names}
    missing = {target for target in targets
               if not hasattr(modules[target.split(".")[0]], target.split(".")[1])}
    assert {"dynamics.run", "dynamics.total_energy", "cli.total_energy"} <= targets
    assert len(targets) >= 20
    # a name that resolves again leaves the list; a name newly lost joins it
    assert missing == STALE_TRACER_NAMES


def test_tracer_target_detector_sees_each_form():
    source = ("from pacok import cli, dynamics\nimport numpy.fft\n"
              "self._patch(dynamics, 'total_energy', 'x')\n"
              "self._patch(numpy.fft, 'rfftn', 'x')\n"
              "for attr in ('load_config', 'main'):\n    self._patch(cli, attr, 'x')\n"
              "for key in ('a', 'b'):\n    pass\n"
              "original = dynamics.run\n")
    assert tracer_targets(ast.parse(source)) == {
        "dynamics.total_energy", "cli.load_config", "cli.main", "dynamics.run"}


def test_cli_run_hands_both_callbacks_by_keyword():
    # the tracer wraps the callbacks it finds among run()'s keyword arguments
    tree = ast.parse((SRC / "cli.py").read_text())
    command = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_cmd_run")
    runs = [node for node in ast.walk(command)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "run" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "dynamics"]
    assert len(runs) == 1
    assert {"on_trace", "on_checkpoint"} <= {keyword.arg for keyword in runs[0].keywords}
