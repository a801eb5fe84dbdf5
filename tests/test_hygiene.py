"""Static hygiene of the package source: no unused imports, no dangling exports.

Pure ``ast`` checks, so they need no linter installed.  The package's
``__init__.py`` re-exports names by importing them and is exempt from the
unused-import rule.  The package reads no numpy name that numpy 1.24, the
floor pyproject.toml allows, lacks.  Import-time checks follow: every name a demo imports
from the package exists and takes the arguments the demo passes it, the
package leaves ``scipy.sparse.csgraph`` unloaded, and the benchmark's
tracer finds every name it wraps.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import torus_phi4

PACKAGE = Path(torus_phi4.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _imported_names(tree: ast.Module) -> dict:
    """Local name bound by each import in the module -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set:
    """Names read anywhere in the module, including string annotations
    and the entries of ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # forward references such as "Trajectory" and __all__ entries
            used.add(node.value)
    return used


def _all_entries(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _top_level_names(tree: ast.Module) -> set:
    names = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_all_names_exist(path):
    tree = ast.parse(path.read_text())
    missing = sorted(set(_all_entries(tree)) - _top_level_names(tree))
    assert not missing, f"{path.name} lists undefined names in __all__: {missing}"


def test_checker_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c\n\nprint(b)\n")
    assert sorted(set(_imported_names(tree)) - _used_names(tree)) == ["c", "os"]


# numpy 2 names that numpy 1.24 lacks, relative to the numpy package;
# ``astype`` is the function np.astype, not the array method
_NUMPY2_ONLY = {"vecdot", "matvec", "vecmat", "unique_values", "unique_counts",
                "unique_inverse", "unique_all", "concat", "permute_dims", "pow",
                "isdtype", "cumulative_sum", "cumulative_prod", "bitwise_count",
                "astype", "linalg.matrix_transpose"}


def _dotted(node: ast.AST) -> str | None:
    """`a.b.c` of a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _numpy2_names(tree: ast.Module) -> list:
    """Uses of a `_NUMPY2_ONLY` name: imported from numpy, or read as an
    attribute of a name that numpy or one of its submodules is imported as."""
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "numpy":
                    modules[a.asname or "numpy"] = a.name if a.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "numpy":
            for a in node.names:
                name = f"{node.module}.{a.name}"
                modules[a.asname or a.name] = name  # it may be a submodule
                if name.removeprefix("numpy.") in _NUMPY2_ONLY:
                    found.append(f"{name} (line {node.lineno})")
    for node in ast.walk(tree):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        head, _, rest = (dotted or "").partition(".")
        if head in modules:
            name = f"{modules[head]}.{rest}"
            if name.removeprefix("numpy.") in _NUMPY2_ONLY:
                found.append(f"{name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy2_only_names(path):
    # the floor CI job (numpy 1.24) would fail on these; this check runs
    # on whatever numpy is installed
    found = _numpy2_names(ast.parse(path.read_text()))
    assert not found, f"{path.name} uses names numpy 1.24 lacks: {found}"


def test_checker_sees_numpy2_names():
    tree = ast.parse("import numpy as np\nimport numpy.linalg as la\n"
                     "from numpy import concat, sum\nfrom numpy import linalg\n"
                     "x = np.zeros(3).astype(int)\ny = np.astype(x, float)\n"
                     "z = la.matrix_transpose(np.vecdot(x, x))\n"
                     "w = linalg.matrix_transpose(x) + np.linalg.norm(x)\n"
                     "v = np.linalg.matrix_transpose(x)\n")
    assert sorted(_numpy2_names(tree)) == sorted([
        "numpy.concat (line 3)", "numpy.astype (line 6)",
        "numpy.linalg.matrix_transpose (line 7)", "numpy.vecdot (line 7)",
        "numpy.linalg.matrix_transpose (line 8)",
        "numpy.linalg.matrix_transpose (line 9)"])


def _missing_package_imports(tree: ast.Module) -> list:
    """`from torus_phi4[.mod] import name` lines whose name does not exist."""
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "torus_phi4":
            mod = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name} (line {node.lineno})"
                        for a in node.names if not hasattr(mod, a.name)]
    return missing


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    # no demo runs in the test suite, so a deletion that breaks one shows here
    missing = _missing_package_imports(ast.parse(path.read_text()))
    assert not missing, f"{path.name} imports names the package lacks: {missing}"


def test_checker_sees_a_missing_package_import():
    tree = ast.parse("from torus_phi4 import ModeLattice, propagator\n"
                     "from torus_phi4.flows import evolve\nimport numpy\n")
    assert _missing_package_imports(tree) == ["torus_phi4.propagator (line 1)"]


def _unbound_package_calls(tree: ast.Module) -> list:
    """Calls `f(...)` and `f.attr(...)` of a name imported from the package
    whose positional count and keyword names its signature rejects."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "torus_phi4":
            mod = importlib.import_module(node.module)
            bound.update((a.asname or a.name, getattr(mod, a.name, None))
                         for a in node.names)
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in bound:
            name, fn = f.id, bound[f.id]
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id in bound:
            name, fn = f"{f.value.id}.{f.attr}", getattr(bound[f.value.id], f.attr, None)
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords):
            continue  # *args or **kwargs: the names are not known here
        try:
            inspect.signature(fn).bind(*node.args, **{k.arg: k for k in node.keywords})
        except TypeError as exc:
            bad.append(f"{name} (line {node.lineno}): {exc}")
    return bad


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind(path):
    # a parameter removed from the package breaks the demo that passes it
    bad = _unbound_package_calls(ast.parse(path.read_text()))
    assert not bad, f"{path.name} calls the package with arguments it rejects: {bad}"


def test_checker_sees_a_call_that_does_not_bind():
    tree = ast.parse("from torus_phi4 import DynamicsConfig, NoisePath\n"
                     "DynamicsConfig(0.5, 'wick')\n"
                     "DynamicsConfig(0.5, n_trunc=8)\n"
                     "DynamicsConfig(0.5, 'wick', True, False)\n"
                     "NoisePath.generate(None, 1.0, 4, seed=0)\n"
                     "NoisePath.generate(None, 1.0, 4, 0, 0)\n")
    assert [b.split(":")[0] for b in _unbound_package_calls(tree)] == [
        "DynamicsConfig (line 3)", "DynamicsConfig (line 4)",
        "NoisePath.generate (line 6)"]


def test_package_import_leaves_csgraph_unloaded():
    # scipy.sparse.csgraph costs tens of ms and about 9 MB at import, and
    # only the tensor norms use it, so `counting` imports it where it is used
    code = ("import sys, torus_phi4; "
            "print('scipy.sparse.csgraph' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "False"


def test_benchmark_tracer_installs_and_restores_every_name(monkeypatch):
    # perfbench/tracer.py wraps layer functions where their callers bind
    # them, read from the owner's __dict__, so a name dropped from the
    # package breaks traced benchmark runs with a KeyError
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    import numpy.fft
    import scipy.fft

    modules = [importlib.import_module(f"torus_phi4.{p.stem}") for p in MODULES]
    owners = modules + [numpy.fft, scipy.fft] + [
        cls for mod in modules for cls in vars(mod).values()
        if inspect.isclass(cls) and cls.__module__ == mod.__name__]
    before = {id(o): dict(vars(o)) for o in owners}
    t = tracer.Tracer()
    try:
        t.install()
        assert len(t._saved) > 20
        for owner, attr, original in t._saved:
            assert original is before[id(owner)][attr], (owner, attr)
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        t.uninstall()
    for owner in owners:
        now = vars(owner)
        assert now.keys() == before[id(owner)].keys(), owner
        changed = [a for a, v in before[id(owner)].items() if now[a] is not v]
        assert not changed, (owner, changed)
