"""Static hygiene of the package source: no unused imports, no dangling exports.

Pure ``ast`` checks, so they need no linter installed.  The package's
``__init__.py`` re-exports names by importing them and is exempt from the
unused-import rule; each name it re-exports is read by the package, a demo,
the benchmark or the acceptance tests, bar a few oracles that only unit
tests call.  The package reads no numpy name that numpy 1.24, the
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
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


# re-exported for unit tests alone: the oracles they compare against and a
# helper that several test modules share
_TEST_ONLY_EXPORTS = {"resonance_phase", "wick_action", "fiber", "sobolev_norm"}
_PACKAGE_NAMES = frozenset({"torus_phi4"} | {p.stem for p in MODULES})


def _reads(tree: ast.Module, packages: frozenset = _PACKAGE_NAMES) -> set:
    """Names the module reads outside the definition that binds them: loaded
    names, attributes of a name in `packages` and names imported from another
    module, but not a function's or class's own name inside its body."""
    reads = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.update({node.id} - inside)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in packages:
            reads.update({node.attr} - inside)
        elif isinstance(node, ast.ImportFrom):
            reads.update(a.name for a in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return reads


def _reexports(tree: ast.Module) -> list:
    """Names an ``__init__`` imports from its own package's modules."""
    return [a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names]


def test_every_export_is_read_outside_the_unit_tests():
    # a public name whose only caller is its own unit test is dead API
    readers = MODULES + DEMOS + sorted((ROOT / "perfbench").glob("*.py")) + [
        ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*(_reads(ast.parse(p.read_text())) for p in readers))
    exports = _reexports(ast.parse((PACKAGE / "__init__.py").read_text()))
    unread = sorted(set(exports) - read - _TEST_ONLY_EXPORTS)
    assert not unread, ("exports that no package module, demo, benchmark file "
                        f"or acceptance test reads: {unread}")


def test_checker_sees_an_export_read_only_by_itself():
    assert _reexports(ast.parse("from .a import f, g as h\nfrom b import k\n")) == ["f", "h"]
    tree = ast.parse("from m import g\n"
                     "def f(x):\n    return f(x - 1) + x.h + m.k + np.outer(x, x)\n"
                     "print(C)\n"
                     "class C:\n    def m(self):\n        return C()\n"
                     "z = 1\n")
    assert _reads(tree, frozenset({"m"})) - {"x", "m", "np", "print"} == {"g", "k", "C"}


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
