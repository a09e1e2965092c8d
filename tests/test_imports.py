"""Each module of the package uses every name it imports, some code of the
package reads every private name a module defines and every method a class
defines, every exported name is defined where it is exported from, every
``module.name`` the README names is there, every global a test
monkeypatches on a module of the package is one that module's code reads,
and only the Monte Carlo engine builds the engine's stream groups.

No linter runs on the package, so this parses each module with ``ast``.  A
name may stay unused when the benchmark's tracer (``perfbench/tracer.py``)
wraps it on that module: the tracer looks it up there.  A private helper,
class, constant or method that no code reads is left over from a change and
fails; so does a method kept only for tests.  Dunders, and overrides of a
library base class's method (its caller is the library), are exempt.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = sorted(p for p in (_ROOT / "src" / "spectralvol").glob("*.py")
                  if p.name != "__init__.py")


def _bare_reads(source: str) -> set[str]:
    """Names ``source`` reads bare (an ``ast.Name`` load), not as an attribute."""
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _unused(source: str) -> set[str]:
    """Names bound by the imports of ``source`` that no expression of it reads."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - _bare_reads(source)


def _wrap_points() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("tracer", _ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module, attr) for module, attr, _ in tracer.WRAP_POINTS}


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nx = np.sum(pi)\n"
    assert _unused(source) == {"os", "tau"}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    module = f"spectralvol.{path.stem}"
    wrapped = {attr for name, attr in _wrap_points() if name == module}
    assert _unused(path.read_text()) - wrapped == set()


def _definitions(source: str) -> set[str]:
    """Functions, classes and constants ``source`` defines at module level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
    return names


def _private_definitions(source: str) -> set[str]:
    """Private (one leading underscore) names of :func:`_definitions`."""
    return {name for name in _definitions(source)
            if name.startswith("_") and not name.startswith("__")}


def _reads(source: str) -> set[str]:
    """Names ``source`` reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_finds_an_unread_private_name():
    source = ("_A, _B = 1, 2\n_C: int = 3\n__all__ = []\ndef _f(): return _A\n"
              "class _K: pass\ndef g(): return mod._K\n")
    assert _private_definitions(source) - _reads(source) == {"_B", "_C", "_f"}


def _methods(source: str) -> set[tuple[str, str]]:
    """(class, method) of each method the module-level classes of ``source`` define, dunders
    aside."""
    return {(node.name, item.name) for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))}


def _overrides_a_library_method(cls: type, name: str) -> bool:
    """Whether method ``name`` of ``cls`` overrides one of a base class outside the package."""
    return any(hasattr(base, name) for base in cls.__mro__[1:]
               if not base.__module__.startswith("spectralvol"))


def test_finds_an_unread_method():
    source = ("class K:\n    def __init__(self): self.f()\n    def f(self): pass\n"
              "    def g(self): pass\n    @property\n    def h(self): pass\n"
              "class P(Exception):\n    def with_traceback(self, tb): pass\n")
    assert {(cls, name) for cls, name in _methods(source) if name not in _reads(source)} == {
        ("K", "g"), ("K", "h"), ("P", "with_traceback")}
    assert _overrides_a_library_method(Exception, "with_traceback")
    assert not _overrides_a_library_method(Exception, "g")


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in (_ROOT / "src" / "spectralvol").glob("*.py")}
    read = set().union(*map(_reads, sources.values()))
    unread = {(stem, name) for stem, source in sources.items()
              for name in _private_definitions(source) - read}
    for stem, source in sources.items():
        for cls, name in _methods(source):
            owner = getattr(importlib.import_module(f"spectralvol.{stem}"), cls)
            if name not in read and not _overrides_a_library_method(owner, name):
                unread.add((stem, f"{cls}.{name}"))
    assert unread == set()


def _exports(source: str) -> list[str]:
    """The names of the ``__all__`` list ``source`` assigns at module level."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return ast.literal_eval(node.value)
    return []


def _package_imports() -> dict[str, set[str]]:
    """The names ``spectralvol/__init__.py`` imports, by the module it imports them from."""
    imports: dict[str, set[str]] = {}
    for node in ast.parse((_ROOT / "src" / "spectralvol" / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return imports


def test_finds_an_export_left_undefined():
    source = "__all__ = ['f', 'gone', 'K']\ndef f(): pass\nK = 1\n"
    assert set(_exports(source)) - _definitions(source) == {"gone"}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_every_export_is_defined(path):
    source = path.read_text()
    assert set(_exports(source)) - _definitions(source) == set()


def test_the_package_imports_only_exported_names():
    imports = _package_imports()
    assert imports  # the package re-exports its modules' public names
    for module, names in imports.items():
        exported = set(_exports((_ROOT / "src" / "spectralvol" / f"{module}.py").read_text()))
        assert names - exported == set(), module


def _unresolved(text: str) -> list[str]:
    """Each backticked ``module.name`` of ``text`` (call arguments aside, ``module`` a module of
    the package) that is not an attribute of that module; file names such as ``cli.py`` are
    skipped."""
    modules = {p.stem for p in _MODULES}
    missing = []
    for module, path in re.findall(r"`(\w+)((?:\.\w+)+)(?:\([^`]*\))?`", text):
        if module not in modules or path == ".py":
            continue
        obj = importlib.import_module(f"spectralvol.{module}")
        for name in path[1:].split("."):
            obj = getattr(obj, name, missing)
        if obj is missing:
            missing.append(module + path)
    return missing


def test_finds_an_unresolved_readme_reference():
    text = ("`basis.spectrum(kind, n, columns)` and `basis.noise_law`, `cli.py`, `u.u`, "
            "`market._Streams.start`, `market._Streams.stop`")
    assert _unresolved(text) == ["basis.spectrum", "market._Streams.stop"]


def test_every_readme_reference_resolves():
    assert _unresolved((_ROOT / "README.md").read_text()) == []


def _patches(source: str) -> set[tuple[str, str]]:
    """(module, name) of each ``monkeypatch.setattr(module, "name", ...)`` of ``source`` whose
    first argument is a module of the package, by the name ``source`` imports it as."""
    tree = ast.parse(source)
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "spectralvol":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):  # import spectralvol.cli as cli
            modules.update((alias.asname, alias.name.split(".")[1]) for alias in node.names
                           if alias.asname and alias.name.startswith("spectralvol."))
    return {(modules[call.args[0].id], call.args[1].value) for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "setattr" and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "monkeypatch" and len(call.args) >= 2
            and isinstance(call.args[0], ast.Name) and call.args[0].id in modules
            and isinstance(call.args[1], ast.Constant)}


def test_finds_a_patch_that_reaches_no_code():
    tests = ("from spectralvol import market as m\nimport spectralvol.cli as cli\n"
             "import numpy as np\n"
             "def test_it(monkeypatch):\n    monkeypatch.setattr(m, '_A', 1)\n"
             "    monkeypatch.setattr(m, '_B', 2)\n    monkeypatch.setattr(cli, 'run', 3)\n"
             "    monkeypatch.setattr(np, '_C', 4)\n")
    assert _patches(tests) == {("market", "_A"), ("market", "_B"), ("cli", "run")}
    market = "_A = _B = 1\ndef f():\n    return _A + other._B\n"
    assert {name for _, name in _patches(tests)} - {"run"} - _bare_reads(market) == {"_B"}


def test_every_patch_reaches_code():
    """A test that patches a global its module's code no longer reads passes vacuously."""
    patches = set().union(*(_patches(p.read_text()) for p in (_ROOT / "tests").glob("*.py")))
    assert patches  # the tests patch module globals
    sources = {p.stem: p.read_text() for p in _MODULES}
    assert {(module, name) for module, name in patches
            if name not in _bare_reads(sources[module])} == set()


def _callers(source: str, callee: str) -> set[str]:
    """The module-level functions and classes of ``source`` whose code calls ``callee``, bare
    or as an attribute; ``<module>`` for a call outside them."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name if isinstance(node, defs) else "<module>"
            for node in ast.parse(source).body for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and callee in (getattr(call.func, "id", None), getattr(call.func, "attr", None))}


def test_finds_every_caller():
    source = ("def f():\n    return g(_S([1]))\nclass K:\n    def m(self):\n        m._S(2)\n"
              "def h():\n    return _S, S(1)\nx = _S(3)\n")
    assert _callers(source, "_S") == {"f", "K", "<module>"}


def test_only_the_engine_builds_stream_groups():
    """The single-series samplers, the engine's independent reference, draw from numpy's own
    generators and not through the engine's ``market._Streams``."""
    callers = {(p.stem, name) for p in (_ROOT / "src" / "spectralvol").glob("*.py")
               for name in _callers(p.read_text(), "_Streams")}
    assert callers == {("market", "_coefficients")}
