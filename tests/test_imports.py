"""Each module of the package uses every name it imports.

No linter runs on the package, so this parses each module with ``ast``.  A
name may stay unused when the benchmark's tracer (``perfbench/tracer.py``)
wraps it on that module: the tracer looks it up there.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = sorted(p for p in (_ROOT / "src" / "spectralvol").glob("*.py")
                  if p.name != "__init__.py")


def _unused(source: str) -> set[str]:
    """Names bound by the imports of ``source`` that no expression of it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


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
