"""No module of the package imports a name that it never uses.

Read with the standard library's ``ast``, so no linter is needed.  Each
name that an ``import`` statement binds, anywhere in a module of
``src/surfemb4``, must be read somewhere in that module as a bare name (in
code or in an annotation; ``importlib.util.find_spec`` reads ``importlib``).
``from __future__`` imports are exempt, and so are the relative imports of
``__init__.py``, which re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "surfemb4"


def unused_imports(tree: ast.Module, reexports: bool = False) -> list[str]:
    """The names that ``tree``'s imports bind and that no ``Name`` node reads, in source order."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if not (reexports and node.level):
                bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nimport sys\n"
                     "from typing import Optional as Opt, Sequence\n"
                     "from . import sibling\n"
                     "def f(x: Opt[int]):\n    import json\n    return sys.argv\n")
    assert unused_imports(tree) == ["os", "Sequence", "sibling", "json"]
    assert unused_imports(tree, reexports=True) == ["os", "Sequence", "json"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    assert unused_imports(tree, reexports=path.name == "__init__.py") == []
