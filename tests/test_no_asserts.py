"""No module of the package checks anything with an ``assert`` statement.

``python -O`` strips ``assert``s, so an internal check written as one would
silently stop running; the package raises its own exceptions instead
(``errors.InternalConsistency`` for internal checks, exit code 3).  Read
with the standard library's ``ast``, like ``tests/test_unused_imports.py``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "surfemb4"


def assert_lines(tree: ast.Module) -> list[int]:
    """The line of every ``assert`` statement in ``tree``, nested ones included, in source order."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_the_check_finds_an_assert():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
                     "class C:\n    def g(self):\n        assert self\n"
                     "y = 'assert nothing'  # assert in a comment\n")
    assert assert_lines(tree) == [3, 7]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_assert_statement(path):
    assert assert_lines(ast.parse(path.read_text(), str(path))) == []
