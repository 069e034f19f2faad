"""No package module imports or reads another package module's underscore name.

A module's underscore names are its own: a caller that reaches one couples
itself to an unchecked twin or an internal detail instead of the module's
checked entry.  The package root's ``_lazy`` and ``_INTS`` are shared on
purpose, and dunders such as ``__version__`` are not private.  What remains
is listed in ``ALLOWED``, each entry with its reason.
"""

import ast
from pathlib import Path

import surfemb4

PACKAGE = Path(surfemb4.__file__).parent
EXEMPT = {("surfemb4", "_lazy"), ("surfemb4", "_INTS")}
ALLOWED: dict = {}  # (module, source module, name): reason


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _source(node: ast.ImportFrom) -> str:
    """The package module an import reads from, as "surfemb4" or "surfemb4.<module>"."""
    if node.level:
        return ".".join(filter(None, ("surfemb4", node.module)))
    return node.module or ""


def private_uses(path: Path) -> set:
    """(module, source module, name) for each private name ``path`` takes from another module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}  # local name -> package module it is bound to
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _source(node)
            if source.split(".")[0] != "surfemb4":
                continue
            for alias in node.names:
                if source == "surfemb4" and (PACKAGE / f"{alias.name}.py").exists():
                    modules[alias.asname or alias.name] = f"surfemb4.{alias.name}"
                elif _private(alias.name):
                    uses.add((source, alias.name))
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) == "_lazy"):
            for target in node.targets:
                modules[target.id] = node.value.args[0].value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            uses.add((modules[node.value.id], node.attr))
    return {(path.stem, source.removeprefix("surfemb4.") if source != "surfemb4" else source, name)
            for source, name in uses if (source, name) not in EXEMPT}


def test_no_module_reaches_another_modules_private_names():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= private_uses(path)
    assert found == set(ALLOWED), sorted(found ^ set(ALLOWED))


def test_the_guard_sees_imports_and_attribute_reads(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import _INTS, _lazy, groups\n"
                    "from .gamma import _reduce, build_gamma\n"
                    "schema = _lazy('surfemb4.schema')\n"
                    "x = groups._closure, schema._Object, groups.check_signed, __version__\n")
    assert private_uses(path) == {("probe", "gamma", "_reduce"), ("probe", "groups", "_closure"),
                                  ("probe", "schema", "_Object")}
