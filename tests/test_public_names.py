"""Every public name in the package is reached by something a verdict uses.

A public module-level function or class of ``src/surfemb4`` passes when
another definition in the package refers to it as an identifier, when it is
the first part of a ``perfbench/layers.py`` target's qualname, or when
``tests/test_acceptance.py`` imports it or reads it as an attribute of an
imported module (``schema.verdict_to_json``).  A name that only its own unit
tests reach belongs in ``tests/helpers.py``, or nowhere.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "surfemb4"

sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402


def _identifiers(node) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _acceptance_uses() -> set[tuple[str, str]]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    used, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "surfemb4":
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("surfemb4."):
            module = node.module.split(".", 1)[1]
            used.update((module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update((a.asname, a.name.split(".", 1)[1]) for a in node.names
                           if a.asname and a.name.startswith("surfemb4."))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            used.add((aliases[node.value.id], node.attr))
    return used


def unreached_public_names() -> list[str]:
    modules = _modules()
    refs: dict[str, set[str]] = {}  # identifier -> "module.name" of the definitions using it
    public = []
    for module, tree in modules.items():
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = f"{module}.{stmt.name}"
                if not stmt.name.startswith("_"):
                    public.append((module, stmt.name))
            for ident in _identifiers(stmt):
                refs.setdefault(ident, set()).add(own)
    traced = {(t.module.split(".", 1)[1], t.qualname.split(".")[0])
              for t in layers.TARGETS if t.module.startswith("surfemb4.")}
    accepted = _acceptance_uses()
    return sorted(
        f"{module}.{name}" for module, name in public
        if not refs.get(name, set()) - {f"{module}.{name}"}
        and (module, name) not in traced and (module, name) not in accepted
    )


def test_every_public_name_is_reached():
    unreached = unreached_public_names()
    assert not unreached, ("reached by no other definition, traced target or acceptance test: "
                           + ", ".join(unreached))
