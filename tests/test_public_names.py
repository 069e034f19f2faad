"""Every public name in the package is reached by something a verdict uses.

A public module-level function or class of ``src/surfemb4`` passes when
another definition in the package refers to it as an identifier, or when it
is the first part of a ``perfbench/layers.py`` target's qualname.  A public
method of a module-level class passes when a definition other than itself
uses its name as an attribute (``obj.name``, matching by name alone; a bare
name such as a local variable does not count), or when it is a target's
qualname.  The benchmark's tracer is the one reader outside the package: a
name that only tests reach, acceptance tests included, belongs in
``tests/helpers.py``, or nowhere.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "surfemb4"

sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _identifiers(node) -> set[tuple[bool, str]]:
    """(is an attribute, identifier) for each name and attribute used under ``node``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add((False, n.id))
        elif isinstance(n, ast.Attribute):
            out.add((True, n.attr))
    return out


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _owned_identifiers(module: str, tree: ast.Module):
    """(owner, identifiers) per definition; each method of a class is a definition of its own.

    The owner is the definition's "module.qualname", or None for other
    module-level statements.
    """
    for stmt in tree.body:
        if not isinstance(stmt, DEFS):
            yield None, _identifiers(stmt)
        elif not isinstance(stmt, ast.ClassDef):
            yield f"{module}.{stmt.name}", _identifiers(stmt)
        else:
            for node in stmt.decorator_list + stmt.bases + stmt.keywords + stmt.body:
                method = f".{node.name}" if isinstance(node, FUNCS) else ""
                yield f"{module}.{stmt.name}{method}", _identifiers(node)


def unreached_public_names() -> list[str]:
    refs: dict[tuple, set] = {}  # (is an attribute, identifier) -> owners of the definitions using it
    public = []  # (module, qualname, identifier)
    for module, tree in _modules().items():
        for owner, idents in _owned_identifiers(module, tree):
            for ident in idents:
                refs.setdefault(ident, set()).add(owner)
        for stmt in tree.body:
            if isinstance(stmt, DEFS) and not stmt.name.startswith("_"):
                public.append((module, stmt.name, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                public += [(module, f"{stmt.name}.{node.name}", node.name) for node in stmt.body
                           if isinstance(node, FUNCS) and not node.name.startswith("_")]
    traced = {(t.module.split(".", 1)[1], t.qualname) for t in layers.TARGETS
              if t.module.startswith("surfemb4.")}
    traced |= {(module, qualname.split(".")[0]) for module, qualname in traced}

    def reached(module, qualname, ident):
        own = f"{module}.{qualname}"  # uses inside the definition itself do not count
        uses = refs.get((True, ident), set())
        if "." not in qualname:  # a method is reached only as an attribute
            uses = uses | refs.get((False, ident), set())
        users = [o for o in uses if o is None or not (o + ".").startswith(own + ".")]
        return bool(users) or (module, qualname) in traced

    return sorted(f"{module}.{qualname}" for module, qualname, ident in public
                  if not reached(module, qualname, ident))


def test_every_public_name_is_reached():
    unreached = unreached_public_names()
    assert not unreached, ("reached by no other definition or traced target: "
                           + ", ".join(unreached))
