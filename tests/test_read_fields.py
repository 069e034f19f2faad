"""Every field of the instance records is read by something other than its own class and the reader.

A field of ``ProblemInstance``, ``ComponentData`` or ``SignedSubgroup``
passes when a definition of ``src/surfemb4`` reads an attribute of its name
(``obj.name``; a bare name does not count), other than a definition of its
own class and ``schema.instance_from_dict``, which builds it.  Only the
modules that can name the class count: its own module and those that import
it or its module.  So ``record.euler`` in ``bands``, which reads a band
record, does not count as a read of ``ComponentData.euler``.  A field that
no command reads should not be stored; the reader may still check it.
"""

import ast
from pathlib import Path

from surfemb4 import engine, groups

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "surfemb4"

RECORDS = (engine.ProblemInstance, engine.ComponentData, groups.SignedSubgroup)
READER = "schema.instance_from_dict"


def _attribute_reads(node) -> set[str]:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _definitions(module: str, tree: ast.Module):
    """(qualname, attribute reads) per module-level statement; each method of a class on its own."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            yield f"{module}.{getattr(stmt, 'name', '')}", _attribute_reads(stmt)
            continue
        for node in stmt.bases + stmt.keywords + stmt.body:
            yield f"{module}.{stmt.name}.{getattr(node, 'name', '')}", _attribute_reads(node)


def _names_class(tree: ast.Module, owner: str, cls: str) -> bool:
    """Whether a module imports the class, or the module that defines it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == owner and any(a.name == cls for a in node.names):
                return True
            if node.module is None and any(a.name == owner for a in node.names):
                return True
    return False


def field_readers() -> dict[str, set[str]]:
    """'Class.field' -> the definitions that read it outside its class and the reader."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    out = {}
    for cls in RECORDS:
        owner = cls.__module__.rsplit(".", 1)[1]
        own = f"{owner}.{cls.__name__}."
        reads = [(name, attrs) for m, tree in trees.items()
                 if m == owner or _names_class(tree, owner, cls.__name__) for name, attrs in _definitions(m, tree)]
        for field in cls._fields:
            out[f"{cls.__name__}.{field}"] = {
                name for name, attrs in reads
                if field in attrs and name != READER and not name.startswith(own)}
    return out


def test_every_stored_field_is_read():
    unread = sorted(f for f, users in field_readers().items() if not users)
    assert not unread, ("stored but read by no definition outside its class and the reader: "
                        + ", ".join(unread))
