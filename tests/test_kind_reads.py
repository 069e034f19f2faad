"""Every read of a ``kind`` in the package is listed here, with its reason.

A group backend answers for itself (``character``, ``check_elems``,
``signed_classifier``), so code that tells the backends apart by their
``kind`` is a branch a new backend would have to edit.  Each ``x.kind`` or
``x["kind"]`` read in ``src/surfemb4`` is found by its module, the
definition that holds it and the comparison it sits in; ``ALLOWED`` names
each one that remains and why.  A new backend reads this list to find every
place that still distinguishes the backends.
"""

import ast
from pathlib import Path

import surfemb4

PACKAGE = Path(surfemb4.__file__).parent
ALLOWED = {  # (module, definition, the comparison holding the read): reason
    ("bands", "validate_record", "record.kind == 'mobius'"):
        "a band record's kind selects its boundary rule (not a group backend)",
    ("bands", "validate_record", "record.kind == 'surface'"):
        "a band record's kind selects its boundary rule (not a group backend)",
    ("bands", "theta", "record.kind == 'annulus'"):
        "the mixed annulus has no Theta (a band record, not a group backend)",
    ("schema", "instance_from_dict", "gdoc['kind'] == 'finite'"):
        "the file's group tag chooses the backend that is built",
    ("gamma", "GammaGroup.finite", "self.ctx.ambient.kind == 'finite'"):
        "only a table group is enumerated for the orbit list and the Smith cross-check",
    ("gamma", "smith_oracle", "G.kind != 'finite'"):
        "the Smith oracle enumerates the whole group, so it refuses an abelian one",
}


def _is_kind_read(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "kind" and isinstance(node.ctx, ast.Load)
    return (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant) and node.slice.value == "kind")


def kind_reads(path: Path) -> list:
    """(module, definition, comparison or read) for each ``kind`` read in ``path``."""
    found = []

    def visit(node, owner, around):
        if _is_kind_read(node):
            found.append((path.stem, owner, ast.unparse(around or node)))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name, None)
            else:
                visit(child, owner, child if isinstance(child, ast.Compare) else around)

    visit(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return found


def test_every_kind_read_is_listed_with_its_reason():
    found = [read for path in sorted(PACKAGE.glob("*.py")) for read in kind_reads(path)]
    assert sorted(found) == sorted(ALLOWED), sorted(set(found) ^ set(ALLOWED))


def test_the_guard_sees_attribute_and_subscript_reads(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("class Backend:\n"
                    "    kind = 'finite'\n"
                    "    def character(self, g, doc):\n"
                    "        if g.kind == 'finite':\n"
                    "            return doc['kind'], doc['other']\n"
                    "def pick(g):\n"
                    "    return g.kind\n")
    assert kind_reads(path) == [("probe", "Backend.character", "g.kind == 'finite'"),
                                ("probe", "Backend.character", "doc['kind']"),
                                ("probe", "pick", "g.kind")]
