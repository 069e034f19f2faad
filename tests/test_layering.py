"""The shared layers import no domain module, and the instance reader catches input errors by one rule.

``shapes`` is the JSON layer both file kinds share, ``errors`` holds the
exceptions the CLI maps to exit codes, and the package's ``__init__``
registers the modules without running them; none of them may import a
domain module, so that each file kind's rules stay with the code they
protect (the knot file's in ``knots``, the instance file's in ``schema``).
An import is found by the module it names, relative or absolute.

Every domain error is a ``ValueError``, the rule ``cli`` maps to exit 2, so
``schema`` catches ``ValueError`` and lists no module's error classes: an
``except`` clause there names builtin exceptions only.  Neither rule has an
exception.
"""

import ast
import builtins
from pathlib import Path

import surfemb4

PACKAGE = Path(surfemb4.__file__).parent
SHARED = ("__init__", "errors", "shapes")
DOMAIN = frozenset(("bands", "engine", "gamma", "groups", "intlinalg", "knots", "whitney"))


def package_imports(path: Path) -> list:
    """(module, package module imported) for each import of a package module in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
            found += [parts[1] for parts in names if parts[0] == "surfemb4" and len(parts) > 1]
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0 and parts[:1] == ["surfemb4"]:
                parts = parts[1:]
            elif node.level != 1:
                continue
            found += parts[:1] or [alias.name for alias in node.names]
    return [(path.stem, module) for module in found]


def caught_names(path: Path) -> list:
    """(module, except clause's type) for each clause whose type is not builtin exceptions only."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if not all(isinstance(kind, ast.Name) and isinstance(getattr(builtins, kind.id, None), type)
                       and issubclass(getattr(builtins, kind.id), BaseException) for kind in kinds):
                found.append((path.stem, ast.unparse(node.type)))
    return found


def test_shared_layers_import_no_domain_module():
    found = [(module, imported) for name in SHARED
             for module, imported in package_imports(PACKAGE / f"{name}.py") if imported in DOMAIN]
    assert not found, found


def test_the_instance_reader_catches_input_errors_as_value_errors():
    found = caught_names(PACKAGE / "schema.py")
    assert not found, found


def test_the_guards_see_every_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import json\n"
                    "import surfemb4.gamma\n"
                    "from . import errors, knots\n"
                    "from .whitney import t_count\n"
                    "from surfemb4.groups import GroupError\n"
                    "from surfemb4 import bands\n"
                    "def f():\n"
                    "    try:\n"
                    "        pass\n"
                    "    except (TypeError, ValueError):\n"
                    "        pass\n"
                    "    except groups.GroupError:\n"
                    "        pass\n"
                    "    except (ValueError, GroupError):\n"
                    "        pass\n"
                    "    except domain_errors():\n"
                    "        pass\n")
    assert package_imports(path) == [("probe", "gamma"), ("probe", "errors"), ("probe", "knots"),
                                     ("probe", "whitney"), ("probe", "groups"), ("probe", "bands")]
    assert caught_names(path) == [("probe", "groups.GroupError"), ("probe", "(ValueError, GroupError)"),
                                  ("probe", "domain_errors()")]
