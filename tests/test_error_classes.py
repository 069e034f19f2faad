"""An exception class exists only where code tells it apart.

``cli`` maps every domain error to exit 2 by ``ValueError`` and
``errors.InternalConsistency`` to exit 3, and prints ``str(exc)``; so a
class that no code catches by name adds nothing its message does not
already say.  Each exception class in ``src/surfemb4`` is one of:

- (a) defined in ``errors.py``, whose classes ``cli`` reads;
- (b) the one direct ``ValueError`` subclass of its module, that module's error;
- (c) named by some package module in an ``except`` clause or an
  ``isinstance`` call.

A class is found by its ``class`` statement; it is an exception when a base,
by its last name, is a builtin exception or another exception class of the
package.  A name is found in an ``except`` clause or in the second argument
of ``isinstance``, bare or as an attribute, alone or in a tuple.
"""

import ast
import builtins
from pathlib import Path

import surfemb4

PACKAGE = Path(surfemb4.__file__).parent


def _last_name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _is_builtin_exception(name: str) -> bool:
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def exception_classes(paths) -> dict:
    """(module, class) -> the last names of its bases, for each exception class in ``paths``."""
    classes = {(path.stem, node.name): [_last_name(base) for base in node.bases]
               for path in paths for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)}
    found: dict = {}
    while True:
        known = {name for _, name in found}
        more = {key: bases for key, bases in classes.items() if key not in found
                and any(_is_builtin_exception(b) or b in known for b in bases)}
        if not more:
            return found
        found.update(more)


def told_apart(paths) -> set:
    """The last names in every ``except`` clause and ``isinstance`` call in ``paths``."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                kinds = node.type
            elif (isinstance(node, ast.Call) and _last_name(node.func) == "isinstance"
                  and len(node.args) == 2):
                kinds = node.args[1]
            else:
                continue
            found.update(map(_last_name, kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]))
    return found


def untold(paths) -> list:
    """The exception classes in ``paths`` that are none of (a), (b) and (c), as "module.class"."""
    classes = exception_classes(paths)
    direct: dict = {}
    for (module, name), bases in classes.items():
        if "ValueError" in bases:
            direct.setdefault(module, []).append(name)
    caught = told_apart(paths)
    return sorted(f"{module}.{name}" for module, name in classes
                  if module != "errors" and direct.get(module) != [name] and name not in caught)


def test_every_exception_class_is_told_apart_by_code():
    paths = sorted(PACKAGE.glob("*.py"))
    assert exception_classes(paths), "the scan found no exception class"
    found = untold(paths)
    assert not found, "classes no code tells apart: " + ", ".join(found)


def test_the_scan_sees_every_form(tmp_path):
    (tmp_path / "errors.py").write_text("class Shared(Exception):\n    pass\n")
    (tmp_path / "probe.py").write_text(
        "from . import errors\n"
        "class ProbeError(ValueError):\n    pass\n"
        "class Bare(ProbeError):\n    pass\n"
        "class Dotted(errors.Shared):\n    pass\n"
        "class InTuple(ProbeError):\n    pass\n"
        "class ByInstance(KeyError):\n    pass\n"
        "class InInstanceTuple(ProbeError):\n    pass\n"
        "class Untold(Bare):\n    pass\n"
        "class NotAnError:\n    pass\n"
        "def f(x):\n"
        "    try:\n"
        "        pass\n"
        "    except Bare:\n"
        "        pass\n"
        "    except (OSError, mod.InTuple):\n"
        "        pass\n"
        "    return isinstance(x, ByInstance) or isinstance(x, (int, probe.InInstanceTuple))\n")
    (tmp_path / "other.py").write_text(
        "class OtherError(ValueError):\n    pass\n"
        "class SecondError(ValueError):\n    pass\n"
        "def g(x):\n"
        "    try:\n"
        "        pass\n"
        "    except probe.Dotted:\n"
        "        pass\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert sorted(name for _, name in exception_classes(paths)) == [
        "Bare", "ByInstance", "Dotted", "InInstanceTuple", "InTuple", "OtherError", "ProbeError",
        "SecondError", "Shared", "Untold"]
    assert told_apart(paths) >= {"Bare", "InTuple", "ByInstance", "InInstanceTuple", "Dotted"}
    # a module with two direct ValueError subclasses has no one error class
    assert untold(paths) == ["other.OtherError", "other.SecondError", "probe.Untold"]
