"""A CLI child runs only the modules its command uses.

Every verdict is one interpreter start.  ``dataclasses`` brings ``inspect``,
``ast``, ``dis`` and ``tokenize`` with it, and the package's records are
tuples or slotted classes, so no command imports either; this runs the
commands under ``python -X importtime`` and reads the import list.  The same
list shows that ``decide``, ``examples list`` and the ``knot`` commands import
no ``fractions``, ``decimal`` or ``numbers``, and that no command imports
``argparse``, ``gettext`` or ``locale``.

The package registers its domain modules, the instance reader ``schema``
and the shared JSON layer ``shapes``, and ``knots`` registers ``mpmath``, lazily
(``surfemb4._lazy``), and nothing else does; so ``-X importtime`` does not
show which of them ran, and the import list is checked to hold ``errors``,
which ``cli`` imports as usual.  A module has run when it is in
``sys.modules`` as a plain module; an unrun lazy placeholder is of a
``types.ModuleType`` subclass.  The second test reads that list at the end
of the command: every ``knot`` command and every instance command runs
``shapes``, a ``knot`` child never runs ``schema``, and the instance
commands do.  ``examples list``, ``-h`` and a refused command line run
only the package, ``cli`` and ``errors``.

A child that runs the CLI as its program turns the collector off as
``cli.main`` starts and freezes its heap at exit, so no collection walks what
the process made, the two at shutdown included; an in-process call of
``cli.main(argv)`` leaves the collector as it is.  The one other collector
decision is the instance reader's: ``schema.load_instance`` builds with the
collector off and then restores the caller's state, on or off, which saves
about 15% of reading the seed-1 decide-abelian files in process.  The last
tests pin these, and that the CLI finds its shipped files beside its source, so that no child
imports ``importlib.resources`` (with ``zipfile``, ``tempfile`` and
``shutil``), which ``site`` may import already and ``python -S`` does not.
"""

import ast
import gc
import json
import os
import re
import subprocess
import sys
import sysconfig
import zipfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SHIPPED = str(SRC / "surfemb4" / "data" / "instances")
BATCH = ["decide", "--batch", SHIPPED, "--mode", "homotopy"]  # every decide-abelian child runs this path
COMMANDS = [
    ["examples", "list"],
    ["decide", "torus_s3s1"],
    BATCH,
    ["knot", "arf", "trefoil"],
    ["knot", "cp2-verdict", "t2_7"],
]


def _id(argv) -> str:
    """The command as a test id, the shipped directory by its name."""
    return " ".join("instances" if arg == SHIPPED else arg for arg in argv)


HEAVY = re.compile(r"\b(dataclasses|inspect)\b")
ENV = dict(os.environ,
           PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("argv", COMMANDS, ids=_id)
def test_cli_child_skips_dataclasses_and_inspect(argv):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "surfemb4.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=ENV)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "import time:" in proc.stderr
    named = [line for line in proc.stderr.splitlines() if HEAVY.search(line)]
    assert not named, named


# No command builds a rational number: ``knots`` carries each signature point as two ints.
NUMERIC = {"fractions", "decimal", "numbers"}


def _imported(argv, *flags, env=ENV) -> set[str]:
    """The modules that the command's child imports, read off its ``-X importtime`` list."""
    proc = subprocess.run([sys.executable, *flags, "-X", "importtime", "-m", "surfemb4.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "surfemb4.errors" in imported, imported
    return imported


def _assert_no_rationals(argv):
    imported = _imported(argv)
    assert not imported & NUMERIC, imported & NUMERIC


@pytest.mark.parametrize("argv", [["decide", "torus_s3s1"], BATCH, ["examples", "list"]], ids=_id)
def test_decide_and_examples_import_no_rationals(argv):
    _assert_no_rationals(argv)


# Signatures decided at 53 bits; the trefoil has Arf 1, so its cp2 scan computes signatures.
# A signature that needs more bits runs mpmath, which imports ``numbers`` itself: not listed.
KNOT_COMMANDS = [["knot", "arf", "trefoil"], ["knot", "sig", "trefoil", "--omega", "2/7"],
                 ["knot", "cp2-verdict", "trefoil"], ["knot", "sigma-d", "--d", "3", "sum3_trefoil"]]


@pytest.mark.parametrize("argv", KNOT_COMMANDS, ids=_id)
def test_knot_commands_import_no_rationals(argv):
    _assert_no_rationals(argv)


# ``cli`` reads its command table itself; argparse would bring gettext and locale.
PARSING = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", COMMANDS + [a for a in KNOT_COMMANDS if a not in COMMANDS], ids=_id)
def test_cli_child_imports_no_argparse(argv):
    imported = _imported(argv)
    assert not imported & PARSING, imported & PARSING


# ``cli`` reads its shipped files from ``Path(__file__).with_name("data")``.  Under
# ``python -S`` no ``.pth`` file of site-packages runs, so nothing imports these first;
# site-packages stays on the path, since ``knots`` registers ``mpmath``.
RESOURCES = {"importlib.resources", "zipfile", "tempfile", "shutil"}
NO_SITE = dict(ENV, PYTHONPATH=os.pathsep.join([str(SRC), sysconfig.get_paths()["purelib"]]))


@pytest.mark.parametrize("argv", COMMANDS + [a for a in KNOT_COMMANDS if a not in COMMANDS], ids=_id)
def test_cli_child_imports_no_importlib_resources(argv):
    imported = _imported(argv, "-S", env=NO_SITE)
    assert not imported & RESOURCES, imported & RESOURCES


# Runs surfemb4.cli as ``python -m surfemb4.cli`` does, then prints on the last
# line of stderr the package modules and mpmath that ran, the CLI among them.
_RAN = """
import json, runpy, sys, types
try:
    runpy.run_module("surfemb4.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
ran = [name for name, m in sys.modules.items() if type(m) is types.ModuleType
       and (name == "mpmath" or name.split(".")[0] == "surfemb4")]
print(json.dumps(sorted(ran + ["surfemb4.cli"])), file=sys.stderr)
sys.exit(code)
"""

# the instance reader and the domain modules, which only the instance commands run
INSTANCE_SIDE = {f"surfemb4.{m}" for m in ("schema", "engine", "bands", "gamma", "groups", "whitney")}
# the shapes both file kinds use, which every knot and instance command runs
SHAPES = "surfemb4.shapes"
READERS = {"surfemb4.schema", SHAPES}
KNOT = {"surfemb4.knots", SHAPES}
RUNS = [  # (argv, modules that must run, modules that must not)
    (["decide", "torus_s3s1"], READERS | {"surfemb4.engine"}, {"mpmath", "surfemb4.knots"}),
    (BATCH, READERS | {"surfemb4.engine"}, {"mpmath", "surfemb4.knots"}),
    # a table group needs no lattice, so a finite decide compiles no intlinalg;
    # gamma runs it for the Smith oracle
    (["decide", "star_cp2_sphere"], READERS | {"surfemb4.engine"},
     {"surfemb4.intlinalg", "surfemb4.knots", "mpmath"}),
    (["validate", "star_cp2_sphere"], READERS | {"surfemb4.groups"},
     {"surfemb4.intlinalg", "surfemb4.knots", "mpmath"}),
    (["km", "tubed_sphere"], READERS | {"surfemb4.engine"}, {"surfemb4.knots", "mpmath"}),
    (["gamma", "star_cp2_sphere", "--component", "0"], READERS | {"surfemb4.intlinalg"},
     {"surfemb4.knots", "mpmath"}),
    (["knot", "arf", "trefoil"], KNOT, INSTANCE_SIDE | {"mpmath"}),
    (["knot", "alex", "trefoil"], KNOT, INSTANCE_SIDE | {"mpmath"}),
    (["knot", "cp2-verdict", "t2_7"], KNOT, INSTANCE_SIDE | {"mpmath"}),
    # a signature that the 53-bit certificate decides runs no mpmath; the Arf = 1
    # trefoil's cp2 scan computes signatures
    (["knot", "sig", "trefoil"], KNOT, INSTANCE_SIDE | {"mpmath"}),
    (["knot", "cp2-verdict", "trefoil"], KNOT, INSTANCE_SIDE | {"mpmath"}),
    (["knot", "sigma-d", "--d", "3", "sum3_trefoil"], KNOT, INSTANCE_SIDE | {"mpmath"}),
    (["knot", "cp2-bound", "--d", "2", "sum3_trefoil"], KNOT, INSTANCE_SIDE | {"mpmath"}),
    (["knot", "shake-genus", "trefoil"], KNOT, INSTANCE_SIDE | {"mpmath"}),
    # 10^-14 from the root 1/3 the 53-bit step declines, and the 106-bit one runs mpmath
    (["knot", "sig", "trefoil", "--omega", "33333333333333/100000000000000"],
     KNOT | {"mpmath"}, INSTANCE_SIDE),
]


def _ran(argv, code=0) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", _RAN, *argv],
                          capture_output=True, text=True, timeout=120, env=ENV)
    assert proc.returncode == code, proc.stdout + proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


@pytest.mark.parametrize("argv, runs, skips", RUNS, ids=[_id(r[0]) for r in RUNS])
def test_cli_child_runs_only_the_modules_its_command_uses(argv, runs, skips):
    ran = _ran(argv)
    assert runs <= ran, runs - ran
    assert not ran & skips, ran & skips


def test_examples_list_runs_no_domain_module():
    """The dispatcher alone, also for help and for a refused command line: no shape, no reader."""
    for argv, code in (["examples", "list"], 0), (["-h"], 0), (["bogus"], 2):
        assert _ran(argv, code) == {"surfemb4", "surfemb4.cli", "surfemb4.errors"}, argv


# Runs surfemb4.cli as _RAN does; an exit hook registered first, so run last,
# prints on the last line of stderr how many objects the collector holds
# frozen at exit and whether it is on.
_FROZEN_AT_EXIT = """
import atexit, gc, json, runpy, sys
atexit.register(lambda: print(json.dumps([gc.get_freeze_count(), gc.isenabled()]), file=sys.stderr))
runpy.run_module("surfemb4.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv", COMMANDS, ids=_id)
def test_cli_child_exits_with_its_heap_frozen(argv):
    proc = subprocess.run([sys.executable, "-c", _FROZEN_AT_EXIT, *argv],
                          capture_output=True, text=True, timeout=120, env=ENV)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    frozen, enabled = json.loads(proc.stderr.splitlines()[-1])
    assert frozen > 0 and not enabled


@pytest.mark.parametrize("argv", [
    ["examples", "list"], ["knot", "arf", "trefoil"], ["validate", "torus_s3s1"],
    ["decide", "torus_s3s1"], ["km", "tubed_sphere"], ["gamma", "star_cp2_sphere", "--component", "0"],
], ids=_id)
def test_in_process_main_leaves_the_collector_as_it_is(argv, capsys):
    from surfemb4 import cli
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(argv) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
def test_the_instance_reader_pauses_the_collector_and_restores_it(enabled, monkeypatch, tmp_path):
    """``schema.load_instance`` builds with the collector off, and leaves the caller's state, also on a refusal."""
    from surfemb4 import schema
    from surfemb4.errors import SchemaError
    seen, build = [], schema.instance_from_dict
    monkeypatch.setattr(schema, "instance_from_dict", lambda doc: seen.append(gc.isenabled()) or build(doc))
    (tmp_path / "empty.json").write_text("{}")
    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        schema.load_instance(os.path.join(SHIPPED, "torus_s3s1.json"))
        assert gc.isenabled() is enabled
        with pytest.raises(SchemaError):
            schema.load_instance(tmp_path / "empty.json")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert seen == [False, False]


def test_a_zipped_package_cannot_list_its_files(tmp_path):
    archive = tmp_path / "surfemb4.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in (SRC / "surfemb4").rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(SRC).as_posix())
    proc = subprocess.run([sys.executable, "-m", "surfemb4.cli", "examples", "list"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(archive)))
    assert proc.returncode == 2 and proc.stderr == "", proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False and len(doc["errors"]) == 1, doc
    assert doc["errors"][0].startswith("cannot list the shipped instances"), doc


def test_only_the_package_and_knots_register_lazy_modules():
    calls = []
    for path in sorted((SRC / "surfemb4").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy":
                calls.append((path.name, ast.unparse(node.args[0])))
    assert calls == [("__init__.py", "f'{__name__}.{_module}'"), ("knots.py", "'mpmath'")], calls
