"""``cli.parse`` reads one strict grammar, pinned by a table of literal lines.

The command comes first; then its positionals and options in any order.  An
option is ``--opt VALUE`` or ``--opt=VALUE`` by its full name, and one that
takes a value takes the next word, whatever it is.  ``--`` ends the options,
and ``-h`` or ``--help`` in place of the command or before ``--`` gives help.
Each line of the table is accepted with the namespace written out in full,
gives help, or is refused with the message written out in full.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from surfemb4 import cli

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

HELP = "help"
COMMAND_LIST = "the commands are validate, decide, km, gamma, knot, examples"
INVARIANTS = "arf, alex, sig, sigma-d, cp2-bound, cp2-verdict, shake-genus"


def decide(instance, mode="regular", batch=False):
    return dict(command="decide", func=cli.cmd_decide, instance=instance, mode=mode, batch=batch)


def gamma(instance, component, other=None, query=None):
    return dict(command="gamma", func=cli.cmd_gamma, instance=instance, component=component,
                other=other, query=query)


def knot(invariant, name, omega="1/1", d=2):
    return dict(command="knot", func=cli.cmd_knot, invariant=invariant, knot=name, omega=omega, d=d)


# (argv, what parse gives): the namespace, HELP, or the ValueError's message
TABLE = [
    # accepted
    (["validate", "torus_s3s1"], dict(command="validate", func=cli.cmd_validate, instance="torus_s3s1")),
    (["validate", "-3"], dict(command="validate", func=cli.cmd_validate, instance="-3")),
    (["km", "--", "-h"], dict(command="km", func=cli.cmd_km, instance="-h")),
    (["examples", "list"], dict(command="examples", func=cli.cmd_examples, what="list")),
    (["decide", "torus_s3s1"], decide("torus_s3s1")),
    (["decide", "--batch", "some/dir", "--mode", "homotopy"], decide("some/dir", "homotopy", True)),
    (["decide", "x", "--mode=homotopy", "--mode", "regular", "--batch", "--batch"],
     decide("x", "regular", True)),
    (["gamma", "--component", "0", "torus_s3s1", "--query", "[0]", "--query=[1]", "--other=1"],
     gamma("torus_s3s1", 0, 1, ["[0]", "[1]"])),
    (["gamma", "x", "--component=-2", "--other", "-3", "--query", "-1 ", "--query", "--"],
     gamma("x", -2, -3, ["-1 ", "--"])),
    (["knot", "sig", "trefoil", "--omega", "-1/3"], knot("sig", "trefoil", "-1/3")),
    (["knot", "--omega=-1/3", "sig", "trefoil", "--d", "-3"], knot("sig", "trefoil", "-1/3", -3)),
    (["knot", "sig", "trefoil", "--omega=--"], knot("sig", "trefoil", "--")),
    (["knot", "sig", "trefoil", "--omega", "--", "--omega", "2/7"], knot("sig", "trefoil", "2/7")),
    (["knot", "sig", "trefoil", "--omega", "-h"], knot("sig", "trefoil", "-h")),
    (["knot", "sig", "--", "-x"], knot("sig", "-x")),
    (["knot", "sig", "--", "--"], knot("sig", "--")),
    (["knot", "arf", "-"], knot("arf", "-")),
    (["knot", "cp2-bound", "--d=3", "--", "--d"], knot("cp2-bound", "--d", d=3)),
    # help
    (["-h"], HELP),
    (["--help"], HELP),
    (["-h", "bogus", "--d"], HELP),
    (["knot", "sig", "--help", "trefoil"], HELP),
    (["knot", "arf", "-h", "--", "x"], HELP),
    (["gamma", "x", "--component", "y", "-h"], HELP),
    (["decide", "x", "--mode", "bogus", "--bogus", "extra", "-h"], HELP),
    (["knot", "foo", "-h"], HELP),
    # refused: no command, or words before it
    ([], f"no command given; {COMMAND_LIST}"),
    (["foo"], f"unknown command 'foo'; {COMMAND_LIST}"),
    (["-hh"], f"unknown command '-hh'; {COMMAND_LIST}"),
    (["-x", "decide", "x"], f"unknown command '-x'; {COMMAND_LIST}"),
    (["--", "decide", "x"], f"unknown command '--'; {COMMAND_LIST}"),
    (["--he"], f"unknown command '--he'; {COMMAND_LIST}"),
    # refused: options by a prefix, or with a value where none is taken
    (["decide", "torus_s3s1", "--mo=homotopy", "--batch"], "unrecognized arguments: --mo=homotopy"),
    (["knot", "--omega=-1/3", "sig", "trefoil", "--om", "1/3", "--d", "-3"],
     "unrecognized arguments: --om 1/3"),
    (["gamma", "--comp", "0", "torus_s3s1", "--query", "[0]", "--q=[1]", "--other=1"],
     "gamma: missing --component"),
    (["decide", "x", "--b"], "unrecognized arguments: --b"),
    (["decide", "x", "-hh"], "unrecognized arguments: -hh"),
    (["decide", "x", "-h=h"], "unrecognized arguments: -h=h"),
    (["decide", "x", "--help=x"], "unrecognized arguments: --help=x"),
    (["decide", "x", "--batch=yes"], "unrecognized arguments: --batch=yes"),
    (["decide", "x", "--=regular"], "unrecognized arguments: --=regular"),
    (["decide", "x", "extra", "--bogus"], "unrecognized arguments: --bogus extra"),
    # refused: values and positionals
    (["knot", "sig", "trefoil", "--omega"], "--omega needs a value"),
    (["gamma", "x", "--component", "x"], "--component takes an integer, not 'x'"),
    (["gamma", "x", "--component", "-h"], "--component takes an integer, not '-h'"),
    (["gamma", "x", "--component", "0", "--other", " 7 x"], "--other takes an integer, not ' 7 x'"),
    # refused: an integer word that is not canonical decimal, text != str(int(text))
    (["gamma", "x", "--query", "-h", "--component", "1_0"], "--component takes an integer, not '1_0'"),
    (["gamma", "x", "--component", " 0 "], "--component takes an integer, not ' 0 '"),
    (["gamma", "x", "--component", "0", "--other", "+1"], "--other takes an integer, not '+1'"),
    (["gamma", "x", "--component", "007"], "--component takes an integer, not '007'"),
    (["gamma", "x", "--component", "-0"], "--component takes an integer, not '-0'"),
    (["knot", "sigma-d", "--d", "\u0663", "trefoil"], "--d takes an integer, not '\u0663'"),
    (["decide", "x", "--mode", "bogus"], "--mode takes one of regular, homotopy, not 'bogus'"),
    (["decide", "x", "--mode=--"], "--mode takes one of regular, homotopy, not '--'"),
    (["knot", "foo", "trefoil"], f"knot: invariant is one of {INVARIANTS}, not 'foo'"),
    (["examples", "all"], "examples: what is one of list, not 'all'"),
    (["decide"], "decide: missing instance"),
    (["knot"], "knot: missing invariant, knot"),
    (["gamma", "torus_s3s1"], "gamma: missing --component"),
    (["gamma", "--other", "1"], "gamma: missing instance, --component"),
]


def _id(argv) -> str:
    return " ".join(arg if len(arg) < 20 else f"<{len(arg)} digits>" for arg in argv) or "<empty>"


@pytest.mark.parametrize(("argv", "expected"), TABLE, ids=[_id(argv) for argv, _ in TABLE])
def test_parse_table(argv, expected):
    try:
        args = cli.parse(argv)
    except ValueError as exc:
        got = str(exc)
    else:
        got = HELP if args.func is cli.cmd_help else vars(args)
    assert got == expected


# (--omega, the half refused): p and q of p/q are read as canonical decimal words
OMEGA_REFUSALS = [
    ("1_0/ 7", "1_0"),
    ("1/ 7", " 7"),
    ("+1/3", "+1"),
    ("1/03", "03"),
    ("-0/3", "-0"),
    ("\u0663", "\u0663"),
]


@pytest.mark.parametrize(("omega", "half"), OMEGA_REFUSALS, ids=[omega for omega, _ in OMEGA_REFUSALS])
def test_omega_takes_canonical_integers(omega, half):
    args = cli.parse(["knot", "sig", "trefoil", "--omega", omega])
    with pytest.raises(ValueError) as exc:
        cli.cmd_knot(args)
    assert str(exc.value) == f"bad --omega {omega!r}: invalid literal for int() with base 10: {half!r}"


@pytest.mark.parametrize("line", cli.USAGE.splitlines(), ids=lambda line: line.split("#")[0].strip())
def test_every_usage_line_parses(line):
    """Each example in ``cli.USAGE`` (README's block) gives help or holds its literal values."""
    program, *argv = shlex.split(line, comments=True)
    assert program == "surfemb4"
    args = cli.parse(argv)
    if args.func is cli.cmd_help:
        assert argv == ["-h"]
        return
    values = vars(args)
    literals = {str(v) for value in values.values() for v in (value if isinstance(value, list) else [value])}
    for word in argv[1:]:
        option, eq, text = word.partition("=")
        if word.startswith("--"):
            assert option[2:] in values and values[option[2:]] is not None
            assert not eq or text in literals
        else:
            assert word in literals, word
    assert args.func is getattr(cli, f"cmd_{argv[0]}")


BAD_LINES = [
    [],
    ["decide"],
    ["gamma", "torus_s3s1"],
    ["knot", "foo", "trefoil"],
    ["gamma", "torus_s3s1", "--component", "x"],
    ["decide", "torus_s3s1", "--mode", "bogus"],
    ["decide", "torus_s3s1", "--bogus"],
    ["decide", "torus_s3s1", "extra"],
    ["knot", "sigma-d", "trefoil", "--d", "9" * 5000],
    ["gamma", "torus_s3s1", "--component", " 0 "],
    ["knot", "sig", "trefoil", "--omega", "1_0/ 7"],
    ["knot", "sigma-d", "--d", "\u0663", "trefoil"],
]


@pytest.mark.parametrize("argv", BAD_LINES, ids=_id)
def test_bad_command_line_prints_one_json_error(argv):
    proc = subprocess.run([sys.executable, "-m", "surfemb4.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=ENV)
    assert (proc.returncode, proc.stderr) == (2, ""), proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False and len(doc["errors"]) == 1, doc


def test_bad_command_line_returns_2_in_process(capsys):
    for argv in BAD_LINES:
        assert cli.main(argv) == cli.EXIT_VALIDATION  # no SystemExit
        assert json.loads(capsys.readouterr().out)["ok"] is False


@pytest.mark.parametrize("argv", [["-h"], ["knot", "sig", "--help", "trefoil"]], ids=" ".join)
def test_help_prints_the_usage_and_exits_0(argv):
    proc = subprocess.run([sys.executable, "-m", "surfemb4.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, cli.USAGE, "")


def test_usage_is_the_readme_cli_block():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0] == cli.USAGE


def test_parse_returns_the_handler_on_the_module_now(monkeypatch):
    """perfbench's tracer wraps ``cmd_decide`` and the others on the module; that wrapper runs."""
    def wrapped(args):
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_decide", wrapped)
    assert cli.parse(["decide", "torus_s3s1"]).func is wrapped
