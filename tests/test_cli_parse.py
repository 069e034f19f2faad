"""``cli.parse`` reads every command line as the argparse parser did.

The oracle is that parser, kept as ``helpers.build_parser``.  On each drawn
line it either accepts (the values and the handler), shows help (exit 0) or
refuses (exit 2), and ``cli.parse`` must give the same outcome: the same
namespace, ``cli.cmd_help``, or a ValueError.  The lines mix every command,
every option in full and by each prefix, the ``=`` form, ``-h``, ``--``,
unknown options and bad values.

One difference is deliberate.  argparse (3.11) drops the first ``--`` from an
argument's words, so a value that is exactly ``--`` (``--omega=--``, or a
knot file named ``--`` after the ``--`` that ended the options) becomes an
empty list, skipping the type and choice checks, and the handler then
crashes.  ``cli.parse`` keeps the word ``--`` as the value.  The oracle is run
with that one step patched to keep it too.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from surfemb4 import cli

from helpers import build_parser

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

ORACLE = build_parser()
_GET_VALUES = argparse.ArgumentParser._get_values


def _keep_lone_dashes(parser, action, arg_strings):
    if arg_strings == ["--"] and action.nargs is None:
        arg_strings = ["--", "--"]  # argparse removes one, and the value "--" is checked
    return _GET_VALUES(parser, action, arg_strings)


def argparse_outcome(argv, keep_lone_dashes=True):
    """("accept", values), ("help", None) or ("refuse", None), as the argparse parser read ``argv``."""
    patch = (mock.patch.object(argparse.ArgumentParser, "_get_values", _keep_lone_dashes)
             if keep_lone_dashes else contextlib.nullcontext())
    with patch, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "accept", vars(ORACLE.parse_args(argv))
        except SystemExit as exc:
            return ("help" if exc.code == 0 else "refuse"), None


def parse_outcome(argv):
    """The same three outcomes, as ``cli.parse`` reads ``argv``."""
    try:
        args = cli.parse(argv)
    except ValueError:
        return "refuse", None
    return ("help", None) if args.func is cli.cmd_help else ("accept", vars(args))


COMMANDS = list(cli.COMMANDS)
OPTIONS = ("mode", "batch", "component", "other", "query", "omega", "d", "help")
SPELLINGS = sorted({f"--{name[:k]}" for name in OPTIONS for k in range(1, len(name) + 1)}
                   | {"--", "-h", "-hh", "-h=h", "-hx", "-x", "--bogus", "--mod"})
VALUES = ("torus_s3s1", "trefoil", "x", "regular", "homotopy", "bogus", "arf", "sig", "sigma-d",
          "cp2-verdict", "list", "0", "1", "2/7", "-3", "-1/3", "-.5", "[0]", "1_0", " 7", "",
          "-", "- 1", "--", "-h", "9" * 5000)
WORD = st.one_of(st.sampled_from(SPELLINGS), st.sampled_from(VALUES), st.sampled_from(COMMANDS),
                 st.builds("{}={}".format, st.sampled_from(SPELLINGS), st.sampled_from(VALUES)))
# Per command, the chunks of words it needs, in order, each from a list of
# choices, and chunks it may take anywhere: so that many drawn lines are
# accepted and the rest are near misses.
GOOD = {
    "validate": ([[["torus_s3s1"], ["-3"], ["-a b"]]], []),
    "decide": ([[["torus_s3s1"]]], [["--mode", "homotopy"], ["--mo=regular"], ["--batch"], ["--b"],
                                      ["--=regular"]]),
    "km": ([[["torus_s3s1"], ["--", "-h"]]], []),
    "gamma": ([[["torus_s3s1"]], [["--component", "0"], ["--comp=1"], ["--c", "-2"]]],
              [["--other", "-3"], ["--o=1"], ["--query", "[0]"], ["--q=[1]"], ["--qu", "-1"], ["--query", "-1 "]]),
    "knot": ([[["arf"], ["sig"], ["cp2-bound"], ["shake-genus"]], [["trefoil"], ["-"], ["--", "-x"]]],
             [["--omega", "2/7"], ["--om=-1/3"], ["--d", "-3"], ["--d=3"], ["--omeg", "x"],
              ["--=2/7"], ["--omega", "-1/3"], ["--om"]]),
    "examples": ([[["list"]]], []),
    "foo": ([[["x"]]], []),
}


@st.composite
def lines(draw):
    """Words before the command (rarely), the command, its own chunks, and other words."""
    head = draw(st.sampled_from([[], [], [], [], ["-h"], ["--he"], ["--help=x"], ["-x"], ["--"], ["-3"]]))
    command = draw(st.sampled_from(list(GOOD)))
    needed, optional = GOOD[command]
    parts = [draw(st.sampled_from(choices)) for choices in needed]
    for chunk in draw(st.lists(st.sampled_from(optional), max_size=3)) if optional else []:
        parts.insert(draw(st.integers(0, len(parts))), chunk)
    words = [word for part in parts for word in part]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        words.insert(draw(st.integers(0, len(words))), draw(WORD))
    return head + [command] + words


LINE = st.one_of(lines(), lines(), lines(), st.lists(WORD, max_size=3))


@settings(max_examples=2000)
@given(LINE)
def test_parse_reads_every_line_as_argparse_did(argv):
    assert parse_outcome(argv) == argparse_outcome(argv)


@pytest.mark.parametrize("argv", [
    ["decide", "torus_s3s1", "--mo=homotopy", "--batch"],
    ["knot", "--omega=-1/3", "sig", "trefoil", "--om", "1/3", "--d", "-3"],
    ["gamma", "--comp", "0", "torus_s3s1", "--query", "[0]", "--q=[1]", "--other=1"],
    ["knot", "sig", "--", "-x"],
], ids=" ".join)
def test_accepted_lines_give_argparse_values(argv):
    """Each line's namespace, value by value, beside the oracle's."""
    kind, values = parse_outcome(argv)
    assert kind == "accept" and (kind, values) == argparse_outcome(argv)


def test_a_lone_dash_dash_value_is_kept():
    """The one relaxation: where argparse made an empty list, ``cli.parse`` keeps ``--``."""
    for argv, field in ((["knot", "sig", "trefoil", "--omega=--"], "omega"),
                        (["knot", "sig", "--", "--"], "knot")):
        assert argparse_outcome(argv, keep_lone_dashes=False)[1][field] == []
        assert getattr(cli.parse(argv), field) == "--"
    assert argparse_outcome(["decide", "x", "--mode=--"], keep_lone_dashes=False)[1]["mode"] == []
    assert parse_outcome(["decide", "x", "--mode=--"]) == ("refuse", None)


# The argparse parser ended each of these with its usage on stderr, exit 2 and no JSON.
BAD_LINES = [
    [],
    ["decide"],
    ["gamma", "torus_s3s1"],
    ["knot", "foo", "trefoil"],
    ["knot", "sig", "trefoil", "--omega", "-1/3"],
    ["gamma", "torus_s3s1", "--component", "x"],
    ["decide", "torus_s3s1", "--mode", "bogus"],
    ["decide", "torus_s3s1", "--bogus"],
    ["decide", "torus_s3s1", "extra"],
    ["knot", "sigma-d", "trefoil", "--d", "9" * 5000],
]


def _id(argv) -> str:
    return " ".join(arg if len(arg) < 20 else f"<{len(arg)} digits>" for arg in argv) or "<empty>"


@pytest.mark.parametrize("argv", BAD_LINES, ids=_id)
def test_bad_command_line_prints_one_json_error(argv):
    proc = subprocess.run([sys.executable, "-m", "surfemb4.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=ENV)
    assert (proc.returncode, proc.stderr) == (2, ""), proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False and len(doc["errors"]) == 1, doc


def test_bad_command_line_returns_2_in_process(capsys):
    for argv in BAD_LINES:
        assert argparse_outcome(argv) == ("refuse", None)
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
