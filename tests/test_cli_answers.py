"""Every command returns its answer, and only ``cli.main`` writes it.

A handler returns (exit code, document) and writes nothing, so a caller
that runs many commands in one process (``decide --batch``) gets each answer
as a value.  ``cli._failure`` maps an error to the code and document of a
failure, for ``main`` and for each batch entry alike: a failed cross-check
in one batch entry keeps its own entry with code 3, and the others keep
their verdicts.
"""

import json
import shutil

import pytest

from surfemb4 import cli, engine, schema
from surfemb4.errors import InternalConsistency

# one shipped case per command in cli.COMMANDS
CASES = {
    "validate": ["validate", "torus_s3s1"],
    "decide": ["decide", "--mode", "homotopy", "torus_s3s1"],
    "km": ["km", "tubed_sphere"],
    "gamma": ["gamma", "torus_s3s1", "--component", "0", "--query", "[1]"],
    "knot": ["knot", "cp2-verdict", "sum3_trefoil"],
    "examples": ["examples", "list"],
}


def test_every_command_has_a_case():
    assert set(CASES) == set(cli.COMMANDS)


@pytest.mark.parametrize("argv", [*CASES.values(), ["-h"], ["knot", "arf", "-h"]], ids=" ".join)
def test_a_handler_returns_its_answer_and_writes_nothing(argv, capsys):
    args = cli.parse(argv)
    code, doc = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert type(code) is int
    if args.func is cli.cmd_help:
        assert doc == cli.USAGE
        text = doc
    else:
        assert type(doc) is dict
        text = schema.to_json(doc)
    assert cli.main(argv) == code
    assert capsys.readouterr().out == text


def _main(capsys, argv):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_a_failed_cross_check_keeps_its_batch_entry(tmp_path, monkeypatch, capsys):
    data = cli._DATA / "instances"
    for name in ("torus_s3s1", "tubed_sphere"):
        shutil.copy(data / f"{name}.json", tmp_path / f"{name}.json")
    _, single = _main(capsys, ["decide", str(tmp_path / "tubed_sphere.json")])
    flowchart = engine.flowchart

    def failing(inst):  # torus_s3s1 is the one instance over an abelian group
        if inst.group.kind == "abelian":
            raise InternalConsistency("planted disagreement")
        return flowchart(inst)

    monkeypatch.setattr(engine, "flowchart", failing)
    code, out = _main(capsys, ["decide", "--batch", str(tmp_path)])
    assert code == cli.EXIT_INTERNAL
    assert out == {"torus_s3s1.json": {"ok": False, "errors": ["planted disagreement"]},
                   "tubed_sphere.json": single}
    assert _main(capsys, ["decide", str(tmp_path / "torus_s3s1.json")]) == \
        (cli.EXIT_INTERNAL, out["torus_s3s1.json"])
