import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

from surfemb4 import cli, schema
from surfemb4.engine import flowchart

SHIPPED = (
    "torus_s3s1", "star_cp2_sphere", "tubed_sphere",
    "klein_bottle_e0", "klein_bottle_e4", "klein_bottle_em4", "rp2_r4_e2",
)


def example_path(name) -> str:
    return str(resources.files("surfemb4").joinpath("data", "instances", name + ".json"))


def example_doc(name) -> dict:
    return json.loads(Path(example_path(name)).read_text())


def test_shipped_instances_validate():
    for name in SHIPPED:
        inst, errors = schema.load_instance(example_path(name))
        assert not errors, (name, errors)
        assert inst is not None


def test_missing_band_field_pointed_error():
    doc = example_doc("torus_s3s1")
    del doc["catalogs"]["bands"][0]["euler"]
    inst, errors = schema.instance_from_dict(doc)
    assert inst is None
    assert any(e.startswith("/catalogs/bands/0/euler") for e in errors)


def test_unknown_component_in_double_point():
    doc = example_doc("torus_s3s1")
    doc["double_points"][0]["components"] = [0, 5]
    inst, errors = schema.instance_from_dict(doc)
    assert inst is None
    assert any(e.startswith("/double_points/0/components") for e in errors)


def test_unknown_field_rejected():
    doc = example_doc("torus_s3s1")
    doc["flags"]["plotting"] = True
    inst, errors = schema.instance_from_dict(doc)
    assert inst is None
    assert any(e.startswith("/flags/plotting") for e in errors)


def test_errors_are_accumulated_not_first_failure():
    doc = example_doc("torus_s3s1")
    del doc["catalogs"]["bands"][0]["euler"]
    doc["double_points"][0]["sign"] = 3
    inst, errors = schema.instance_from_dict(doc)
    assert inst is None
    assert len(errors) >= 2


def test_round_trip_revalidates():
    for name in SHIPPED:
        inst, _ = schema.load_instance(example_path(name))
        doc = schema.instance_to_dict(inst)
        again, errors = schema.instance_from_dict(doc)
        assert not errors, (name, errors)
        assert flowchart(again).outcome == flowchart(inst).outcome


def test_round_trip_of_constructed_instances():
    # instances built in memory by the test generators serialize and revalidate
    from test_engine import simple_instance
    from surfemb4.bands import BandRecord, RelH2

    constructed = [
        simple_instance(),
        simple_instance(genus=1, points=(1, -1), discs=(((0, 1), {0: 1}),),
                        torus=(0,), spheres=((1, 1),)),
        simple_instance(points=(1, -1), discs=(((0, 1), {0: 1}),),
                        rel=RelH2(("g",), {"g": ()}),
                        bands=(BandRecord("g", "surface", (1,), (), (), 0, 0, 0, 1, 1),),
                        rp2=((1, 1),)),
    ]
    for inst in constructed:
        doc = schema.instance_to_dict(inst)
        again, errors = schema.instance_from_dict(doc)
        assert not errors, errors
        assert flowchart(again).outcome == flowchart(inst).outcome


def test_verdict_json_is_stable():
    inst, _ = schema.load_instance(example_path("torus_s3s1"))
    first = schema.verdict_to_json(flowchart(inst))
    for _ in range(3):
        assert schema.verdict_to_json(flowchart(inst)) == first


def test_cli_validate(capsys):
    assert cli.main(["validate", example_path("torus_s3s1")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"ok": True, "errors": []}


def test_cli_validate_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert cli.main(["validate", str(bad)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert not out["ok"] and out["errors"]


def test_cli_decide_by_example_name(capsys):
    assert cli.main(["decide", "torus_s3s1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "NotRegHomotopicToEmbedding"
    assert out["km"] == 1


def test_cli_decide_homotopy_mode(capsys):
    assert cli.main(["decide", "--mode", "homotopy", "klein_bottle_e4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "NoConclusion"  # no dual spheres declared


def test_cli_decide_batch(tmp_path, capsys):
    for name in ("torus_s3s1", "klein_bottle_e0"):
        (tmp_path / f"{name}.json").write_text(Path(example_path(name)).read_text())
    assert cli.main(["decide", "--batch", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"torus_s3s1.json", "klein_bottle_e0.json"}


def test_cli_km(capsys):
    assert cli.main(["km", "tubed_sphere"]) == 0
    assert json.loads(capsys.readouterr().out) == {"km": 0}


def test_cli_km_rejects_missing_duals(capsys):
    assert cli.main(["km", "klein_bottle_e0"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert not out["ok"]


def test_cli_gamma(capsys):
    assert cli.main(["gamma", example_path("torus_s3s1"),
                     "--component", "0", "--query", "[0]", "--query", "[3]"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["self_pairing"] is True
    assert out["reduced_is_zero"] is True
    assert out["queries"][0]["coefficient"] == 0
    assert out["note"].startswith("infinite ambient group")


def test_cli_gamma_finite_reports_oracle(capsys):
    assert cli.main(["gamma", example_path("klein_bottle_e0"), "--component", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["free_rank"] == 0 and out["z2_count"] == 1
    assert out["smith_oracle"] == {"free_rank": 0, "torsion": [2]}


def test_cli_knot_subcommands(capsys):
    assert cli.main(["knot", "arf", "sum3_trefoil"]) == 0
    assert json.loads(capsys.readouterr().out) == {"arf": 1}
    assert cli.main(["knot", "alex", "trefoil"]) == 0
    assert json.loads(capsys.readouterr().out) == {"alexander_at_minus_one": 3}
    assert cli.main(["knot", "sig", "--omega", "1/1", "trefoil"]) == 0
    assert json.loads(capsys.readouterr().out) == {"signature": -2}
    assert cli.main(["knot", "sigma-d", "--d", "7", "sum3_trefoil"]) == 0
    assert json.loads(capsys.readouterr().out) == {"sigma_d": -6}
    assert cli.main(["knot", "cp2-bound", "--d", "2", "sum3_trefoil"]) == 0
    assert json.loads(capsys.readouterr().out) == {"lower_bound": 3}
    assert cli.main(["knot", "cp2-verdict", "sum3_trefoil"]) == 0
    assert json.loads(capsys.readouterr().out)["exact"] == 1
    assert cli.main(["knot", "shake-genus", "unknot"]) == 0
    assert json.loads(capsys.readouterr().out) == {"shake_genus_pm1": 0}


def test_cli_knot_internal_failure_exit_code(monkeypatch, capsys):
    from surfemb4.knots import ArfMethodsDisagree

    def boom(V):
        raise ArfMethodsDisagree("forced for the exit-code contract")

    monkeypatch.setattr(cli.knots, "arf", boom)
    assert cli.main(["knot", "arf", "trefoil"]) == 3


def test_cli_examples_list(capsys):
    assert cli.main(["examples", "list"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "torus_s3s1.json" in out["instances"]
    assert "sum3_trefoil.json" in out["knots"]


def test_cli_unknown_file(capsys):
    assert cli.main(["decide", "no_such_instance"]) == 2


def test_internal_consistency_is_not_a_validation_error(monkeypatch, capsys):
    from surfemb4.errors import InternalConsistency

    def boom(inst):
        raise InternalConsistency("forced for the exit-code contract")

    assert not issubclass(InternalConsistency, ValueError)
    monkeypatch.setattr(cli.engine, "flowchart", boom)
    assert cli.main(["decide", "torus_s3s1"]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "ok": False, "errors": ["forced for the exit-code contract"]}


_OPTIMIZED_CHECKS = """
import contextlib, io, json, sys
from surfemb4 import cli, intlinalg, knots
from surfemb4.errors import InternalConsistency

raised = False
try:
    intlinalg.poly_divmod([1, 0, 1], [0, 2])
except InternalConsistency:
    raised = True
knots.alexander_at_minus_one = lambda V: 1  # the determinant rule now says Arf 0
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["knot", "arf", "trefoil"])
print(json.dumps({"optimize": sys.flags.optimize, "raised": raised, "code": code,
                  "out": json.loads(out.getvalue())}))
"""


def test_internal_checks_survive_python_O():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == 1 and result["raised"]
    assert result["code"] == 3
    assert result["out"]["ok"] is False
    assert "determinant rule gives 0" in result["out"]["errors"][0]
