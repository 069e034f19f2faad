import errno
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from surfemb4 import cli, schema, shapes
from surfemb4.engine import ProblemInstance, flowchart

from helpers import instance_to_dict, random_points_doc

SHIPPED = (
    "torus_s3s1", "star_cp2_sphere", "tubed_sphere",
    "klein_bottle_e0", "klein_bottle_e4", "klein_bottle_em4", "rp2_r4_e2",
)


def example_path(name) -> str:
    return str(resources.files("surfemb4").joinpath("data", "instances", name + ".json"))


def example_doc(name) -> dict:
    return json.loads(Path(example_path(name)).read_text())


def rejected(doc) -> list[str]:
    """The errors of the SchemaError the reader raises on ``doc``."""
    with pytest.raises(schema.SchemaError) as exc:
        schema.instance_from_dict(doc)
    return exc.value.errors


def test_shipped_instances_validate():
    for name in SHIPPED:
        assert isinstance(schema.load_instance(example_path(name)), ProblemInstance), name


def test_missing_band_field_pointed_error():
    doc = example_doc("torus_s3s1")
    del doc["catalogs"]["bands"][0]["euler"]
    errors = rejected(doc)
    assert any(e.startswith("/catalogs/bands/0/euler") for e in errors)


def test_unknown_component_in_double_point():
    doc = example_doc("torus_s3s1")
    doc["double_points"][0]["components"] = [0, 5]
    errors = rejected(doc)
    assert any(e.startswith("/double_points/0/components") for e in errors)


def test_unknown_field_rejected():
    doc = example_doc("torus_s3s1")
    doc["flags"]["plotting"] = True
    errors = rejected(doc)
    assert any(e.startswith("/flags/plotting") for e in errors)


def test_errors_are_accumulated_not_first_failure():
    doc = example_doc("torus_s3s1")
    del doc["catalogs"]["bands"][0]["euler"]
    doc["double_points"][0]["sign"] = 3
    errors = rejected(doc)
    assert len(errors) >= 2


def test_round_trip_revalidates():
    for name in SHIPPED:
        inst = schema.load_instance(example_path(name))
        again = schema.instance_from_dict(instance_to_dict(inst))
        assert flowchart(again).outcome == flowchart(inst).outcome


def test_round_trip_of_constructed_instances():
    # instances built in memory by the test generators serialize and revalidate
    from test_engine import simple_instance
    from surfemb4.bands import BandRecord, RelH2

    constructed = [
        simple_instance(),
        simple_instance(genus=1, points=(1, -1), discs=(((0, 1), {0: 1}),),
                        torus=(0,)),
        simple_instance(points=(1, -1), discs=(((0, 1), {0: 1}),),
                        rel=RelH2(("g",), {"g": ()}),
                        bands=(BandRecord("g", "surface", (1,), (), (), 0, 0, 0, 1, 1),)),
    ]
    for inst in constructed:
        again = schema.instance_from_dict(instance_to_dict(inst))
        assert flowchart(again).outcome == flowchart(inst).outcome


def test_verdict_json_is_stable():
    inst = schema.load_instance(example_path("torus_s3s1"))
    first = cli.to_json(flowchart(inst).as_dict())
    for _ in range(3):
        assert cli.to_json(flowchart(inst).as_dict()) == first


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


def test_cli_decide_batch_decides_regular_files_only(tmp_path, capsys):
    (tmp_path / "torus_s3s1.json").write_text(Path(example_path("torus_s3s1")).read_text())
    (tmp_path / "extra.json").mkdir()
    assert cli.main(["decide", "--batch", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"torus_s3s1.json"}


def test_cli_decide_batch_on_a_directory_without_instance_files(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no instances here")
    assert _cli(capsys, "decide", "--batch", str(tmp_path)) == (
        2, {"ok": False, "errors": [f"no instance files in {tmp_path}"]})


def test_cli_gamma_on_a_missing_component(capsys):
    assert _cli(capsys, "gamma", "torus_s3s1", "--component", "9") == (
        2, {"ok": False, "errors": ["no component 9"]})


def test_annulus_over_an_empty_rel_h2_basis_validates_and_decides(tmp_path, capsys):
    doc = example_doc("torus_s3s1")
    doc["catalogs"]["rel_h2"] = {"basis": [], "boundary": {}}
    doc["catalogs"]["bands"] = [{
        "id": "annulus", "kind": "annulus", "rel_class": [], "boundary_classes": [[1, 0], [1, 0]],
        "w1_sigma": [0, 0], "w1m_core": 0, "mu_boundary": 0, "arc_count": 0, "interior": 0,
        "euler": 0}]
    path = tmp_path / "empty_basis.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "errors": []}
    assert cli.main(["decide", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["b_char"] == "yes"


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


def test_cli_gamma_names_a_finite_abelian_ambient(tmp_path, capsys):
    path = tmp_path / "z4_z8.json"
    path.write_text(json.dumps(random_points_doc(random.Random(4), finite=False, pairs=3, factors=[4, 8])))
    assert cli.main(["gamma", str(path), "--component", "0", "--query", "[1, 2]"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["note"] == "finite abelian ambient group; orbits reported per queried element"
    assert len(out["queries"]) == 1


def test_cli_gamma_finite_reports_oracle(capsys):
    assert cli.main(["gamma", example_path("klein_bottle_e0"), "--component", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["free_rank"] == 0 and out["z2_count"] == 1
    assert out["smith_oracle"] == {"free_rank": 0, "torsion": [2]}


@pytest.mark.parametrize("oracle", [(1, [2]), (0, []), (0, [4]), (0, [2, 2])], ids=str)
def test_cli_gamma_fails_when_the_smith_oracle_disagrees(monkeypatch, capsys, oracle):
    # the orbits give free rank 0 and one Z/2; the oracle is made to say otherwise
    monkeypatch.setattr(cli.gamma, "smith_oracle", lambda ctx: oracle)
    assert cli.main(["gamma", example_path("klein_bottle_e0"), "--component", "0"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and out["errors"] == [
        f"orbit counts (free rank 0, 1 Z/2) disagree with the Smith oracle "
        f"(free rank {oracle[0]}, torsion {oracle[1]})"]


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


def _child(argv, stdout, unbuffered: bool, **kwargs) -> subprocess.CompletedProcess:
    """``python -m surfemb4.cli`` writing to ``stdout``, its stdout buffered or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "surfemb4.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60, **kwargs)


def _write_failed(proc, errno_code: int) -> bool:
    """One line on stderr, no traceback and no "Exception ignored", and exit 1."""
    lines = proc.stderr.splitlines()
    return (proc.returncode == 1 and len(lines) == 1
            and lines[0].startswith(f"surfemb4: cannot write the result: [Errno {errno_code}]"))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["examples", "list"], ["decide", "no_such_instance"], ["-h"]],
                         ids=" ".join)
def test_a_full_device_is_one_line_and_exit_1(argv, unbuffered):
    with open("/dev/full", "w") as full:
        proc = _child(argv, full, unbuffered)
    assert _write_failed(proc, errno.ENOSPC), (proc.returncode, proc.stderr)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_pipe_is_one_line_and_exit_1(unbuffered):
    read, write = os.pipe()
    os.close(read)  # closed before the child writes, so every write fails
    try:
        proc = _child(["examples", "list"], write, unbuffered)
    finally:
        os.close(write)
    assert _write_failed(proc, errno.EPIPE), (proc.returncode, proc.stderr)


def test_a_closed_stdout_is_one_line_and_exit_1():
    # started with fd 1 closed (``>&-`` in a shell), the child's sys.stdout is None
    proc = _child(["examples", "list"], subprocess.DEVNULL, False, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (1, "surfemb4: cannot write the result: stdout is closed\n")


ADDRESS_SPACE = 60 << 20  # room to start and list the examples, not to read an order-1000 table


def _capped():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def test_an_input_too_large_for_memory_is_one_json_error_and_exit_2(tmp_path):
    # the limit is set in the child alone; a MemoryError is an oversized input, exit 2 and no
    # traceback, and in a batch it stays in its file's entry
    doc = json.loads((cli._DATA / "instances" / "tubed_sphere.json").read_text())
    n = 1000  # a cyclic table, 4.9 MB of JSON
    doc["group"] = {"kind": "finite", "table": [[(a + b) % n for b in range(n)] for a in range(n)]}
    doc["characters"]["wM"] = [1] * n
    (tmp_path / "cyclic_1000.json").write_text(json.dumps(doc))
    (tmp_path / "torus_s3s1.json").write_text((cli._DATA / "instances" / "torus_s3s1.json").read_text())
    assert _child(["examples", "list"], subprocess.PIPE, False, preexec_fn=_capped).returncode == 0
    failure = {"ok": False, "errors": ["out of memory: the input is too large"]}
    proc = _child(["decide", str(tmp_path / "cyclic_1000.json")], subprocess.PIPE, False, preexec_fn=_capped)
    assert (proc.returncode, json.loads(proc.stdout), proc.stderr) == (2, failure, "")
    proc = _child(["decide", "--batch", str(tmp_path)], subprocess.PIPE, False, preexec_fn=_capped)
    verdict = flowchart(schema.load_instance(str(tmp_path / "torus_s3s1.json"))).as_dict()
    assert (proc.returncode, json.loads(proc.stdout), proc.stderr) == \
        (2, {"cyclic_1000.json": failure, "torus_s3s1.json": verdict}, "")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_in_process_a_failed_write_returns_1(monkeypatch, capsys):
    # a stream with no file descriptor: main leaves an in-process caller's stdout alone
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main(["examples", "list"]) == 1
    assert capsys.readouterr().err == "surfemb4: cannot write the result: [Errno 32] Broken pipe\n"


def _cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("field, value, pointer", [
    (("version",), True, "/version"),
    (("characters", "wM", 0), 1.5, "/characters/wM/0"),
    (("double_points", 0, "sign"), True, "/double_points/0/sign"),
    (("whitney_collection", "discs", 0, "interior", "0"), 1.0, "/whitney_collection/discs/0/interior/0"),
    (("double_points", 0, "eta", 0), True, "/double_points/0/eta"),
])
def test_bools_and_floats_are_not_integers(field, value, pointer):
    doc = example_doc("torus_s3s1")
    node = doc
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    errors = rejected(doc)
    assert [e.split(": ", 1)[0] for e in errors] == [pointer]


def test_shape_errors_are_all_gathered():
    doc = example_doc("torus_s3s1")
    doc["version"] = "1"
    doc["group"]["factors"] = [0.5]
    del doc["flags"]["good_group"]
    doc["double_points"][1]["components"] = [0]
    errors = rejected(doc)
    assert sorted(e.split(": ", 1)[0] for e in errors) == [
        "/double_points/1/components", "/flags/good_group", "/group/factors/0", "/version"]


def test_instance_must_be_an_object():
    assert rejected([]) == ["/: expected an object, got an array"]


@pytest.mark.parametrize("query", ['"1"', "[1.5]", "[true]", "{}", "[" * 100000],
                         ids=["string", "float", "bool", "object", "deep"])
def test_cli_gamma_rejects_non_elements(query, capsys):
    code, out = _cli(capsys, "gamma", "torus_s3s1", "--component", "0", "--query", query)
    assert code == 2 and out["ok"] is False
    assert out["errors"][0].startswith("bad query element")


@pytest.mark.parametrize("seifert", [None, [[1, "x"], [0, 1]], [[-1, 1.5], [0, -1]],
                                     [[-1, True], [False, -1]], [[-1, 1], [0]], "x"])
def test_cli_knot_rejects_bad_matrices(seifert, tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"seifert": seifert}))
    code, out = _cli(capsys, "knot", "arf", str(path))
    assert code == 2 and out["ok"] is False
    assert all(e.startswith("/seifert") for e in out["errors"]), out


def test_knot_file_fields(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"seifert": [[-1, 1], [0, -1]]}))
    assert _cli(capsys, "knot", "arf", str(path)) == (0, {"arf": 1})
    path.write_text(json.dumps({"seifert": [[-1, 1], [0, -1]], "name": "trefoil", "genus": 1}))
    assert _cli(capsys, "knot", "arf", str(path)) == (
        2, {"ok": False, "errors": ["/genus: unknown field"]})
    path.write_text(json.dumps([[-1, 1], [0, -1]]))
    assert _cli(capsys, "knot", "arf", str(path))[0] == 2


@pytest.mark.parametrize("size", [shapes.MAX_SEIFERT_SIZE + 2, 1000])
def test_seifert_size_is_capped(size, tmp_path, capsys):
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"seifert": [[0] * size for _ in range(size)]}))
    started = time.perf_counter()
    code, out = _cli(capsys, "knot", "arf", str(path))
    assert time.perf_counter() - started < 2.0
    assert code == 2
    assert out["errors"] == [f"/seifert: the Seifert size {size} exceeds the cap of "
                             f"{shapes.MAX_SEIFERT_SIZE}"]


def test_seifert_size_at_the_cap_is_read(tmp_path, capsys):
    # T(2, 41): Seifert size 40, Arf 0 since 41 = 1 mod 8
    n = shapes.MAX_SEIFERT_SIZE
    path = tmp_path / "t2_41.json"
    path.write_text(json.dumps(
        {"seifert": [[-1 if i == j else 1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]}))
    assert _cli(capsys, "knot", "arf", str(path)) == (0, {"arf": 0})


@pytest.mark.parametrize("entry", [2 ** 53 - 1, 1 - 2 ** 53])
def test_seifert_entries_below_two_to_the_53_are_read(entry, tmp_path, capsys):
    # V + V^T = [[2a, 1], [1, 2a]]: definite, signature 2 sign(a) at w = -1
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"seifert": [[entry, 1], [0, entry]]}))
    assert _cli(capsys, "knot", "sig", "--omega", "1/1", str(path)) == (
        0, {"signature": 2 if entry > 0 else -2})


@pytest.mark.parametrize("entry, shown", [(2 ** 53, str(2 ** 53)), (-2 ** 53, str(-2 ** 53)),
                                          (10 ** 100, "a large integer")])
def test_seifert_entries_are_capped(entry, shown, tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"seifert": [[-1, 1], [entry, -1]]}))
    assert _cli(capsys, "knot", "sig", "--omega", "1/1", str(path)) == (2, {"ok": False, "errors": [
        f"/seifert/1/0: expected an integer of magnitude below 2^53, got {shown}"]})


UNREADABLE = {
    "utf16_bom.json": b"\xff\xfe{}",
    "deep.json": b"[" * 100000 + b"]" * 100000,
    "truncated.json": b'{"version": ',
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
@pytest.mark.parametrize("argv", [["validate"], ["decide"], ["km"], ["knot", "arf"]])
def test_unreadable_files_exit_2(name, argv, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(UNREADABLE[name])
    code, out = _cli(capsys, *argv, str(path))
    assert code == 2 and out["ok"] is False
    assert len(out["errors"]) == 1 and out["errors"][0].startswith("/: unreadable ")


def test_batch_reports_unreadable_files_per_entry(tmp_path, capsys):
    for name, data in UNREADABLE.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "torus_s3s1.json").write_text(Path(example_path("torus_s3s1")).read_text())
    code, out = _cli(capsys, "decide", "--batch", str(tmp_path))
    assert code == 2
    assert out["torus_s3s1.json"]["outcome"] == "NotRegHomotopicToEmbedding"
    for name in UNREADABLE:
        assert out[name]["ok"] is False
        assert out[name]["errors"][0].startswith("/: unreadable instance file")


@pytest.mark.parametrize("where, pointer", [
    (("characters", "wM", 0), "/characters/wM/0"),
    (("double_points", 0, "eta"), "/double_points/0/eta"),
])
def test_deeply_nested_values_are_not_walked(where, pointer):
    deep = 0
    for _ in range(100_000):
        deep = [deep]
    doc = example_doc("torus_s3s1")
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = deep
    errors = rejected(doc)
    assert [e.split(": ", 1)[0] for e in errors] == [pointer]


@pytest.mark.parametrize("interior, pointer", [
    ({"7": 1}, "/"),
    ({"01": 1}, "/whitney_collection/discs/0/interior/01"),
    ({"0": 1, "+0": 1}, "/whitney_collection/discs/0/interior/+0"),
])
def test_disc_interior_keys_are_declared_component_ids(interior, pointer):
    doc = example_doc("torus_s3s1")
    doc["whitney_collection"]["discs"][0]["interior"] = interior
    errors = rejected(doc)
    assert [e.split(": ", 1)[0] for e in errors] == [pointer]


def test_boundary_intersection_pairs_are_listed_once():
    doc = example_doc("torus_s3s1")
    doc["double_points"] += [{"id": 2, "components": [0, 0], "sign": 1, "eta": [0]},
                             {"id": 3, "components": [0, 0], "sign": -1, "eta": [0]}]
    wc = doc["whitney_collection"]
    wc["convenient"] = False
    wc["discs"].append({"id": 1, "pairs": [2, 3], "interior": {}, "mu_boundary": 0, "euler": 0})
    wc["boundary_intersections"] = [[0, 1, 1]]
    assert isinstance(schema.instance_from_dict(doc), ProblemInstance)
    wc["boundary_intersections"] = [[0, 1, 1], [1, 0, 2]]
    errors = rejected(doc)
    assert [e.split(": ", 1)[0] for e in errors] == ["/whitney_collection/boundary_intersections/1"]


@pytest.mark.parametrize("component, pointer", [
    ({"genus": 10**9}, "/surface/components/0/genus"),
    ({"genus": schema.MAX_H1_DIM // 2 + 1}, "/surface/components/0/genus"),
    ({"genus": 0, "boundary_circles": schema.MAX_H1_DIM + 2}, "/surface/components/0/boundary_circles"),
    # at the cap the surface is built, and the band's H1 vector is too short for it
    ({"genus": schema.MAX_H1_DIM // 2}, "/catalogs/bands"),
    ({"genus": schema.MAX_H1_DIM, "orientable": False}, "/catalogs/bands"),
    ({"genus": 0, "boundary_circles": schema.MAX_H1_DIM + 1}, "/catalogs/bands"),
    ({"genus": schema.MAX_H1_DIM + 1, "orientable": False}, "/surface/components/0/genus"),
])
def test_surface_h1_dimension_is_capped(component, pointer, tmp_path, capsys):
    doc = example_doc("torus_s3s1")
    doc["surface"]["components"][0].update(component)
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    started = time.perf_counter()
    assert cli.main(["validate", str(path)]) == 2
    assert time.perf_counter() - started < 2.0
    out = json.loads(capsys.readouterr().out)
    assert [e.split(": ", 1)[0] for e in out["errors"]] == [pointer]


def test_basis_boundary_of_the_wrong_length_exits_2_without_records(tmp_path, capsys):
    doc = example_doc("torus_s3s1")
    doc["catalogs"]["rel_h2"]["boundary"]["seifert"] = [1, 0, 0, 0, 0, 0, 0]
    doc["catalogs"]["bands"] = []
    path = tmp_path / "long_boundary.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["decide", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["errors"] == [
        "/catalogs/bands: boundary of RelH2 basis class 'seifert' has length 7, "
        "expected the H1 dimension 2"]


def _span_variant(theta_sum: int) -> dict:
    """torus_s3s1 with closed classes x, y, x+y at Theta 1, 1 and ``theta_sum``."""
    doc = example_doc("torus_s3s1")
    doc["catalogs"]["rel_h2"] = {"basis": ["x", "y"], "boundary": {"x": [0, 0], "y": [0, 0]}}
    band = dict(doc["catalogs"]["bands"][0], boundary_classes=[], w1_sigma=[])
    doc["catalogs"]["bands"] = [
        dict(band, id=rid, rel_class=cls, interior=value)
        for rid, cls, value in (("r1", [1, 0], 1), ("r2", [0, 1], 1), ("r3", [1, 1], theta_sum))
    ]
    return doc


@pytest.mark.parametrize("mode", ["regular", "homotopy"])
def test_decide_rejects_theta_nonlinear_on_the_span(mode, tmp_path, capsys):
    path = tmp_path / "span.json"
    path.write_text(json.dumps(_span_variant(1)))
    assert cli.main(["decide", str(path), "--mode", mode]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False
    assert all(repr(rid) in out["errors"][0] for rid in ("r1", "r2", "r3"))
    # Theta depends on F^t, which validate does not compute
    assert cli.main(["validate", str(path)]) == 0
    capsys.readouterr()
    path.write_text(json.dumps(_span_variant(0)))
    assert cli.main(["decide", str(path), "--mode", mode]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "RegHomotopicToEmbedding" and out["b_char"] == "no"
