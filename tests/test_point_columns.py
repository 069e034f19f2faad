"""Double points as columns: the reader's column pass against the per-point reader.

The reader checks every element an instance declares once: each
component's subgroup generators in ``subgroup_closure``, and the etas when
it builds the double points as ``whitney.DoublePoints`` columns checked
against the group; the flowchart reduces the canonical etas without
checking them again.  On generated instances, valid or with bad
entries planted, the columns, the error lists, the reduced obstructions, t
and the verdicts must equal those of the per-point code they replaced
(``helpers.instance_from_dict_per_point`` and its neighbours).
"""

import copy
import json
import random
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    instance_from_dict_per_point,
    point_records,
    points_between_per_point,
    primary_obstructions_per_point,
    random_points_doc,
    t_for_ft_per_point,
)
from surfemb4 import cli, schema
from surfemb4.engine import (
    EngineError,
    _t_for_ft,
    flowchart,
    homotopy_analysis,
    points_between,
    primary_obstructions,
    restrict_Ft,
)
from surfemb4.groups import FGAbelianGroup, FiniteTableGroup


def _bad_element(rng: random.Random, doc):
    """A value that no element of the document's group is."""
    if doc["group"]["kind"] == "finite":
        return rng.choice([len(doc["group"]["table"]), -1, True, [0], "x", 1.5])
    rank = len(doc["group"]["factors"])
    return rng.choice([[0] * (rank + 1), [True] * rank, [1.5] * rank, "x", 3, None])


def _plant(rng: random.Random, doc, kind: str) -> None:
    """One bad entry of ``kind`` at a random place in ``doc``."""
    points, ncomp = doc["double_points"], len(doc["components"])
    k = rng.randrange(len(points))
    unknown = ncomp + rng.randrange(3)
    if kind == "unknown component":
        points[k]["components"] = [unknown, unknown]
    elif kind == "undeclared pair":
        points[k]["components"] = rng.choice(([rng.randrange(ncomp), unknown],
                                              [unknown, rng.randrange(ncomp)]))
    elif kind == "duplicate id":
        points[k]["id"] = points[(k + 1 + rng.randrange(len(points) - 1)) % len(points)]["id"]
    elif kind == "bad eta":
        points[k]["eta"] = _bad_element(rng, doc)
    else:  # a bad subgroup generator: the reader's one check fails, so each is checked alone
        doc["components"][rng.randrange(ncomp)]["signed_subgroup"][0][0] = _bad_element(rng, doc)


def _errors(read, doc) -> list[str]:
    with pytest.raises(schema.SchemaError) as exc:
        read(doc)
    return exc.value.errors


KINDS = ["unknown component", "undeclared pair", "duplicate id", "bad eta", "bad generator"]


@settings(max_examples=150)
@given(seed=st.integers(0, 10 ** 9), finite=st.booleans(),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
def test_reader_errors_equal_the_per_point_readers(seed, finite, kinds):
    rng = random.Random(seed)
    doc = random_points_doc(rng, finite, pairs=rng.randrange(2, 30))
    for kind in kinds:
        _plant(rng, doc, kind)
    expected = _errors(instance_from_dict_per_point, copy.deepcopy(doc))
    assert _errors(schema.instance_from_dict, doc) == expected


@settings(max_examples=60)
@given(seed=st.integers(0, 10 ** 9), finite=st.booleans(), components=st.integers(1, 4))
def test_columns_and_verdicts_equal_the_per_point_code(seed, finite, components):
    rng = random.Random(seed)
    doc = random_points_doc(rng, finite, pairs=rng.randrange(0, 40), components=components)
    inst = schema.instance_from_dict(copy.deepcopy(doc))
    ref = instance_from_dict_per_point(doc)
    assert point_records(inst.points) == point_records(ref.points)
    assert [c.subgroup.generators for c in inst.components] == \
        [c.subgroup.generators for c in ref.components]
    for i in range(components):
        for j in range(components):
            assert point_records(points_between(inst.points, i, j)) == \
                points_between_per_point(ref.points, i, j)
    assert {k: v.coeffs for k, v in primary_obstructions(inst).items()} == \
        primary_obstructions_per_point(ref)
    assert _t_for_ft(inst, restrict_Ft(inst)) == t_for_ft_per_point(ref, restrict_Ft(ref))
    for decide in (flowchart, homotopy_analysis):
        assert _outcome(decide, inst) == _outcome(decide, ref)


def _outcome(decide, inst):
    """The verdict, or the error that ends the run."""
    try:
        return decide(inst).as_dict()
    except EngineError as exc:
        return repr(exc)


def _shipped(name) -> str:
    return str(resources.files("surfemb4").joinpath("data", "instances", name + ".json"))


def _count_checks(monkeypatch) -> list:
    """The length of each ``check_elems`` call from here on, on both backends."""
    calls = []
    for cls in (FiniteTableGroup, FGAbelianGroup):
        monkeypatch.setattr(cls, "check_elems",
                            lambda self, values, check=cls.check_elems:
                            calls.append(len(values)) or check(self, values))
    return calls


@pytest.mark.parametrize("mode", ["regular", "homotopy"])
@pytest.mark.parametrize("source", ["star_cp2_sphere", "torus_s3s1", "generated abelian"])
def test_decide_checks_every_element_once(source, mode, tmp_path, monkeypatch, capsys):
    """Each generator and eta checked once: one ``check_elems`` call per component's generators,
    one for the etas, and in homotopy mode one for the identity per component, whose mu_1 is read."""
    if source == "generated abelian":
        doc = random_points_doc(random.Random(7), finite=False, pairs=600)
        path = tmp_path / "generated.json"
        path.write_text(json.dumps(doc))
    else:
        path = Path(_shipped(source))
        doc = json.loads(path.read_text())
    calls = _count_checks(monkeypatch)
    assert cli.main(["decide", str(path), "--mode", mode]) == 0
    assert "outcome" in json.loads(capsys.readouterr().out)
    gens = [len(c["signed_subgroup"]) for c in doc["components"]]
    identity = [1] * len(gens) if mode == "homotopy" else []
    assert len(doc["double_points"]) >= (1000 if source == "generated abelian" else 2)
    assert calls == gens + [len(doc["double_points"])] + identity


@pytest.mark.parametrize("source, queries", [("star_cp2_sphere", ["0"]),
                                             ("torus_s3s1", ["[0]", "[-3]", "[5]"])])
def test_gamma_checks_each_query_once(source, queries, monkeypatch, capsys):
    """``cli gamma`` checks each query when it classifies it, and reduces the checked points as they are."""
    doc = json.loads(Path(_shipped(source)).read_text())
    calls = _count_checks(monkeypatch)
    argv = ["gamma", _shipped(source), "--component", "0"]
    assert cli.main(argv + [arg for q in queries for arg in ("--query", q)]) == 0
    assert len(json.loads(capsys.readouterr().out)["queries"]) == len(queries)
    gens = [len(c["signed_subgroup"]) for c in doc["components"]]
    assert calls == gens + [len(doc["double_points"])] + [1] * len(queries)
