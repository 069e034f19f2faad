"""The answer does not depend on the order in which an instance lists its data.

t(F^t, W^t) is counted on W^t as declared: the discs whose two points are
double points of F^t, and the boundary counts between two of them.  A
crossing between a W^t disc and a disc outside W^t adds nothing, so neither
the disc order nor any other order of the file moves the outcome, km, t or
b_char; a crossing between two W^t discs still counts.
"""

import copy
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import random_points_doc, reordered_doc
from surfemb4 import cli, schema
from surfemb4.engine import EngineError, flowchart, homotopy_analysis

DATA = Path(__file__).parent / "data"
WEAK = json.loads((DATA / "instances" / "weak_collection.json").read_text())
TORUS = json.loads((Path(cli.__file__).with_name("data") / "instances" / "torus_s3s1.json").read_text())


def _run(argv, capsys) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _with_discs_in(doc: dict, order) -> dict:
    doc = copy.deepcopy(doc)
    discs = doc["whitney_collection"]["discs"]
    doc["whitney_collection"]["discs"] = [discs[k] for k in order]
    return doc


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))), ids=str)
def test_weak_collection_gives_one_answer_in_every_disc_order(order, tmp_path, capsys):
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(_with_discs_in(WEAK, order)))
    for mode in ("regular", "homotopy"):
        golden = (DATA / "golden" / f"weak_collection.decide-{mode}.out").read_text()
        assert _run(["decide", str(path), "--mode", mode], capsys) == (0, golden)
    assert json.loads(_run(["km", str(path)], capsys)[1]) == {"km": 0}


def _torus_case(euler: int) -> dict:
    """``torus_s3s1`` with a framed sphere f_1 beside the torus f_0, so F^t = [0].

    Points 2 and 3 on f_0 ^ f_1 have one eta and opposite signs; disc 1 pairs
    them, disc 0 (the torus's own, twisted ``euler`` times) pairs points 0 and
    1, and one boundary crossing joins the two discs.  Disc 1 is outside W^t,
    so t is disc 0's own count, 1 + ``euler`` mod 2.
    """
    doc = copy.deepcopy(TORUS)
    doc["components"].append({"id": 1, "signed_subgroup": [], "has_alg_dual": True,
                              "dual_framed": True})
    doc["surface"]["components"].append({"id": 1, "genus": 0, "orientable": True,
                                         "boundary_circles": 0})
    doc["double_points"] += [{"id": 2, "components": [0, 1], "eta": [0], "sign": 1},
                             {"id": 3, "components": [0, 1], "eta": [0], "sign": -1}]
    wc = doc["whitney_collection"]
    wc["discs"][0]["euler"] = euler
    wc["discs"].append({"id": 1, "pairs": [2, 3], "interior": {}, "mu_boundary": 0, "euler": 0})
    wc.update(convenient=False, boundary_intersections=[[0, 1, 1]])
    return doc


@pytest.mark.parametrize("euler", [1, 0])
@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=str)
def test_torus_case_gives_one_answer_in_both_disc_orders(order, euler, tmp_path, capsys):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(_with_discs_in(_torus_case(euler), order)))
    t = (1 + euler) % 2
    for mode in ("regular", "homotopy"):
        verdict = json.loads(_run(["decide", str(path), "--mode", mode], capsys)[1])
        assert (verdict["t"], verdict["km"]) == (t, t)
    assert json.loads(_run(["km", str(path)], capsys)[1]) == {"km": t}


@pytest.mark.parametrize("crossing, t", [([0, 1, 1], 1), ([1, 2, 1], 0)],
                         ids=["within W^t", "W^t and outside"])
def test_only_crossings_between_two_wt_discs_count(crossing, t):
    # F^t = [0, 1], so W^t is discs 0 and 1; t = 0 with both crossings declared
    doc = copy.deepcopy(WEAK)
    doc["whitney_collection"]["boundary_intersections"].remove(crossing)
    assert flowchart(schema.instance_from_dict(doc)).t == t


def _answers(doc: dict) -> list:
    """Outcome, km, t and b_char in both modes, or the type of the error that ends a mode."""
    inst = schema.instance_from_dict(doc)
    out = []
    for decide in (flowchart, homotopy_analysis):
        try:
            verdict = decide(inst)
        except EngineError as exc:
            out.append(type(exc).__name__)
        else:
            out.append((verdict.outcome, verdict.km, verdict.t, verdict.b_char))
    return out


def _random_doc(seed: int, finite: bool, components: int) -> dict:
    rng = random.Random(seed)
    return random_points_doc(rng, finite, pairs=rng.randrange(0, 30), components=components)


@settings(max_examples=200, deadline=None)
@given(doc=st.builds(_random_doc, st.integers(0, 10 ** 9), st.booleans(), st.integers(1, 4)),
       order_seed=st.integers(0, 10 ** 9))
@example(doc=_torus_case(1), order_seed=1)  # lists disc 1 first
@example(doc=_torus_case(0), order_seed=1)
def test_reordering_keeps_every_answer(doc, order_seed):
    reordered = reordered_doc(random.Random(order_seed), doc)
    assert _answers(reordered) == _answers(copy.deepcopy(doc))
