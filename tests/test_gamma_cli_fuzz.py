"""``gamma`` and ``decide`` print JSON and exit 0, 2 or 3 on small abelian instances.

Hypothesis draws the invariant factors (rank 1-3, from 0, 2, 3, 4, 6), a
character, the signed subgroup of component 0 (sometimes with (1, -1)), its
self-intersection points and the queried elements, a few of them
malformed.  The rest of the instance is the shipped torus in S^3 x S^1.  On
exit 0 every query's orbit representative, order and coefficient must
match the two-lattice reference in ``helpers``.

For ``decide`` (single file or ``--batch``, both modes) and ``km`` a second
component with a framed dual is added, and the points, on either component
pair, take their etas from a pool of a few elements, so they repeat.  On
exit 0 the first trace node of ``decide`` says "yes" exactly when the
reference reduces every pair's points to zero, and ``km`` prints the ``km``
field that ``decide`` prints for the same file.
"""

import contextlib
import io
import json
import os
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from surfemb4 import cli
from surfemb4.gamma import PairingContext
from surfemb4.groups import Character, abelian_group, subgroup_closure

from helpers import TwoLatticeGamma

TEMPLATE = json.loads(resources.files("surfemb4").joinpath(
    "data", "instances", "torus_s3s1.json").read_text())


@st.composite
def instances(draw):
    factors = draw(st.lists(st.sampled_from((0, 2, 3, 4, 6)), min_size=1, max_size=3))
    elem = st.tuples(*[st.integers(-13, 13) for _ in factors]).map(list)
    sign = st.sampled_from((1, -1))
    wM = [1 if f % 2 else draw(sign) for f in factors]
    gens = draw(st.lists(st.tuples(elem, sign).map(list), max_size=3))
    if draw(st.booleans()) and draw(st.booleans()):
        gens.append([[0] * len(factors), -1])
    points = draw(st.lists(st.tuples(elem, sign), max_size=4))
    bad_query = st.sampled_from(("[", "[]", "3", json.dumps([0] * (len(factors) + 1))))
    queries = draw(st.lists(elem.map(json.dumps) | bad_query, min_size=1, max_size=3))
    return factors, wM, gens, points, queries


def _document(factors, wM, gens, points):
    doc = json.loads(json.dumps(TEMPLATE))
    doc["group"]["factors"] = factors
    doc["characters"]["wM"] = wM
    doc["components"][0]["signed_subgroup"] = gens
    doc["double_points"] = [{"components": [0, 0], "eta": eta, "id": i, "sign": s}
                            for i, (eta, s) in enumerate(points)]
    doc["whitney_collection"] = None
    return doc


@settings(max_examples=150)
@given(case=instances())
def test_gamma_query_exits_with_json_and_matches_reference(case):
    factors, wM, gens, points, queries = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        Path(path).write_text(json.dumps(_document(factors, wM, gens, points)))
        argv = ["gamma", path, "--component", "0"] + [f"--query={q}" for q in queries]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
    doc = json.loads(out.getvalue())
    event(f"exit {code}")
    assert code in (0, 2, 3)
    assert (doc.get("ok") is False) is (code != 0), doc
    if code:
        return
    group = abelian_group(factors)
    s = subgroup_closure(group, [(tuple(g), sg) for g, sg in gens])
    ref = TwoLatticeGamma(PairingContext(group, Character(group, wM), s, s, self_pairing=True))
    coeffs = ref.reduce([(sg, tuple(eta)) for eta, sg in points])
    assert [q["element"] for q in doc["queries"]] == [json.loads(q) for q in queries]
    for q in doc["queries"]:
        orbit = ref.orbit_of(q["element"])
        value, order = ref.coefficient_at(coeffs, q["element"])
        event(order)
        assert q["orbit_rep"] == list(orbit.rep)
        assert (q["coefficient"], q["order"]) == (value, order)
    assert doc["reduced_is_zero"] == (not coeffs)


@st.composite
def decide_cases(draw):
    factors = draw(st.lists(st.sampled_from((0, 2, 3, 4, 6)), min_size=1, max_size=3))
    elem = st.tuples(*[st.integers(-13, 13) for _ in factors]).map(list)
    sign = st.sampled_from((1, -1))
    wM = [1 if f % 2 else draw(sign) for f in factors]
    gens = [draw(st.lists(st.tuples(elem, sign).map(list), max_size=2)) for _ in range(2)]
    if draw(st.booleans()) and draw(st.booleans()):
        gens[0].append([[0] * len(factors), -1])
    pool = draw(st.lists(elem, min_size=1, max_size=3))
    pair = st.sampled_from(((0, 0), (0, 1), (1, 0), (1, 1)))
    points = draw(st.lists(st.tuples(pair, st.sampled_from(pool), sign), max_size=8))
    collection = draw(st.sampled_from((None, "empty", "disc")))
    if collection == "disc":  # only a cancelling pair on component 0, paired by a disc with t = 1
        zero = [0] * len(factors)
        points = [((0, 0), zero, 1), ((0, 0), zero, -1)]
    argv = draw(st.sampled_from((["decide"], ["decide", "--batch"], ["km"])))
    if argv != ["km"]:
        argv += ["--mode", draw(st.sampled_from(("regular", "homotopy")))]
    return factors, wM, gens, points, collection, argv


def _two_component_document(factors, wM, gens, points, collection):
    doc = _document(factors, wM, gens[0], [])
    doc["components"].append({"id": 1, "signed_subgroup": gens[1], "has_alg_dual": True,
                              "dual_framed": True})
    doc["surface"]["components"].append(
        {"id": 1, "genus": 0, "orientable": True, "boundary_circles": 0})
    doc["double_points"] = [{"components": list(pair), "eta": eta, "id": i, "sign": s}
                            for i, (pair, eta, s) in enumerate(points)]
    if collection:
        discs = [] if collection == "empty" else [
            {"id": 0, "pairs": [len(points) - 2, len(points) - 1], "interior": {"0": 1},
             "mu_boundary": 0, "euler": 0}]
        doc["whitney_collection"] = {"convenient": True, "discs": discs, "boundary_intersections": []}
    return doc


def _reference_vanishes(factors, wM, gens, points) -> bool:
    group = abelian_group(factors)
    chi = Character(group, wM)
    subgroups = [subgroup_closure(group, [(tuple(g), sg) for g, sg in gs]) for gs in gens]
    lists: dict = {}
    for pair, eta, s in points:
        lists.setdefault(tuple(sorted(pair)), []).append((s, tuple(eta)))
    for (i, j), entries in lists.items():
        ctx = PairingContext(group, chi, subgroups[i], subgroups[j], self_pairing=i == j)
        if TwoLatticeGamma(ctx).reduce(entries):
            return False
    return True


def _run(argv) -> tuple[int, dict]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


@settings(max_examples=225)
@given(case=decide_cases())
def test_decide_exits_with_json_and_first_node_matches_reference(case):
    factors, wM, gens, points, collection, argv = case
    doc = _two_component_document(factors, wM, gens, points, collection)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        Path(path).write_text(json.dumps(doc))
        code, doc = _run(argv[:1] + [tmp if "--batch" in argv else path] + argv[1:])
        if argv == ["km"] and code == 0:
            decide_code, decided = _run(["decide", path])
    if "--batch" in argv:
        doc = doc["instance.json"]
    event(f"{' '.join(argv)}: exit {code}")
    assert code in (0, 2, 3)
    assert (doc.get("ok") is False) is (code != 0), doc
    if code:
        return
    if argv == ["km"]:
        event(f"km {doc['km']}")
        assert decide_code == 0 and doc == {"km": decided["km"]}, (doc, decided)
        return
    first = doc["trace"][0]
    assert first["node"] == "Is lambda(f_i,f_j)=mu(f_i)=0 for all i != j?"
    event(f"primary {first['value']}")
    assert (first["value"] == "yes") is _reference_vanishes(factors, wM, gens, points)
