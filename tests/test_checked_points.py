"""Every sign and eta of a ``ProblemInstance`` is checked, and only once.

``groups.check_signed`` is the one check of (sign, element) columns.
``subgroup_closure`` and ``whitney.DoublePoints``, which always takes a
group, run it, each raising ``GroupError``, whose message tells a bad sign
from a bad element; ``helpers.point_columns`` and ``helpers.reduce_pairs``
build the columns that way.  ``DoublePoints`` columns are the one form of
points: ``ProblemInstance`` and ``reduce_list`` keep columns checked against
their own group object as they are and reject every other input, columns
checked against another group object included, with ``EngineError`` and
``GammaError``, so there is no way round the check.
"""

import json
import random
import re
from importlib import resources

import pytest

from helpers import (cyclic_group, point_columns, point_records, random_points_doc, reduce_pairs,
                     trivial_character)
from surfemb4 import cli, schema, whitney
from surfemb4.engine import EngineError, ProblemInstance, flowchart, homotopy_analysis
from surfemb4.gamma import GammaError, PairingContext, build_gamma, reduce_list
from surfemb4.groups import Character, GroupError, abelian_group, check_signed, subgroup_closure
from surfemb4.whitney import DoublePoints

INSTANCES = resources.files("surfemb4").joinpath("data", "instances")
SHIPPED = sorted(p.name[:-5] for p in INSTANCES.iterdir() if p.name.endswith(".json"))


def _doc(name: str) -> dict:
    return json.loads(INSTANCES.joinpath(name + ".json").read_text())


def _rebuilt(inst: ProblemInstance, points) -> ProblemInstance:
    """``inst`` built again, with its constructor's checks, from ``points``."""
    return ProblemInstance(**dict(inst._asdict(), points=points))


# (instance, point, sign or None to keep it, eta or None to keep it, error class, message)
BAD = [
    ("torus_s3s1", 0, 7, (12345,), GroupError, "sign must be +1 or -1, got 7"),
    ("torus_s3s1", 1, True, None, GroupError, "sign must be +1 or -1, got True"),
    ("star_cp2_sphere", 0, None, 999, GroupError, "invalid element 999 for group of order 1"),
    ("star_cp2_sphere", 1, True, None, GroupError, "sign must be +1 or -1, got True"),
]


@pytest.mark.parametrize("name, k, sign, eta, error, message", BAD)
def test_instance_rejects_a_bad_sign_or_eta_in_every_form(name, k, sign, eta, error, message):
    """On the one form of points, columns built against the instance's group."""
    inst = schema.instance_from_dict(_doc(name))
    points = [list(p) for p in point_records(inst.points)]
    points[k][2] = points[k][2] if sign is None else sign
    points[k][3] = points[k][3] if eta is None else eta
    with pytest.raises(error) as exc:
        _rebuilt(inst, point_columns(points, inst.group))
    assert type(exc.value) is error and str(exc.value) == message


def test_a_non_canonical_abelian_eta_is_stored_canonical():
    doc = random_points_doc(random.Random(3), finite=False, pairs=20)
    doc["group"]["factors"] = factors = [0, 3, 4]
    for dp in doc["double_points"]:
        dp["eta"] = [dp["id"] - 7, 3 + dp["id"], -5 * dp["id"]]
    doc["components"] = [dict(c, signed_subgroup=[]) for c in doc["components"]]
    doc["characters"]["wM"] = [1, 1, 1]
    inst = schema.instance_from_dict(doc)
    raw = {dp["id"]: dp["eta"] for dp in doc["double_points"]}
    canonical = {pid: tuple(x % f if f else x for x, f in zip(raw[pid], factors)) for pid in raw}
    assert canonical != {pid: tuple(eta) for pid, eta in raw.items()}
    unreduced = DoublePoints(inst.points.ids, inst.points.pairs, inst.points.signs,
                             [tuple(raw[pid]) for pid in inst.points.ids], inst.group)
    for points in (inst.points, unreduced):
        stored = _rebuilt(inst, points).points
        assert stored.group is inst.group
        assert dict(zip(stored.ids, stored.etas)) == canonical


def test_checked_columns_are_kept_and_others_checked_against_the_instance_group():
    """Columns checked against the instance's group object are kept as they are; the group
    of any others is checked, and they are rejected."""
    inst = schema.instance_from_dict(_doc("torus_s3s1"))
    assert inst.points.group is inst.group
    assert _rebuilt(inst, inst.points).points is inst.points
    p = inst.points
    other = DoublePoints(p.ids, p.pairs, p.signs, p.etas, type(inst.group)(inst.group.factors))
    for points in (other, point_records(p)):  # an equal group, not the same; rows, not columns
        with pytest.raises(EngineError) as exc:
            _rebuilt(inst, points)
        assert type(exc.value) is EngineError
        assert str(exc.value) == "double points not over the instance's group"


def _outcome(decide, inst):
    try:
        return cli.to_json(decide(inst).as_dict())
    except EngineError as exc:
        return repr(exc)


@pytest.mark.parametrize("source", SHIPPED + ["generated finite", "generated abelian"])
def test_records_and_columns_give_byte_identical_verdicts(source):
    """The declared point records, unreduced, built into columns by ``helpers.point_columns``,
    decide as the reader's columns do."""
    if source.startswith("generated"):
        doc = random_points_doc(random.Random(source), source == "generated finite", pairs=40)
    else:
        doc = _doc(source)
    inst = schema.instance_from_dict(doc)
    raw = [(dp["id"], tuple(dp["components"]), dp["sign"],
            tuple(dp["eta"]) if type(dp["eta"]) is list else dp["eta"])
           for dp in doc["double_points"]]  # as declared, unreduced
    rebuilt = _rebuilt(inst, point_columns(raw, inst.group))
    for decide in (flowchart, homotopy_analysis):
        assert _outcome(decide, rebuilt) == _outcome(decide, inst)


def _columns(signs, etas, group) -> DoublePoints:
    return DoublePoints(range(len(signs)), [(0, 0)] * len(signs), signs, etas, group)


def _entries(group):
    """Each entry that checks (sign, element) pairs, as a call on signs and elements."""
    trivial = subgroup_closure(group, [])
    gamma = build_gamma(PairingContext(group, trivial_character(group), trivial, trivial))
    return {
        "check_signed": lambda signs, elems: check_signed(group, signs, elems),
        "subgroup_closure": lambda signs, elems: subgroup_closure(group, list(zip(elems, signs))),
        "reduce_list": lambda signs, elems: reduce_pairs(list(zip(signs, elems)), gamma),
        "DoublePoints": lambda signs, elems: _columns(signs, elems, group),
    }


@pytest.mark.parametrize("entry", ["check_signed", "subgroup_closure", "reduce_list", "DoublePoints"])
@pytest.mark.parametrize("bad_sign", [7, True, 1.0, 0, None], ids=repr)
def test_every_entry_keeps_its_error_class_and_message(entry, bad_sign):
    """Every entry raises the sign rule's owner's class, ``GroupError``, with one message."""
    call = _entries(cyclic_group(4))[entry]
    message = f"sign must be +1 or -1, got {bad_sign!r}"
    with pytest.raises(GroupError) as exc:
        call([1, -1, bad_sign, 1], [0, 1, 2, 9])
    assert type(exc.value) is GroupError and str(exc.value) == message
    with pytest.raises(GroupError) as exc:  # an element before the bad sign is met first
        call([1, -1, bad_sign], [0, 9, 2])
    assert type(exc.value) is GroupError and str(exc.value) == "invalid element 9 for group of order 4"
    with pytest.raises(GroupError, match=f"^{re.escape(message)}$"):  # at one pair, its sign before its element
        call([1, bad_sign], [0, 9])


def test_reduce_list_takes_only_columns_checked_against_its_own_group(monkeypatch):
    """Columns checked against the ambient group object are reduced as they are, with no
    check run again; columns checked against another group object, and rows, are rejected."""
    group, signs, elems = cyclic_group(4), [1, 1, -1, 1], [1, 3, 1, 2]
    trivial = subgroup_closure(group, [])
    gamma = build_gamma(PairingContext(group, trivial_character(group), trivial, trivial))
    expected = reduce_pairs(list(zip(signs, elems)), gamma)
    columns = _columns(signs, elems, group)
    checks = []
    monkeypatch.setattr(whitney, "check_signed",
                        lambda *args: checks.append(args[0]) or check_signed(*args))
    assert reduce_list(columns, gamma) == expected and checks == []
    others = [_columns(signs, elems, cyclic_group(4)),  # an equal group, not the same
              _columns([1, -1], [1, 6], cyclic_group(8)),  # 6 is an element of C_8 only
              point_records(columns)]
    for points in others:
        with pytest.raises(GammaError) as exc:
            reduce_list(points, gamma)
        assert type(exc.value) is GammaError
        assert str(exc.value) == "double points not over the ambient group"


def test_reduce_list_of_non_canonical_abelian_columns_equals_the_canonical_reduction():
    group = abelian_group([0, 3, 4])
    wM = Character(group, [-1, 1, 1])
    s_f = subgroup_closure(group, [((1, 1, 0), -1)])
    s_g = subgroup_closure(group, [((0, 0, 2), 1)])
    rng = random.Random(11)
    raw = [(rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(-9, 10)) for _ in range(30)]
    canonical = [(a, b % 3, c % 4) for a, b, c in raw]
    assert canonical != raw
    signs = [rng.choice((1, -1)) for _ in raw]
    for self_pairing in (False, True):
        gamma = build_gamma(PairingContext(group, wM, s_f, s_g, self_pairing=self_pairing))
        expected = reduce_list(_columns(signs, canonical, group), gamma)
        assert not expected.is_zero()
        assert reduce_list(_columns(signs, raw, group), gamma) == expected
        assert reduce_pairs(list(zip(signs, raw)), gamma) == expected
