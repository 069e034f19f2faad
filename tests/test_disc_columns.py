"""Whitney discs as columns: the reader's column passes against the per-disc reader.

The reader holds the discs as one ``whitney.WhitneyDiscs`` record, and the
collection checks, ``to_convenient``, the F^t sub-collection and ``t_count``
are passes over its columns.  On generated instances, valid or with bad
discs planted, the error lists, the disc records, t, the converted
collections and the verdicts must equal those of the per-disc code they
replaced (``helpers.instance_from_dict_per_point``, which builds one
``WhitneyDisc`` per disc and checks them one at a time, and the
``*_per_disc`` oracles).
"""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    instance_from_dict_per_point,
    random_points_doc,
    t_count_per_disc,
    t_for_ft_per_point,
    to_convenient_per_disc,
)
from surfemb4 import schema
from surfemb4.engine import EngineError, _t_for_ft, flowchart, homotopy_analysis, restrict_Ft
from surfemb4.whitney import WhitneyDisc, WhitneyError, t_count, to_convenient


def _plant(rng: random.Random, doc, kind: str) -> None:
    """One bad disc of ``kind`` at a random place in ``doc``."""
    wc = doc["whitney_collection"]
    discs, ncomp = wc["discs"], len(doc["components"])
    k = rng.randrange(len(discs))
    other = discs[(k + 1 + rng.randrange(len(discs) - 1)) % len(discs)]
    disc = discs[k]
    if kind == "duplicate id":
        disc["id"] = other["id"]
    elif kind == "self-pair":
        disc["pairs"] = [disc["pairs"][0]] * 2
    elif kind == "undeclared point":
        disc["pairs"][rng.randrange(2)] = len(doc["double_points"]) + rng.randrange(3)
    elif kind == "paired twice":
        disc["pairs"][rng.randrange(2)] = other["pairs"][rng.randrange(2)]
    elif kind == "unknown component":
        disc["interior"][str(ncomp + rng.randrange(3))] = rng.randrange(3)
    elif kind == "key 01":
        disc["interior"]["01"] = 1
    elif kind == "negative count":
        if rng.random() < 0.5:
            disc["mu_boundary"] = -1
        else:
            disc["interior"][str(rng.randrange(ncomp))] = -1
    else:  # a twisted disc in a convenient collection
        wc["convenient"] = True
        disc["euler"] = rng.choice((-1, 1, 2))


def _errors(read, doc) -> list[str]:
    with pytest.raises(schema.SchemaError) as exc:
        read(doc)
    return exc.value.errors


KINDS = ["duplicate id", "self-pair", "undeclared point", "paired twice", "unknown component",
         "key 01", "negative count", "twisted convenient"]


@settings(max_examples=150)
@given(seed=st.integers(0, 10 ** 9), finite=st.booleans(),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
def test_reader_errors_equal_the_per_disc_readers(seed, finite, kinds):
    rng = random.Random(seed)
    doc = random_points_doc(rng, finite, pairs=rng.randrange(2, 30))
    for kind in kinds:
        _plant(rng, doc, kind)
    expected = _errors(instance_from_dict_per_point, copy.deepcopy(doc))
    assert _errors(schema.instance_from_dict, doc) == expected


def _records(doc) -> list[WhitneyDisc]:
    """The discs of ``doc`` built one by one, as the per-disc reader built them."""
    return [WhitneyDisc(d["id"], tuple(d["pairs"]), {int(k): v for k, v in d["interior"].items()},
                        d["mu_boundary"], d["euler"])
            for d in doc["whitney_collection"]["discs"]]


def _outcome(compute, *args):
    """The value, or the error that ends the computation."""
    try:
        return compute(*args)
    except (EngineError, WhitneyError) as exc:
        return repr(exc)


@settings(max_examples=60)
@given(seed=st.integers(0, 10 ** 9), finite=st.booleans(), components=st.integers(1, 4))
def test_counts_conversions_and_verdicts_equal_the_per_disc_code(seed, finite, components):
    rng = random.Random(seed)
    doc = random_points_doc(rng, finite, pairs=rng.randrange(0, 40), components=components)
    inst = schema.instance_from_dict(copy.deepcopy(doc))
    ref = instance_from_dict_per_point(doc)
    records = _records(doc)
    assert list(inst.collection.discs) == records
    assert all(type(d) is WhitneyDisc and type(d.pair) is tuple for d in inst.collection.discs)
    assert [inst.collection.discs[k] for k in range(len(records))] == records
    assert len(inst.collection.discs) == len(records)
    points = list(ref.points)
    assert to_convenient(inst.points, inst.collection) == to_convenient_per_disc(points, ref.collection)
    for comps in (range(components), restrict_Ft(inst), [0]):
        assert _outcome(t_count, inst.points, comps, inst.collection) == \
            _outcome(t_count_per_disc, points, comps, ref.collection)
    ft = restrict_Ft(inst)
    assert _outcome(_t_for_ft, inst, ft) == _outcome(t_for_ft_per_point, ref, ft)
    for decide in (flowchart, homotopy_analysis):
        assert _outcome(lambda i: decide(i).as_dict(), inst) == \
            _outcome(lambda i: decide(i).as_dict(), ref)
