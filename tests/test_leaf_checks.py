"""Each leaf value of a valid instance is checked once, by the walk or by its constructor.

The reader's walk leaves each owned leaf to the domain constructor that
checks it with the same rule: signs to ``groups.check_signed`` and
``Character``, band bits to ``bands._mask``, disc and boundary counts and
disc twists to ``WhitneyCollection``, factors to ``FGAbelianGroup``.  Etas are checked by ``FGAbelianGroup.check_elems``
and interior keys by ``schema._int_keys``.  On a generated valid abelian instance the values each
check sees add up, kind by kind, to exactly the leaves of that kind in the
document.
"""

import random
from collections import Counter

from helpers import band_catalog_doc, random_points_doc
from surfemb4 import bands, groups, schema, shapes, whitney

KINDS = {"+1 or -1": "sign", "0 or 1": "bit", "a nonnegative integer": "count", "an integer": "int"}


def _document() -> dict:
    """A valid abelian instance with every kind of leaf: points, weak discs, bands, spheres, RP2s."""
    doc = random_points_doc(random.Random(17), finite=False, pairs=40, components=2)
    catalog = band_catalog_doc(6, seed=4)  # over components 0 and 1, as the points are
    doc.update(surface=catalog["surface"], catalogs=catalog["catalogs"])
    doc["catalogs"].update(spheres=[[0, 1], [1, 1]], rp2=[[1, 1]])
    doc["components"][0].update(w2=1, e=-2)
    doc["whitney_collection"].update(convenient=False, boundary_intersections=[[0, 1, 2], [2, 5, 0]])
    return doc


def _leaves(shape, value, out: Counter) -> None:
    """Count the leaves of ``value`` by kind, walking it along ``shape``."""
    if isinstance(shape, schema._Nullable):
        if value is not None:
            _leaves(shape.shape, value, out)
    elif isinstance(shape, schema._Tagged):
        _leaves(shape.variants[value[shape.tag]], value, out)
    elif isinstance(shape, shapes.Object):
        for key, field in shape.fields:
            if key in value:
                _leaves(field, value[key], out)
    elif isinstance(shape, (schema._Tuple, shapes.Array)):
        items = shape.items if isinstance(shape, schema._Tuple) else [shape.item] * len(value)
        for item, entry in zip(items, value):
            _leaves(item, entry, out)
    elif isinstance(shape, schema._Map):
        out["key"] += len(value) if shape.int_keys else 0
        for entry in value.values():
            _leaves(shape.value, entry, out)
    elif isinstance(shape, shapes.Leaf):
        out[KINDS.get(shape.expected, shape.expected)] += 1
    else:
        out["element"] += 1


def test_each_leaf_is_checked_once(monkeypatch):
    doc = _document()
    leaves = Counter()
    _leaves(schema.INSTANCE_SHAPE, doc, leaves)
    assert min(leaves[kind] for kind in ("sign", "bit", "count", "int", "element", "key")) > 0
    seen = Counter()

    def spy(owner, name, count):
        original = getattr(owner, name)

        def call(*args, **kwargs):
            for kind, n in count(*args, **kwargs).items():
                seen[kind] += n
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    spy(shapes.Leaf, "fits_all", lambda self, values, trust=False: (
        {} if trust and self.owned else {KINDS.get(self.expected, self.expected): len(values)}))
    for module in (groups, whitney):  # whitney binds its own name for it
        spy(module, "check_signed", lambda group, signs, elems, error=None: {"sign": len(signs)})
    spy(groups.Character, "__init__", lambda self, group, values: {"sign": len(values)})
    spy(groups.FGAbelianGroup, "__init__", lambda self, factors: {"int": len(factors)})
    spy(groups.FGAbelianGroup, "check_elems", lambda self, values: {"element": len(values)})
    spy(bands, "_mask", lambda vec, n, error, *names: {"bit": len(vec)})
    spy(whitney.WhitneyCollection, "__new__", lambda cls, discs, boundary, convenient: {
        "count": len(discs.mu_boundary) + sum(map(len, discs.interiors)) + len(boundary),
        "int": len(discs.euler)})
    spy(schema, "_int_keys", lambda keys: {"key": len(keys)})
    for shape in (shapes.Shape, shapes.Leaf, shapes.Array, schema._Tuple, shapes.Object, schema._Map,
                  schema._Tagged, schema._Nullable):  # the per-entry walk runs only on errors
        spy(shape, "check", lambda self, value: {"entry walk": 1})

    inst = schema.instance_from_dict(doc)
    assert len(inst.points) == 80 and len(inst.band_catalog.records) == 6
    assert seen["entry walk"] == 0
    for kind in ("sign", "count", "int", "element", "key"):
        assert seen[kind] == leaves[kind], kind
    assert seen["bit"] == leaves["bit"]
