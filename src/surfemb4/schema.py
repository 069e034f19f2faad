"""Instance files: one strict reader and loading.

The instance document is declared once as a shape (``INSTANCE_SHAPE``)
giving each field's exact type and whether it may be absent; unknown
fields, bools for integers and floats are errors.  One walk takes and
checks the columns, and the domain objects are built from them; their
constructors' errors are reported at the pointer of the data they were
given, and the shape's JSON-pointer errors, when there are any, instead.
A domain error is any ``ValueError``, the rule ``cli`` maps to exit 2, so
this reader lists no module's error classes.  The shapes both file kinds
use are in ``shapes``, the knot file in ``knots``, ``SchemaError`` in
``errors`` and ``to_json`` in ``cli``.  The package registers this module
lazily, so only the instance commands (``validate``, ``decide``, ``km``,
``gamma``) run it.
"""

from __future__ import annotations

import gc
import json
from itertools import chain, compress, islice, repeat

from . import bands, engine, groups, whitney
from .errors import SchemaError
from .shapes import (STR, Array, Leaf, Object, Shape, describe, each, expected, read_json, shape_errors,
                     token)

SCHEMA_VERSION = 1

# Largest total GF(2) H1 dimension of the surface an instance may declare.  The
# model's masks hold a bit per basis class, so one large genus would otherwise
# cost time and memory far beyond the size of the file.  The shipped instances
# have dimension <= 2.
MAX_H1_DIM = 10_000


# -- the instance-only shapes ------------------------------------------------------
#
# ``check`` and ``fits_all`` as for the shapes of ``shapes``.


class _Tuple(Shape):
    """An array of fixed length with one shape per position."""

    def __init__(self, *items: Shape):
        self.items = items

    def check(self, value) -> list:
        if type(value) is not list or len(value) != len(self.items):
            got = f"{len(value)}" if type(value) is list else describe(value)
            return [("", f"expected an array of {len(self.items)} entries, got {got}")]
        return each(zip(range(len(value)), self.items, value))

    def fits_all(self, values: list, trust=False):
        if not ({list}.issuperset(map(type, values)) and {len(self.items)}.issuperset(map(len, values))):
            return None
        columns = tuple(item.fits_all(column, trust)
                        for item, column in zip(self.items, list(zip(*values)) or [()] * len(self.items)))
        return None if None in columns else columns


class _Map(Shape):
    """An object with free keys (decimal integers when ``int_keys``) and one value shape."""

    def __init__(self, value: Shape, int_keys=False):
        self.value, self.int_keys = value, int_keys

    def check(self, value) -> list:
        if type(value) is not dict:
            return expected("an object", value)
        out = [(f"/{token(key)}", "keys are integers written in decimal, like \"0\"")
               for key in value if self.int_keys and _int_keys([key]) is None]
        return out + each((token(key), self.value, entry) for key, entry in value.items())

    def fits_all(self, values: list, trust=False):
        if not {dict}.issuperset(map(type, values)):
            return None
        entries = list(chain.from_iterable(map(dict.values, values)))
        keys = _int_keys(list(chain.from_iterable(values))) if self.int_keys else ()
        if keys is None or self.value.fits_all(entries, trust) is None:
            return None
        pairs = zip(keys, entries)  # dealt back out, each object taking as many as it had
        return list(map(dict, map(islice, repeat(pairs), map(len, values)))) if self.int_keys else values


def _int_keys(keys: list):
    """The keys as ints when each is an integer written in canonical decimal, else None."""
    distinct = list(set(keys))  # component ids repeat from disc to disc, so each is parsed once
    try:
        ints = list(map(int, distinct))
    except (TypeError, ValueError):  # not a number, or past int's 4 300-digit limit
        return None
    if list(map(str, ints)) != distinct:  # canonical, so "01" cannot alias "1"
        return None
    return list(map(dict(zip(distinct, ints)).__getitem__, keys))


class _Tagged(Shape):
    """An object whose ``tag`` field picks one of several object shapes; its columns are per tag."""

    def __init__(self, tag: str, variants: dict):
        self.tag, self.variants = tag, variants

    def check(self, value) -> list:
        if type(value) is not dict:
            return expected("an object", value)
        tag = value.get(self.tag)
        if type(tag) is str and tag in self.variants:
            return self.variants[tag].check(value)
        if self.tag not in value:
            return [(f"/{self.tag}", "missing required field")]
        names = " or ".join(map(json.dumps, self.variants))
        return [(f"/{self.tag}", f"expected {names}, got {describe(tag)}")]

    def fits_all(self, values: list, trust=False):
        if not {dict}.issuperset(map(type, values)):
            return None
        tags = list(map(dict.get, values, repeat(self.tag)))
        if not ({str}.issuperset(map(type, tags)) and self.variants.keys() >= set(tags)):
            return None
        columns = {name: shape.fits_all(list(compress(values, map(name.__eq__, tags))), trust)
                   for name, shape in self.variants.items()}
        return None if None in columns.values() else columns


class _Nullable(Shape):
    def __init__(self, shape: Shape):
        self.shape = shape

    def check(self, value) -> list:
        return [] if value is None else self.shape.check(value)

    def fits_all(self, values: list, trust=False):
        return self.shape.fits_all([v for v in values if v is not None], trust)


INT = Leaf("an integer", int)
COUNT = Leaf("a nonnegative integer", int, minimum=0)
BIT = Leaf("0 or 1", int, values=(0, 1))
BOOL = Leaf("true or false", bool)
ELEMENT = Shape()  # its form depends on the group, so groups.check_signed checks it
# Owned leaves: check_signed and Character check signs, bands._mask bits, WhitneyCollection
# counts, make_finite_group and FGAbelianGroup table entries and factors.
SIGN = Leaf("+1 or -1", int, values=(1, -1), owned=True)
OWNED_INT, OWNED_COUNT, OWNED_BIT = (Leaf(leaf.expected, int, leaf.values, leaf.minimum, owned=True)
                                     for leaf in (INT, COUNT, BIT))

INSTANCE_SHAPE = Object({
    "version": Leaf(str(SCHEMA_VERSION), int, values=(SCHEMA_VERSION,)),
    "group": _Tagged("kind", {
        "finite": Object({"kind": STR, "table": Array(Array(OWNED_INT))}),
        "abelian": Object({"kind": STR, "factors": Array(OWNED_INT)}),
    }),
    "characters": Object({"wM": Array(SIGN)}),
    "components": Array(Object(
        {"id": INT, "signed_subgroup": Array(_Tuple(ELEMENT, SIGN)), "has_alg_dual": BOOL,
         "dual_framed": BOOL, "w2": BIT, "e": INT}, optional=("w2", "e"))),
    "surface": Object({"components": Array(Object(
        {"id": INT, "genus": COUNT, "orientable": BOOL, "boundary_circles": COUNT}))}),
    "double_points": Array(Object(
        {"id": INT, "components": _Tuple(INT, INT), "sign": SIGN, "eta": ELEMENT})),
    "whitney_collection": _Nullable(Object({
        "convenient": BOOL,
        "discs": Array(Object(
            {"id": INT, "pairs": _Tuple(INT, INT), "interior": _Map(OWNED_COUNT, int_keys=True),
             "mu_boundary": OWNED_COUNT, "euler": OWNED_INT})),
        "boundary_intersections": Array(_Tuple(INT, INT, OWNED_COUNT)),
    })),
    "catalogs": Object({
        "rel_h2": Object({"basis": Array(STR), "boundary": _Map(Array(OWNED_BIT))}),
        "bands": Array(Object(
            {"id": STR, "kind": STR, "rel_class": Array(OWNED_BIT),
             "boundary_classes": Array(Array(OWNED_BIT)), "w1_sigma": Array(OWNED_BIT),
             "w1m_core": OWNED_BIT, "mu_boundary": OWNED_BIT, "arc_count": OWNED_BIT,
             "interior": OWNED_BIT, "euler": OWNED_BIT})),
        "spheres": Array(_Tuple(BIT, BIT)),
        "rp2": Array(_Tuple(BIT, BIT)),
    }),
    "flags": Object({"good_group": BOOL, "torus_summand": Array(INT)}),
})


# -- reading files ---------------------------------------------------------------


def load_instance(path) -> engine.ProblemInstance:
    """The instance of an instance file, or a SchemaError.

    Reading makes many containers and no cycles, so the collector, which
    would scan them each time they grow, is paused while it runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return instance_from_dict(read_json(path, "instance file"))
    finally:
        if enabled:
            gc.enable()


# -- building the domain objects -------------------------------------------------


def _build(errors: list[str], pointer: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, or None with its domain error (a ValueError) recorded at ``pointer``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        errors.append(f"{pointer}: {exc}")
        return None


def _h1_dim_error(components) -> list[str]:
    """An error at the field that takes the H1 dimension past ``MAX_H1_DIM`` (``bands.h1_ranks``), if any."""
    dim = 0
    for i, sc in enumerate(components):
        ranks = bands.h1_ranks(sc["genus"], sc["orientable"], sc["boundary_circles"])
        for key, size in zip(("genus", "boundary_circles"), ranks):
            dim += size
            if dim > MAX_H1_DIM:
                return [f"/surface/components/{i}/{key}: the surface's H1 dimension "
                        f"exceeds the cap of {MAX_H1_DIM}"]
    return []


def _point_errors(doc, group) -> list[str]:
    """The double points walked one by one, for an error at every bad one."""
    errors, seen, declared = [], set(), {c["id"] for c in doc["components"]}
    for i, dp in enumerate(doc["double_points"]):
        if not set(dp["components"]) <= declared:
            errors.append(f"/double_points/{i}/components: unknown component in {dp['components']}")
        elif dp["id"] in seen:
            errors.append(f"/double_points/{i}/id: duplicate double-point id")
        elif group is not None:
            try:
                group.check_elems([dp["eta"]])
            except ValueError as exc:
                errors.append(f"/double_points/{i}/eta: {exc}")
        seen.add(dp["id"])
    return errors


def instance_from_dict(doc) -> engine.ProblemInstance:
    """The instance a parsed document declares, or a SchemaError with every error found.

    The builders read the trusting walk's columns; the shape's and the points' walks run on a refusal.
    The sphere and RP2 catalogs and each component's ``w2`` and ``e`` are checked, not stored.
    """
    view = INSTANCE_SHAPE.fits_all([doc], trust=True)
    if view is None:
        raise SchemaError(shape_errors(INSTANCE_SHAPE, doc))

    errors, gdoc = [], doc["group"]
    if gdoc["kind"] == "finite":
        group = _build(errors, "/group/table", groups.make_finite_group, gdoc["table"])
    else:
        group = _build(errors, "/group/factors", groups.abelian_group, gdoc["factors"])

    wM, components = None, []
    if group is not None:
        wM = _build(errors, "/characters/wM", groups.Character, group, doc["characters"]["wM"])
        for i, comp in enumerate(doc["components"]):
            subgroup = _build(errors, f"/components/{i}/signed_subgroup",
                              groups.subgroup_closure, group, comp["signed_subgroup"])
            if subgroup is not None:
                components.append(engine.ComponentData(comp["id"], subgroup, comp["has_alg_dual"],
                                                       comp["dual_framed"]))

    parts = [_build(errors, f"/surface/components/{i}", bands.SurfaceComponent, **sc)
             for i, sc in enumerate(doc["surface"]["components"])]
    too_large = _h1_dim_error(doc["surface"]["components"])
    errors += too_large
    surface = (None if too_large or None in parts
               else _build(errors, "/surface", bands.SurfaceModel, parts))

    at, refused, dps = len(errors), [], view["double_points"]  # the points' errors go at ``at``
    points = None if group is None else _build(
        refused, "", whitney.DoublePoints, dps["id"], zip(*dps["components"]), dps["sign"], dps["eta"], group)

    collection, wc = None, view["whitney_collection"]
    if doc["whitney_collection"] is not None:
        discs, (first, second, counts) = wc["discs"], wc["boundary_intersections"]
        columns = whitney.WhitneyDiscs(discs["id"], zip(*discs["pairs"]), discs["interior"],
                                       discs["mu_boundary"], discs["euler"])
        keys = list(map(frozenset, zip(first, second)))
        boundary = dict(zip(keys, counts))
        if len(boundary) != len(keys):  # an error at every repeat
            first_at = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
            errors += [f"/whitney_collection/boundary_intersections/{i}: disc pair listed twice"
                       for i, key in enumerate(keys) if first_at[key] != i]
        collection = _build(errors, "/whitney_collection", whitney.WhitneyCollection,
                            columns, boundary, doc["whitney_collection"]["convenient"])

    catalogs = doc["catalogs"]
    rel = _build(errors, "/catalogs/rel_h2", bands.RelH2, tuple(catalogs["rel_h2"]["basis"]),
                 {k: tuple(v) for k, v in catalogs["rel_h2"]["boundary"].items()})
    records = [_build(errors, f"/catalogs/bands/{i}", bands.BandRecord, **b)
               for i, b in enumerate(catalogs["bands"])]
    band_catalog = (None if rel is None or surface is None or None in records
                    else _build(errors, "/catalogs/bands", bands.BandCatalog, surface, rel, tuple(records)))

    if not (errors or refused):
        try:
            return engine.ProblemInstance(
                group=group, wM=wM, components=tuple(components), points=points, collection=collection,
                band_catalog=band_catalog, good_group=doc["flags"]["good_group"],
                torus_summands=frozenset(doc["flags"]["torus_summand"]))
        except ValueError as exc:  # every owned leaf is checked by now
            raise SchemaError(_point_errors(doc, group) or [f"/: {exc}"]) from None
    errors[at:at] = _point_errors(doc, group)
    raise SchemaError(shape_errors(INSTANCE_SHAPE, doc) or errors)
