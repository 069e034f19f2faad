"""Instance and knot files: one strict reader, loading, and serialization.

Each JSON document is declared once as a shape (``INSTANCE_SHAPE``,
``KNOT_SHAPE``) giving each field's exact type and whether it may be absent;
unknown fields, bools for integers and floats are errors.  The walk gathers
every mismatch as a JSON-pointer error; only then are the domain objects
built, and their constructors' errors are reported at the pointer of the
data they were given.
"""

from __future__ import annotations

import json
from itertools import chain, compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from . import FLOAT_EXACT_BOUND, _lazy

bands = _lazy("surfemb4.bands")
engine = _lazy("surfemb4.engine")
groups = _lazy("surfemb4.groups")
knots = _lazy("surfemb4.knots")
whitney = _lazy("surfemb4.whitney")

SCHEMA_VERSION = 1

# Largest total GF(2) H1 dimension of the surface an instance may declare.  The
# model's masks hold a bit per basis class, so one large genus would otherwise
# cost time and memory far beyond the size of the file.  The shipped instances
# have dimension <= 2.
MAX_H1_DIM = 10_000

# Largest Seifert matrix a knot file may declare.  Checked before the matrix
# is built, since its unimodularity check and every invariant cost O(n^3) to
# O(n^4) and the cp2 scan's signatures grow with n.
MAX_SEIFERT_SIZE = 40


class SchemaError(ValueError):
    """An invalid input file; ``errors`` are its "pointer: message" strings."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


# -- the declared shapes ---------------------------------------------------------
#
# ``check(value)`` returns (relative JSON pointer, message) pairs, empty when
# the value fits.  ``fits_all`` tests a whole array column by column in C-level
# passes; only when it fails are the entries walked one by one for the errors.

_FITS = ()  # no errors


def _describe(value) -> str:
    """The value itself when it is short, else the name of its JSON type."""
    if (type(value) in (bool, float, type(None)) or (type(value) is int and value.bit_length() <= 64)
            or (type(value) is str and len(value) <= 40)):
        return json.dumps(value)
    names = {str: "a string", list: "an array", dict: "an object", int: "a large integer"}
    return names.get(type(value), type(value).__name__)


def _expected(what: str, value) -> list:
    return [("", f"expected {what}, got {_describe(value)}")]


def _each(entries) -> list:
    """Errors of ``(key, shape, value)`` entries, each under its own key."""
    out = []
    for key, shape, value in entries:
        errors = shape.check(value)
        if errors:
            out += [(f"/{key}{pointer}", message) for pointer, message in errors]
    return out


def _token(key) -> str:
    """``key`` escaped as one JSON-pointer reference token."""
    return str(key).replace("~", "~0").replace("/", "~1")


class _Shape:
    """Any JSON value; the subclasses narrow it."""

    def check(self, value) -> Sequence:
        return _FITS

    def fits_all(self, values: list) -> bool:
        return True


class _Leaf(_Shape):
    """A JSON scalar of one exact type, optionally limited to a value set or a range."""

    def __init__(self, expected: str, typ: type, values=None, minimum=None, maximum=None):
        self.expected, self.typ, self.minimum, self.maximum = expected, typ, minimum, maximum
        self.values = None if values is None else frozenset(values)

    def check(self, value) -> Sequence:
        return _FITS if self.fits_all([value]) else _expected(self.expected, value)

    def fits_all(self, values: list) -> bool:
        return ({self.typ}.issuperset(map(type, values))
                and (self.values is None or self.values.issuperset(values))
                and (self.minimum is None or not values or min(values) >= self.minimum)
                and (self.maximum is None or not values or max(values) <= self.maximum))


class _Array(_Shape):
    def __init__(self, item: _Shape):
        self.item = item

    def check(self, value) -> Sequence:
        if type(value) is not list:
            return _expected("an array", value)
        if self.item.fits_all(value):
            return _FITS
        return _each((i, self.item, entry) for i, entry in enumerate(value))

    def fits_all(self, values: list) -> bool:
        return ({list}.issuperset(map(type, values))
                and self.item.fits_all(list(chain.from_iterable(values))))


class _Tuple(_Shape):
    """An array of fixed length with one shape per position."""

    def __init__(self, *items: _Shape):
        self.items = items

    def check(self, value) -> Sequence:
        if type(value) is not list or len(value) != len(self.items):
            got = f"{len(value)}" if type(value) is list else _describe(value)
            return [("", f"expected an array of {len(self.items)} entries, got {got}")]
        return _each(zip(range(len(value)), self.items, value))

    def fits_all(self, values: list) -> bool:
        return ({list}.issuperset(map(type, values))
                and {len(self.items)}.issuperset(map(len, values))
                and all(item.fits_all(list(map(itemgetter(i), values)))
                        for i, item in enumerate(self.items)))


class _Object(_Shape):
    """An object with exactly the declared fields, less any listed as optional."""

    def __init__(self, fields: dict, optional=()):
        self.fields = tuple(fields.items())
        self.allowed = frozenset(fields)
        self.required = self.allowed - frozenset(optional)

    def check(self, value) -> Sequence:
        if type(value) is not dict:
            return _expected("an object", value)
        out = [(f"/{key}", "missing required field")
               for key, _ in self.fields if key in self.required and key not in value]
        out += [(f"/{_token(key)}", "unknown field") for key in value if key not in self.allowed]
        return out + _each((key, shape, value[key]) for key, shape in self.fields if key in value)

    def fits_all(self, values: list) -> bool:
        if not {dict}.issuperset(map(type, values)):
            return False
        try:  # every required field in every object
            columns = [(shape, list(map(itemgetter(key), values)) if key in self.required
                        else [v[key] for v in values if key in v]) for key, shape in self.fields]
        except KeyError:
            return False
        # each entry taken is a declared key, so as many keys as entries leaves no unknown key
        return (sum(map(len, values)) == sum(len(column) for _, column in columns)
                and all(shape.fits_all(column) for shape, column in columns))


class _Map(_Shape):
    """An object with free keys (decimal integers when ``int_keys``) and one value shape."""

    def __init__(self, value: _Shape, int_keys=False):
        self.value, self.int_keys = value, int_keys

    def check(self, value) -> Sequence:
        if type(value) is not dict:
            return _expected("an object", value)
        out = [(f"/{_token(key)}", "keys are integers written in decimal, like \"0\"")
               for key in value if self.int_keys and not _int_keys([key])]
        return out + _each((_token(key), self.value, entry) for key, entry in value.items())

    def fits_all(self, values: list) -> bool:
        return ({dict}.issuperset(map(type, values))
                and (not self.int_keys or _int_keys(list(chain.from_iterable(values))))
                and self.value.fits_all(list(chain.from_iterable(map(dict.values, values)))))


def _int_keys(keys: list) -> bool:
    """Whether every key is an integer written in canonical decimal; one C-level pass."""
    try:
        return list(map(str, map(int, keys))) == keys  # canonical, so "01" cannot alias "1"
    except (TypeError, ValueError):  # not a number, or past int's 4 300-digit limit
        return False


class _Tagged(_Shape):
    """An object whose ``tag`` field picks one of several object shapes."""

    def __init__(self, tag: str, variants: dict):
        self.tag, self.variants = tag, variants

    def check(self, value) -> Sequence:
        if type(value) is not dict:
            return _expected("an object", value)
        tag = value.get(self.tag)
        if type(tag) is str and tag in self.variants:
            return self.variants[tag].check(value)
        if self.tag not in value:
            return [(f"/{self.tag}", "missing required field")]
        names = " or ".join(map(json.dumps, self.variants))
        return [(f"/{self.tag}", f"expected {names}, got {_describe(tag)}")]

    def fits_all(self, values: list) -> bool:
        if not {dict}.issuperset(map(type, values)):
            return False
        tags = list(map(dict.get, values, repeat(self.tag)))
        return ({str}.issuperset(map(type, tags)) and self.variants.keys() >= set(tags)
                and all(shape.fits_all(list(compress(values, map(name.__eq__, tags))))
                        for name, shape in self.variants.items()))


class _Nullable(_Shape):
    def __init__(self, shape: _Shape):
        self.shape = shape

    def check(self, value) -> Sequence:
        return _FITS if value is None else self.shape.check(value)

    def fits_all(self, values: list) -> bool:
        return self.shape.fits_all([v for v in values if v is not None])


INT = _Leaf("an integer", int)
COUNT = _Leaf("a nonnegative integer", int, minimum=0)
BIT = _Leaf("0 or 1", int, values=(0, 1))
SIGN = _Leaf("+1 or -1", int, values=(1, -1))
BOOL = _Leaf("true or false", bool)
STR = _Leaf("a string", str)
ELEMENT = _Shape()  # its form depends on the group, so groups.check_signed checks it

INSTANCE_SHAPE = _Object({
    "version": _Leaf(str(SCHEMA_VERSION), int, values=(SCHEMA_VERSION,)),
    "group": _Tagged("kind", {
        "finite": _Object({"kind": STR, "table": _Array(_Array(INT))}),
        "abelian": _Object({"kind": STR, "factors": _Array(INT)}),
    }),
    "characters": _Object({"wM": _Array(SIGN)}),
    "components": _Array(_Object(
        {"id": INT, "signed_subgroup": _Array(_Tuple(ELEMENT, SIGN)), "has_alg_dual": BOOL,
         "dual_framed": BOOL, "w2": BIT, "e": INT},
        optional=("w2", "e"))),
    "surface": _Object({"components": _Array(_Object(
        {"id": INT, "genus": COUNT, "orientable": BOOL, "boundary_circles": COUNT}))}),
    "double_points": _Array(_Object(
        {"id": INT, "components": _Tuple(INT, INT), "sign": SIGN, "eta": ELEMENT})),
    "whitney_collection": _Nullable(_Object({
        "convenient": BOOL,
        "discs": _Array(_Object(
            {"id": INT, "pairs": _Tuple(INT, INT), "interior": _Map(COUNT, int_keys=True),
             "mu_boundary": COUNT, "euler": INT})),
        "boundary_intersections": _Array(_Tuple(INT, INT, COUNT)),
    })),
    "catalogs": _Object({
        "rel_h2": _Object({"basis": _Array(STR), "boundary": _Map(_Array(BIT))}),
        "bands": _Array(_Object(
            {"id": STR, "kind": STR, "rel_class": _Array(BIT),
             "boundary_classes": _Array(_Array(BIT)), "w1_sigma": _Array(BIT),
             "w1m_core": BIT, "mu_boundary": BIT, "arc_count": BIT, "interior": BIT,
             "euler": BIT})),
        "spheres": _Array(_Tuple(BIT, BIT)),
        "rp2": _Array(_Tuple(BIT, BIT)),
    }),
    "flags": _Object({"good_group": BOOL, "torus_summand": _Array(INT)}),
})

# Seifert entries below 2^53 are exact as floats, as the signature certificate
# needs.  Larger ones would also raise the exact path's working precision: one
# signature of a 40 x 40 matrix with 100-digit entries took 75 s.
SEIFERT_ENTRY = _Leaf("an integer of magnitude below 2^53", int,
                      minimum=1 - FLOAT_EXACT_BOUND, maximum=FLOAT_EXACT_BOUND - 1)

KNOT_SHAPE = _Object({"seifert": _Array(_Array(SEIFERT_ENTRY)), "name": STR}, optional=("name",))


def _shape_errors(shape, doc) -> list[str]:
    """Every mismatch between ``doc`` and ``shape``, as pointer messages."""
    if shape.fits_all([doc]):
        return []
    return [f"{pointer or '/'}: {message}" for pointer, message in shape.check(doc)]


# -- reading files ---------------------------------------------------------------


def _read_json(path, what: str):
    """Parse a UTF-8 JSON file; any failure to read it is a SchemaError at "/"."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # decode errors are ValueErrors
        raise SchemaError([f"/: unreadable {what}: {exc}"]) from None


def load_knot(path) -> knots.SeifertMatrix:
    """The Seifert matrix of a knot file, or a SchemaError."""
    doc = _read_json(path, "knot file")
    errors = _shape_errors(KNOT_SHAPE, doc)
    if errors:
        raise SchemaError(errors)
    if len(doc["seifert"]) > MAX_SEIFERT_SIZE:
        raise SchemaError([f"/seifert: the Seifert size {len(doc['seifert'])} "
                           f"exceeds the cap of {MAX_SEIFERT_SIZE}"])
    try:
        return knots.SeifertMatrix(doc["seifert"])
    except knots.KnotError as exc:
        raise SchemaError([f"/seifert: {exc}"]) from None


def load_instance(path) -> engine.ProblemInstance:
    """The instance of an instance file, or a SchemaError.

    Parsing and building make many containers and no reference cycles, so the
    cyclic collector, which would scan them again each time they grow, is
    paused while they run.
    """
    import gc  # here, so that only the commands that read instances import it

    enabled = gc.isenabled()
    gc.disable()
    try:
        return instance_from_dict(_read_json(path, "instance file"))
    finally:
        if enabled:
            gc.enable()


# -- building the domain objects -------------------------------------------------


def _domain_errors() -> tuple:
    """The errors a domain constructor raises on data that fits the shape."""
    return groups.GroupError, bands.BandError, whitney.WhitneyError, engine.EngineError


def _build(errors: list[str], pointer: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, or None with its domain error recorded at ``pointer``."""
    try:
        return make(*args, **kwargs)
    except _domain_errors() as exc:
        errors.append(f"{pointer}: {exc}")
        return None


def _h1_dim_error(components) -> list[str]:
    """An error at the field that takes the H1 dimension past ``MAX_H1_DIM``, if any.

    Counts with the model's ranks, ``bands.h1_ranks``, before a model is built.
    """
    dim = 0
    for i, sc in enumerate(components):
        ranks = bands.h1_ranks(sc["genus"], sc["orientable"], sc["boundary_circles"])
        for key, size in zip(("genus", "boundary_circles"), ranks):
            dim += size
            if dim > MAX_H1_DIM:
                return [f"/surface/components/{i}/{key}: the surface's H1 dimension "
                        f"exceeds the cap of {MAX_H1_DIM}"]
    return []


def instance_from_dict(doc) -> engine.ProblemInstance:
    """The instance a parsed document declares, or a SchemaError with every error found."""
    errors = _shape_errors(INSTANCE_SHAPE, doc)
    if errors:
        raise SchemaError(errors)

    gdoc = doc["group"]
    if gdoc["kind"] == "finite":
        group = _build(errors, "/group/table", groups.make_finite_group, gdoc["table"])
    else:
        group = _build(errors, "/group/factors", groups.abelian_group, gdoc["factors"])

    wM = None
    components: list[engine.ComponentData] = []
    if group is not None:
        wM = _build(errors, "/characters/wM", groups.Character, group, doc["characters"]["wM"])
        for i, comp in enumerate(doc["components"]):
            subgroup = _build(errors, f"/components/{i}/signed_subgroup",
                              groups.subgroup_closure, group, comp["signed_subgroup"])
            if subgroup is not None:
                components.append(engine.ComponentData(
                    comp["id"], subgroup, comp["has_alg_dual"], comp["dual_framed"],
                    comp.get("w2"), comp.get("e")))

    parts = [_build(errors, f"/surface/components/{i}", bands.SurfaceComponent, **sc)
             for i, sc in enumerate(doc["surface"]["components"])]
    too_large = _h1_dim_error(doc["surface"]["components"])
    errors += too_large
    surface = (None if too_large or None in parts
               else _build(errors, "/surface", bands.SurfaceModel, parts))

    declared, dps = {c["id"] for c in doc["components"]}, doc["double_points"]
    ids = list(map(itemgetter("id"), dps))
    pairs = list(map(tuple, map(itemgetter("components"), dps)))
    points = None
    if (group is not None and len(set(ids)) == len(ids)
            and declared.issuperset(chain.from_iterable(pairs))):
        points = _build([], "", whitney.DoublePoints, ids, pairs, map(itemgetter("sign"), dps),
                        map(itemgetter("eta"), dps), group)  # None on a bad eta, which the walk reports
    if points is None:  # walked point by point, for an error at every bad one
        seen: set[int] = set()
        for i, dp in enumerate(dps):
            pid, pair = dp["id"], dp["components"]
            if not set(pair) <= declared:
                errors.append(f"/double_points/{i}/components: unknown component in {pair}")
            elif pid in seen:
                errors.append(f"/double_points/{i}/id: duplicate double-point id")
            elif group is not None:
                try:
                    group.check_elem(dp["eta"])
                except groups.GroupError as exc:
                    errors.append(f"/double_points/{i}/eta: {exc}")
            seen.add(pid)

    collection = None
    wc = doc["whitney_collection"]
    if wc is not None:
        discs, interiors = wc["discs"], list(map(itemgetter("interior"), wc["discs"]))
        columns = whitney.WhitneyDiscs(
            map(itemgetter("id"), discs), map(tuple, map(itemgetter("pairs"), discs)),
            map(dict, map(zip, map(map, repeat(int), interiors), map(dict.values, interiors))),
            map(itemgetter("mu_boundary"), discs), map(itemgetter("euler"), discs))
        crossings = wc["boundary_intersections"]
        keys = list(map(frozenset, map(itemgetter(slice(2)), crossings)))
        boundary = dict(zip(keys, map(itemgetter(2), crossings)))
        if len(boundary) != len(keys):  # walked, for an error at every repeat
            seen: set[frozenset] = set()
            for i, key in enumerate(keys):
                if key in seen:
                    errors.append(f"/whitney_collection/boundary_intersections/{i}: disc pair listed twice")
                seen.add(key)
        collection = _build(errors, "/whitney_collection", whitney.WhitneyCollection,
                            columns, boundary, wc["convenient"])

    catalogs = doc["catalogs"]
    rel = _build(errors, "/catalogs/rel_h2", bands.RelH2, tuple(catalogs["rel_h2"]["basis"]),
                 {k: tuple(v) for k, v in catalogs["rel_h2"]["boundary"].items()})
    records = [
        _build(errors, f"/catalogs/bands/{i}", bands.BandRecord, **dict(
            b, rel_class=tuple(b["rel_class"]), w1_sigma=tuple(b["w1_sigma"]),
            boundary_classes=tuple(tuple(c) for c in b["boundary_classes"])))
        for i, b in enumerate(catalogs["bands"])
    ]
    band_catalog = None
    if rel is not None and surface is not None and None not in records:
        band_catalog = _build(errors, "/catalogs/bands", bands.BandCatalog,
                              surface, rel, tuple(records))

    if errors:
        raise SchemaError(errors)
    try:
        return engine.ProblemInstance(
            group=group, wM=wM, components=tuple(components), surface=surface,
            points=points, collection=collection,
            sphere_catalog=tuple(tuple(p) for p in catalogs["spheres"]),
            rp2_catalog=tuple(tuple(p) for p in catalogs["rp2"]),
            band_catalog=band_catalog, good_group=doc["flags"]["good_group"],
            torus_summands=frozenset(doc["flags"]["torus_summand"]),
        )
    except _domain_errors() as exc:
        raise SchemaError([f"/: {exc}"]) from None


def to_json(doc) -> str:
    """The canonical byte-stable text of a JSON document: sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
