"""Instance and knot files: one strict reader, loading, and serialization.

Each JSON document is declared once as a shape (``INSTANCE_SHAPE``,
``KNOT_SHAPE``) giving each field's exact type and whether it may be absent;
unknown fields, bools for integers and floats are errors.  One walk takes
and checks the columns, and the domain objects are built from them; their
constructors' errors are reported at the pointer of the data they were
given, and the shape's JSON-pointer errors, when there are any, instead.
"""

from __future__ import annotations

import gc
import json
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from pathlib import Path

from . import FLOAT_EXACT_BOUND, bands, engine, gamma, groups, knots, whitney

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
# passes; only when it fails (None) are the entries walked for the errors.  Else
# it returns the columns it took for the builders: a leaf's values, a tuple's
# per position, an object's per field, an array's items', a map's objects (keys
# int with ``int_keys``).  With ``trust`` it leaves each owned leaf to the
# domain constructor that checks it with the same rule.


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
    return [(f"/{key}{pointer}", message) for key, shape, value in entries
            for pointer, message in shape.check(value)]


def _token(key) -> str:
    """``key`` escaped as one JSON-pointer reference token."""
    return str(key).replace("~", "~0").replace("/", "~1")


class _Shape:
    """Any JSON value; the subclasses narrow it."""

    owned = False

    def check(self, value) -> list:
        return []

    def fits_all(self, values: list, trust=False):
        return values


class _Leaf(_Shape):
    """A JSON scalar of one exact type, optionally limited to a value set or a range."""

    def __init__(self, expected: str, typ: type, values=None, minimum=None, maximum=None, owned=False):
        self.expected, self.typ, self.minimum, self.maximum = expected, typ, minimum, maximum
        self.values, self.owned = None if values is None else frozenset(values), owned

    def check(self, value) -> list:
        return [] if self.fits_all([value]) is not None else _expected(self.expected, value)

    def fits_all(self, values: list, trust=False):
        fits = ((trust and self.owned) or {self.typ}.issuperset(map(type, values))
                and (self.values is None or self.values.issuperset(values))
                and (self.minimum is None or not values or min(values) >= self.minimum)
                and (self.maximum is None or not values or max(values) <= self.maximum))
        return values if fits else None


class _Array(_Shape):
    def __init__(self, item: _Shape):
        self.item = item

    def check(self, value) -> list:
        if type(value) is not list:
            return _expected("an array", value)
        if self.item.fits_all(value) is not None:
            return []
        return _each((i, self.item, entry) for i, entry in enumerate(value))

    def fits_all(self, values: list, trust=False):
        if not {list}.issuperset(map(type, values)):
            return None
        if trust and self.item.owned:  # nothing to check, so nothing to chain
            return values
        return self.item.fits_all(list(chain.from_iterable(values)), trust)


class _Tuple(_Shape):
    """An array of fixed length with one shape per position."""

    def __init__(self, *items: _Shape):
        self.items = items

    def check(self, value) -> list:
        if type(value) is not list or len(value) != len(self.items):
            got = f"{len(value)}" if type(value) is list else _describe(value)
            return [("", f"expected an array of {len(self.items)} entries, got {got}")]
        return _each(zip(range(len(value)), self.items, value))

    def fits_all(self, values: list, trust=False):
        if not ({list}.issuperset(map(type, values)) and {len(self.items)}.issuperset(map(len, values))):
            return None
        columns = tuple(item.fits_all(column, trust)
                        for item, column in zip(self.items, list(zip(*values)) or [()] * len(self.items)))
        return None if None in columns else columns


class _Object(_Shape):
    """An object with exactly the declared fields, less any listed as optional."""

    def __init__(self, fields: dict, optional=()):
        self.fields = tuple(fields.items())
        self.allowed = frozenset(fields)
        self.required = self.allowed - frozenset(optional)

    def check(self, value) -> list:
        if type(value) is not dict:
            return _expected("an object", value)
        out = [(f"/{key}", "missing required field")
               for key, _ in self.fields if key in self.required and key not in value]
        out += [(f"/{_token(key)}", "unknown field") for key in value if key not in self.allowed]
        return out + _each((key, shape, value[key]) for key, shape in self.fields if key in value)

    def fits_all(self, values: list, trust=False):
        if not {dict}.issuperset(map(type, values)):
            return None
        try:  # every required field in every object; an optional one's column has the objects that have it
            columns = {key: list(map(itemgetter(key), values)) if key in self.required
                       else [v[key] for v in values if key in v] for key, _ in self.fields}
        except KeyError:
            return None
        # each entry taken is a declared key, so as many keys as entries leaves no unknown key
        if sum(map(len, values)) != sum(map(len, columns.values())):
            return None
        columns = {key: shape.fits_all(columns[key], trust) for key, shape in self.fields}
        return None if None in columns.values() else columns


class _Map(_Shape):
    """An object with free keys (decimal integers when ``int_keys``) and one value shape."""

    def __init__(self, value: _Shape, int_keys=False):
        self.value, self.int_keys = value, int_keys

    def check(self, value) -> list:
        if type(value) is not dict:
            return _expected("an object", value)
        out = [(f"/{_token(key)}", "keys are integers written in decimal, like \"0\"")
               for key in value if self.int_keys and _int_keys([key]) is None]
        return out + _each((_token(key), self.value, entry) for key, entry in value.items())

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


class _Tagged(_Shape):
    """An object whose ``tag`` field picks one of several object shapes; its columns are per tag."""

    def __init__(self, tag: str, variants: dict):
        self.tag, self.variants = tag, variants

    def check(self, value) -> list:
        if type(value) is not dict:
            return _expected("an object", value)
        tag = value.get(self.tag)
        if type(tag) is str and tag in self.variants:
            return self.variants[tag].check(value)
        if self.tag not in value:
            return [(f"/{self.tag}", "missing required field")]
        names = " or ".join(map(json.dumps, self.variants))
        return [(f"/{self.tag}", f"expected {names}, got {_describe(tag)}")]

    def fits_all(self, values: list, trust=False):
        if not {dict}.issuperset(map(type, values)):
            return None
        tags = list(map(dict.get, values, repeat(self.tag)))
        if not ({str}.issuperset(map(type, tags)) and self.variants.keys() >= set(tags)):
            return None
        columns = {name: shape.fits_all(list(compress(values, map(name.__eq__, tags))), trust)
                   for name, shape in self.variants.items()}
        return None if None in columns.values() else columns


class _Nullable(_Shape):
    def __init__(self, shape: _Shape):
        self.shape = shape

    def check(self, value) -> list:
        return [] if value is None else self.shape.check(value)

    def fits_all(self, values: list, trust=False):
        return self.shape.fits_all([v for v in values if v is not None], trust)


INT = _Leaf("an integer", int)
COUNT = _Leaf("a nonnegative integer", int, minimum=0)
BIT = _Leaf("0 or 1", int, values=(0, 1))
BOOL = _Leaf("true or false", bool)
STR = _Leaf("a string", str)
ELEMENT = _Shape()  # its form depends on the group, so groups.check_signed checks it
# Owned leaves: check_signed and Character check signs, bands._mask bits, WhitneyCollection
# counts, make_finite_group and FGAbelianGroup table entries and factors.
SIGN = _Leaf("+1 or -1", int, values=(1, -1), owned=True)
OWNED_INT, OWNED_COUNT, OWNED_BIT = (_Leaf(leaf.expected, int, leaf.values, leaf.minimum, owned=True)
                                     for leaf in (INT, COUNT, BIT))

INSTANCE_SHAPE = _Object({
    "version": _Leaf(str(SCHEMA_VERSION), int, values=(SCHEMA_VERSION,)),
    "group": _Tagged("kind", {
        "finite": _Object({"kind": STR, "table": _Array(_Array(OWNED_INT))}),
        "abelian": _Object({"kind": STR, "factors": _Array(OWNED_INT)}),
    }),
    "characters": _Object({"wM": _Array(SIGN)}),
    "components": _Array(_Object(
        {"id": INT, "signed_subgroup": _Array(_Tuple(ELEMENT, SIGN)), "has_alg_dual": BOOL,
         "dual_framed": BOOL, "w2": BIT, "e": INT}, optional=("w2", "e"))),
    "surface": _Object({"components": _Array(_Object(
        {"id": INT, "genus": COUNT, "orientable": BOOL, "boundary_circles": COUNT}))}),
    "double_points": _Array(_Object(
        {"id": INT, "components": _Tuple(INT, INT), "sign": SIGN, "eta": ELEMENT})),
    "whitney_collection": _Nullable(_Object({
        "convenient": BOOL,
        "discs": _Array(_Object(
            {"id": INT, "pairs": _Tuple(INT, INT), "interior": _Map(OWNED_COUNT, int_keys=True),
             "mu_boundary": OWNED_COUNT, "euler": OWNED_INT})),
        "boundary_intersections": _Array(_Tuple(INT, INT, OWNED_COUNT)),
    })),
    "catalogs": _Object({
        "rel_h2": _Object({"basis": _Array(STR), "boundary": _Map(_Array(OWNED_BIT))}),
        "bands": _Array(_Object(
            {"id": STR, "kind": STR, "rel_class": _Array(OWNED_BIT),
             "boundary_classes": _Array(_Array(OWNED_BIT)), "w1_sigma": _Array(OWNED_BIT),
             "w1m_core": OWNED_BIT, "mu_boundary": OWNED_BIT, "arc_count": OWNED_BIT,
             "interior": OWNED_BIT, "euler": OWNED_BIT})),
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
    if shape.fits_all([doc]) is not None:
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
    if KNOT_SHAPE.fits_all([doc]) is None:
        raise SchemaError(_shape_errors(KNOT_SHAPE, doc))
    if len(doc["seifert"]) > MAX_SEIFERT_SIZE:
        raise SchemaError([f"/seifert: the Seifert size {len(doc['seifert'])} "
                           f"exceeds the cap of {MAX_SEIFERT_SIZE}"])
    try:
        return knots.SeifertMatrix(doc["seifert"])
    except knots.KnotError as exc:
        raise SchemaError([f"/seifert: {exc}"]) from None


def load_instance(path) -> engine.ProblemInstance:
    """The instance of an instance file, or a SchemaError.

    Reading makes many containers and no cycles, so the collector, which
    would scan them each time they grow, is paused while it runs.
    """
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
    return groups.GroupError, bands.BandError, whitney.WhitneyError, engine.EngineError, gamma.GammaError


def _build(errors: list[str], pointer: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, or None with its domain error recorded at ``pointer``."""
    try:
        return make(*args, **kwargs)
    except _domain_errors() as exc:
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
                group.check_elem(dp["eta"])
            except groups.GroupError as exc:
                errors.append(f"/double_points/{i}/eta: {exc}")
        seen.add(dp["id"])
    return errors


def instance_from_dict(doc) -> engine.ProblemInstance:
    """The instance a parsed document declares, or a SchemaError with every error found.

    The builders read the trusting walk's columns; the shape's and the points' walks run on a refusal.
    """
    view = INSTANCE_SHAPE.fits_all([doc], trust=True)
    if view is None:
        raise SchemaError(_shape_errors(INSTANCE_SHAPE, doc))

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
                                                       comp["dual_framed"], comp.get("w2"), comp.get("e")))

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
                group=group, wM=wM, components=tuple(components), surface=surface, points=points,
                collection=collection, sphere_catalog=tuple(map(tuple, catalogs["spheres"])),
                rp2_catalog=tuple(map(tuple, catalogs["rp2"])), band_catalog=band_catalog,
                good_group=doc["flags"]["good_group"], torus_summands=frozenset(doc["flags"]["torus_summand"]))
        except _domain_errors() as exc:  # every owned leaf is checked by now
            raise SchemaError(_point_errors(doc, group) or [f"/: {exc}"]) from None
    errors[at:at] = _point_errors(doc, group)
    raise SchemaError(_shape_errors(INSTANCE_SHAPE, doc) or errors)


def to_json(doc) -> str:
    """The canonical byte-stable text of a JSON document: sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
