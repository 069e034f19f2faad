"""The JSON shapes both file kinds share, and the reader of a JSON file.

A JSON document is declared once as a shape giving each field's exact type
and whether it may be absent; unknown fields, bools for integers and floats
are errors.  This module holds the shapes both file kinds use, their error
walks and ``read_json``, and imports nothing from the package but
``errors``.  Each file kind's rules are beside the code they protect: the
knot file's shape and caps in ``knots``, the instance file's in ``schema``.
The package registers this module lazily, so ``examples list`` does not
compile it (README, *Install and test*).
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from pathlib import Path

from .errors import SchemaError


# -- the declared shapes ---------------------------------------------------------
#
# ``check(value)`` returns (relative JSON pointer, message) pairs, empty when
# the value fits.  ``fits_all`` tests a whole array column by column in C-level
# passes; only when it fails (None) are the entries walked for the errors.  Else
# it returns the columns it took for the builders: a leaf's values, a tuple's
# per position, an object's per field, an array's items', a map's objects (keys
# int with ``int_keys``).  With ``trust`` it leaves each owned leaf to the
# domain constructor that checks it with the same rule.


def describe(value) -> str:
    """The value itself when it is short, else the name of its JSON type."""
    if (type(value) in (bool, float, type(None)) or (type(value) is int and value.bit_length() <= 64)
            or (type(value) is str and len(value) <= 40)):
        return json.dumps(value)
    names = {str: "a string", list: "an array", dict: "an object", int: "a large integer"}
    return names.get(type(value), type(value).__name__)


def expected(what: str, value) -> list:
    return [("", f"expected {what}, got {describe(value)}")]


def each(entries) -> list:
    """Errors of ``(key, shape, value)`` entries, each under its own key."""
    return [(f"/{key}{pointer}", message) for key, shape, value in entries
            for pointer, message in shape.check(value)]


def token(key) -> str:
    """``key`` escaped as one JSON-pointer reference token."""
    return str(key).replace("~", "~0").replace("/", "~1")


class Shape:
    """Any JSON value; the subclasses narrow it."""

    owned = False

    def check(self, value) -> list:
        return []

    def fits_all(self, values: list, trust=False):
        return values


class Leaf(Shape):
    """A JSON scalar of one exact type, optionally limited to a value set or a range."""

    def __init__(self, expected: str, typ: type, values=None, minimum=None, maximum=None, owned=False):
        self.expected, self.typ, self.minimum, self.maximum = expected, typ, minimum, maximum
        self.values, self.owned = None if values is None else frozenset(values), owned

    def check(self, value) -> list:
        return [] if self.fits_all([value]) is not None else expected(self.expected, value)

    def fits_all(self, values: list, trust=False):
        fits = ((trust and self.owned) or {self.typ}.issuperset(map(type, values))
                and (self.values is None or self.values.issuperset(values))
                and (self.minimum is None or not values or min(values) >= self.minimum)
                and (self.maximum is None or not values or max(values) <= self.maximum))
        return values if fits else None


class Array(Shape):
    def __init__(self, item: Shape):
        self.item = item

    def check(self, value) -> list:
        if type(value) is not list:
            return expected("an array", value)
        if self.item.fits_all(value) is not None:
            return []
        return each((i, self.item, entry) for i, entry in enumerate(value))

    def fits_all(self, values: list, trust=False):
        if not {list}.issuperset(map(type, values)):
            return None
        if trust and self.item.owned:  # nothing to check, so nothing to chain
            return values
        return self.item.fits_all(list(chain.from_iterable(values)), trust)


class Object(Shape):
    """An object with exactly the declared fields, less any listed as optional."""

    def __init__(self, fields: dict, optional=()):
        self.fields = tuple(fields.items())
        self.allowed = frozenset(fields)
        self.required = self.allowed - frozenset(optional)

    def check(self, value) -> list:
        if type(value) is not dict:
            return expected("an object", value)
        out = [(f"/{key}", "missing required field")
               for key, _ in self.fields if key in self.required and key not in value]
        out += [(f"/{token(key)}", "unknown field") for key in value if key not in self.allowed]
        return out + each((key, shape, value[key]) for key, shape in self.fields if key in value)

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


STR = Leaf("a string", str)


def shape_errors(shape, doc) -> list[str]:
    """Every mismatch between ``doc`` and ``shape``, as pointer messages."""
    if shape.fits_all([doc]) is not None:
        return []
    return [f"{pointer or '/'}: {message}" for pointer, message in shape.check(doc)]


# -- reading files -----------------------------------------------------------------


def read_json(path, what: str):
    """Parse a UTF-8 JSON file; any failure to read it is a SchemaError at "/"."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # decode errors are ValueErrors
        raise SchemaError([f"/: unreadable {what}: {exc}"]) from None

