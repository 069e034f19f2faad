"""The shape walk's fast path: ``fits_all`` on an array agrees with ``check`` on each entry.

``fits_all`` tests a whole array of objects in C-level passes: an object
with no optional fields by its key count and one ``itemgetter`` column per
field, a map with integer keys by one canonical-decimal pass over its keys.
Only when it says "no fit" (None) does the reader walk the entries with
``check`` for the errors, so it must fit exactly when no entry has an error.
With ``trust`` it leaves the owned leaves to their constructors, so it fits
at least whenever the strict test does.  The columns it returns must equal
those taken one entry at a time.  The entries drawn here miss fields, carry
extra ones or wrong types, and use keys that ``int`` accepts but are not
canonical: "01", " 1", "1_0", "٣", and an integer of more than 4 300 digits,
which ``int`` refuses.
"""

from hypothesis import given, settings, strategies as st

from surfemb4.schema import (
    BIT,
    BOOL,
    COUNT,
    ELEMENT,
    INSTANCE_SHAPE,
    INT,
    SIGN,
    _Map,
    _Tuple,
)
from surfemb4.knots import KNOT_SHAPE
from surfemb4.shapes import Array, Leaf, Object

FIELDS = dict(INSTANCE_SHAPE.fields)
COLLECTION = dict(FIELDS["whitney_collection"].shape.fields)
SHAPES = {
    "point": FIELDS["double_points"].item,  # no optional fields
    "disc": COLLECTION["discs"].item,  # an _Map(COUNT, int_keys=True) inside
    "collection": FIELDS["whitney_collection"].shape,  # owned counts, in tuples too
    "band": dict(FIELDS["catalogs"].fields)["bands"].item,  # owned bits, arrays of arrays
    "component": FIELDS["components"].item,  # optional w2 and e
    "knot": KNOT_SHAPE,  # optional name
    "flat": Object({"a": INT, "b": BIT}),
    "optional": Object({"a": INT, "b": _Tuple(SIGN, INT)}, optional=("b",)),
    "interior": _Map(COUNT, int_keys=True),
    "free keys": _Map(Array(BIT)),
}
KEYS = ["0", "1", "12", "-3", "01", " 1", "1_0", "٣", "+1", "1" * 4301, "x", ""]
JUNK = [True, False, 1.5, "x", None, [], {}, 2 ** 70, -1, 0, [0, 1]]
LEAF_VALUES = {leaf.expected: values for leaf, values in (  # owned twins share their pools
    (INT, [-3, 0, 7]), (COUNT, [0, 2, -1]), (BIT, [0, 1, 2]), (SIGN, [1, -1, 0]), (BOOL, [True, False]))}


def _value(draw, shape, valid: bool):
    """A value near ``shape``: valid when ``valid``, else perhaps broken anywhere."""
    if not valid and draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(JUNK))
    if shape is ELEMENT:
        return draw(st.sampled_from(JUNK))
    if isinstance(shape, Leaf):
        pool = LEAF_VALUES.get(shape.expected) or (["a", ""] if shape.typ is str else [0, 5, -2])
        if valid:
            pool = [v for v in pool if not shape.check(v)]
        return draw(st.sampled_from(pool))
    if isinstance(shape, _Tuple):
        size = len(shape.items) + (0 if valid else draw(st.sampled_from([0, 0, 0, 1, -1])))
        return [_value(draw, shape.items[min(i, len(shape.items) - 1)], valid) for i in range(size)]
    if isinstance(shape, Array):
        return [_value(draw, shape.item, valid) for _ in range(draw(st.integers(0, 3)))]
    if isinstance(shape, _Map):
        pool = KEYS[:4] if valid and shape.int_keys else KEYS
        keys = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
        return {k: _value(draw, shape.value, valid) for k in keys}
    if isinstance(shape, Object):
        out = {}
        for key, field in shape.fields:
            if key in shape.required and valid:
                out[key] = _value(draw, field, valid)
            elif draw(st.integers(0, 5)):  # present, or missing one time in six
                out[key] = _value(draw, field, valid)
        if not valid and draw(st.integers(0, 4)) == 0:
            out[draw(st.sampled_from(["extra", "01", "id2"]))] = 0
        return out
    raise AssertionError(f"no generator for {shape!r}")


@st.composite
def _entries(draw, shape, valid: bool):
    return _value(draw, shape, valid)


def _one_fault(draw, shape, entry: dict) -> None:
    """One bad key or value in a valid object or map."""
    fault = draw(st.sampled_from(["extra", "drop", "junk"]))
    if fault == "extra" or not entry:
        pool = KEYS[4:] if isinstance(shape, _Map) else ["extra", "01", "id2"]
        value = _value(draw, shape.value, True) if isinstance(shape, _Map) else 0
        entry[draw(st.sampled_from(pool))] = value
    elif fault == "drop" and isinstance(shape, Object):
        del entry[draw(st.sampled_from(sorted(entry)))]
    else:
        entry[draw(st.sampled_from(sorted(entry)))] = draw(st.sampled_from(JUNK))


@settings(max_examples=600)
@given(name=st.sampled_from(sorted(SHAPES)), mode=st.sampled_from(["valid", "one fault", "noisy"]),
       data=st.data())
def test_fits_all_is_true_exactly_when_no_entry_has_an_error(name, mode, data):
    shape = SHAPES[name]
    values = data.draw(st.lists(_entries(shape, mode != "noisy"), max_size=6))
    if mode == "one fault" and values:
        _one_fault(data.draw, shape, values[data.draw(st.integers(0, len(values) - 1))])
    fits = shape.fits_all(values) is not None
    assert fits == (not any(map(shape.check, values)))
    assert fits <= (shape.fits_all(values, trust=True) is not None)
    if mode == "valid":
        assert fits
        for trust in (False, True):
            assert shape.fits_all(values, trust) == _columns(shape, values, trust)


def _columns(shape, values: list, trust: bool):
    """The columns of entries that fit, taken one entry at a time."""
    if isinstance(shape, Array):
        if trust and shape.item.owned:  # passed on as they are
            return values
        return _columns(shape.item, [item for value in values for item in value], trust)
    if isinstance(shape, _Tuple):
        return tuple(_columns(item, tuple(value[i] for value in values), trust)
                     for i, item in enumerate(shape.items))
    if isinstance(shape, Object):
        return {key: _columns(field, [value[key] for value in values if key in value], trust)
                for key, field in shape.fields}
    if isinstance(shape, _Map) and shape.int_keys:
        return [{int(key): entry for key, entry in value.items()} for value in values]
    return values


def test_non_canonical_keys_do_not_fit():
    interior = SHAPES["interior"]
    for key in KEYS[4:]:
        assert interior.check({key: 1}) and interior.fits_all([{"0": 1}, {key: 1}]) is None
    assert interior.fits_all([{"0": 1, "12": 0}, {"-3": 2}, {}]) == [{0: 1, 12: 0}, {-3: 2}, {}]
