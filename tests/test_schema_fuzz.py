"""The instance reader is total: any document gives an instance or errors, never an exception.

Two searches over mutated shipped instances.  The sweep sets every node of
every shipped instance, in turn, to each of a fixed list of bad values; the
property test puts arbitrary JSON values at random nodes and also runs
``validate`` on the result.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import given, strategies as st

from surfemb4 import cli, schema

INSTANCES = resources.files("surfemb4").joinpath("data", "instances")
DOCS = {p.name: json.loads(p.read_text()) for p in INSTANCES.iterdir() if p.name.endswith(".json")}
BAD_VALUES = (None, [], {}, "x", -1, 2, 1.5, True, [[0]], [None], {"k": 1})


def _pointers(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _pointers(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _pointers(child, path + (i,))


POINTERS = {name: list(_pointers(doc)) for name, doc in DOCS.items()}


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _assert_total(doc):
    try:
        schema.instance_from_dict(doc)
    except schema.SchemaError as exc:
        assert exc.errors and all(e.startswith("/") and ": " in e for e in exc.errors), exc.errors
    # The column-wise fast test and the entry-by-entry walk agree.
    assert schema.INSTANCE_SHAPE.fits_all([doc]) is not bool(schema.INSTANCE_SHAPE.check(doc))


def test_one_node_sweep_never_raises():
    count = 0
    for name, doc in DOCS.items():
        for path in POINTERS[name][1:]:
            for bad in BAD_VALUES:
                _assert_total(_replaced(doc, path, copy.deepcopy(bad)))
                count += 1
    assert count == 11 * sum(len(p) - 1 for p in POINTERS.values())


# Integers stay below 10**4 in size: larger counts (a genus of 10**9, say) are
# the separate question of size caps, not of the reader being total.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**4, 10**4) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=4),
    max_leaves=12,
)


@given(name=st.sampled_from(sorted(DOCS)), where=st.floats(0, 1, exclude_max=True),
       value=JSON)
def test_arbitrary_json_at_any_node(name, where, value):
    pointers = POINTERS[name]
    doc = _replaced(DOCS[name], pointers[int(where * len(pointers))], value)
    _assert_total(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        Path(path).write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["validate", path])
    report = json.loads(out.getvalue())
    assert code in (0, 2)
    assert report["ok"] is (code == 0)
