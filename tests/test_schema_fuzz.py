"""The instance reader is total: any document gives an instance or errors, never an exception.

Two searches over mutated shipped instances.  The sweep sets every node of
every shipped instance, in turn, to each of a fixed list of bad values; the
property test puts arbitrary JSON values at random nodes and also runs
``validate`` on the result.

The sweep's error lists are pinned: ``tests/data/sweep_errors.json`` holds one
SHA-256 per (instance, bad value) over the error list at every node, so a
change to the reader that moves, rewords or reorders any error shows where.
``python tests/test_schema_fuzz.py`` rewrites the file from the current reader.
"""

import contextlib
import copy
import functools
import hashlib
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
PINNED = Path(__file__).parent / "data" / "sweep_errors.json"


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
    """The reader's error list for ``doc``, or None when it reads an instance."""
    try:
        schema.instance_from_dict(doc)
        errors = None
    except schema.SchemaError as exc:
        errors = exc.errors
        assert errors and all(e.startswith("/") and ": " in e for e in errors), errors
    # The column-wise fast test and the entry-by-entry walk agree; trusting
    # the constructors, the fast test may pass what only they refuse.
    fits = schema.INSTANCE_SHAPE.fits_all([doc]) is not None
    assert fits is not bool(schema.INSTANCE_SHAPE.check(doc))
    assert fits <= (schema.INSTANCE_SHAPE.fits_all([doc], trust=True) is not None)
    return errors


@functools.cache
def _sweep() -> dict:
    """(instance, bad value) -> [(pointer path, error list or None)] over every node but the root."""
    return {(name, json.dumps(bad)): [(path, _assert_total(_replaced(doc, path, copy.deepcopy(bad))))
                                      for path in POINTERS[name][1:]]
            for name, doc in sorted(DOCS.items()) for bad in BAD_VALUES}


def _digests() -> dict:
    return {f"{name} {bad}": hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
            for (name, bad), outcomes in _sweep().items()}


def test_one_node_sweep_never_raises():
    count = sum(map(len, _sweep().values()))
    assert count == 11 * sum(len(p) - 1 for p in POINTERS.values())


def test_one_node_sweep_errors_match_the_pinned_file():
    pinned = json.loads(PINNED.read_text())
    got = _digests()
    assert got.keys() == pinned.keys()
    assert [key for key in pinned if got[key] != pinned[key]] == []


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


if __name__ == "__main__":
    PINNED.write_text(json.dumps(_digests(), indent=2) + "\n")
