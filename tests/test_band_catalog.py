"""``BandCatalog`` checks each declared band vector once, and nothing after it checks one.

Each basis boundary, record class and boundary circle goes through the one
bit check (``bands._mask``) exactly once per catalog, at every scale of the
input; ``flowchart`` and ``homotopy_analysis`` on a read instance run no
check at all.  The one-pass catalog raises the same first ``BandError`` as
the per-record checks it replaced (``helpers.band_catalog_per_record``) on
random catalogs with one injected defect.
"""

import random
from collections import Counter
from functools import reduce
from operator import or_, xor

import pytest
from hypothesis import given, settings, strategies as st

from surfemb4 import bands, schema
from surfemb4.bands import BandCatalog, BandError, BandRecord, RelH2, SurfaceComponent, SurfaceModel
from surfemb4.engine import flowchart, homotopy_analysis

from helpers import band_catalog_doc, band_catalog_per_record, mask

KINDS = {"bad H1 vector {0!r}; expected {1} bits": "circle", "bad RelH2 vector {0!r}": "class",
         "{2} {3!r} has an entry other than 0 or 1: {0!r}": "basis boundary"}


@pytest.mark.parametrize("scale", [1, 2, 4])
def test_each_vector_is_checked_once_per_catalog_and_never_after(scale, monkeypatch):
    n = 8 * scale
    inst = schema.instance_from_dict(band_catalog_doc(n, seed=scale))
    catalog = inst.band_catalog
    checked = {kind: [] for kind in KINDS.values()}
    original = bands._mask

    def counted(vec, length, error, *names):
        checked[KINDS[error]].append(vec)
        return original(vec, length, error, *names)

    monkeypatch.setattr(bands, "_mask", counted)
    assert BandCatalog(catalog.surface, catalog.rel, catalog.records) == catalog
    assert checked == {
        "circle": [c for r in catalog.records for c in r.boundary_classes],
        "class": [r.rel_class for r in catalog.records],
        "basis boundary": [catalog.rel.boundary[name] for name in catalog.rel.basis],
    }

    for vectors in checked.values():
        vectors.clear()
    calls = Counter()
    for name in ("__init__", "mask", "w1_of"):
        method = getattr(SurfaceModel, name)
        monkeypatch.setattr(SurfaceModel, name,
                            lambda *args, _name=name, _method=method: calls.update([_name]) or _method(*args))
    for verdict in (flowchart(inst), homotopy_analysis(inst)):
        assert "Is lambda_Sigma|_dB(F^t) != 0?" in [entry.node for entry in verdict.trace]
    assert checked == {kind: [] for kind in KINDS.values()}
    assert not calls
    kept = catalog.supported_on([0]).records
    assert kept == tuple(r for r in catalog.records if int(r.id[1:]) % 3)


# -- one pass against the per-record checks ------------------------------------------------------

BAD_ENTRIES = (2, -1, True, 1.0, "1", None)
DEFECTS = ("circle length", "circle entry", "class length", "class entry", "basis length",
           "basis entry", "w1 value", "admissibility", "mobius w1", "surface w1", "class boundary",
           "duplicate id")


def _fix_w1(surface, x: int, want: int) -> int:
    """``x`` with its lowest cross-cap bit flipped when its w1 value is not ``want``."""
    if surface.w1_of(x) != want:
        x ^= surface.w1 & -surface.w1
    return x


def _vec(x: int, dim: int) -> tuple:
    return tuple(x >> i & 1 for i in range(dim))


@st.composite
def _catalogs(draw, defect=None):
    """A consistent catalog over a random surface, then ``defect`` at a random place.

    Each record's class names its own basis class, whose boundary is the sum
    of the record's circles, and any of the spare classes of boundary zero.
    The surface and the spoiled record are drawn so that the defect applies:
    a nonorientable first component for the w1 defects, circles on the record
    for the circle and w1 defects, and H1 of positive rank for the class
    boundary, which names one more class of nonzero boundary.
    """
    comps = []
    for cid in range(draw(st.integers(1, 3))):
        orientable = draw(st.booleans()) and not (cid == 0 and defect in ("mobius w1", "surface w1"))
        low = 0 if orientable and (cid or defect != "class boundary") else 1
        genus = draw(st.integers(low, 3))
        comps.append(SurfaceComponent(cid, genus, orientable, draw(st.integers(0, 2))))
    surface = SurfaceModel(comps)
    dim = surface.dim
    bits = st.integers(0, (1 << dim) - 1)
    count = draw(st.integers(2 if defect == "duplicate id" else 1, 5))
    k = draw(st.integers(0, count - 1))  # the record to spoil
    names = [f"c{j}" for j in range(count + draw(st.integers(0, 2)))]
    boundary, records = {name: _vec(0, dim) for name in names}, []
    for j in range(count):
        kind = "annulus" if j == k and defect in ("circle length", "circle entry", "w1 value") \
            else draw(st.sampled_from(("annulus", "mobius", "surface")))
        circles = [draw(bits) for _ in range({"annulus": 2, "mobius": 1}.get(kind) or draw(st.integers(0, 2)))]
        if kind != "annulus":
            circles = [_fix_w1(surface, x, 0) for x in circles]
        boundary[names[j]] = _vec(reduce(xor, circles, 0), dim)
        rel_class = tuple(int(m == j) if m < count else draw(st.integers(0, 1)) for m in range(len(names)))
        w1s = tuple(map(surface.w1_of, circles))
        records.append(BandRecord(f"r{j}", kind, rel_class, tuple(_vec(x, dim) for x in circles), w1s,
                                  sum(w1s) % 2, *(draw(st.integers(0, 1)) for _ in range(4))))

    def spoil(vec: tuple, entry: bool) -> tuple:
        """``vec`` one entry longer or shorter, or with one entry (appended, if none) not a bit."""
        if entry:
            i = draw(st.integers(0, max(len(vec) - 1, 0)))
            return vec[:i] + (draw(st.sampled_from(BAD_ENTRIES)),) + vec[i + 1:]
        return vec + (draw(st.integers(0, 1)),) if draw(st.booleans()) or not vec else vec[:-1]

    r = records[k]
    if defect in ("circle length", "circle entry"):
        i = draw(st.integers(0, 1))
        circles = list(r.boundary_classes)
        circles[i] = spoil(circles[i], defect == "circle entry")
        r = r._replace(boundary_classes=tuple(circles))
    elif defect in ("class length", "class entry"):  # ``_replace`` skips the record's own check
        r = r._replace(rel_class=spoil(r.rel_class, defect == "class entry"))
    elif defect in ("basis length", "basis entry"):
        name = draw(st.sampled_from(names))
        boundary[name] = spoil(boundary[name], defect == "basis entry")
    elif defect == "w1 value":
        i = draw(st.integers(0, 1))
        r = r._replace(w1_sigma=r.w1_sigma[:i] + (1 - r.w1_sigma[i],) + r.w1_sigma[i + 1:])
    elif defect == "admissibility":
        r = r._replace(w1m_core=1 - r.w1m_core)
    elif defect in ("mobius w1", "surface w1"):
        kind = defect.split()[0]
        circles = (_fix_w1(surface, draw(bits), 1),) + ((draw(bits),) if kind == "surface" else ())
        w1s = tuple(map(surface.w1_of, circles))
        r = BandRecord(r.id, kind, r.rel_class, tuple(_vec(x, dim) for x in circles), w1s,
                       sum(w1s) % 2, 0, 0, 0, 0)
        boundary[names[k]] = _vec(reduce(xor, circles, 0), dim)
    elif defect == "class boundary":
        names.append("extra")
        boundary["extra"] = _vec(draw(st.integers(1, (1 << dim) - 1)), dim)
        records = [q._replace(rel_class=q.rel_class + (int(q is r),)) for q in records]
        r = records[k]
    elif defect == "duplicate id":
        r = r._replace(id=records[k - 1].id)
    records[k] = r
    return surface, RelH2(tuple(names), boundary), tuple(records)


def _outcome(make, *args):
    try:
        make(*args)
    except BandError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=200)
@given(_catalogs())
def test_one_pass_accepts_consistent_catalogs(drawn):
    assert _outcome(band_catalog_per_record, *drawn) is None
    catalog = BandCatalog(*drawn)
    for r in catalog.records:
        assert catalog.masks[r.id] == (mask(r.rel_class), reduce(xor, map(mask, r.boundary_classes), 0),
                                       reduce(or_, map(mask, r.boundary_classes), 0))


@pytest.mark.parametrize("defect", DEFECTS)
@settings(max_examples=40)
@given(data=st.data())
def test_one_pass_raises_what_the_per_record_checks_raise(defect, data):
    drawn = data.draw(_catalogs(defect))
    expected = _outcome(band_catalog_per_record, *drawn)
    assert expected is not None
    assert _outcome(BandCatalog, *drawn) == expected
