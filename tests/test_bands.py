import itertools
import time
import random
import re

import pytest
from hypothesis import event, given, settings, strategies as st

from surfemb4.bands import (
    BandCatalog,
    BandError,
    BandRecord,
    MixedW1Annulus,
    NotLinearizable,
    RelH2,
    SurfaceComponent,
    SurfaceModel,
    ThetaConflict,
    is_b_characteristic,
    lambda_boundary_check,
    theta,
    validate_theta_well_defined,
    _boundary_form_witness,
)
from surfemb4.engine import flowchart
from surfemb4.whitney import t_count

from helpers import (DoublePoint, WhitneyDisc, band_fibre_finger_move, boundary_form_witness_pairs,
                     components_of, cyclic_group, disc_collection, is_r_characteristic,
                     is_s_characteristic, mask, paper_basis, paper_form, point_columns, replace,
                     theta_value, theta_violations, total_boundary, union_records)
from test_engine import simple_instance


def torus_surface():
    return SurfaceModel([SurfaceComponent(0, 1, True)])


def klein_surface():
    return SurfaceModel([SurfaceComponent(0, 2, False)])


def named(exc) -> tuple:
    """The record ids that a ``ThetaConflict`` message names, in its order."""
    return tuple(re.findall(r"'([^']*)'", str(exc.value).partition(" have ")[0]))


def record(surface, rel, rid, kind, rel_class, boundary_classes, *, mu=0, arc=0,
           interior=0, euler=0, core=None):
    bcs = tuple(tuple(c) for c in boundary_classes)
    w1s = tuple(surface.w1_of(surface.mask(c)) for c in bcs)
    if core is None:
        core = sum(w1s) % 2
    r = BandRecord(rid, kind, tuple(rel_class), bcs, w1s, core, mu, arc, interior, euler)
    BandCatalog(surface, rel, (r,))
    return r


def test_theta_seifert_band_vanishes():
    surface = torus_surface()
    rel = RelH2(("seifert",), {"seifert": (1, 0)})
    r = record(surface, rel, "seifert", "surface", [1], [(1, 0)])
    assert theta(r) == 0


def test_theta_single_interior_intersection():
    surface = torus_surface()
    rel = RelH2(("x",), {"x": (1, 0)})
    r = record(surface, rel, "x", "annulus", [1], [(1, 0), (0, 0)], interior=1)
    assert theta(r) == 1


def test_theta_klein_bottle_band_tracks_euler_number():
    surface = klein_surface()
    rel = RelH2(("b11",), {"b11": (1, 1)})
    r0 = record(surface, rel, "b", "mobius", [1], [(1, 1)], euler=0)
    r4 = record(surface, rel, "b", "mobius", [1], [(1, 1)], euler=1)
    assert theta(r0) == 0 and theta(r4) == 1


def test_theta_mixed_annulus_raises_with_hint():
    surface = klein_surface()
    rel = RelH2(("m",), {"m": (1, 0)})
    r = record(surface, rel, "m", "annulus", [1], [(1, 0), (0, 0)])
    with pytest.raises(MixedW1Annulus) as exc:
        theta(r)
    assert str(exc.value).endswith("forcing km=0")


def test_mobius_with_reversing_boundary_rejected():
    surface = klein_surface()
    rel = RelH2(("m",), {"m": (1, 0)})
    with pytest.raises(BandError):
        record(surface, rel, "m", "mobius", [1], [(1, 0)])


def test_lambda_check_empty_catalog():
    surface = torus_surface()
    rel = RelH2((), {})
    catalog = BandCatalog(surface, rel, ())
    assert lambda_boundary_check(catalog)
    assert is_b_characteristic(catalog).yes


def test_lambda_check_dual_pair_fails():
    surface = torus_surface()
    rel = RelH2(("da", "db"), {"da": (1, 0), "db": (0, 1)})
    ra = record(surface, rel, "da", "surface", [1, 0], [(1, 0)])
    rb = record(surface, rel, "db", "surface", [0, 1], [(0, 1)])
    catalog = BandCatalog(surface, rel, (ra, rb))
    assert not lambda_boundary_check(catalog)
    result = is_b_characteristic(catalog)
    assert not result.yes and result.witness == ("da", "db")


def test_lambda_check_self_dual_class_fails():
    # single band whose total boundary is a self-dual nonorientable class;
    # encoded as a (mixed) annulus since lone reversing circles bound no
    # admissible mobius band
    surface = klein_surface()
    rel = RelH2(("e",), {"e": (1, 0)})
    r = record(surface, rel, "e", "annulus", [1], [(1, 0), (0, 0)])
    catalog = BandCatalog(surface, rel, (r,))
    assert not lambda_boundary_check(catalog)
    assert not is_b_characteristic(catalog).yes


def test_validate_theta_well_defined():
    surface = torus_surface()
    rel = RelH2(("x",), {"x": (0, 0)})
    r1 = record(surface, rel, "r1", "surface", [1], [], interior=0)
    r2 = record(surface, rel, "r2", "surface", [1], [], interior=1, euler=1)
    assert validate_theta_well_defined(BandCatalog(surface, rel, (r1, r2))).witness is None
    r3 = record(surface, rel, "r3", "surface", [1], [], interior=1)
    with pytest.raises(ThetaConflict) as exc:
        validate_theta_well_defined(BandCatalog(surface, rel, (r1, r3)))
    assert named(exc) == ("r1", "r3")


def test_theta_on_span_linearity():
    surface = SurfaceModel([SurfaceComponent(0, 2, True)])
    rel = RelH2(("x", "y"), {"x": (1, 0, 0, 0), "y": (0, 0, 1, 0)})
    rx = record(surface, rel, "x", "surface", [1, 0], [(1, 0, 0, 0)], interior=1)
    ry = record(surface, rel, "y", "surface", [0, 1], [(0, 0, 1, 0)], interior=1)
    functional = validate_theta_well_defined(BandCatalog(surface, rel, (rx, ry)))
    assert theta_value(functional, (1, 0)) == 1
    assert theta_value(functional, (1, 1)) == 0  # disjoint boundaries: values add
    assert functional.witness == "x"  # the first of the two records with Theta = 1


def test_theta_on_span_empty():
    surface = torus_surface()
    functional = validate_theta_well_defined(BandCatalog(surface, RelH2((), {}), ()))
    assert functional.witness is None


def test_theta_on_span_not_linearizable():
    surface = torus_surface()
    rel = RelH2(("da", "db"), {"da": (1, 0), "db": (0, 1)})
    ra = record(surface, rel, "da", "surface", [1, 0], [(1, 0)])
    rb = record(surface, rel, "db", "surface", [0, 1], [(0, 1)])
    with pytest.raises(NotLinearizable):
        validate_theta_well_defined(BandCatalog(surface, rel, (ra, rb)))


def test_span_inconsistency_detected():
    surface = torus_surface()
    rel = RelH2(("x", "y"), {"x": (0, 0), "y": (0, 0)})
    r1 = record(surface, rel, "r1", "surface", [1, 0], [], interior=1)
    r2 = record(surface, rel, "r2", "surface", [0, 1], [], interior=1)
    r3 = record(surface, rel, "r3", "surface", [1, 1], [], interior=1)
    with pytest.raises(ThetaConflict):
        validate_theta_well_defined(BandCatalog(surface, rel, (r1, r2, r3)))


def test_span_conflict_names_the_records():
    surface = torus_surface()
    rel = RelH2(("x", "y"), {"x": (0, 0), "y": (0, 0)})
    r0 = record(surface, rel, "r0", "surface", [1, 0], [], interior=0)
    r1 = record(surface, rel, "r1", "surface", [1, 0], [], interior=1)
    r2 = record(surface, rel, "r2", "surface", [0, 1], [], interior=1)
    r3 = record(surface, rel, "r3", "surface", [1, 1], [], interior=1)
    catalog = BandCatalog(surface, rel, (r1, r2, r3))
    with pytest.raises(ThetaConflict) as exc:
        is_b_characteristic(catalog)
    assert named(exc) == ("r1", "r2", "r3")
    with pytest.raises(ThetaConflict) as exc:
        validate_theta_well_defined(catalog)
    assert named(exc) == ("r1", "r2", "r3")
    # the first record that closes a cycle names it; r0 + r1 closes first here
    with pytest.raises(ThetaConflict) as exc:
        validate_theta_well_defined(BandCatalog(surface, rel, (r0, r2, r1, r3)))
    assert named(exc) == ("r0", "r1")


def test_class_zero_over_an_empty_basis_has_boundary_zero():
    surface = torus_surface()
    rel = RelH2((), {})
    # an annulus with two parallel boundary circles x bounds class 0
    r = record(surface, rel, "annulus", "annulus", [], [(1, 0), (1, 0)])
    catalog = BandCatalog(surface, rel, (r,))
    assert catalog.records == (r,)
    assert catalog.masks["annulus"] == (0, 0, 0b01)  # class, total boundary, support
    with pytest.raises(BandError):
        record(surface, rel, "bad", "annulus", [], [(1, 0), (0, 1)])


def test_basis_boundary_of_the_wrong_length_is_rejected():
    """The catalog checks the basis boundaries' lengths once, also when it has no records."""
    surface = torus_surface()
    rel = RelH2(("a", "b"), {"a": (1, 0), "b": (1, 0, 0)})
    r = BandRecord("r", "surface", (1, 0), ((1, 0),), (0,), 0, 0, 0, 0, 0)
    for records in ((), (r,)):
        with pytest.raises(BandError, match="'b' has length 3, expected the H1 dimension 2"):
            BandCatalog(surface, rel, records)


@pytest.mark.parametrize("bad", [(2, 0), (-1, 0), ("1", 0), (True, 0), (1.0, 0)],
                         ids=["2", "-1", "str", "bool", "float"])
def test_basis_boundary_entries_must_be_bits(bad):
    """A basis boundary with an entry other than 0 or 1 is named, with or without records."""
    surface = torus_surface()
    rel = RelH2(("a",), {"a": bad})
    r = BandRecord("r", "surface", (1,), ((1, 0),), (0,), 0, 0, 0, 0, 0)
    message = f"boundary of RelH2 basis class 'a' has an entry other than 0 or 1: {bad!r}"
    for records in ((), (r,)):
        with pytest.raises(BandError) as exc:
            BandCatalog(surface, rel, records)
        assert str(exc.value) == message


def test_total_boundary_rejects_a_circle_of_the_wrong_length():
    """Outside a catalog, ``total_boundary`` checks each circle with ``SurfaceModel.mask``."""
    surface = torus_surface()
    two = BandRecord("s", "annulus", (1,), ((1, 0), (1, 0, 1)), (0, 0), 0, 0, 0, 0, 0)
    with pytest.raises(BandError, match=r"bad H1 vector \(1, 0, 1\); expected 2 bits"):
        total_boundary(two, surface)
    assert total_boundary(two._replace(boundary_classes=((1, 0), (1, 1))), surface) == 0b10


_ODD_BITS = (0, 1, True, False, 0.0, 1.0, 2, -1, "0", "1", [0], None)


@pytest.mark.parametrize("make", [tuple, list, "".join], ids=["tuple", "list", "str"])
def test_bit_checks_accept_what_membership_in_0_1_accepts(make):
    """``SurfaceModel.mask`` and the catalog's class check accept a vector exactly when the
    length is right and every entry is a member of (0, 1) that is an exact int: bools and
    floats are refused, as every other integer field of the library refuses them."""
    surface = torus_surface()
    rel = RelH2(("c", "d"), {"c": (0, 0), "d": (0, 0)})
    closed = BandRecord("r", "surface", (0, 0), (), (), 0, 0, 0, 0, 0)
    values = _ODD_BITS if make in (tuple, list) else ("0", "1", "")
    for n in range(4):
        for entries in itertools.product(values, repeat=n):
            vec = make(entries)
            want = len(vec) == 2 and all(type(x) is int and x in (0, 1) for x in vec)
            # a record's own check is skipped, so only the catalog's class check sees ``vec``
            forged = closed._replace(rel_class=vec)
            if want:
                assert surface.mask(vec) == mask(vec)
                assert BandCatalog(surface, rel, (forged,)).masks["r"].rel_class == mask(vec)
            else:
                with pytest.raises(BandError, match="bad H1 vector"):
                    surface.mask(vec)
                with pytest.raises(BandError, match="bad RelH2 vector"):
                    BandCatalog(surface, rel, (forged,))


@pytest.mark.parametrize("field", ["rel_class", "w1_sigma"])
@pytest.mark.parametrize("entries", [(2,), (True,), "1", (0, 2)], ids=["2", "True", "str", "0-2"])
def test_band_record_entries_must_be_exactly_0_or_1(field, entries):
    # Theta once read a class entry 2 as bit 1 (a ThetaConflict between records of classes
    # (2,) and (1,)), and w1_sigma (0, 2) on an annulus passed ``theta``.  The record checks
    # its w1_sigma; its class is checked once, by the catalog, against the basis.
    annulus = dict(id="b", kind="annulus", rel_class=(1, 0), boundary_classes=((0, 0), (0, 0)),
                   w1_sigma=(0, 0), w1m_core=0, mu_boundary=0, arc_count=0, interior=0, euler=0)
    if field == "w1_sigma":
        with pytest.raises(BandError, match="band 'b': w1_sigma has an entry other than 0 or 1"):
            BandRecord(**dict(annulus, w1_sigma=entries))
        return
    basis = tuple(f"c{i}" for i in range(len(entries)))  # of the class's length
    rel = RelH2(basis, {name: (0, 0) for name in basis})
    with pytest.raises(BandError, match="bad RelH2 vector"):
        BandCatalog(torus_surface(), rel, (BandRecord(**dict(annulus, rel_class=entries)),))


@st.composite
def _closed_catalogs(draw):
    """Catalogs of closed records (no boundary circles, so the form vanishes)."""
    length = draw(st.integers(0, 6))
    pairs = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * length), st.integers(0, 1)),
                          max_size=8))
    surface = torus_surface()
    basis = tuple(f"c{i}" for i in range(length))
    rel = RelH2(basis, {n: (0, 0) for n in basis})
    records = tuple(record(surface, rel, f"r{i}", "surface", cls, [], interior=value)
                    for i, (cls, value) in enumerate(pairs))
    return pairs, BandCatalog(surface, rel, records)


@given(_closed_catalogs())
def test_theta_on_span_matches_the_subset_oracle(drawn):
    pairs, catalog = drawn
    violations = theta_violations(pairs)
    inst = simple_instance(genus=1, rel=catalog.rel, bands=catalog.records)
    if violations:
        with pytest.raises(ThetaConflict) as exc:
            validate_theta_well_defined(catalog)
        assert tuple(int(rid[1:]) for rid in named(exc)) in violations
        with pytest.raises(ThetaConflict) as b_exc:
            is_b_characteristic(catalog)
        assert named(b_exc) == named(exc)
        with pytest.raises(ThetaConflict):
            flowchart(inst)
        return
    functional = validate_theta_well_defined(catalog)
    for k in range(len(pairs) + 1):
        for subset in itertools.combinations(range(len(pairs)), k):
            total = [0] * len(catalog.rel.basis)
            for i in subset:
                total = [a ^ b for a, b in zip(total, pairs[i][0])]
            assert theta_value(functional, total) == sum(pairs[i][1] for i in subset) % 2
    any_one = any(value for _, value in pairs)
    assert functional.witness == next((f"r{i}" for i, (_, value) in enumerate(pairs) if value), None)
    assert is_b_characteristic(catalog).yes == (not any_one)
    assert flowchart(inst).b_char == ("no" if any_one else "yes")


def test_s_and_r_characteristic():
    assert is_s_characteristic([(1, 1)])
    assert not is_s_characteristic([(0, 1)])
    assert is_s_characteristic([])
    assert is_r_characteristic([(1, 1)])
    assert not is_r_characteristic([(0, 1)])
    assert is_r_characteristic([])


def _torus_fixture():
    surface = torus_surface()
    points = point_columns([DoublePoint(0, (0, 0), 1, 0), DoublePoint(1, (0, 0), -1, 0)],
                           cyclic_group(1))
    coll = disc_collection([WhitneyDisc(0, (0, 1), {0: 1})])
    return surface, points, coll


def test_finger_move_theta_zero_keeps_t():
    surface, points, coll = _torus_fixture()
    rel = RelH2(("s",), {"s": (1, 0)})
    band = record(surface, rel, "s", "surface", [1], [(1, 0)])
    new_points, out, delta = band_fibre_finger_move(points, coll, band, surface, [0], identity=0)
    assert delta == 0
    assert t_count(new_points, [0], out) == t_count(points, [0], coll)


def test_finger_move_theta_one_flips_t():
    surface, points, coll = _torus_fixture()
    rel = RelH2(("s",), {"s": (1, 0)})
    band = record(surface, rel, "s", "surface", [1], [(1, 0)], interior=1)
    new_points, out, delta = band_fibre_finger_move(points, coll, band, surface, [0], identity=0)
    assert delta == 1
    assert t_count(new_points, [0], out) != t_count(points, [0], coll)


def test_finger_move_dual_pair_with_pushoff_flips_once():
    # two dual bands, each with Theta = 0; the second picks up one arc
    # intersection with the first new disc, so the combined effect flips t
    surface, points, coll = _torus_fixture()
    rel = RelH2(("a", "b"), {"a": (1, 0), "b": (0, 1)})
    band_a = record(surface, rel, "a", "surface", [1, 0], [(1, 0)])
    band_b = record(surface, rel, "b", "surface", [0, 1], [(0, 1)])
    t0 = t_count(points, [0], coll)
    pts1, coll1, d1 = band_fibre_finger_move(points, coll, band_a, surface, [0], identity=0)
    assert d1 == 0
    band_b_pushed = replace(band_b, arc_count=1)
    pts2, coll2, d2 = band_fibre_finger_move(pts1, coll1, band_b_pushed, surface, [0], identity=0)
    assert d2 == 1
    assert t_count(pts2, [0], coll2) == (t0 + 1) % 2


def _random_record(surface, rel, rng, rid):
    dim = surface.dim
    names = len(rel.basis)
    kind = rng.choice(("annulus", "mobius", "surface"))
    while True:
        if kind == "annulus":
            classes = [tuple(rng.randrange(2) for _ in range(dim)) for _ in range(2)]
            w1s = [surface.w1_of(surface.mask(c)) for c in classes]
            if sorted(w1s) == [0, 1]:
                continue  # mixed annuli have no invariant
        elif kind == "mobius":
            classes = [tuple(rng.randrange(2) for _ in range(dim))]
            if surface.w1_of(surface.mask(classes[0])) == 1:
                continue
        else:
            classes = [tuple(rng.randrange(2) for _ in range(dim))
                       for _ in range(rng.randrange(3))]
            if any(surface.w1_of(surface.mask(c)) for c in classes):
                continue
        break
    total = tuple(0 for _ in range(dim))
    for c in classes:
        total = tuple(x ^ y for x, y in zip(total, c))
    rel_class = [0] * names
    rel_class[rng.randrange(names)] = 1
    rel = RelH2(rel.basis, dict(rel.boundary))
    # declare the boundary map consistently for this record's basis vector
    name = rel.basis[rel_class.index(1)]
    boundary = dict(rel.boundary)
    boundary[name] = total
    rel = RelH2(rel.basis, boundary)
    w1s = tuple(surface.w1_of(surface.mask(c)) for c in classes)
    r = BandRecord(
        rid, kind, tuple(rel_class), tuple(classes), w1s, sum(w1s) % 2,
        rng.randrange(2), rng.randrange(2), rng.randrange(2), rng.randrange(2),
    )
    BandCatalog(surface, rel, (r,))
    return r


def test_theta_quadraticity_randomized():
    rng = random.Random(41)
    surfaces = [
        torus_surface(),
        klein_surface(),
        SurfaceModel([SurfaceComponent(0, 2, True), SurfaceComponent(1, 1, False)]),
    ]
    rel_basis = ("u", "v", "w")
    count = 0
    while count < 300:
        surface = rng.choice(surfaces)
        rel = RelH2(rel_basis, {n: (0,) * surface.dim for n in rel_basis})
        r1 = _random_record(surface, rel, rng, "r1")
        r2 = _random_record(surface, rel, rng, "r2")
        u = union_records(r1, r2, surface)
        lam = surface.form(total_boundary(r1, surface), total_boundary(r2, surface))
        try:
            expected = (theta(r1) + theta(r2) + lam) % 2
        except MixedW1Annulus:
            continue
        assert theta(u) == expected
        count += 1


def test_b_implies_r_implies_s_randomized():
    # linked catalogs per the closing-up recipe: F.R + R.R = Theta(B)
    rng = random.Random(43)
    surface = torus_surface()
    for _ in range(300):
        rel = RelH2(("x", "y", "z"), {"x": (0, 0), "y": (0, 0), "z": (0, 0)})
        records = []
        for i in range(rng.randrange(1, 4)):
            interior = rng.randrange(2)
            euler = rng.randrange(2)
            rel_class = [0, 0, 0]
            rel_class[i] = 1
            records.append(record(surface, rel, f"b{i}", "surface",
                                  rel_class, [], interior=interior, euler=euler))
        catalog = BandCatalog(surface, rel, tuple(records))
        rp2 = []
        for r in records:
            rr = rng.randrange(2)
            rp2.append(((theta(r) + rr) % 2, rr))
        spheres = list(rp2)  # odd-degree collapse transfers the congruence
        b = is_b_characteristic(catalog).yes
        if b:
            assert is_r_characteristic(rp2)
            assert is_s_characteristic(spheres)
        if not is_r_characteristic(rp2):
            assert not b


def test_b_equals_r_for_simply_connected_components():
    # over a union of spheres every band closes up, so the two notions agree
    rng = random.Random(45)
    surface = SurfaceModel([SurfaceComponent(0, 0, True)])
    for _ in range(200):
        size = rng.randrange(1, 4)
        basis = tuple(f"c{i}" for i in range(size))
        rel = RelH2(basis, {n: () for n in basis})
        records = []
        for i in range(size):
            rel_class = [0] * size
            rel_class[i] = 1
            records.append(record(surface, rel, f"b{i}", "surface", rel_class, [],
                                  interior=rng.randrange(2), euler=rng.randrange(2)))
        catalog = BandCatalog(surface, rel, tuple(records))
        rp2 = []
        for r in records:
            rr = rng.randrange(2)
            rp2.append(((theta(r) + rr) % 2, rr))
        assert is_b_characteristic(catalog).yes == is_r_characteristic(rp2)


@st.composite
def _components(draw, max_genus=3):
    """1-4 components in a shuffled id order: spheres, tori, cross-caps, 0-3 boundary circles."""
    count = draw(st.integers(1, 4))
    ids = draw(st.permutations(range(count)))
    comps = []
    for cid in ids:
        orientable = draw(st.booleans())
        genus = draw(st.integers(0 if orientable else 1, max_genus))
        comps.append(SurfaceComponent(cid, genus, orientable, draw(st.integers(0, 3))))
    return comps


_EDGE_SURFACES = [
    [SurfaceComponent(0, 0, True)],  # a sphere: H1 = 0
    [SurfaceComponent(0, 0, True, 1)],  # a disc: one boundary circle adds no class
    [SurfaceComponent(0, 0, True, 3)],  # a pair of pants: boundary classes only
    [SurfaceComponent(0, 1, False, 1)],  # a Mobius band
    [SurfaceComponent(2, 3, False), SurfaceComponent(0, 1, True, 2), SurfaceComponent(1, 0, True)],
]


@pytest.mark.parametrize("comps", _EDGE_SURFACES, ids=range(len(_EDGE_SURFACES)))
@given(data=st.data())
def test_surface_model_matches_the_paper_basis_on_edge_cases(comps, data):
    _check_against_paper_basis(comps, data)


@given(comps=_components(), data=st.data())
def test_structured_form_matches_dense_reference(comps, data):
    _check_against_paper_basis(comps, data)


def _check_against_paper_basis(comps, data):
    """``mask``, ``form``, ``w1_of`` and ``components_of`` against the dense paper-basis reference."""
    surface = SurfaceModel(comps)
    basis = paper_basis(comps)
    dense = paper_form(basis)
    assert surface.dim == len(basis)
    vectors = st.lists(st.integers(0, 1), min_size=surface.dim, max_size=surface.dim)
    x, y = tuple(data.draw(vectors)), tuple(data.draw(vectors))
    expected = sum(x[i] * dense[i][j] * y[j]
                   for i in range(surface.dim) for j in range(surface.dim)) % 2
    assert surface.mask(x) == mask(x)
    assert surface.form(mask(x), mask(y)) == expected
    assert surface.w1_of(mask(x)) == sum(bit for bit, (_, letter, _) in zip(x, basis) if letter == "e") % 2
    assert components_of(surface, mask(x)) == {cid for bit, (cid, _, _) in zip(x, basis) if bit}


@given(comps=_components(max_genus=6), data=st.data())
def test_form_is_symmetric_bilinear_and_satisfies_wu(comps, data):
    """lambda(x, y) = lambda(y, x), lambda(x + z, y) = lambda(x, y) + lambda(z, y),
    and Wu's formula lambda(x, x) = <w1, x>."""
    surface = SurfaceModel(comps)
    vectors = st.lists(st.integers(0, 1), min_size=surface.dim, max_size=surface.dim)
    x, y, z = (tuple(data.draw(vectors)) for _ in range(3))
    form = surface.form
    assert form(mask(x), mask(y)) == form(mask(y), mask(x))
    assert form(mask(x) ^ mask(z), mask(y)) == form(mask(x), mask(y)) ^ form(mask(z), mask(y))
    assert form(mask(x), mask(x)) == surface.w1_of(mask(x))


def test_form_on_large_model_is_linear_time():
    # a dense form would need 1.6e9 entries here
    start = time.perf_counter()
    surface = SurfaceModel([SurfaceComponent(0, 15000, True, 2),
                            SurfaceComponent(1, 10000, False)])
    assert surface.dim >= 40000
    ones = (1 << surface.dim) - 1
    assert surface.form(ones, ones) == 10000 % 2
    assert surface.w1_of(surface.mask((1,) * surface.dim)) == 10000 % 2
    assert time.perf_counter() - start < 1.0


def _circle(surface, rng, allowed, w1):
    """A sparse random H1 class within the ``allowed`` bitmask whose w1 value is ``w1``, or None."""
    for _ in range(20):
        vec = tuple(allowed >> m & (rng.random() < 0.3) for m in range(surface.dim))
        if surface.w1_of(mask(vec)) == w1:
            return vec
    return None


@settings(max_examples=300)
@given(comps=_components(), seed=st.integers(0, 2**32 - 1), count=st.integers(0, 12))
def test_boundary_form_witness_equals_the_pair_scan(comps, seed, count):
    """The span-basis walk names the pair the O(R^2) scan names, on unions of orientable and
    nonorientable components with boundary.  Two catalogs in three draw their circles from the
    a-classes and the inert boundary classes, where the form vanishes, and most of them plant
    one record drawn from all of H1, so both None and late witnesses occur; mixed annuli,
    whose boundaries pair with themselves, are drawn too."""
    rng = random.Random(seed)
    surface = SurfaceModel(comps)
    everything = (1 << surface.dim) - 1
    isotropic = everything & ~(surface.w1 | surface._a << 1)
    allowed = rng.choice((everything, isotropic, isotropic))
    planted = rng.randrange(count) if allowed == isotropic and count and rng.random() < 0.8 else -1
    # before the planted record, sometimes only the boundary classes, which pair with nothing
    early = rng.choice((allowed, isotropic & ~surface._a))
    drawn = []  # (kind, circles) per record
    for k in range(count):
        if rng.random() < 0.2 and drawn:  # an earlier record's boundary again
            drawn.append(rng.choice(drawn))
            continue
        kind = rng.choice(("annulus", "mobius", "surface"))
        n = {"annulus": 2, "mobius": 1}.get(kind, rng.randrange(3))
        w1s = [rng.randrange(2) for _ in range(n)] if kind == "annulus" else [0] * n  # mixed too
        mask_k = everything if k == planted else early if k < planted else allowed
        circles = tuple(_circle(surface, rng, mask_k, w1) for w1 in w1s)
        if None not in circles:
            drawn.append((kind, circles))
    names = tuple(f"c{k}" for k in range(len(drawn)))
    rel = RelH2(names, {n: tuple(sum(col) % 2 for col in zip(*circles)) if circles
                        else (0,) * surface.dim for n, (_, circles) in zip(names, drawn)})
    records = tuple(record(surface, rel, f"r{k}", kind, [int(m == k) for m in range(len(drawn))],
                           circles) for k, (kind, circles) in enumerate(drawn))
    pair = _boundary_form_witness(BandCatalog(surface, rel, records))
    assert pair == boundary_form_witness_pairs(BandCatalog(surface, rel, records))
    event("form vanishes" if pair is None else "witness after the first record"
          if pair[0] != "r0" else "witness at the first record")
