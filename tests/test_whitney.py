import random

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from surfemb4.bands import (
    BandError,
    BandRecord,
    SurfaceComponent,
    SurfaceModel,
    theta,
    validate_record,
)
from surfemb4.gamma import PairingContext, build_gamma
from surfemb4.whitney import UnpairedPoints, t_count, to_convenient

from helpers import (
    DoublePoint,
    NothingToTransfer,
    WhitneyDisc,
    all_characters,
    all_groups_up_to_8,
    band_fibre_finger_move,
    collection_values,
    cyclic_group,
    disc_collection,
    disc_values,
    point_columns,
    random_signed_subgroup,
    reduce_pairs,
    to_convenient_quadratic,
    total_boundary,
    transfer_move,
)

C1 = cyclic_group(1)  # every eta below is its identity, 0


def pts(*specs):
    return point_columns([DoublePoint(i, (c1, c2), sign, eta)
                          for i, (c1, c2, sign, eta) in enumerate(specs)], C1)


def test_pairing_matches_exhaustive_search():
    # a perfect matching into cancelling pairs exists iff the reduction is zero
    rng = random.Random(19)
    groups = all_groups_up_to_8()
    for _ in range(150):
        name, g = rng.choice(groups)
        wM = rng.choice(all_characters(g))
        s = random_signed_subgroup(g, rng)
        ctx = PairingContext(g, wM, s, s, self_pairing=True)
        gamma = build_gamma(ctx)
        n = rng.choice((2, 4, 6, 8))
        points = [
            DoublePoint(i, (0, 0), rng.choice((1, -1)), rng.randrange(g.order))
            for i in range(n)
        ]

        def cancels(p, q):
            return reduce_pairs([(p.sign, p.eta), (q.sign, q.eta)], gamma).is_zero()

        def exhaustive(remaining):
            if not remaining:
                return True
            first = remaining[0]
            return any(
                cancels(first, other) and exhaustive([p for p in remaining[1:] if p is not other])
                for other in remaining[1:]
            )

        expected = exhaustive(points)
        reduced_zero = reduce_pairs([(p.sign, p.eta) for p in points], gamma).is_zero()
        assert expected == reduced_zero, name


def _collection(*disc_specs, boundary=(), convenient=True):
    discs = tuple(
        WhitneyDisc(i, pair, dict(interior), mu_boundary=mu, euler=e)
        for i, (pair, interior, mu, e) in enumerate(disc_specs)
    )
    bd = {frozenset((a, b)): c for a, b, c in boundary}
    return disc_collection(discs, bd, convenient=convenient)


def test_t_count_basic():
    points = pts((0, 0, 1, 0), (0, 0, -1, 0))
    coll = _collection(((0, 1), {}, 0, 0))
    assert t_count(points, [0], coll) == 0
    coll1 = _collection(((0, 1), {0: 1}, 0, 0))
    assert t_count(points, [0], coll1) == 1


def test_t_count_requires_exact_pairing():
    points = pts((0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 1, 0), (0, 0, -1, 0))
    coll = _collection(((0, 1), {}, 0, 0))
    with pytest.raises(UnpairedPoints):
        t_count(points, [0], coll)


def test_t_alt_equals_t_on_convenient():
    # on a convenient collection t is the interior count alone, and the same
    # discs read as a weak collection give the same t
    points = pts((0, 0, 1, 0), (0, 0, -1, 0))
    coll = _collection(((0, 1), {0: 3}, 0, 0))
    weak = _collection(((0, 1), {0: 3}, 0, 0), convenient=False)
    interior = sum(d.get(0, 0) for d in coll.discs.interiors) % 2
    assert t_count(points, [0], weak) == t_count(points, [0], coll) == interior == 1


def test_t_count_twisting_and_boundary_terms():
    points = pts((0, 0, 1, 0), (0, 0, -1, 0))
    twisted = _collection(((0, 1), {}, 0, 1), convenient=False)
    assert t_count(points, [0], twisted) == 1
    points4 = pts((0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 1, 0), (0, 0, -1, 0))
    crossing = _collection(((0, 1), {}, 0, 0), ((2, 3), {}, 0, 0),
                           boundary=[(0, 1, 1)], convenient=False)
    assert t_count(points4, [0], crossing) == 1


def test_to_convenient_identity_on_convenient():
    points = pts((0, 0, 1, 0), (0, 0, -1, 0))
    coll = _collection(((0, 1), {0: 1}, 0, 0))
    out = to_convenient(points, coll)
    assert disc_values(out.discs) == disc_values(coll.discs)


def test_to_convenient_boundary_twist():
    points = pts((0, 0, 1, 0), (0, 0, -1, 0))
    twisted = _collection(((0, 1), {}, 0, 1), convenient=False)
    out = to_convenient(points, twisted)
    assert out.convenient
    assert out.discs.interiors[0] == {0: 1}
    assert out.discs.euler[0] == 0


def test_to_convenient_pushes_arc_intersections_to_lower_index():
    points = pts((0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 1, 0), (0, 0, -1, 0))
    crossing = _collection(((0, 1), {}, 0, 0), ((2, 3), {}, 0, 0),
                           boundary=[(0, 1, 1)], convenient=False)
    out = to_convenient(points, crossing)
    assert out.discs.interiors == ({0: 1}, {})


def test_to_convenient_preserves_t_randomized():
    rng = random.Random(29)
    for _ in range(300):
        n_discs = rng.randrange(1, 5)
        points = []
        specs = []
        for d in range(n_discs):
            points += [
                DoublePoint(2 * d, (0, 0), 1, 0),
                DoublePoint(2 * d + 1, (0, 0), -1, 0),
            ]
            interior = {0: rng.randrange(3)}
            specs.append(((2 * d, 2 * d + 1), interior, rng.randrange(3), rng.randrange(-2, 3)))
        boundary = []
        for a in range(n_discs):
            for b in range(a + 1, n_discs):
                if rng.random() < 0.4:
                    boundary.append((a, b, rng.randrange(1, 3)))
        weak = _collection(*specs, boundary=boundary, convenient=False)
        points = point_columns(points, C1)
        expected = t_count(points, [0], weak)
        out = to_convenient(points, weak)
        assert t_count(points, [0], out) == expected


def test_transfer_move_examples():
    points = pts((0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 1, 0), (0, 0, -1, 0))
    coll = _collection(((0, 1), {0: 1}, 0, 0), ((2, 3), {0: 1}, 0, 0))
    new_points, out = transfer_move(points, coll, 0, 1, identity=0)
    assert len(new_points) == len(points) + 6
    assert len(out.discs) == 5
    assert t_count(new_points, [0], out) == t_count(points, [0], coll)

    coll31 = _collection(((0, 1), {0: 3}, 0, 0), ((2, 3), {0: 1}, 0, 0))
    new_points, out = transfer_move(points, coll31, 0, 1, identity=0)
    assert out.discs.interiors[:2] == ({0: 2}, {0: 0})
    assert t_count(new_points, [0], out) == t_count(points, [0], coll31)

    coll01 = _collection(((0, 1), {0: 0}, 0, 0), ((2, 3), {0: 1}, 0, 0))
    with pytest.raises(NothingToTransfer):
        transfer_move(points, coll01, 0, 1, identity=0)


def test_transfer_move_preserves_t_randomized():
    rng = random.Random(31)
    for _ in range(200):
        points = pts((0, 0, 1, 0), (0, 0, -1, 0), (1, 1, 1, 0), (1, 1, -1, 0))
        coll = _collection(
            ((0, 1), {0: rng.randrange(1, 4), 1: rng.randrange(3)}, 0, 0),
            ((2, 3), {0: rng.randrange(3), 1: rng.randrange(1, 4)}, 0, 0),
        )
        comps = [0, 1]
        before = t_count(points, comps, coll)
        new_points, out = transfer_move(points, coll, 0, 1, identity=0)
        assert t_count(new_points, comps, out) == before


def _random_weak_collection(rng, max_discs):
    """Discs with shuffled ids on components 0-2, interiors also on 3, random boundary counts."""
    n_discs = rng.randrange(1, max_discs + 1)
    disc_ids = rng.sample(range(10 * max_discs), n_discs)
    points, discs = [], []
    for k, did in enumerate(disc_ids):
        comps = (rng.randrange(3), rng.randrange(3))
        points += [DoublePoint(2 * k, comps, 1, 0), DoublePoint(2 * k + 1, comps, -1, 0)]
        interior = {c: rng.randrange(3) for c in rng.sample(range(4), rng.randrange(3))}
        discs.append(WhitneyDisc(did, (2 * k, 2 * k + 1), interior,
                                 mu_boundary=rng.randrange(3), euler=rng.randrange(-3, 4)))
    pairs = [frozenset(rng.sample(disc_ids, 2)) for _ in range(rng.randrange(3 * n_discs))
             if n_discs > 1]
    boundary = {key: rng.randrange(4) for key in pairs}
    return point_columns(points, C1), disc_collection(discs, boundary, convenient=False)


def test_to_convenient_matches_quadratic_reference():
    rng = random.Random(41)
    for _ in range(400):
        points, weak = _random_weak_collection(rng, 60)
        out = to_convenient(points, weak)
        assert collection_values(out) == collection_values(to_convenient_quadratic(points, weak))
        # the weak terms and the conversion's interior bumps must give the same t
        assert t_count(points, [0, 1, 2], weak) == t_count(points, [0, 1, 2], out)


@st.composite
def _weak_collections(draw):
    """(points, weak collection, components): one to six discs over components 0..n-1, each
    pairing a +1 and a -1 point on one component pair, with interiors on 0..n (n carries no
    points), random twisting and boundary counts, and every component the points and interiors
    name."""
    n = draw(st.integers(1, 4))
    disc_ids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True))
    points, discs = [], []
    for k, did in enumerate(disc_ids):
        comps = (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        points += [DoublePoint(2 * k, comps, 1, 0), DoublePoint(2 * k + 1, comps, -1, 0)]
        interior = draw(st.dictionaries(st.integers(0, n), st.integers(0, 3), max_size=3))
        discs.append(WhitneyDisc(did, (2 * k, 2 * k + 1), interior,
                                 mu_boundary=draw(st.integers(0, 3)), euler=draw(st.integers(-3, 3))))
    boundary = {}
    if len(disc_ids) > 1:
        pairs = st.lists(st.sampled_from(disc_ids), min_size=2, max_size=2, unique=True)
        boundary = draw(st.dictionaries(pairs.map(frozenset), st.integers(0, 3), max_size=8))
    components = sorted({c for p in points for c in p.components}
                        | {c for d in discs for c in d.interior})
    event(f"{len(components)} components")
    return point_columns(points, C1), disc_collection(discs, boundary, convenient=False), components


@settings(max_examples=200)
@given(_weak_collections())
def test_to_convenient_keeps_t_on_multi_component_weak_collections(drawn):
    """Hypotheses: each disc pairs two points of opposite sign on one component pair, and t is
    counted over every component of the collection, so each conversion bump lands on a counted
    component."""
    points, weak, comps = drawn
    assert t_count(points, comps, to_convenient(points, weak)) == t_count(points, comps, weak)


@settings(max_examples=200)
@given(_weak_collections(), st.data())
def test_transfer_move_keeps_t_on_multi_component_weak_collections(drawn, data):
    """Hypotheses: the two discs are distinct and each has an interior intersection, and t is
    counted over every component of the collection, which holds the new points' components."""
    points, weak, comps = drawn
    with_interior = [did for did, interior in zip(weak.discs.ids, weak.discs.interiors)
                     if sum(interior.values())]
    assume(len(with_interior) >= 2)
    w1, w2 = data.draw(st.lists(st.sampled_from(with_interior), min_size=2, max_size=2,
                                unique=True))
    new_points, out = transfer_move(points, weak, w1, w2, identity=0)
    assert t_count(new_points, comps, out) == t_count(points, comps, weak)


@st.composite
def _admissible_records(draw, surface):
    """A record over ``surface`` that passes ``validate_record`` and whose Theta is defined."""
    kind = draw(st.sampled_from(("annulus", "mobius", "surface")))
    circles = {"annulus": 2, "mobius": 1}.get(kind) or draw(st.integers(0, 2))
    vec = st.tuples(*[st.integers(0, 1)] * surface.dim)
    classes = tuple(draw(vec) for _ in range(circles))
    w1s = tuple(surface.w1_of(surface.mask(c)) for c in classes)
    bits = [draw(st.integers(0, 1)) for _ in range(4)]
    record = BandRecord("b", kind, (1,), classes, w1s, sum(w1s) % 2, *bits)
    try:  # a basis of one class, whose boundary is the record's circles
        validate_record(record, surface, [total_boundary(record, surface)])
        theta(record)
    except BandError:  # an excluded boundary character, or a mixed annulus
        assume(False)
    return record


@settings(max_examples=200)
@given(_weak_collections(), st.data())
def test_band_fibre_finger_move_changes_t_by_theta(drawn, data):
    """Hypotheses: the surface has components 0..m-1, t is counted over them and every
    component of the collection, and the record is admissible with Theta defined."""
    points, weak, comps = drawn
    surface = SurfaceModel([
        SurfaceComponent(i, *data.draw(st.sampled_from(((0, True), (1, True), (1, False),
                                                        (2, False)))),
                         boundary_circles=data.draw(st.integers(0, 2)))
        for i in range(data.draw(st.integers(1, 3)))])
    record = data.draw(_admissible_records(surface))
    comps = sorted(set(comps) | {c.id for c in surface.components})
    before = t_count(points, comps, weak)
    new_points, out, delta = band_fibre_finger_move(points, weak, record, surface, comps,
                                                    identity=0)
    assert delta == theta(record)
    assert t_count(new_points, comps, out) == (before + theta(record)) % 2
    event(f"{record.kind}, Theta {theta(record)}")
