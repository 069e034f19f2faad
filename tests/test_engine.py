import json
import random
import time
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from surfemb4 import cli, engine, schema
from surfemb4.bands import (BandCatalog, BandRecord, RelH2, SurfaceComponent, SurfaceModel,
                            _boundary_form_witness)
from surfemb4.engine import (
    HOMOTOPIC_EMBED,
    NO_CONCLUSION,
    NOT_REG_EMBED,
    REG_EMBED,
    ComponentData,
    InvalidEulerParity,
    MissingWhitneyData,
    NoDualSpheres,
    NotDivisibleBy8,
    PrimaryObstructionNonzero,
    ProblemInstance,
    ValidationError,
    abelian_euler_bound_check,
    compute_km,
    flowchart,
    homotopy_analysis,
    restrict_Ft,
    rp2_euler_parity,
    stong_t_formula,
)
from surfemb4.groups import Character, subgroup_closure
from surfemb4.whitney import DoublePoint, WhitneyCollection, WhitneyDisc

from helpers import (
    PreconditionW1Ker,
    band_fibre_finger_move,
    boundary_form_witness_pairs,
    cusp_trick,
    cyclic_group,
    paper_basis,
    replace,
    rp2_euler_parity_walk,
    transfer_move,
    trivial_character,
)


def load_example(name):
    path = resources.files("surfemb4").joinpath("data", "instances", name + ".json")
    return schema.load_instance(str(path))


def simple_instance(*, genus=0, orientable=True, subgroup_gens=(), has_dual=True,
                    framed=False, points=(), discs=(), boundary=(), bands=(),
                    rel=None, good=True, torus=(), spheres=(), rp2=()):
    group = cyclic_group(1)
    surface = SurfaceModel([SurfaceComponent(0, genus, orientable)])
    rel = rel if rel is not None else RelH2((), {})
    collection = WhitneyCollection(
        tuple(WhitneyDisc(i, pair, dict(interior)) for i, (pair, interior) in enumerate(discs)),
        {frozenset((a, b)): c for a, b, c in boundary},
        convenient=True,
    )
    return ProblemInstance(
        group=group,
        wM=trivial_character(group),
        components=(ComponentData(0, subgroup_closure(group, subgroup_gens),
                                  has_dual, framed),),
        surface=surface,
        points=tuple(DoublePoint(i, (0, 0), s, 0) for i, s in enumerate(points)),
        collection=collection,
        sphere_catalog=tuple(spheres),
        rp2_catalog=tuple(rp2),
        band_catalog=BandCatalog(surface, rel, tuple(bands)),
        good_group=good,
        torus_summands=frozenset(torus),
    )


def test_restrict_ft():
    inst = load_example("torus_s3s1")
    assert restrict_Ft(inst) == [0]
    framed = replace(inst, components=(replace(inst.components[0], dual_framed=True),))
    assert restrict_Ft(framed) == []
    no_dual = replace(inst, components=(replace(inst.components[0], has_alg_dual=False),))
    assert restrict_Ft(no_dual) == [0]


def test_compute_km_torus_example():
    assert compute_km(load_example("torus_s3s1")) == 1


def test_compute_km_tubed_sphere():
    assert compute_km(load_example("tubed_sphere")) == 0


def test_compute_km_degree_three_sphere_model():
    # the cuspidal-cubic model: one disc with a single interior intersection
    inst = simple_instance(points=(1, -1), discs=(((0, 1), {0: 1}),),
                           rel=RelH2(("g",), {"g": ()}),
                           bands=(BandRecord("g", "surface", (1,), (), (), 0, 0, 0, 1, 1),),
                           spheres=((1, 1),))
    assert compute_km(inst) == 1
    assert stong_t_formula(1, 9) == 1  # same value by the signature formula


def test_compute_km_errors():
    inst = load_example("torus_s3s1")
    with pytest.raises(NoDualSpheres):
        compute_km(replace(inst, components=(replace(inst.components[0], has_alg_dual=False),)))
    bad_points = tuple(inst.points) + (DoublePoint(7, (0, 0), 1, (0,)),)
    with pytest.raises(PrimaryObstructionNonzero):
        compute_km(replace(inst, points=bad_points))
    with pytest.raises(MissingWhitneyData):
        compute_km(replace(inst, collection=None))


def test_disc_pairing_across_ft_boundary_is_missing_data():
    # a disc pairing an F^t double point with one outside F^t leaves the
    # F^t points unpaired for the t computation
    group = cyclic_group(1)
    surface = SurfaceModel([SurfaceComponent(0, 1, True), SurfaceComponent(1, 0, True)])
    trivial = subgroup_closure(group, [])
    points = (
        DoublePoint(0, (0, 0), 1, 0), DoublePoint(1, (0, 0), -1, 0),
        DoublePoint(2, (0, 1), 1, 0), DoublePoint(3, (0, 1), -1, 0),
    )
    collection = WhitneyCollection(
        (WhitneyDisc(0, (0, 2), {}), WhitneyDisc(1, (1, 3), {})), {}, convenient=True)
    inst = ProblemInstance(
        group=group, wM=trivial_character(group),
        components=(ComponentData(0, trivial, True, False),
                    ComponentData(1, trivial, True, True)),
        surface=surface, points=points, collection=collection,
        sphere_catalog=(), rp2_catalog=(),
        band_catalog=BandCatalog(surface, RelH2((), {}), ()),
        good_group=True, torus_summands=frozenset(),
    )
    assert restrict_Ft(inst) == [0]
    with pytest.raises(MissingWhitneyData):
        engine._t_for_ft(inst, [0])


def test_flowchart_primary_obstruction():
    inst = simple_instance(points=(1,), discs=())
    verdict = flowchart(inst)
    assert verdict.outcome == NOT_REG_EMBED
    assert verdict.km is None and verdict.t is None
    assert verdict.trace[0].value == "no"


def test_flowchart_torus_example():
    verdict = flowchart(load_example("torus_s3s1"))
    assert verdict.outcome == NOT_REG_EMBED
    assert verdict.km == 1 and verdict.t == 1 and verdict.b_char == "yes"


def test_flowchart_positive_genus_simply_connected():
    # positive genus + pi_1-trivial: the torus summand rules out the
    # characteristic case, and dual sphere + good group give the embedding
    inst = simple_instance(genus=1, points=(1, -1), discs=(((0, 1), {0: 1}),),
                           torus=(0,), spheres=((1, 1),))
    verdict = flowchart(inst)
    assert verdict.outcome == REG_EMBED
    assert verdict.km == 0 and verdict.b_char == "no"
    assert any("Prop 7.1" in e.paper_ref for e in verdict.trace)


def test_flowchart_no_duals_no_conclusion():
    inst = simple_instance(genus=1, torus=(0,), has_dual=False)
    verdict = flowchart(inst)
    assert verdict.outcome == NO_CONCLUSION


def test_flowchart_bad_group_no_conclusion():
    inst = simple_instance(genus=1, torus=(0,), good=False)
    verdict = flowchart(inst)
    assert verdict.outcome == NO_CONCLUSION
    assert verdict.km == 0


def _klein_instance(*, has_dual, euler_bit=0, good=True, points=(), discs=()):
    group = cyclic_group(1)
    surface = SurfaceModel([SurfaceComponent(0, 2, False)])
    rel = RelH2(("b11",), {"b11": (1, 1)})
    band = BandRecord("b11", "mobius", (1,), ((1, 1),), (0,), 0, 0, 0, 0, euler_bit)
    collection = WhitneyCollection(
        tuple(WhitneyDisc(i, pair, dict(interior)) for i, (pair, interior) in enumerate(discs)),
        {}, convenient=True,
    )
    return ProblemInstance(
        group=group, wM=trivial_character(group),
        components=(ComponentData(0, subgroup_closure(group, [(0, -1)]), has_dual, False),),
        surface=surface,
        points=tuple(DoublePoint(i, (0, 0), s, 0) for i, s in enumerate(points)),
        collection=collection,
        sphere_catalog=(), rp2_catalog=(),
        band_catalog=BandCatalog(surface, rel, (band,)),
        good_group=good, torus_summands=frozenset(),
    )


def test_homotopy_analysis_case2_embeds():
    # nonorientable surface in a simply connected manifold with a dual sphere
    inst = _klein_instance(has_dual=True, euler_bit=1)
    verdict = homotopy_analysis(inst)
    assert verdict.outcome == HOMOTOPIC_EMBED
    assert any("Thm 1.5" in e.paper_ref for e in verdict.trace)


def test_homotopy_analysis_case1_delegates():
    inst = load_example("torus_s3s1")
    assert homotopy_analysis(inst).outcome == flowchart(inst).outcome


def test_homotopy_analysis_case2_without_duals():
    inst = _klein_instance(has_dual=False)
    assert homotopy_analysis(inst).outcome == NO_CONCLUSION


def _over_other_objects(inst) -> dict:
    """Changes that swap one part of ``inst`` for one built over another surface or group,
    with the message each must raise."""
    group = type(inst.group)(inst.group.factors)  # equal to the instance's group, not the same
    surface = SurfaceModel([SurfaceComponent(5, 1, True, 0)])
    comp, catalog = inst.components[0], inst.band_catalog
    on_surface = "band catalog not over the instance's surface"
    return {
        "catalog": (dict(band_catalog=BandCatalog(surface, catalog.rel, catalog.records)), on_surface),
        "no catalog": (dict(band_catalog=None), on_surface),
        "character": (dict(wM=Character(group, inst.wM.values)),
                      "character not over the instance's group"),
        "subgroup": (dict(components=(comp._replace(subgroup=subgroup_closure(
            group, comp.subgroup.generators)),)), "subgroup of component 0 not over the instance's group"),
    }


@pytest.mark.parametrize("case", ["catalog", "no catalog", "character", "subgroup"])
def test_instance_rejects_parts_built_over_another_surface_or_group(case):
    inst = load_example("torus_s3s1")
    catalog = BandCatalog(inst.surface, inst.band_catalog.rel, inst.band_catalog.records)
    assert flowchart(replace(inst, band_catalog=catalog)) == flowchart(inst)  # same objects pass
    changes, message = _over_other_objects(inst)[case]
    with pytest.raises(ValidationError) as exc:
        replace(inst, **changes)
    assert str(exc.value) == message


def test_homotopy_analysis_requires_normalized_mu1():
    # a single +1 identity point on an orientable component has mu_1 = 1
    inst = simple_instance(points=(1,), discs=())
    with pytest.raises(ValidationError):
        homotopy_analysis(inst)


def test_cusp_trick_flips_t():
    inst = _klein_instance(has_dual=False, points=(1, 1), discs=(((0, 1), {0: 1}),))
    before = engine._t_for_ft(inst, [0])
    out = cusp_trick(inst)
    after = engine._t_for_ft(out, [0])
    assert before == 1 and after == 0
    twice = cusp_trick(out)
    assert engine._t_for_ft(twice, [0]) == before


def test_cusp_trick_precondition():
    inst = simple_instance(genus=1)
    with pytest.raises(PreconditionW1Ker):
        cusp_trick(inst)


def test_rp2_euler_parity():
    assert rp2_euler_parity(2) == 0
    assert rp2_euler_parity(-2) == 0
    assert rp2_euler_parity(10) == 1
    assert rp2_euler_parity(14) == 0
    with pytest.raises(InvalidEulerParity):
        rp2_euler_parity(4)


def test_rp2_euler_parity_matches_walk():
    for e in range(-1000, 1001):
        if e % 4 == 2:
            assert rp2_euler_parity(e) == rp2_euler_parity_walk(e), e
        else:
            with pytest.raises(InvalidEulerParity):
                rp2_euler_parity(e)
    # the closed form costs nothing at sizes no walk could reach
    assert rp2_euler_parity(16 * 10**18 + 2) == 0
    assert rp2_euler_parity(-(16 * 10**18 + 2)) == 0


def test_stong_formula():
    assert stong_t_formula(1, 9) == 1
    assert stong_t_formula(-7, 1) == 1
    assert stong_t_formula(0, 0) == 0
    with pytest.raises(NotDivisibleBy8):
        stong_t_formula(1, 2)


def test_abelian_euler_bound():
    genus1 = SurfaceModel([SurfaceComponent(0, 1, True)])
    assert abelian_euler_bound_check(genus1, 1).ok
    genus2 = SurfaceModel([SurfaceComponent(0, 2, True)])
    result = abelian_euler_bound_check(genus2, 0)
    assert not result.ok and result.chi == -2
    for k in range(1, 5):
        gk = SurfaceModel([SurfaceComponent(0, k, True)])
        assert abelian_euler_bound_check(gk, k).ok


def test_outcome_consistency():
    for name in ("torus_s3s1", "star_cp2_sphere", "tubed_sphere",
                 "klein_bottle_e0", "klein_bottle_e4", "rp2_r4_e2"):
        verdict = flowchart(load_example(name))
        if verdict.km == 1:
            assert verdict.outcome == NOT_REG_EMBED
        if verdict.b_char == "yes" and verdict.t == 1:
            assert verdict.outcome == NOT_REG_EMBED
        assert verdict.trace


def test_transfer_move_keeps_flowchart_outcome():
    inst = simple_instance(genus=1, points=(1, -1, 1, -1),
                           discs=(((0, 1), {0: 1}), ((2, 3), {0: 1})),
                           torus=(0,), spheres=((1, 1),))
    base = flowchart(inst).outcome
    new_points, new_coll = transfer_move(list(inst.points), inst.collection, 0, 1, identity=0)
    moved = replace(inst, points=tuple(new_points), collection=new_coll)
    assert flowchart(moved).outcome == base


def test_flowchart_two_torsion_primary_check():
    # ambient Z/2: two same-sign points with the nontrivial group element
    # cancel exactly because the orbit has order two
    group = cyclic_group(2)
    surface = SurfaceModel([SurfaceComponent(0, 1, False)])
    sub = subgroup_closure(group, [(0, -1)])
    inst = ProblemInstance(
        group=group, wM=trivial_character(group),
        components=(ComponentData(0, sub, False, False),),
        surface=surface,
        points=(DoublePoint(0, (0, 0), 1, 1), DoublePoint(1, (0, 0), 1, 1)),
        collection=WhitneyCollection((WhitneyDisc(0, (0, 1), {0: 0}),), {}, True),
        sphere_catalog=(), rp2_catalog=(),
        band_catalog=BandCatalog(surface, RelH2((), {}), ()),
        good_group=True, torus_summands=frozenset(),
    )
    verdict = flowchart(inst)
    assert verdict.trace[0].value == "yes"  # primary obstructions vanish
    assert verdict.outcome == NO_CONCLUSION  # b-characteristic, t=0, no duals
    assert verdict.b_char == "yes" and verdict.t == 0


def test_flowchart_totality_fuzz():
    # every consistently declared instance yields one of the four outcomes,
    # a nonempty trace, and km/t values consistent with the outcome
    rng = random.Random(71)
    outcomes = {REG_EMBED, NOT_REG_EMBED, NO_CONCLUSION}
    seen = set()
    for _ in range(150):
        group = cyclic_group(rng.choice((1, 2)))
        orientable = rng.random() < 0.5
        genus = rng.randrange(0, 3) if orientable else rng.randrange(1, 4)
        surface = SurfaceModel([SurfaceComponent(0, genus, orientable)])
        gens = [(rng.randrange(group.order), rng.choice((1, -1)))
                for _ in range(rng.randrange(2))]
        sub = subgroup_closure(group, gens)
        balanced = rng.random() < 0.8
        points, discs = [], []
        for d in range(rng.randrange(0, 3)):
            sign2 = -1 if balanced else 1
            points += [DoublePoint(2 * d, (0, 0), 1, 0),
                       DoublePoint(2 * d + 1, (0, 0), sign2, 0)]
            discs.append(WhitneyDisc(d, (2 * d, 2 * d + 1), {0: rng.randrange(3)}))
        # with (1,-1) in the subgroup the identity orbit has order two and
        # same-sign pairs cancel anyway
        if not balanced and not sub.contains_minus_one and points:
            expect_primary = "no"
        else:
            expect_primary = "yes"
        dim = surface.dim
        bands = []
        basis = []
        boundary_map = {}
        for i in range(rng.randrange(0, 3)):
            classes = []
            for _ in range(rng.randrange(0, 3)):
                c = tuple(rng.randrange(2) for _ in range(dim))
                if surface.w1_of(surface.mask(c)):
                    continue
                classes.append(c)
            name = f"c{i}"
            basis.append(name)
            total = tuple(0 for _ in range(dim))
            for c in classes:
                total = tuple(x ^ y for x, y in zip(total, c))
            boundary_map[name] = total
            rel_class = [0] * 3
            rel_class[i] = 1
            bands.append((name, classes, rel_class))
        rel = RelH2(tuple(basis), boundary_map)
        records = tuple(
            BandRecord(name, "surface", tuple(rel_class[: len(basis)]), tuple(classes),
                       tuple(0 for _ in classes), 0, rng.randrange(2), 0,
                       rng.randrange(2), rng.randrange(2))
            for name, classes, rel_class in bands
        )
        inst = ProblemInstance(
            group=group, wM=trivial_character(group),
            components=(ComponentData(0, sub, rng.random() < 0.7, rng.random() < 0.3),),
            surface=surface,
            points=tuple(points),
            collection=WhitneyCollection(tuple(discs), {}, True),
            sphere_catalog=(), rp2_catalog=(),
            band_catalog=BandCatalog(surface, rel, records),
            good_group=rng.random() < 0.8,
            torus_summands=frozenset([0] if rng.random() < 0.2 else []),
        )
        verdict = flowchart(inst)
        assert verdict.outcome in outcomes
        assert verdict.trace
        assert verdict.trace[0].value == expect_primary
        if verdict.km == 1:
            assert verdict.outcome == NOT_REG_EMBED
        if verdict.outcome == REG_EMBED:
            assert verdict.km == 0 and inst.good_group
        seen.add(verdict.outcome)

        # regular-homotopy moves never change the verdict
        eligible = [d for d in inst.collection.discs if sum(d.interior.values()) >= 1]
        if balanced and len(eligible) >= 2:
            pts2, coll2 = transfer_move(list(inst.points), inst.collection,
                                        eligible[0].id, eligible[1].id, identity=0)
            moved = replace(inst, points=tuple(pts2), collection=coll2)
            assert flowchart(moved).outcome == verdict.outcome
    assert seen == outcomes  # the fuzz actually explores all branches


def test_flowchart_normalizes_weak_collections():
    # a declared weak collection is converted before t is read off
    inst = simple_instance(genus=1, points=(1, -1), spheres=((1, 1),))
    weak = WhitneyCollection(
        (WhitneyDisc(0, (0, 1), {}, mu_boundary=0, euler=1),), {}, convenient=False)
    inst = replace(inst, collection=weak)
    assert engine._t_for_ft(inst, [0]) == 1
    verdict = flowchart(inst)
    assert verdict.t == 1 and verdict.outcome == NOT_REG_EMBED


WEAK_INSTANCE = Path(__file__).parent / "data" / "instances" / "weak_collection.json"


@pytest.mark.parametrize("mode", ["regular", "homotopy"])
@pytest.mark.parametrize("ft_points", [True, False], ids=["ft-points", "no-ft-points"])
def test_decide_checks_each_record_once(mode, ft_points, monkeypatch, tmp_path, capsys):
    """The reader's checks run once per instance: F^t is cut from the checked records.

    The weak collection is converted only when F^t has double points.
    """
    doc = json.loads(WEAK_INSTANCE.read_text())
    if not ft_points:  # F^t = [1], and no double point lies within it
        doc["components"][0]["dual_framed"] = True
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(doc))
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, staticmethod(counted) if name == "__new__" else counted)

    count(WhitneyCollection, "__new__")
    count(BandCatalog, "__post_init__")
    count(engine, "to_convenient")
    assert cli.main(["decide", str(path), "--mode", mode]) == 0
    assert json.loads(capsys.readouterr().out)["t"] == (1 if ft_points else 0)
    assert calls == Counter({"__new__": 1, "__post_init__": 1,
                             "to_convenient": 1 if ft_points else 0})


def test_surface_with_boundary_circles():
    comp = SurfaceComponent(0, 1, True, boundary_circles=2)
    assert comp.euler_characteristic() == -2
    surface = SurfaceModel([comp])
    assert surface.dim == 3  # a1, b1 and one boundary class
    assert surface.w1_of(0b100) == 0
    assert surface.form(0b100, 0b100) == 0  # boundary-parallel: inert
    assert surface.form(0b100, 0b011) == 0 and surface.form(0b001, 0b010) == 1


def test_theta_zero_band_move_keeps_flowchart_outcome():
    inst = load_example("torus_s3s1")
    band = inst.band_catalog.records[0]
    new_points, new_coll, delta = band_fibre_finger_move(
        list(inst.points), inst.collection, band, inst.surface, [0], identity=(0,))
    assert delta == 0
    moved = replace(inst, points=tuple(new_points), collection=new_coll)
    assert flowchart(moved).outcome == flowchart(inst).outcome


def _records_on_a_classes(surface, count):
    """Records with a-class boundaries only, so the boundary form vanishes on them."""
    a_vectors = [tuple(int(k == i) for k in range(surface.dim))
                 for i, (_, letter, _) in enumerate(paper_basis(surface.components)) if letter == "a"]
    names = [f"r{k}" for k in range(count)]
    rel = RelH2(tuple(names), {n: a_vectors[k % len(a_vectors)] for k, n in enumerate(names)})
    records = tuple(
        BandRecord(n, "surface", tuple(int(m == k) for m in range(count)),
                   (a_vectors[k % len(a_vectors)],), (0,), 0, 0, 0, 0, 0)
        for k, n in enumerate(names)
    )
    return rel, records


def _count_form_calls(monkeypatch) -> list:
    calls = []
    original = SurfaceModel.form
    monkeypatch.setattr(SurfaceModel, "form",
                        lambda self, x, y: calls.append((x, y)) or original(self, x, y))
    return calls


def test_flowchart_evaluates_boundary_form_once_per_record_and_basis_vector(monkeypatch):
    """Record i pairs with each vector of a basis of the span of records i, ..., R - 1 only."""
    count = 6
    base = simple_instance(genus=3)
    rel, records = _records_on_a_classes(base.surface, count)
    inst = replace(base, band_catalog=BandCatalog(base.surface, rel, records))
    calls = _count_form_calls(monkeypatch)
    verdict = flowchart(inst)
    assert verdict.b_char == "yes"
    assert len(calls) == sum(min(count - i, 3) for i in range(count))  # 15, not the 21 pairs


def _span_catalog(genus, count, rng, breaker=None):
    """``count`` surface records on a closed genus-``genus`` surface, boundaries sums of a_i.

    The first ``genus`` records bound a_1, ..., a_genus, the rest random sums of them, so the
    form vanishes on the records and their boundaries span rank ``genus``.  The record at index
    ``breaker`` also bounds b_1, which pairs with a_1 and raises the rank by one.
    """
    surface = SurfaceModel([SurfaceComponent(0, genus, True)])
    positions = [2 * i for i in range(genus)] + [1]  # of a_1, ..., a_genus, then b_1
    names = tuple(f"c{i}" for i in range(genus + 1))
    rel = RelH2(names, {n: tuple(int(m == p) for m in range(surface.dim))
                        for n, p in zip(names, positions)})
    records = []
    for k in range(count):
        cls = [int(m == k) if k < genus else rng.randrange(2) for m in range(genus)]
        cls.append(int(k == breaker))
        hit = {p for p, c in zip(positions, cls) if c}
        total = tuple(int(m in hit) for m in range(surface.dim))
        records.append(BandRecord(f"r{k}", "surface", tuple(cls), (total,), (0,), 0, 0, 0, 0, 0))
    return BandCatalog(surface, rel, tuple(records))


@pytest.mark.parametrize("count", [250, 500, 1000])
@pytest.mark.parametrize("broken", [False, True])
def test_boundary_form_calls_are_at_most_records_times_rank_plus_one(monkeypatch, count, broken):
    genus = 8
    breaker = count // 2 if broken else None
    catalog = _span_catalog(genus, count, random.Random(count), breaker)
    rank = genus + (breaker is not None)
    calls = _count_form_calls(monkeypatch)
    pair = _boundary_form_witness(catalog)
    assert len(calls) <= count * (rank + 1)
    assert (pair is None) == (not broken)
    if count == 250:
        monkeypatch.undo()
        assert pair == boundary_form_witness_pairs(catalog)


def test_flowchart_on_four_thousand_copies_of_one_record_is_fast():
    """The boundaries span rank 1, so the boundary-form check is linear in the records; the
    scan over all 8 002 000 record pairs took seconds."""
    base = simple_instance(genus=1)
    rel = RelH2(("x",), {"x": (1, 0)})
    records = tuple(BandRecord(f"r{k}", "surface", (1,), ((1, 0),), (0,), 0, 0, 0, 0, 0)
                    for k in range(4000))
    inst = replace(base, band_catalog=BandCatalog(base.surface, rel, records))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        verdict = flowchart(inst)
        best = min(best, time.perf_counter() - start)
    assert verdict.b_char == "yes"
    assert best < 0.1


def _two_component_instance(*, case2):
    group = cyclic_group(1)
    surface = SurfaceModel([SurfaceComponent(0, 2, False) if case2 else SurfaceComponent(0, 1, True),
                            SurfaceComponent(1, 0, True)])
    components = (
        ComponentData(0, subgroup_closure(group, [(0, -1)] if case2 else []), True, False),
        ComponentData(1, subgroup_closure(group, []), True, False),
    )
    points = tuple(DoublePoint(i, comps, sign, 0) for i, (comps, sign) in enumerate(
        [((0, 0), 1), ((0, 0), -1), ((0, 1), 1), ((0, 1), -1)]))
    collection = WhitneyCollection((WhitneyDisc(0, (0, 1), {}), WhitneyDisc(1, (2, 3), {})), {})
    return ProblemInstance(
        group=group, wM=trivial_character(group), components=components, surface=surface,
        points=points, collection=collection, sphere_catalog=(), rp2_catalog=(),
        band_catalog=BandCatalog(surface, RelH2((), {}), ()), good_group=True,
    )


@pytest.mark.parametrize("case2", [False, True])
def test_homotopy_analysis_builds_each_gamma_once(monkeypatch, case2):
    contexts = []
    original = engine.build_gamma

    def counting(ctx):
        contexts.append((id(ctx.s_f), id(ctx.s_g), ctx.self_pairing))
        return original(ctx)

    monkeypatch.setattr(engine, "build_gamma", counting)
    verdict = homotopy_analysis(_two_component_instance(case2=case2))
    assert verdict.outcome == (HOMOTOPIC_EMBED if case2 else REG_EMBED)
    assert len(contexts) == len(set(contexts)) == 3  # two self-pairings, one cross pairing
