"""The semantics of the package's records, whatever type implements them.

Validated records reject bad input with a fixed exception and message;
records are immutable; a self-pairing context uses its first subgroup
twice; a b-characteristic witness names its kind; and ``helpers.replace``
rebuilds through the constructor, so the checks run.
"""

import pytest

from helpers import (DoublePoint, EulerBoundResult, WhitneyDisc, cyclic_group, disc_collection,
                     point_columns, replace, trivial_character)
from surfemb4.bands import (
    BandCatalog,
    BandError,
    BandRecord,
    BCharResult,
    RelH2,
    SurfaceComponent,
    SurfaceModel,
)
from surfemb4.engine import ComponentData, EngineError, ProblemInstance
from surfemb4.gamma import GammaError, PairingContext
from surfemb4.groups import Character, GroupError, abelian_group, make_finite_group, subgroup_closure
from surfemb4.knots import CP2GenusVerdict, KnotError, SeifertMatrix
from surfemb4.whitney import WhitneyError

C2, C3 = cyclic_group(2), cyclic_group(3)
S2, S3 = subgroup_closure(C2, []), subgroup_closure(C3, [])
SURFACE = SurfaceModel([SurfaceComponent(0, 1, True)])
REL = RelH2(("x",), {"x": (0, 0)})
RECORD = BandRecord("r", "surface", (1,), ((0, 0),), (0,), 0, 0, 0, 0, 0)
BAD_CLASS = BandRecord("r", "surface", (1, 1), ((0, 0),), (0,), 0, 0, 0, 0, 0)
ANNULUS = dict(id="b", kind="annulus", rel_class=(1,), boundary_classes=((0, 0), (0, 0)),
               w1_sigma=(0, 0), w1m_core=0, mu_boundary=0, arc_count=0, interior=0, euler=0)


def _disc(did, pair, interior=None, **kw):
    return WhitneyDisc(did, pair, interior or {}, **kw)


def _collection(*discs, boundary=None, convenient=True):
    return disc_collection(discs, boundary, convenient)


def _points(*records, group=C2):
    return point_columns(records, group)


def _instance(**changes):
    fields = dict(
        group=C2, wM=trivial_character(C2), components=(ComponentData(0, S2, True, False),),
        points=_points(), collection=None, band_catalog=BandCatalog(SURFACE, REL, ()),
        good_group=True, torus_summands=frozenset())
    return ProblemInstance(**dict(fields, **changes))


POINTS = (DoublePoint(0, (0, 0), 1, 1), DoublePoint(1, (0, 0), -1, 1))
POINTS_23 = (DoublePoint(2, (0, 0), 1, 1), DoublePoint(3, (0, 0), -1, 1))

BAD_INPUT = {
    "surface-negative": (lambda: SurfaceComponent(0, -1, True), BandError,
                         "negative genus or boundary count"),
    "surface-crosscaps": (lambda: SurfaceComponent(0, 0, False), BandError,
                          "nonorientable components need cross-cap number >= 1"),
    "rel-duplicate": (lambda: RelH2(("x", "x"), {"x": ()}), BandError, "duplicate RelH2 basis names"),
    "rel-boundary": (lambda: RelH2(("x",), {}), BandError,
                     "boundary map must be defined exactly on the basis"),
    "record-kind": (lambda: BandRecord(**dict(ANNULUS, kind="disc")), BandError,
                    "unknown band kind 'disc'"),
    "record-parity": (lambda: BandRecord(**dict(ANNULUS, mu_boundary=2)), BandError,
                      "parity fields must be 0 or 1 on band 'b'"),
    "record-w1": (lambda: BandRecord(**dict(ANNULUS, w1_sigma=(0,))), BandError,
                  "band 'b': one w1 value per boundary circle"),
    "record-annulus": (lambda: BandRecord(**dict(ANNULUS, boundary_classes=((0, 0),), w1_sigma=(0,))),
                       BandError, "annulus 'b' needs exactly two boundary circles"),
    "record-mobius": (lambda: BandRecord(**dict(ANNULUS, kind="mobius")), BandError,
                      "mobius band 'b' needs exactly one boundary circle"),
    "catalog-duplicate": (lambda: BandCatalog(SURFACE, REL, (RECORD, RECORD)), BandError,
                          "duplicate band ids"),
    "catalog-class": (lambda: BandCatalog(SURFACE, REL, (BAD_CLASS,)),
                      BandError, "bad RelH2 vector (1, 1)"),
    "collection-ids": (lambda: _collection(_disc(0, (0, 1)), _disc(0, (2, 3))),
                       WhitneyError, "duplicate disc ids"),
    "collection-self": (lambda: _collection(_disc(0, (4, 4))),
                        WhitneyError, "disc 0 pairs a point with itself"),
    "collection-paired": (lambda: _collection(_disc(0, (0, 1)), _disc(1, (1, 2))),
                          WhitneyError, "a double point is paired by more than one disc"),
    "collection-negative": (lambda: _collection(_disc(0, (0, 1), {0: -1})),
                            WhitneyError, "negative count on disc 0"),
    "collection-pair": (lambda: _collection(_disc(0, (0, 1)), boundary={frozenset((0, 9)): 1},
                                            convenient=False),
                        WhitneyError, "bad boundary pair {0, 9}"),
    "collection-count": (lambda: _collection(_disc(0, (0, 1)), _disc(1, (2, 3)),
                                             boundary={frozenset((0, 1)): -1}, convenient=False),
                         WhitneyError, "negative boundary count"),
    "collection-twisted": (lambda: _collection(_disc(0, (0, 1)), _disc(1, (2, 3), euler=1)),
                           WhitneyError, "disc 1 is twisted or has boundary self-intersections"),
    "collection-boundaries": (lambda: _collection(_disc(0, (0, 1)), _disc(1, (2, 3)),
                                                  boundary={frozenset((0, 1)): 1}),
                              WhitneyError, "convenient collections have disjoint boundaries"),
    "instance-ids": (lambda: _instance(components=(ComponentData(0, S2, True, False),) * 2),
                     EngineError, "duplicate component ids"),
    "instance-surface": (lambda: _instance(components=()), EngineError,
                         "immersion components [] != surface components [0]"),
    "instance-point": (lambda: _instance(points=_points(DoublePoint(0, (0, 5), 1, 1))),
                       EngineError, "double point 0 references unknown components"),
    "instance-point-ids": (lambda: _instance(points=_points(*POINTS, DoublePoint(0, (0, 0), 1, 1))),
                           EngineError, "duplicate double-point ids"),
    "instance-point-group": (lambda: _instance(points=_points(*POINTS, group=cyclic_group(2))),
                             EngineError, "double points not over the instance's group"),
    "instance-torus": (lambda: _instance(torus_summands=frozenset({3})), EngineError,
                       "torus_summand flag references unknown components"),
    "instance-disc-points": (lambda: _instance(collection=_collection(_disc(0, (0, 1)))),
                             EngineError, "Whitney collection references unknown double points"),
    "instance-disc-components": (lambda: _instance(points=_points(*POINTS, *POINTS_23), collection=_collection(
                                     _disc(0, (0, 1), {0: 1}), _disc(1, (2, 3), {7: 1}))),
                                 EngineError, "Whitney disc 1 meets unknown components"),
    "context-character": (lambda: PairingContext(C2, trivial_character(C3), S2, S2), GammaError,
                          "character not over the ambient group"),
    "context-subgroup": (lambda: PairingContext(C2, trivial_character(C2), S2, S3),
                         GammaError, "subgroup not over the ambient group"),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_validated_records_reject_bad_input(case):
    build, error, message = BAD_INPUT[case]
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


# Each builds a valid record when ``one`` is the integer 1; ``one`` stands in
# for it in one integer field.
NEEDS_INT = {
    "surface-genus": (lambda one: SurfaceComponent(0, one, True), BandError),
    "surface-boundary": (lambda one: SurfaceComponent(0, 1, True, one), BandError),
    "seifert": (lambda one: SeifertMatrix([[-1, one], [0, -1]]), KnotError),
    "abelian-factors": (lambda one: abelian_group([2, one]), GroupError),
    "character-finite": (lambda one: Character(C2, [1, one]), GroupError),
    "character-abelian": (lambda one: Character(abelian_group([2]), [one]), GroupError),
    "finite-table": (lambda one: make_finite_group([[0, one], [one, 0]]), GroupError),
    "disc-interior": (lambda one: _collection(_disc(0, (0, 1), {0: one})), WhitneyError),
    "disc-mu": (lambda one: _collection(_disc(0, (0, 1), mu_boundary=one), convenient=False),
                WhitneyError),
    "disc-euler": (lambda one: _collection(_disc(0, (0, 1), euler=one), convenient=False),
                   WhitneyError),
    "boundary-count": (lambda one: _collection(_disc(0, (0, 1)), _disc(1, (2, 3)),
                                               boundary={frozenset((0, 1)): one}, convenient=False),
                       WhitneyError),
    "band-parity": (lambda one: BandRecord(**dict(ANNULUS, interior=one)), BandError),
}


@pytest.mark.parametrize("value", [True, 1.0, 1.5, "1", None])
@pytest.mark.parametrize("case", NEEDS_INT)
def test_constructors_require_exact_integers(case, value):
    build, error = NEEDS_INT[case]
    build(1)
    with pytest.raises(error):
        build(value)


def test_valid_instance_builds():
    inst = _instance(points=_points(*POINTS), collection=_collection(_disc(0, (0, 1), {0: 1})))
    assert inst.components[0].subgroup is S2 and inst.torus_summands == frozenset()


FROZEN = {
    "WhitneyCollection": (lambda: _collection(), "convenient"),
    "SurfaceComponent": (lambda: SurfaceComponent(0, 1, True), "genus"),
    "RelH2": (lambda: REL, "basis"),
    "BandRecord": (lambda: RECORD, "kind"),
    "BandCatalog": (lambda: BandCatalog(SURFACE, REL, ()), "records"),
    "BCharResult": (lambda: BCharResult(True), "yes"),
    "ComponentData": (lambda: ComponentData(0, S2, True, False), "has_alg_dual"),
    "EulerBoundResult": (lambda: EulerBoundResult(True, 0, -2), "ok"),
    "PairingContext": (lambda: PairingContext(C2, trivial_character(C2), S2, S2), "self_pairing"),
    "SignedSubgroup": (lambda: S2, "generators"),
    "CP2GenusVerdict": (lambda: CP2GenusVerdict(0, 1, 0), "exact"),
}


@pytest.mark.parametrize("record", FROZEN)
@pytest.mark.parametrize("attr", ["field", "new"])
def test_records_are_immutable(record, attr):
    build, field = FROZEN[record]
    obj = build()
    with pytest.raises(AttributeError):
        setattr(obj, field if attr == "field" else "extra", None)


def test_self_pairing_uses_the_first_subgroup_twice():
    other = subgroup_closure(C2, [(1, 1)])
    ctx = PairingContext(C2, trivial_character(C2), S2, other, self_pairing=True)
    assert ctx.s_g is S2 and ctx.s_f is S2
    assert PairingContext(C2, trivial_character(C2), S2, other).s_g is other


def test_b_characteristic_witness_names_its_kind():
    assert BCharResult(False, ("a", "b")).form_nonzero
    assert not BCharResult(False, "a").form_nonzero and not BCharResult(True).form_nonzero


def test_replace_helper_runs_the_checks():
    assert replace(SurfaceComponent(0, 1, True), genus=2) == SurfaceComponent(0, 2, True)
    with pytest.raises(BandError, match="negative genus"):
        replace(SurfaceComponent(0, 1, True), genus=-1)
    with pytest.raises(BandError, match="duplicate band ids"):
        replace(BandCatalog(SURFACE, REL, (RECORD,)), records=(RECORD, RECORD))
    with pytest.raises(EngineError, match="duplicate component ids"):
        replace(_instance(), components=(ComponentData(0, S2, True, False),) * 2)
    other = subgroup_closure(C2, [(1, 1)])
    ctx = PairingContext(C2, trivial_character(C2), S2, other)
    assert replace(ctx, self_pairing=True).s_g is S2
