import random
from collections import Counter
from operator import add, neg, sub

import pytest
from hypothesis import event, given, settings, strategies as st

from surfemb4 import schema
from surfemb4.engine import flowchart, homotopy_analysis
from surfemb4.gamma import (
    GammaElement,
    GammaError,
    PairingContext,
    build_gamma,
    coefficient_at,
    smith_oracle,
)
from surfemb4.groups import Character, abelian_group, subgroup_closure
from surfemb4.intlinalg import HermiteLattice

from helpers import (
    EnumeratedFiniteGamma,
    TwoLatticeGamma,
    all_characters,
    all_groups_up_to_8,
    classified_batches,
    cyclic_and_dihedral_groups_16_to_256,
    cyclic_group,
    dihedral,
    direct_product,
    gamma_sum,
    mu1_home,
    orbit_counts,
    quaternion8,
    random_abelian_context,
    random_abelian_element,
    random_character,
    random_points_doc,
    random_signed_subgroup,
    reduce_list_per_point,
    reduce_pairs,
    signed_closure,
    symmetric3,
    trivial_character,
)


def _ctx(group, wM=None, gens_f=(), gens_g=(), self_pairing=False):
    wM = wM if wM is not None else trivial_character(group)
    s_f = subgroup_closure(group, gens_f)
    s_g = s_f if self_pairing else subgroup_closure(group, gens_g)
    return PairingContext(group, wM, s_f, s_g, self_pairing=self_pairing)


def test_trivial_group_gives_z():
    ctx = _ctx(cyclic_group(1))
    gamma = build_gamma(ctx)
    assert orbit_counts(gamma) == (1, 0)
    assert smith_oracle(ctx) == (1, [])


def test_z2_with_nontrivial_wm_self_pairing():
    g = cyclic_group(2)
    ctx = _ctx(g, Character(g, [1, -1]), self_pairing=True)
    gamma = build_gamma(ctx)
    assert orbit_counts(gamma) == (1, 1)
    assert gamma.orbit_of(1).order_two
    assert not gamma.orbit_of(0).order_two
    assert smith_oracle(ctx) == (1, [2])


def test_minus_one_in_subgroup_makes_everything_two_torsion():
    g = cyclic_group(2)
    ctx = _ctx(g, gens_f=[(0, -1)], self_pairing=True)
    gamma = build_gamma(ctx)
    assert orbit_counts(gamma)[0] == 0
    assert all(o.order_two for o in gamma.orbits())
    rank, torsion = smith_oracle(ctx)
    assert rank == 0 and set(torsion) == {2}


def test_reduce_cancelling_pair():
    gamma = build_gamma(_ctx(cyclic_group(1)))
    assert reduce_pairs([(1, 0), (-1, 0)], gamma).is_zero()


def test_reduce_two_torsion_coefficient():
    g = cyclic_group(2)
    ctx = _ctx(g, Character(g, [1, -1]), self_pairing=True)
    gamma = build_gamma(ctx)
    elem = reduce_pairs([(1, 1)], gamma)
    assert coefficient_at(elem, 1) == 1
    assert gamma.orbit_of(1).order_two


def test_reduce_double_point_pair_on_two_orbit():
    g = cyclic_group(1)
    ctx = _ctx(g, gens_f=[(0, -1)], self_pairing=True)
    gamma = build_gamma(ctx)
    assert reduce_pairs([(1, 0), (1, 0)], gamma).is_zero()


def test_coefficient_sign_convention():
    # subgroup <((2),-1)> of Z flips the section sign along the orbit
    g = abelian_group([0])
    s = subgroup_closure(g, [((2,), -1)])
    ctx = PairingContext(g, trivial_character(g), s, s, self_pairing=False)
    gamma = build_gamma(ctx)
    elem = reduce_pairs([(1, (0,)), (1, (0,))], gamma)
    assert coefficient_at(elem, (0,)) == 2
    assert coefficient_at(elem, (2,)) == -2
    assert coefficient_at(elem, (4,)) == 2


def test_coefficient_zero_everywhere_for_zero_element():
    gamma = build_gamma(_ctx(cyclic_group(4)))
    zero = reduce_pairs([], gamma)
    for g in range(4):
        assert coefficient_at(zero, g) == 0


def test_mu1_home_cases():
    g = cyclic_group(2)
    assert mu1_home(_ctx(g, self_pairing=True)) == "Z"
    assert mu1_home(_ctx(g, gens_f=[(0, -1)], self_pairing=True)) == "Z/2"
    assert mu1_home(_ctx(g, Character(g, [1, -1]), gens_f=[(1, 1)], self_pairing=True)) == "Z/2"
    with pytest.raises(GammaError):
        mu1_home(_ctx(g))


def test_smith_oracle_requires_finite_group():
    """It enumerates a table group, so it refuses every abelian ambient, a finite one too."""
    for factors in [0], [4, 8]:
        g = abelian_group(factors)
        s = subgroup_closure(g, [])
        refusal = "^the Smith oracle enumerates a table group; it refuses an abelian ambient$"
        with pytest.raises(GammaError, match=refusal):
            smith_oracle(PairingContext(g, trivial_character(g), s, s))


def test_orbits_of_an_abelian_ambient_are_refused():
    """Only a table group's orbits are listed, so a finite abelian ambient's are refused too."""
    for factors in [0, 2], [4, 8]:
        gamma = build_gamma(_ctx(abelian_group(factors), gens_f=[((1, 0), 1)], self_pairing=True))
        with pytest.raises(GammaError, match="listed for a table group only; an abelian ambient is classified"):
            gamma.orbits()


def test_oracle_equivalence_sample():
    rng = random.Random(11)
    for name, g in all_groups_up_to_8()[:8]:
        chars = all_characters(g)
        for _ in range(10):
            wM = rng.choice(chars)
            s_f = random_signed_subgroup(g, rng)
            s_g = random_signed_subgroup(g, rng)
            ctx = PairingContext(g, wM, s_f, s_g)
            gamma = build_gamma(ctx)
            rank, torsion = smith_oracle(ctx)
            assert set(torsion) <= {2}, name
            assert orbit_counts(gamma) == (rank, len(torsion)), name


def test_oracle_equivalence_self_pairing_sample():
    rng = random.Random(909)
    for name, g in all_groups_up_to_8():
        wM = rng.choice(all_characters(g))
        for _ in range(15):
            s = random_signed_subgroup(g, rng)
            ctx = PairingContext(g, wM, s, s, self_pairing=True)
            gamma = build_gamma(ctx)
            rank, torsion = smith_oracle(ctx)
            assert set(torsion) <= {2}, name
            assert orbit_counts(gamma) == (rank, len(torsion)), name


def _products_and_dihedral_groups_up_to_64():
    c = {n: cyclic_group(n) for n in (2, 3, 4, 8)}
    return [(f"D{m}", dihedral(m)) for m in (5, 6, 9, 16, 32)] + [
        ("C4xC8", direct_product(c[4], c[8])),
        ("C8xC8", direct_product(c[8], c[8])),
        ("C2xC2xC2xC2xC4", direct_product(direct_product(direct_product(c[2], c[2]),
                                                         direct_product(c[2], c[2])), c[4])),
        ("S3xC8", direct_product(symmetric3(), c[8])),
        ("Q8xC8", direct_product(quaternion8(), c[8])),
        ("C2xD16", direct_product(c[2], dihedral(16))),
        ("D6xC3", direct_product(dihedral(6), c[3])),
    ]


def test_oracle_equivalence_on_products_and_dihedral_groups_up_to_64():
    rng = random.Random(64)
    for name, g in _products_and_dihedral_groups_up_to_64():
        assert g.order <= 64, name
        for _ in range(6):
            wM = random_character(g, rng)
            s_f = random_signed_subgroup(g, rng)
            self_pairing = rng.random() < 0.5
            s_g = s_f if self_pairing else random_signed_subgroup(g, rng)
            ctx = PairingContext(g, wM, s_f, s_g, self_pairing=self_pairing)
            gamma = build_gamma(ctx)
            rank, torsion = smith_oracle(ctx)
            assert set(torsion) <= {2}, name
            assert orbit_counts(gamma) == (rank, len(torsion)), name
            # each orbit is represented by its least element
            least = {}
            for e in g.elements():
                least.setdefault(gamma.orbit_of(e), e)
            assert all(orbit.rep == e for orbit, e in least.items()), name


def _assert_tables_match_the_enumeration(ctx, rng):
    """The whole table (rep, order two, section sign) and the orbit list agree with the
    enumeration of every signed element, whichever elements are queried first."""
    gamma, ref = build_gamma(ctx), EnumeratedFiniteGamma(ctx)
    elems = list(ctx.ambient.elements())
    first = rng.sample(elems, rng.randrange(len(elems) + 1))
    assert {e: gamma.classify(e) for e in first} == {e: ref._table[e] for e in first}
    assert {e: gamma.classify(e) for e in elems} == ref._table
    assert gamma.orbits() == ref._orbits


@pytest.mark.parametrize("self_pairing", [False, True])
def test_finite_tables_match_the_enumeration_on_groups_up_to_8(self_pairing):
    rng = random.Random(808 + self_pairing)
    for name, g in all_groups_up_to_8():
        for wM in all_characters(g):
            for _ in range(4):
                s_f = random_signed_subgroup(g, rng)
                s_g = s_f if self_pairing else random_signed_subgroup(g, rng)
                _assert_tables_match_the_enumeration(
                    PairingContext(g, wM, s_f, s_g, self_pairing=self_pairing), rng)


def test_finite_tables_match_the_enumeration_on_products_and_dihedral_groups():
    rng = random.Random(6464)
    for name, g in _products_and_dihedral_groups_up_to_64() + cyclic_and_dihedral_groups_16_to_256():
        for self_pairing in (False, True):
            for _ in range(3):
                s_f = random_signed_subgroup(g, rng)
                s_g = s_f if self_pairing else random_signed_subgroup(g, rng)
                _assert_tables_match_the_enumeration(
                    PairingContext(g, random_character(g, rng), s_f, s_g, self_pairing), rng)


def test_finite_targets_classify_only_the_orbits_queried():
    rng = random.Random(99)
    for name, g in _products_and_dihedral_groups_up_to_64():
        for self_pairing in (False, True):
            s_f = random_signed_subgroup(g, rng)
            s_g = s_f if self_pairing else random_signed_subgroup(g, rng)
            ctx = PairingContext(g, random_character(g, rng), s_f, s_g, self_pairing)
            gamma, ref = build_gamma(ctx), EnumeratedFiniteGamma(ctx)
            assert gamma._table == {}, name
            entries = [(rng.choice((1, -1)), rng.randrange(g.order)) for _ in range(3)]
            reduce_pairs(entries, gamma)
            queried = {ref._table[e][0] for _, e in entries}
            assert set(gamma._table) == {e for e in g.elements() if ref._table[e][0] in queried}


def test_finger_move_invariance():
    rng = random.Random(3)
    for name, g in all_groups_up_to_8():
        wM = rng.choice(all_characters(g))
        ctx = PairingContext(g, wM, random_signed_subgroup(g, rng),
                             random_signed_subgroup(g, rng))
        gamma = build_gamma(ctx)
        entries = [(rng.choice((1, -1)), rng.randrange(g.order)) for _ in range(6)]
        base = reduce_pairs(entries, gamma)
        extra = rng.randrange(g.order)
        assert reduce_pairs(entries + [(1, extra), (-1, extra)], gamma) == base, name


def test_reduce_additive():
    rng = random.Random(5)
    g = all_groups_up_to_8()[13][1]  # Q8
    ctx = PairingContext(g, trivial_character(g), random_signed_subgroup(g, rng),
                         random_signed_subgroup(g, rng))
    gamma = build_gamma(ctx)
    for _ in range(50):
        l1 = [(rng.choice((1, -1)), rng.randrange(8)) for _ in range(4)]
        l2 = [(rng.choice((1, -1)), rng.randrange(8)) for _ in range(4)]
        assert reduce_pairs(l1 + l2, gamma) == gamma_sum(reduce_pairs(l1, gamma), reduce_pairs(l2, gamma))


def test_abelian_backend_matches_finite_backend():
    # encode Z/n both ways and compare the whole orbit decomposition
    rng = random.Random(23)
    for n in (1, 2, 3, 4, 6):
        table_group = cyclic_group(n)
        lattice_group = abelian_group([n])
        for _ in range(20):
            gens_idx = [(rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randrange(3))]
            wm_vals_full = rng.choice(all_characters(table_group)).values
            wm_table = Character(table_group, wm_vals_full)
            wm_lattice = Character(lattice_group, [wm_vals_full[1 % n]])
            self_pairing = rng.random() < 0.5
            sf_t = subgroup_closure(table_group, gens_idx)
            sg_t = sf_t if self_pairing else subgroup_closure(table_group, [])
            ctx_t = PairingContext(table_group, wm_table, sf_t, sg_t, self_pairing)
            gamma_t = build_gamma(ctx_t)

            sf_l = subgroup_closure(lattice_group, [((a,), s) for a, s in gens_idx])
            sg_l = sf_l if self_pairing else subgroup_closure(lattice_group, [])
            ctx_l = PairingContext(lattice_group, wm_lattice, sf_l, sg_l, self_pairing)
            gamma_l = build_gamma(ctx_l)

            tags_t = sorted(o.order_two for o in gamma_t.orbits())
            orbits_l = {gamma_l.orbit_of((e,)) for e in range(n)}
            tags_l = sorted(o.order_two for o in orbits_l)
            assert tags_t == tags_l, (n, gens_idx, wm_vals_full, self_pairing)


def test_backends_agree_on_coefficients_multifactor():
    # C2 x C4 encoded as a table and as invariant factors [2, 4]; random
    # contexts must give matching orbit tags and coefficient functions
    from helpers import direct_product

    rng = random.Random(37)
    table_group = direct_product(cyclic_group(2), cyclic_group(4))
    lattice_group = abelian_group([2, 4])

    def to_tuple(idx):
        return (idx // 4, idx % 4)

    def to_idx(t):
        return t[0] * 4 + t[1]

    for _ in range(40):
        gens_idx = [(rng.randrange(8), rng.choice((1, -1))) for _ in range(rng.randrange(3))]
        chars = all_characters(table_group)
        wm_t = rng.choice(chars)
        wm_l = Character(lattice_group, [wm_t(to_idx((1, 0))), wm_t(to_idx((0, 1)))])
        self_pairing = rng.random() < 0.5
        sf_t = subgroup_closure(table_group, gens_idx)
        sg_gens = [] if self_pairing else [(rng.randrange(8), rng.choice((1, -1)))]
        sg_t = sf_t if self_pairing else subgroup_closure(table_group, sg_gens)
        ctx_t = PairingContext(table_group, wm_t, sf_t, sg_t, self_pairing)
        gamma_t = build_gamma(ctx_t)

        sf_l = subgroup_closure(lattice_group, [(to_tuple(a), s) for a, s in gens_idx])
        sg_l = sf_l if self_pairing else subgroup_closure(
            lattice_group, [(to_tuple(a), s) for a, s in sg_gens])
        ctx_l = PairingContext(lattice_group, wm_l, sf_l, sg_l, self_pairing)
        gamma_l = build_gamma(ctx_l)

        for idx in range(8):
            assert gamma_t.orbit_of(idx).order_two == gamma_l.orbit_of(to_tuple(idx)).order_two

        entries_idx = [(rng.choice((1, -1)), rng.randrange(8)) for _ in range(6)]
        elem_t = reduce_pairs(entries_idx, gamma_t)
        elem_l = reduce_pairs([(s, to_tuple(a)) for s, a in entries_idx], gamma_l)
        for idx in range(8):
            assert coefficient_at(elem_t, idx) == coefficient_at(elem_l, to_tuple(idx)), (gens_idx, idx)


def test_mu1_home_agrees_with_identity_tag_sweep():
    # the subgroup criterion against the order tag of the identity orbit
    rng = random.Random(17)
    for name, g in all_groups_up_to_8():
        for wM in all_characters(g):
            for _ in range(5):
                s = random_signed_subgroup(g, rng)
                ctx = PairingContext(g, wM, s, s, self_pairing=True)
                home = mu1_home(ctx)
                assert (home == "Z/2") == build_gamma(ctx).orbit_of(g.identity).order_two, name


@pytest.mark.parametrize("self_pairing", [False, True])
def test_abelian_orbits_and_signs_match_two_lattice_reference(self_pairing):
    rng = random.Random(2201 + self_pairing)
    twisted = two_torsion = 0
    for _ in range(400):
        ctx = random_abelian_context(rng, self_pairing)
        gamma, ref = build_gamma(ctx), TwoLatticeGamma(ctx)
        elems = [random_abelian_element(ctx.ambient, rng) for _ in range(8)]
        for e in elems:
            orbit = gamma.orbit_of(e)
            assert orbit == ref.orbit_of(e), (ctx, e)
            if orbit.order_two:
                two_torsion += 1
                with pytest.raises(GammaError):
                    gamma.section_sign(e)
            else:
                assert gamma.section_sign(e) == ref.section_sign(e), (ctx, e)
        entries = [(rng.choice((1, -1)), rng.choice(elems)) for _ in range(10)]
        elem = reduce_pairs(entries, gamma)
        assert elem.coeffs == ref.reduce(entries), (ctx, entries)
        for e in elems:
            order = "Z/2" if gamma.orbit_of(e).order_two else "Z"
            assert (coefficient_at(elem, e), order) == ref.coefficient_at(ref.reduce(entries), e)
        twisted += any(v == -1 for v in ctx.wM.values)
    # the draw reaches twisted characters and both orbit orders
    assert twisted > 100 and two_torsion > 100


def test_abelian_queries_reduce_at_most_twice_per_distinct_element(monkeypatch):
    """Counts the vectors that go through ``HermiteLattice.reduce_all``, singly or in a batch."""
    vectors = [0]
    reduce_all = HermiteLattice.reduce_all

    def counted(self, vecs):
        vectors[0] += len(vecs)
        return reduce_all(self, vecs)

    monkeypatch.setattr(HermiteLattice, "reduce_all", counted)
    rng = random.Random(3001)
    for trial in range(200):
        ctx = random_abelian_context(rng, self_pairing=trial % 2 == 1)
        per_element = 2 if ctx.self_pairing else 1
        gamma = build_gamma(ctx)
        seen = set()
        for _ in range(12):
            e = random_abelian_element(ctx.ambient, rng)
            before = vectors[0]
            orbit = gamma.orbit_of(e)
            if not orbit.order_two:
                gamma.section_sign(e)
            coefficient_at(reduce_pairs([(1, e), (-1, e)], gamma), e)
            spent = vectors[0] - before
            canon = ctx.ambient.check_elems([e])[0]
            assert spent <= (0 if canon in seen else per_element), (ctx, e)
            seen.add(canon)
        batch = [random_abelian_element(ctx.ambient, rng) for _ in range(8)]
        batch += batch[:4] + list(seen)[:3]
        new = set(ctx.ambient.check_elems(batch)) - seen
        before = vectors[0]
        reduce_pairs([(rng.choice((1, -1)), e) for e in batch], gamma)
        assert vectors[0] - before <= per_element * len(new), (ctx, batch)


@st.composite
def _abelian_lists(draw):
    """A random abelian context and a list of (sign, element) pairs over a few distinct
    elements, written as tuples or lists and shifted off their canonical form."""
    self_pairing = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ctx = random_abelian_context(rng, self_pairing)
    G = ctx.ambient
    if draw(st.integers(0, 3)) == 0:  # (1, -1) in the first subgroup: every orbit has order two
        s_f = subgroup_closure(G, ctx.s_f.generators + ((G.identity, -1),))
        ctx = PairingContext(G, ctx.wM, s_f, s_f if self_pairing else ctx.s_g, self_pairing)
    pool = [random_abelian_element(G, rng) for _ in range(draw(st.integers(1, 6)))]
    entries = []
    for _ in range(draw(st.integers(0, 30))):
        base = draw(st.sampled_from(pool))
        shifts = draw(st.lists(st.integers(-3, 3), min_size=G.rank, max_size=G.rank))
        elem = [x + k * f for x, k, f in zip(base, shifts, G.factors)]
        entries.append((draw(st.sampled_from((1, -1))), draw(st.sampled_from((tuple, list)))(elem)))
    return ctx, entries


@settings(max_examples=200)
@given(_abelian_lists())
def test_reduce_list_matches_the_point_by_point_reference(drawn):
    ctx, entries = drawn
    got = reduce_pairs(entries, build_gamma(ctx))
    want = reduce_list_per_point(entries, build_gamma(ctx))
    assert got.coeffs == want.coeffs  # as GammaElement.__eq__ compares: not in insertion order
    assert got.coeffs == TwoLatticeGamma(ctx).reduce(entries)
    for orbit in got.coeffs:
        event("order-two orbit" if orbit.order_two else "infinite orbit")
    event("repeated element" if len(set(ctx.ambient.check_elems([e for _, e in entries]))) < len(entries)
          else "no repeat")


@pytest.mark.parametrize("entries", [
    [(1, (0, 1)), (2, (0, 1))],
    [(1, (0, 1)), (1, (0, True)), (0, (0, 0))],
    [(1, (5, 3)), (-1, [1]), (1, "x")],
    [(True, (0, 1)), (-1, (0, 1.0))],
    [(1, (0, 1)), ([1], (0, 1))],
])
def test_reduce_list_reports_the_first_bad_entry_as_a_walk_would(entries):
    ctx = _ctx(abelian_group([0, 2]), gens_f=[((1, 0), 1)], self_pairing=True)
    with pytest.raises(ValueError) as got:
        reduce_pairs(entries, build_gamma(ctx))
    with pytest.raises(ValueError) as want:
        reduce_list_per_point(entries, build_gamma(ctx))
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


# -- only live elements are classified ------------------------------------------


def _orbit_mates(ctx, e):
    """Elements one subgroup move (or, with self-pairing, one inversion) from canonical ``e``."""
    G = ctx.ambient
    if G.kind == "finite":
        mates = [G.mul(a, e) for a, _ in signed_closure(G, ctx.s_f.generators)]
        mates += [G.mul(e, b) for b, _ in signed_closure(G, ctx.s_g.generators)]
        return mates + [G.inv(e)] * ctx.self_pairing
    vecs = [g for g, _ in ctx.s_f.generators + ctx.s_g.generators]
    mates = [tuple(map(add, e, g)) for g in vecs] + [tuple(map(sub, e, g)) for g in vecs]
    return mates + [tuple(map(neg, e))] * ctx.self_pairing or [e]


@st.composite
def _planted_lists(draw):
    """A context on either backend, sometimes with (1, -1) in its first subgroup, and a shuffled
    list of (sign, element) pairs: a few elements whose points cancel (+- or ++--), live points
    in the orbits of those elements, and a few other live points."""
    self_pairing = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        G = rng.choice(all_groups_up_to_8())[1]
        s_f = random_signed_subgroup(G, rng)
        s_g = s_f if self_pairing else random_signed_subgroup(G, rng)
        ctx = PairingContext(G, random_character(G, rng), s_f, s_g, self_pairing)
    else:
        ctx = random_abelian_context(rng, self_pairing)
        G = ctx.ambient
    if draw(st.integers(0, 3)) == 0:  # (1, -1) in the first subgroup: every orbit has order two
        s_f = subgroup_closure(G, ctx.s_f.generators + ((G.identity, -1),))
        ctx = PairingContext(G, ctx.wM, s_f, s_f if self_pairing else ctx.s_g, self_pairing)

    def elem():
        return rng.randrange(G.order) if G.kind == "finite" else random_abelian_element(G, rng)

    entries = []
    for _ in range(draw(st.integers(1, 5))):
        e = G.check_elems([elem()])[0]
        k = draw(st.sampled_from((1, 2)))
        entries += [(1, e)] * k + [(-1, e)] * k
        entries += [(rng.choice((1, -1)), rng.choice(_orbit_mates(ctx, e)))
                    for _ in range(draw(st.integers(0, 2)))]
    entries += [(rng.choice((1, -1)), elem()) for _ in range(draw(st.integers(0, 4)))]
    rng.shuffle(entries)
    return ctx, entries


@settings(max_examples=300)
@given(_planted_lists())
def test_reduce_classifies_only_the_live_elements(drawn):
    """Equal to the point-by-point reduction, and only elements whose points do not cancel are
    classified: exactly those on an abelian ambient, their whole orbits on a finite one."""
    ctx, entries = drawn
    G = ctx.ambient
    signs = [sign for sign, _ in entries]
    canon = G.check_elems([e for _, e in entries])
    gamma = build_gamma(ctx)
    got = reduce_pairs(entries, gamma)
    want = reduce_list_per_point(entries, build_gamma(ctx))
    assert got.coeffs == want.coeffs
    net = Counter()
    for sign, e in zip(signs, canon):
        net[e] += sign
    live = {e for e, v in net.items() if v}
    if G.kind == "finite":
        table = EnumeratedFiniteGamma(ctx)._table
        orbits = {table[e][0] for e in live}
        live = {g for g in G.elements() if table[g][0] in orbits}
    assert set(gamma._table) == live
    event(f"{G.kind}, {sum(1 for v in net.values() if not v)} cancelling")


@settings(max_examples=200)
@given(_planted_lists(), st.data())
def test_gamma_elements_hold_no_zero_coefficient(drawn, data):
    """``reduce_list`` keeps no zero coefficient, on both backends, so the tuple's own equality
    compares elements: a list's reduction is the sum of its two parts' (``helpers.gamma_sum``),
    and a list plus its negation is the zero element, ``{}``."""
    ctx, entries = drawn
    gamma = build_gamma(ctx)
    k = data.draw(st.integers(0, len(entries)))
    head, tail = reduce_pairs(entries[:k], gamma), reduce_pairs(entries[k:], gamma)
    whole = reduce_pairs(entries, gamma)
    negated = reduce_pairs([(-sign, e) for sign, e in entries], gamma)
    zero = gamma_sum(whole, negated)
    for elem in (head, tail, whole, negated, gamma_sum(head, tail), zero):
        assert 0 not in elem.coeffs.values()
    assert gamma_sum(head, tail) == whole and gamma_sum(tail, head) == whole
    assert zero == GammaElement(gamma, {}) and zero.is_zero()
    event(f"{ctx.ambient.kind}, {'zero' if whole.is_zero() else 'nonzero'}")


def test_a_cancelling_element_is_not_classified_and_the_coefficients_keep_their_values():
    ctx = _ctx(abelian_group([0, 0]), gens_f=[((1, 0), 1)])
    entries = [(1, (0, 0)), (-1, (0, 0)), (1, (0, 1)), (1, (5, 0))]
    gamma = build_gamma(ctx)
    got = reduce_pairs(entries, gamma)
    want = reduce_list_per_point(entries, build_gamma(ctx))
    assert got.coeffs == want.coeffs
    assert set(gamma._table) == {(0, 1), (5, 0)}
    assert coefficient_at(got, (0, 0)) == 1 and coefficient_at(got, (0, 1)) == 1
    assert not gamma.orbit_of((0, 0)).order_two and not gamma.orbit_of((0, 1)).order_two


@pytest.mark.parametrize("finite", [True, False])
def test_a_list_whose_points_all_cancel_classifies_nothing(monkeypatch, finite):
    if finite:
        ctx = _ctx(cyclic_group(6), gens_f=[(2, -1)], self_pairing=True)
        pairs = [(1, 3), (-1, 3), (1, 5), (1, 5), (-1, 5), (-1, 5)]
    else:
        ctx = _ctx(abelian_group([0, 4]), gens_f=[((1, 2), -1)], self_pairing=True)
        pairs = [(1, (3, 1)), (-1, (3, 5)), (-1, (0, 2)), (1, (0, 2)), (1, (0, 2)), (-1, (0, -2))]
    gamma = build_gamma(ctx)
    vectors = []
    monkeypatch.setattr(HermiteLattice, "reduce_all", lambda self, vecs, f=HermiteLattice.reduce_all:
                        vectors.append(len(vecs)) or f(self, vecs))
    assert reduce_pairs(pairs, gamma).is_zero()
    assert gamma._table == {} and vectors == []


@pytest.mark.parametrize("pairs", [300, 600, 1200])
def test_flowchart_classifies_no_element_of_a_cancelling_instance(monkeypatch, pairs):
    """Every pair of points cancels: the flowchart classifies nothing at 1x, 2x and 4x the points,
    and the homotopy analysis only the identity, whose mu coefficient it reads."""
    doc = random_points_doc(random.Random(pairs), finite=False, pairs=pairs)
    inst = schema.instance_from_dict(doc)
    batches = classified_batches(monkeypatch, type(inst.group))
    flowchart(inst)
    assert batches == []
    homotopy_analysis(inst)
    assert batches == [[inst.group.identity]] * len(inst.components)
