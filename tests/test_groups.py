import itertools
import math
import random
import re

import pytest
from hypothesis import event, given, strategies as st

from surfemb4 import groups
from surfemb4.groups import (
    Character,
    FGAbelianGroup,
    GroupError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    abelian_group,
    make_finite_group,
    subgroup_closure,
)

from helpers import (
    abelian_table,
    all_characters,
    all_groups_up_to_8,
    closure_contains,
    cyclic_and_dihedral_groups_16_to_256,
    cyclic_group,
    dihedral,
    direct_product,
    greedy_generators_by_products,
    is_group_table,
    is_multiplicative,
    random_abelian_element,
    random_signed_subgroup,
    relabel,
    signed_closure,
    trivial_character,
)


def test_trivial_table():
    g = make_finite_group([[0]])
    assert g.order == 1 and g.identity == 0


def test_z2_table():
    g = make_finite_group([[0, 1], [1, 0]])
    assert g.mul(1, 1) == 0
    assert g.inv(1) == 1


def test_no_inverse_table():
    # associative (it is max), has identity 0, but 1 is not invertible
    with pytest.raises(NoInverse):
        make_finite_group([[0, 1], [1, 1]])


def test_cyclic_cases():
    assert cyclic_group(1).order == 1
    assert cyclic_group(2).order == 2
    z = cyclic_group(0)
    assert isinstance(z, FGAbelianGroup)
    assert z.factors == (0,)
    assert z.identity == (0,) and z.check_elems([(-3,)])[0] == (-3,)


def test_axioms_exhaustive_up_to_12():
    # construction checks every group axiom (associativity by Light's test on
    # a generating set); these must all pass
    for name, g in all_groups_up_to_8():
        assert g.order <= 8, name
    cyclic_group(12)
    direct_product(cyclic_group(6), cyclic_group(2))
    direct_product(cyclic_group(3), cyclic_group(4))


_TRIPLE = re.compile(r"\((\d+)\*(\d+)\)\*(\d+) != (\d+)\*\((\d+)\*(\d+)\)$")


def _check_against_oracle(table) -> bool:
    """make_finite_group accepts ``table`` exactly when the n^3 oracle does, and
    a NotAssociative message names a triple that really fails."""
    try:
        make_finite_group(table)
        accepted = True
    except NotAssociative as exc:
        accepted = False
        match = _TRIPLE.match(str(exc))
        assert match, str(exc)
        a, b, c, a2, b2, c2 = map(int, match.groups())
        assert (a, b, c) == (a2, b2, c2)
        assert table[table[a][b]][c] != table[a][table[b][c]], (table, str(exc))
    except GroupError:
        accepted = False
    assert accepted == is_group_table(table), table
    return accepted


def test_order_five_loop_is_not_a_group():
    # the smallest Latin square with identity and inverses that is not associative
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    assert all(sorted(row) == list(range(5)) for row in loop)
    assert all(sorted(col) == list(range(5)) for col in zip(*loop))
    with pytest.raises(NotAssociative):
        make_finite_group(loop)
    assert not _check_against_oracle(loop)


def test_non_latin_tables_with_identity_and_inverses():
    rng = random.Random(31)
    seen = 0
    for _ in range(400):
        n = rng.randrange(2, 8)
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        table[0] = list(range(n))
        for x in range(n):
            table[x][0] = x
        for a in range(1, n):
            b = rng.randrange(1, n)
            table[a][b] = table[b][a] = 0
        if all(len(set(row)) == n for row in table) and all(len(set(c)) == n for c in zip(*table)):
            continue
        with pytest.raises(NotAssociative):
            make_finite_group(table)
        assert not _check_against_oracle(table)
        seen += 1
    assert seen > 300


def test_random_magmas_match_oracle():
    rng = random.Random(37)
    kinds = {True: 0, False: 0}
    for _ in range(3000):
        n = rng.randrange(1, 7)
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:  # a two-sided identity, so later axioms get reached
            e = rng.randrange(n)
            for x in range(n):
                table[e][x] = table[x][e] = x
        kinds[_check_against_oracle(table)] += 1
    # every group of order <= 8, under random labels
    for name, g in all_groups_up_to_8():
        for _ in range(5):
            perm = list(range(g.order))
            rng.shuffle(perm)
            kinds[_check_against_oracle(relabel(g.table, perm))] += 1
    assert kinds[True] > 100 and kinds[False] > 1000


def test_error_order_identity_then_inverses_then_associativity():
    # neither associative nor with an identity: the identity is reported first
    with pytest.raises(NoIdentity):
        make_finite_group([[1, 0], [1, 1]])
    # identity 0 and (1*1)*2 != 1*(1*2), but 1 has no inverse: reported before associativity
    with pytest.raises(NoInverse):
        make_finite_group([[0, 1, 2], [1, 2, 2], [2, 2, 1]])


def _closure(group, gens) -> set:
    out = set(gens)
    while True:
        more = {group.mul(a, b) for a in out for b in out} - out
        if not more:
            return out
        out |= more


@pytest.mark.parametrize("make", [
    lambda: make_finite_group([[(a + b) % 256 for b in range(256)] for a in range(256)]),
    lambda: dihedral(128),
    lambda: direct_product(make_finite_group([[0, 1], [1, 0]]), dihedral(64)),
], ids=["C256", "D128", "C2xD64"])
def test_greedy_generating_set_is_logarithmic(make):
    g = make()
    rng = random.Random(g.order)
    perm = list(range(g.order))
    rng.shuffle(perm)
    for group in (g, make_finite_group(relabel(g.table, perm))):
        assert len(group.generators) <= math.floor(math.log2(group.order)) + 1
        assert _closure(group, group.generators) == set(group.elements())


def _intercalate_switch(table, identity, rng):
    """The table with one 2x2 Latin subsquare off the identity's row and column switched, or None."""
    others = [x for x in range(len(table)) if x != identity]
    cells = [(a, b, c, d) for a, c in itertools.combinations(others, 2)
             for b, d in itertools.combinations(others, 2)
             if table[a][b] == table[c][d] and table[a][d] == table[c][b]]
    if not cells:
        return None
    a, b, c, d = rng.choice(cells)
    out = [list(row) for row in table]
    out[a][b], out[a][d] = out[a][d], out[a][b]
    out[c][b], out[c][d] = out[c][d], out[c][b]
    return out


def _perturbed_tables(rng, count):
    """Group tables of order 1-32, relabelled, four in five of them perturbed first: an
    intercalate switched (a Latin square with identity that may lose inverses or
    associativity), one entry changed, or two rows swapped."""
    bases = [g.table for _, g in all_groups_up_to_8()]
    bases += [cyclic_group(n).table for n in (9, 12, 16, 30)]
    bases += [dihedral(m).table for m in (5, 6, 8, 16)]
    bases += [direct_product(dihedral(4), cyclic_group(2)).table,
              direct_product(cyclic_group(2), cyclic_group(2)).table]
    for _ in range(count):
        table = [list(row) for row in rng.choice(bases)]
        n = len(table)
        kind = rng.choice(("group", "intercalate", "intercalate", "entry", "rows"))
        if kind == "intercalate":
            identity = table.index(list(range(n)))
            table = _intercalate_switch(table, identity, rng) or table
        elif kind == "entry":
            table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        elif kind == "rows" and n > 1:
            a, b = rng.sample(range(n), 2)
            table[a], table[b] = table[b], table[a]
        perm = list(range(n))
        rng.shuffle(perm)
        yield relabel(table, perm)


def _make_outcome(table) -> tuple:
    """("group", the generators), or the error's class name and message."""
    try:
        return "group", make_finite_group(table).generators
    except GroupError as exc:
        return type(exc).__name__, str(exc)


def test_generator_search_matches_the_product_closure_search():
    # the same generators, or the same error class and message, as the search that found every
    # generator by the closure under products and then ran Light's test on each
    rng = random.Random(41)
    kinds = {}
    for table in _perturbed_tables(rng, 1200):
        got = _make_outcome(table)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(groups, "_greedy_generators", greedy_generators_by_products)
            assert _make_outcome(table) == got, table
        kind = got[0]
        if kind == "NotAssociative" and all(len(set(r)) == len(r) for r in [*table, *zip(*table)]):
            kind = "NotAssociative by Light's test"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"group", "NoIdentity", "NoInverse", "NotAssociative",
                          "NotAssociative by Light's test"}, kinds
    assert min(kinds.values()) >= 40, kinds


def test_generator_character_check_matches_all_pairs():
    for name, g in all_groups_up_to_8():
        for values in itertools.product((1, -1), repeat=g.order):
            try:
                Character(g, values)
                accepted = True
            except GroupError:
                accepted = False
            assert accepted == is_multiplicative(g, values), (name, values)


def test_closure_empty_generators():
    g = cyclic_group(2)
    s = subgroup_closure(g, [])
    assert s.generators == () and signed_closure(g, s.generators) == {(0, 1)}
    assert not s.contains_minus_one


def test_closure_signed_generator():
    g = cyclic_group(2)
    s = subgroup_closure(g, [(1, -1)])
    assert signed_closure(g, s.generators) == {(0, 1), (1, -1)}
    assert not s.contains_minus_one


def test_closure_minus_one_in_trivial_group():
    g = cyclic_group(1)
    s = subgroup_closure(g, [(0, -1)])
    assert signed_closure(g, s.generators) == {(0, 1), (0, -1)}
    assert s.contains_minus_one


def test_closure_idempotent():
    g = cyclic_group(6)
    for gens in ([(2, -1), (3, 1)], [(2, -1), (3, -1)], [(3, -1)]):
        s = subgroup_closure(g, gens)
        closure = signed_closure(g, s.generators)
        again = subgroup_closure(g, sorted(closure))
        assert signed_closure(g, again.generators) == closure
        assert again.contains_minus_one == s.contains_minus_one == ((0, -1) in closure)


ABELIAN_FACTORS = ([4, 8], [2, 2, 16], [3, 5, 7], [6, 10])
# relabelled Cayley tables of those groups, for the finite closure
ABELIAN_TABLES = [(f"Z/{factors} as a table", make_finite_group(abelian_table(factors, random.Random(5))[0]))
                  for factors in ABELIAN_FACTORS]


def test_finite_closure_is_the_closure_under_products_and_inverses():
    # the search by forward moves from the generators runs to the end and flags an
    # element reached with both signs; the reference closes under products and inverses
    rng = random.Random(12)
    answers = []  # above order 8
    for name, g in all_groups_up_to_8() + cyclic_and_dihedral_groups_16_to_256() + ABELIAN_TABLES:
        for _ in range(10):
            s = random_signed_subgroup(g, rng)
            brute = signed_closure(g, s.generators)
            assert s.contains_minus_one == ((g.identity, -1) in brute), name
            if g.order > 8:
                answers.append(s.contains_minus_one)
    # few of those draws hold (1, -1) above order 8; these add the power a^k of a generator
    # (a, e) with the sign -e^k, which puts (1, -1) in, or e^k, which leaves the answer
    for name, g in cyclic_and_dihedral_groups_16_to_256():
        for _ in range(8):
            gens = [(rng.randrange(g.order), rng.choice((1, -1))) for _ in range(1 + rng.randrange(2))]
            (a, e), k = gens[0], rng.randrange(1, g.order)
            power = g.identity
            for _ in range(k):
                power = g.table[power][a]
            gens.append((power, e ** k * rng.choice((1, -1))))
            s = subgroup_closure(g, gens)
            assert s.contains_minus_one == ((g.identity, -1) in signed_closure(g, gens)), name
            answers.append(s.contains_minus_one)
    assert min(answers.count(True), answers.count(False)) >= 20, (answers.count(True), len(answers))


def test_abelian_closure_matches_the_closure_of_its_table():
    # the Hermite path of subgroup_closure against the brute closure over a relabelled table
    rng = random.Random(41)
    minus_one, answers = [], []
    for factors in ABELIAN_FACTORS:
        group = abelian_group(factors)
        table, label = abelian_table(factors, rng)
        g = make_finite_group(table)
        for _ in range(6):
            gens = [(random_abelian_element(group, rng), rng.choice((1, -1))) for _ in range(rng.randrange(4))]
            s = subgroup_closure(group, gens)
            brute = signed_closure(g, [(label(a), e) for a, e in gens])
            assert s.contains_minus_one == ((g.identity, -1) in brute), (factors, gens)
            pairs = [(random_abelian_element(group, rng), rng.choice((1, -1))) for _ in range(24)]
            members = [(label(a), e) in brute for a, e in pairs]
            assert closure_contains(group, s.generators, pairs) == members, (factors, gens)
            minus_one.append(s.contains_minus_one)
            answers += members
    assert min(minus_one.count(True), minus_one.count(False)) >= 5, minus_one
    assert min(answers.count(True), answers.count(False)) >= 100, answers.count(True)


def test_minus_one_iff_sign_not_functional():
    # (1,-1) in the subgroup exactly when the sign fails to factor through
    # the projection; verify by direct scan over the reference closure
    rng = random.Random(7)
    for name, g in all_groups_up_to_8():
        for _ in range(25):
            s = random_signed_subgroup(g, rng)
            table = {}
            functional = True
            for elem, sign in signed_closure(g, s.generators):
                if table.setdefault(elem, sign) != sign:
                    functional = False
            assert s.contains_minus_one == (not functional), name


def test_character_trivial_on_projection_matches_the_closure():
    """A character is trivial on a signed subgroup's projection iff it is on the generators,
    which is what ``helpers.mu1_home`` reads."""
    rng = random.Random(11)
    for name, g in all_groups_up_to_8():
        for chi in all_characters(g):
            for _ in range(10):
                s = random_signed_subgroup(g, rng)
                expected = all(chi(elem) == 1 for elem, _ in signed_closure(g, s.generators))
                assert all(chi(elem) == 1 for elem, _ in s.generators) == expected, name


def test_character_validation():
    g = cyclic_group(2)
    Character(g, [1, -1])
    with pytest.raises(GroupError):
        Character(g, [1, 2])
    with pytest.raises(GroupError):
        Character(cyclic_group(3), [1, -1, 1])  # not multiplicative


def test_abelian_character_factor_compatibility():
    g = abelian_group([3, 0])
    with pytest.raises(GroupError):
        Character(g, [-1, 1])  # -1 on a factor of odd order
    chi = Character(g, [1, -1])
    assert chi((0, 3)) == -1
    assert chi((2, 2)) == 1


def test_abelian_subgroup_lattice():
    g = abelian_group([0, 2])
    s = subgroup_closure(g, [((2, 1), -1)])
    pairs = [((2, 1), -1), ((4, 0), 1), ((-2, 1), -1), ((1, 0), 1), ((1, 0), -1), ((2, 1), 1)]
    assert closure_contains(g, s.generators, pairs) == [True, True, True, False, False, False]
    assert not s.contains_minus_one


def test_abelian_subgroup_with_minus_one():
    g = abelian_group([2])
    s = subgroup_closure(g, [((0,), -1)])
    assert s.contains_minus_one


@pytest.mark.parametrize("bad", [True, False, 1.0, -1.0, 0, 2, "1", None], ids=repr)
@pytest.mark.parametrize("group, elem, bad_elem", [
    (cyclic_group(4), 1, 4), (abelian_group([0, 2]), (1, 1), (1,))])
def test_subgroup_closure_takes_exact_int_signs(group, elem, bad_elem, bad):
    with pytest.raises(GroupError, match="sign must be"):
        subgroup_closure(group, [(elem, 1), (elem, bad)])
    with pytest.raises(GroupError, match="invalid element"):  # met before the bad sign
        subgroup_closure(group, [(bad_elem, 1), (elem, bad)])


def test_trivial_character_helper():
    for name, g in all_groups_up_to_8():
        chi = trivial_character(g)
        assert chi.values == (1,) * g.order, name


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None, [0]])
def test_finite_check_elem_takes_exact_ints(bad):
    with pytest.raises(GroupError):
        make_finite_group([[0, 1], [1, 0]]).check_elems([bad])


@pytest.mark.parametrize("bad", [[True, 0], [1.5, 0], ["1", 0], [None, 0], (0,), "01", 3])
def test_abelian_check_elem_takes_exact_int_entries(bad):
    with pytest.raises(GroupError):
        abelian_group([0, 2]).check_elems([bad])


def test_abelian_check_elem_accepts_lists_and_tuples():
    g = abelian_group([0, 2])
    assert g.check_elems([[-3, 5], (-3, 5)]) == ((-3, 1), (-3, 1))


def _outcome(check, *args):
    """The tuple ``check(*args)`` returns, or the message of the GroupError it raises."""
    try:
        return check(*args)
    except GroupError as exc:
        return str(exc)


def _walk(group, values):
    """``check_elems`` on each value alone, in turn, so the first invalid value raises."""
    return tuple(group.check_elems([v])[0] for v in values)


_BIG = st.integers(-10**100, 10**100)
_JUNK = (st.booleans() | st.floats(allow_nan=False) | st.text(max_size=3)
         | st.lists(st.integers(-3, 3), max_size=2) | st.none())


@given(st.data())
def test_finite_check_elems_matches_check_elem(data):
    group = make_finite_group([[(a + b) % 6 for b in range(6)] for a in range(6)])
    value = st.integers(-2, 8) | st.integers(0, 5) | _BIG | _JUNK
    values = data.draw(st.lists(value, max_size=8))
    assert _outcome(group.check_elems, values) == _outcome(_walk, group, values)


@given(st.data())
def test_abelian_check_elems_matches_check_elem(data):
    factors = data.draw(st.lists(st.sampled_from((0, 2, 3, 12)), max_size=3))
    group = abelian_group(factors)
    entry = st.integers(-30, 30) | _BIG
    good = st.lists(entry, min_size=len(factors), max_size=len(factors))
    bad_entry = st.lists(entry | _JUNK, min_size=len(factors), max_size=len(factors))
    wrong_length = st.lists(entry, max_size=4).filter(lambda v: len(v) != len(factors))
    value = (good | good.map(tuple) | good | bad_entry | bad_entry.map(tuple) | wrong_length
             | _JUNK | _BIG)
    values = data.draw(st.lists(value, max_size=8))
    got = _outcome(group.check_elems, values)
    assert got == _outcome(_walk, group, values)
    event("rejected" if isinstance(got, str) else "valid")
