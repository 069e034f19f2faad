import pytest

from surfemb4.groups import (
    Character,
    FGAbelianGroup,
    GroupError,
    NoInverse,
    abelian_group,
    cyclic_group,
    make_finite_group,
    subgroup_closure,
    trivial_character,
)

from helpers import all_groups_up_to_8, direct_product


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
    assert z.mul((2,), (-5,)) == (-3,)


def test_axioms_exhaustive_up_to_12():
    # construction validates the axioms exhaustively; these must all pass
    for name, g in all_groups_up_to_8():
        assert g.order <= 8, name
    cyclic_group(12)
    direct_product(cyclic_group(6), cyclic_group(2))
    direct_product(cyclic_group(3), cyclic_group(4))


def test_closure_empty_generators():
    g = cyclic_group(2)
    s = subgroup_closure(g, [])
    assert s.members() == frozenset({(0, 1)})


def test_closure_signed_generator():
    g = cyclic_group(2)
    s = subgroup_closure(g, [(1, -1)])
    assert s.members() == frozenset({(0, 1), (1, -1)})
    assert not s.contains_minus_one
    assert s.sign_is_homomorphism()


def test_closure_minus_one_in_trivial_group():
    g = cyclic_group(1)
    s = subgroup_closure(g, [(0, -1)])
    assert s.members() == frozenset({(0, 1), (0, -1)})
    assert s.contains_minus_one
    assert not s.sign_is_homomorphism()


def test_closure_idempotent():
    g = cyclic_group(6)
    s = subgroup_closure(g, [(2, -1), (3, 1)])
    again = subgroup_closure(g, sorted(s.members()))
    assert again.members() == s.members()


def test_minus_one_iff_sign_not_functional():
    # (1,-1) in the closure exactly when the sign fails to factor through
    # the projection; verify by direct scan over the closure
    import random

    from helpers import random_signed_subgroup

    rng = random.Random(7)
    for name, g in all_groups_up_to_8():
        for _ in range(25):
            s = random_signed_subgroup(g, rng)
            table = {}
            functional = True
            for elem, sign in s.members():
                if table.setdefault(elem, sign) != sign:
                    functional = False
            assert s.contains_minus_one == (not functional), name


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
    assert s.contains((2, 1), -1)
    assert s.contains((4, 0), 1)
    assert not s.contains((1, 0), 1)
    assert not s.contains((1, 0), -1)
    assert not s.contains_minus_one


def test_abelian_subgroup_with_minus_one():
    g = abelian_group([2])
    s = subgroup_closure(g, [((0,), -1)])
    assert s.contains_minus_one


def test_trivial_character_helper():
    for name, g in all_groups_up_to_8():
        chi = trivial_character(g)
        assert chi.is_trivial(), name


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None, [0]])
def test_finite_check_elem_takes_exact_ints(bad):
    with pytest.raises(GroupError):
        make_finite_group([[0, 1], [1, 0]]).check_elem(bad)


@pytest.mark.parametrize("bad", [[True, 0], [1.5, 0], ["1", 0], [None, 0], (0,), "01", 3])
def test_abelian_check_elem_takes_exact_int_entries(bad):
    with pytest.raises(GroupError):
        abelian_group([0, 2]).check_elem(bad)


def test_abelian_check_elem_accepts_lists_and_tuples():
    g = abelian_group([0, 2])
    assert g.check_elem([-3, 5]) == g.check_elem((-3, 5)) == (-3, 1)
