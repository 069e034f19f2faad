"""The columns ``reduce_list`` takes are checked once, when they are built, and not again by
``reduce_list``; ``classify`` checks the one element it is given.

``gamma`` on a table group classifies the group once, in one batch, and
reads its orbit counts off that one orbit list.
"""

import json
import random

import pytest

from helpers import classified_batches, cyclic_group, random_points_doc, reduce_pairs, trivial_character
from surfemb4 import cli
from surfemb4.gamma import GammaError, PairingContext, build_gamma
from surfemb4.groups import FiniteTableGroup, GroupError, abelian_group, subgroup_closure

CASES = {
    "finite": (lambda: cyclic_group(6), [(1, 2), (-1, 3), (1, 2), (-1, 5)], 7),
    "abelian": (lambda: abelian_group([0, 4]), [(1, (1, 2)), (-1, (3, 1)), (1, (1, 3))], (0, 9, 9)),
}


def _counted_gamma(monkeypatch, make_group):
    group = make_group()
    gens = [(1, -1)] if group.kind == "finite" else [((1, 0), -1)]
    s = subgroup_closure(group, gens)
    gamma = build_gamma(PairingContext(group, trivial_character(group), s, s, self_pairing=True))
    calls = []
    check_elems = type(group).check_elems

    def counting(self, values):
        calls.append(len(values))
        return check_elems(self, values)

    monkeypatch.setattr(type(group), "check_elems", counting)
    return group, gamma, calls


@pytest.mark.parametrize("case", CASES)
def test_reduce_list_checks_elements_once(monkeypatch, case):
    make_group, entries, _ = CASES[case]
    _, gamma, calls = _counted_gamma(monkeypatch, make_group)
    reduce_pairs(entries, gamma)
    reduce_pairs(entries, gamma)  # the second call finds every element classified
    assert calls == [len(entries), len(entries)]


@pytest.mark.parametrize("case", CASES)
def test_classify_checks_and_names_a_bad_element(monkeypatch, case):
    make_group, entries, bad = CASES[case]
    group, gamma, calls = _counted_gamma(monkeypatch, make_group)
    elems = [e for _, e in entries]
    canon = group.check_elems(elems)
    assert [gamma.classify(e) for e in elems] == [gamma.classify(e) for e in canon]
    assert calls == [len(elems)] + [1] * 2 * len(elems)  # each classify checks its one element
    with pytest.raises(GroupError) as expected:
        group.check_elems([bad])
    with pytest.raises(GroupError) as got:
        gamma.classify(bad)
    assert str(got.value) == str(expected.value)


# Exact ints only: True and 1.0 equal 1, and each once counted as a +1 point.
BAD_SIGNS = [True, False, 1.0, -1.0, 0, 2, "1", None]


@pytest.mark.parametrize("bad", BAD_SIGNS, ids=repr)
@pytest.mark.parametrize("case", CASES)
def test_reduce_list_takes_exact_int_signs(monkeypatch, case, bad):
    make_group, entries, bad_elem = CASES[case]
    _, gamma, _ = _counted_gamma(monkeypatch, make_group)
    with pytest.raises(GammaError, match="sign must be"):
        reduce_pairs(entries + [(bad, entries[0][1])], gamma)
    with pytest.raises(GroupError):  # a bad element before the bad sign is met first
        reduce_pairs(entries + [(1, bad_elem), (bad, entries[0][1])], gamma)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gamma_command_classifies_the_group_once(seed, tmp_path, monkeypatch, capsys):
    doc = random_points_doc(random.Random(seed), finite=True, pairs=10)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    batches = classified_batches(monkeypatch, FiniteTableGroup)
    assert cli.main(["gamma", str(path), "--component", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the load closes each component's subgroup, the identity 0's orbit; then the reduction gives
    # Gamma no element, since every pair cancels, and the orbit list the whole group in one batch
    assert batches == [[0]] * len(doc["components"]) + [list(range(len(doc["group"]["table"])))]
    assert report["free_rank"] + report["z2_count"] == len(report["orbits"])
    assert report["z2_count"] == sum(o["order"] == "Z/2" for o in report["orbits"])
