"""``reduce_list`` checks its signs and elements once; ``classify_all`` stays checked for other callers.

``gamma`` on a table group classifies the group once, in one batch, and
reads its orbit counts off that one orbit list.
"""

import json
import random

import pytest

from helpers import cyclic_group, random_points_doc, trivial_character
from surfemb4 import cli
from surfemb4.gamma import GammaError, GammaGroup, PairingContext, build_gamma, reduce_list
from surfemb4.groups import GroupError, abelian_group, subgroup_closure

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
    reduce_list(entries, gamma)
    reduce_list(entries, gamma)  # the second call finds every element classified
    assert calls == [len(entries), len(entries)]


@pytest.mark.parametrize("case", CASES)
def test_classify_all_checks_and_names_the_first_bad_element(monkeypatch, case):
    make_group, entries, bad = CASES[case]
    group, gamma, calls = _counted_gamma(monkeypatch, make_group)
    elems = [e for _, e in entries]
    assert gamma.classify_all(elems) == [gamma.classify(e) for e in elems]
    with pytest.raises(GroupError) as expected:
        group.check_elem(bad)
    with pytest.raises(GroupError) as got:
        gamma.classify_all(elems + [bad, "also bad"])
    assert str(got.value) == str(expected.value)
    assert calls[0] == len(elems)


# Exact ints only: True and 1.0 equal 1, and each once counted as a +1 point.
BAD_SIGNS = [True, False, 1.0, -1.0, 0, 2, "1", None]


@pytest.mark.parametrize("bad", BAD_SIGNS, ids=repr)
@pytest.mark.parametrize("case", CASES)
def test_reduce_list_takes_exact_int_signs(monkeypatch, case, bad):
    make_group, entries, bad_elem = CASES[case]
    _, gamma, _ = _counted_gamma(monkeypatch, make_group)
    with pytest.raises(GammaError, match="sign must be"):
        reduce_list(entries + [(bad, entries[0][1])], gamma)
    with pytest.raises(GroupError):  # a bad element before the bad sign is met first
        reduce_list(entries + [(1, bad_elem), (bad, entries[0][1])], gamma)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gamma_command_classifies_the_group_once(seed, tmp_path, monkeypatch, capsys):
    doc = random_points_doc(random.Random(seed), finite=True, pairs=10)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    batches = []
    classify = GammaGroup._classify_canonical
    monkeypatch.setattr(GammaGroup, "_classify_canonical",
                        lambda self, canon: batches.append(len(canon)) or classify(self, canon))
    assert cli.main(["gamma", str(path), "--component", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the group once, then the reduction's live elements: none, since every pair cancels
    assert batches == [len(doc["group"]["table"]), 0]
    assert report["free_rank"] + report["z2_count"] == len(report["orbits"])
    assert report["z2_count"] == sum(o["order"] == "Z/2" for o in report["orbits"])
