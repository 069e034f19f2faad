"""Whole verdicts on generated instances above order 8: one benchmark round per workload.

``perfbench/workloads.py`` builds each invocation together with the answer its
construction forces (the flowchart outcome, the reduced list and coefficient,
the orbit counts against the Smith oracle, a knot's Arf invariant and
signatures), derived from the construction rather than from running the
program.  The seed-1 round of each workload is written to a temporary
directory and run in-process through ``cli.main``, and ``workloads.check``
scores every answer.  The finite rounds reach table groups of order 64-256.
"""

import json
import sys
from pathlib import Path

import pytest

from surfemb4 import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

INVOCATIONS = {"decide-finite": 22, "decide-abelian": 6, "knots": 44}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_forced_answer_of_a_seed_1_round(workload, tmp_path, monkeypatch, capsys):
    items = workloads.WORKLOADS[workload](1)
    assert len(items) == INVOCATIONS[workload]
    workloads.write_inputs(items, tmp_path)
    monkeypatch.chdir(tmp_path)
    wrong = []
    for item in items:
        code = cli.main(list(item.argv))
        try:
            doc = json.loads(capsys.readouterr().out)
        except ValueError:
            doc = None
        if workloads.check(item, code, doc):
            wrong.append(f"{' '.join(item.argv)} (exit {code}): expected {item.expect}; {item.reason}")
    assert not wrong, "\n".join(wrong)
    if workload == "decide-finite":
        orders = {len(doc["group"]["table"]) for item in items for doc in item.files.values()}
        assert min(orders) >= 64 and max(orders) == 256
