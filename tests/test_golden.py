"""CLI output on the shipped instances and knots, compared byte for byte with recorded files.

``tests/data/golden/cases.json`` maps each case name to its argv and exit
code; ``<name>.out`` holds the exact stdout.  ``{instances}`` in an argv
stands for the shipped instance directory, and ``{test_instances}`` for
``tests/data/instances``, which holds instances that are not shipped.  The
shipped instance files were recorded before the engine and band checks were
consolidated, the ``<knot>.knot-*`` files before the knot invariants were
made polynomial, and ``weak_collection.*`` (a weak Whitney collection on a
proper F^t) when t(F^t, W^t) came to be counted on W^t as declared, so any
drift in verdict, ``km``, ``gamma``, batch or knot JSON fails here.  The
``gamma-*-query`` cases pin the whole Γ report with queried elements: a
finite group with self-pairing, a finite pair with the Smith oracle, an
abelian pair that does not reduce to zero, and a malformed and a wrong-rank
query, which exit 2.

Four test instances reach branches that no shipped one does.  In
``framed_sphere_minus_one`` a framed sphere, outside F^t, has (1, -1) in its
signed subgroup, so the homotopy analysis stays in case 1; in its mirror
``torus_minus_one`` the torus in F^t has it, which is case 2.
``lambda_nonzero`` answers "lambda = mu = 0?" with no, and
``group_not_good`` answers "Is pi_1(M) good?" with no.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from surfemb4 import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
TEST_INSTANCES = str(Path(__file__).parent / "data" / "instances")
CASES = json.loads((GOLDEN / "cases.json").read_text())
INSTANCES = str(resources.files("surfemb4").joinpath("data", "instances"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    case = CASES[name]
    argv = [a.replace("{instances}", INSTANCES).replace("{test_instances}", TEST_INSTANCES)
            for a in case["argv"]]
    code = cli.main(argv)
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
    assert code == case["exit"]
