"""Two encodings, one answer: a finite abelian group declared by its invariant factors and by a
relabelled Cayley table gets the same ``decide`` answer in both modes, and the same ``gamma``
coefficients at the same etas (the orbit representatives differ between the encodings).

The abelian backend (one signed Hermite lattice) and the finite one (``groups.signed_search``
over table moves) share no classification code, so each checks the other on whole verdicts,
at orders the per-point oracles do not reach.  A disagreement is a finding, to be reported with
its seed; the backends must not be made to agree by sharing code.
"""

import json
import random

from surfemb4 import cli, engine

from helpers import abelian_as_table, random_points_doc

FACTORS = ([4, 8], [2, 2, 16], [256], [3, 5, 7], [6, 10])
MU_1 = "exit 2: mu_1 != 0"


def _doc(rng: random.Random, factors: list[int]) -> dict:
    """Cancelling pairs over ``factors``, random signed subgroups, some holding (1, -1), and in
    half the documents a few points, often self-intersections, moved to the identity or to a
    random element."""
    doc = random_points_doc(rng, False, rng.randrange(2, 10), factors=factors)

    def elem():
        return [rng.randrange(-2 * f, 2 * f + 1) for f in factors]

    for comp in doc["components"]:
        comp["signed_subgroup"] += [[elem(), rng.choice((1, -1))] for _ in range(rng.randrange(2))]
        if rng.random() < 0.25:
            comp["signed_subgroup"].append([[0] * len(factors), -1])
    points = doc["double_points"]
    selfs = [p for p in points if p["components"][0] == p["components"][1]]
    pool = rng.choice((selfs, points)) or points
    for point in rng.sample(pool, min(len(pool), rng.randrange(1, 3))) if rng.random() < 0.5 else ():
        point["eta"] = [0] * len(factors) if rng.random() < 0.5 else elem()
    return doc


def test_factors_and_table_give_one_answer(tmp_path, capsys):
    rng = random.Random(17)
    seen, queried = set(), set()
    paths = [tmp_path / "factors.json", tmp_path / "table.json"]
    for factors in FACTORS:
        for _ in range(8):
            doc = _doc(rng, factors)
            docs = doc, abelian_as_table(doc, rng)
            for path, written in zip(paths, docs):
                path.write_text(json.dumps(written))
            for mode in ("regular", "homotopy"):
                answers = []
                for path in paths:
                    code = cli.main(["decide", "--mode", mode, str(path)])
                    answers.append((code, capsys.readouterr().out))
                assert answers[0] == answers[1], (factors, mode, doc)
                out = json.loads(answers[0][1])
                seen.add(out["outcome"] if answers[0][0] == 0 else
                         MU_1 if "mu(f_i)_1 != 0" in out["errors"][0] else out["errors"][0])
            # Γ of a random point's pair, queried at every point's eta: the representatives
            # differ, the coefficients may not
            pair = [str(c) for c in rng.choice(doc["double_points"])["components"]]
            reports = []
            for path, written in zip(paths, docs):
                queries = [w for p in written["double_points"] for w in ("--query", json.dumps(p["eta"]))]
                assert cli.main(["gamma", str(path), "--component", pair[0], "--other", pair[1], *queries]) == 0
                out = json.loads(capsys.readouterr().out)
                reports.append((out["self_pairing"], out["reduced_is_zero"],
                                [(q["order"], q["coefficient"]) for q in out["queries"]]))
            assert reports[0] == reports[1], (factors, pair, doc)
            queried.update(reports[0][2])
    assert seen == {engine.REG_EMBED, engine.NOT_REG_EMBED, engine.HOMOTOPIC_EMBED,
                    engine.NO_CONCLUSION, MU_1}, seen
    assert {order for order, _ in queried} == {"Z", "Z/2"} and any(c for _, c in queried), queried
