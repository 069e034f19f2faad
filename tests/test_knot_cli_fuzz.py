"""Every ``knot`` subcommand prints JSON and exits 0, 2 or 3, whatever the knot file.

Hypothesis draws knot files of four kinds: Seifert matrices of T(2,q)
connected sums, random valid Seifert matrices, random square integer
matrices (mostly not unimodular, sometimes of odd size) and matrices past
``knots.MAX_SEIFERT_SIZE``.  The ``--omega`` values include roots of the
Alexander polynomial of the torus sums and points within 10^-15 of them,
where the float certificate declines; ``--d`` runs over small classes
including +-1 and 0, and over classes up to 2^64 in magnitude.
"""

import contextlib
import io
import json
import os
import random
import tempfile
from operator import neg
from pathlib import Path

from hypothesis import event, example, given, settings, strategies as st

from surfemb4 import cli, knots

from helpers import random_seifert_rows, torus_sum

SUBCOMMANDS = ("arf", "alex", "sig", "sigma-d", "cp2-bound", "cp2-verdict", "shake-genus")


OMEGA = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).map(lambda pq: "%d/%d" % pq)


@st.composite
def torus_sums(draw):
    """T(2,q) sums, with omega often a root exp(i*pi*m/q) (odd m, m != +-q) of one summand,
    or (m 10^k +- 1)/(q 10^k) with k >= 15, within 10^-15 of that root."""
    qs = draw(st.lists(st.sampled_from((3, 5, 7, 9)), min_size=1, max_size=2))
    q = draw(st.sampled_from(qs))
    m = draw(st.sampled_from([m for m in range(1 - 2 * q, 2 * q, 2) if m % q]))
    scale = 10 ** draw(st.integers(15, 30))
    near = f"{m * scale + draw(st.sampled_from((1, -1)))}/{q * scale}"
    return torus_sum(qs).rows, draw(st.sampled_from((f"{m}/{q}", near)) | OMEGA)


SEIFERT = st.integers(0, 2**32).map(lambda seed: random_seifert_rows(random.Random(seed)))
SQUARE = st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
OVERSIZED = st.integers(1, 3).map(lambda k: [[0] * (knots.MAX_SEIFERT_SIZE + k)]
                                  * (knots.MAX_SEIFERT_SIZE + k))
KNOTS = torus_sums() | st.tuples(SEIFERT | SQUARE | OVERSIZED, OMEGA)


# small classes, and classes of each bit length up to 64 equally often
LARGE = st.sampled_from(range(3, 65)).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2 ** bits))
D = st.integers(-7, 7) | LARGE | LARGE.map(neg)


@settings(max_examples=100)
@given(knot=KNOTS, d=D)
@example(knot=(torus_sum([3]).rows, "33333333333333/100000000000000"), d=2)
@example(knot=(torus_sum([5, 7]).rows, "1/2"), d=1 - 2 ** 61)
def test_knot_commands_exit_with_json(knot, d):
    rows, omega = knot
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "knot.json")
        Path(path).write_text(json.dumps({"seifert": rows}))
        for command in SUBCOMMANDS:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main(["knot", command, path, f"--omega={omega}", f"--d={d}"])
            doc = json.loads(out.getvalue())
            event(f"{command} exit {code}" + (f": {doc['errors'][0][:24]}" if code else ""))
            assert code in (0, 2, 3)
            assert (doc.get("ok") is False) is (code != 0), doc
