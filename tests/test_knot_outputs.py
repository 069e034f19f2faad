"""Every ``knot`` command prints what it printed before signature points were integer pairs.

``tests/data/knot_outputs.json`` holds the exit code and standard output of
each command below on each shipped knot, written by the Fraction-based code.  The
``sig`` points include unreduced ones (``4/2``, ``0/5``), a negative
denominator (``1/-3``), a point the 53-bit certificate declines
(``33333333333333/100000000000000``) and three bad ones (``1/0``, ``x/2``,
``1/2/3``).  One message differs from the file on purpose: ``--omega 1/0``
printed ``bad --omega '1/0': Fraction(1, 0)`` and now names the zero
denominator (``CHANGED``).  ``python tests/test_knot_outputs.py`` rewrites
the file from the current code.
"""

import contextlib
import io
import json
from importlib import resources
from pathlib import Path

from surfemb4 import cli

KNOTS = sorted(p.name[:-5] for p in resources.files("surfemb4").joinpath("data", "knots").iterdir()
               if p.name.endswith(".json"))
OMEGAS = ("1/1", "2/7", "1/3", "5/3", "-1/3", "1/-3", "4/2", "0/5", "2/1", "7/3", "3",
          "33333333333333/100000000000000", "1/0", "x/2", "1/2/3")
COMMANDS = ([["arf"], ["alex"], ["shake-genus"], ["cp2-verdict"]]
            + [["cp2-bound", f"--d={d}"] for d in range(-4, 7)]
            + [["sigma-d", f"--d={d}"] for d in range(-5, 6)]
            + [["sig", f"--omega={w}"] for w in OMEGAS])
PINNED = Path(__file__).parent / "data" / "knot_outputs.json"
# the one message that changed on purpose: (command suffix, old text, new text)
CHANGED = ("--omega=1/0", "Fraction(1, 0)", "zero denominator")


def _run(argv) -> dict:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _outputs() -> dict:
    return {" ".join([command[0], knot, *command[1:]]): _run(["knot", command[0], knot, *command[1:]])
            for knot in KNOTS for command in COMMANDS}


def test_knot_commands_print_the_pinned_outputs():
    pinned = json.loads(PINNED.read_text())
    got = _outputs()
    assert got.keys() == pinned.keys()
    suffix, old, new = CHANGED
    for key, want in pinned.items():
        if key.endswith(suffix):
            want = dict(want, stdout=want["stdout"].replace(old, new))
        assert got[key] == want, key


if __name__ == "__main__":
    PINNED.write_text(json.dumps(_outputs(), indent=1, sort_keys=True) + "\n")
