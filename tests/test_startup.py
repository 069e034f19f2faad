"""A CLI child imports neither ``dataclasses`` nor ``inspect``.

Every verdict is one interpreter start, and ``dataclasses`` brings
``inspect``, ``ast``, ``dis`` and ``tokenize`` with it.  The package's
records are tuples or slotted classes, so none of them is needed; this runs
the commands under ``python -X importtime`` and reads the import list.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = [
    ["examples", "list"],
    ["decide", "torus_s3s1"],
    ["knot", "arf", "trefoil"],
    ["knot", "cp2-verdict", "t2_7"],
]
HEAVY = re.compile(r"\b(dataclasses|inspect)\b")


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_child_skips_dataclasses_and_inspect(argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "surfemb4.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "import time:" in proc.stderr
    named = [line for line in proc.stderr.splitlines() if HEAVY.search(line)]
    assert not named, named
