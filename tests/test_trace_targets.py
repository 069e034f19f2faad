"""Every name the benchmark tracer wraps still exists in the package.

``perfbench/layers.py`` lists the functions and methods it wraps by module
and qualified name; a rename in ``src/`` would otherwise surface only when
the benchmark runs.  This resolves each entry the way ``Tracer.install``
does, without installing anything: in a fresh interpreter that has only
imported ``surfemb4.cli``, as the benchmark's replay has, in ``TARGETS``
order and through ``sys.modules``.  Modules that ``cli`` registers lazily
run when a target first reads them, and ``mpmath`` is registered only when
``knots`` runs, so the order matters, and the test process, where other tests
have imported everything, would not show it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_RESOLVE = """
import json, sys
import surfemb4.cli
sys.path.insert(0, sys.argv[1])
import layers

missing = []
for t in layers.TARGETS:
    owner = sys.modules.get(t.module)
    *path, attr = t.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
    if not found:
        missing.append(f"{t.module}.{t.qualname}")
print(json.dumps(missing))
"""


def test_every_traced_name_resolves():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RESOLVE, str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    missing = json.loads(proc.stdout)
    assert not missing, missing
