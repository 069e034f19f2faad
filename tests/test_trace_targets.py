"""Every name the benchmark tracer wraps still exists in the package.

``perfbench/layers.py`` lists the functions and methods it wraps by module
and qualified name; a rename in ``src/`` would otherwise surface only when
the benchmark runs.  This resolves each entry the way ``Tracer.install``
does, without installing anything.
"""

import sys
from pathlib import Path

import surfemb4.cli  # noqa: F401  (imports every traced module, mpmath included)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402


def test_every_traced_name_resolves():
    missing = []
    for t in layers.TARGETS:
        owner = sys.modules.get(t.module)
        *path, attr = t.qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found:
            missing.append(f"{t.module}.{t.qualname}")
    assert not missing, missing
