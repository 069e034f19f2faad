"""Embedding obstructions for surfaces in 4-manifolds.

Library layout:

- ``groups``: finite/abelian group backends, characters, signed subgroups
- ``gamma``: intersection-number target groups and reduction into them
- ``intlinalg``: exact integer linear algebra (Smith and Hermite forms, determinants)
- ``whitney``: double points, Whitney collections, t-counts, weak-to-convenient conversion
- ``bands``: surface homology model, the band invariant, characteristic checks
- ``engine``: the decision flowchart and homotopy-class analysis
- ``knots``: Seifert-matrix invariants and genus bounds
- ``schema`` / ``cli``: reading instance and knot files, verdict JSON, the command line
- ``errors``: the internal-consistency exception (exit code 3)

Every public name here is reached by the command line, the flowchart, the
benchmark tracer or the acceptance tests (``tests/test_public_names.py``);
builders of test inputs live in ``tests/helpers.py``.
"""

from .engine import TOOL_VERSION as __version__  # noqa: F401
