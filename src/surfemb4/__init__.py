"""Embedding obstructions for surfaces in 4-manifolds.

Library layout:

- ``groups``: finite/abelian group backends, each classifying a signed action and checking its characters; signed subgroups
- ``gamma``: intersection-number targets, classified by the ambient's backend; reduction into them
- ``intlinalg``: exact integer linear algebra (Smith and Hermite forms, determinants)
- ``whitney``: double-point columns, Whitney collections, t-counts, weak-to-convenient conversion
- ``bands``: surface homology model, the band invariant, characteristic checks
- ``engine``: the decision flowchart and homotopy-class analysis
- ``knots``: Seifert-matrix invariants and genus bounds
- ``schema``: reading instance files
- ``shapes``: the JSON shapes both file kinds use, knot files
- ``cli``: the command line, and the JSON text of each answer (``to_json``)
- ``errors``: the exceptions the CLI maps to exit codes 2 (``SchemaError``) and 3

Importing the package runs no submodule.  Every CLI command is one
interpreter start, so the package registers its seven domain modules, the
instance reader ``schema`` and the knot reader ``shapes``, and ``knots``
registers ``mpmath``, with ``_lazy``: a module's body runs only when one of
its attributes is first used, and a command runs only the modules it
reaches.  A module names another with a plain ``from . import gamma``,
which returns the registered placeholder without running it, and a function
of it by attribute at the call (``engine.flowchart``).  ``cli`` and
``errors`` are imported as usual.

Every public name here is reached by the command line, the flowchart or
the benchmark tracer; ``tests/test_public_names.py`` counts no test as a
reader.  Builders of test inputs, and names only tests reach, live in
``tests/helpers.py``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Seifert entries of magnitude below 2^53 are exact as floats.  Knot files
# (``shapes``) may hold only those, so the signature certificate (``knots``)
# can start in floats on every knot file.
FLOAT_EXACT_BOUND = 1 << 53

# The exact type of an integer field: ``_INTS.issuperset(map(type, values))``
# rejects the bools and floats that ``isinstance`` and ``int()`` let through.
_INTS = frozenset((int,))


def _lazy(name: str):
    """The module ``name``, in ``sys.modules`` at once; its body runs at its first attribute use."""
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        parent, _, child = name.rpartition(".")
        if parent:
            setattr(sys.modules[parent], child, module)  # as an eager import binds it
    return sys.modules[name]


for _module in ("bands", "engine", "gamma", "groups", "intlinalg", "knots", "schema", "shapes", "whitney"):
    _lazy(f"{__name__}.{_module}")
del _module
