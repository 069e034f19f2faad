"""Command-line interface.

Exit codes: 0 success, 1 the result could not be written (a full disk, a
closed pipe; one line on stderr), 2 validation failure or a MemoryError, 3
internal consistency failure (two independent computations of one quantity
disagreeing, e.g. the two Arf methods).  A command's handler returns its
exit code and document and writes nothing; ``_failure`` turns an error
into the code and document of a failure, and ``main`` writes the one
answer.  A command line that ``parse`` refuses is a validation failure,
printed as JSON like any other.  ``decide --batch`` keeps a failure in its
file's entry, with that entry's own 2 or 3, and exits with the worst code
of its entries.  ``parse`` reads the command table ``COMMANDS`` by one
strict grammar; it does not import argparse, which would cost a child 5 ms.
This module holds only parsing, dispatch and writing (``to_json``); each
answer is computed where its data lives (``gamma.report``).

Each verdict is one interpreter start.  A child's CPU time goes to starting
the interpreter and ``site``, to compiling the package source it runs when
no bytecode is written (3-4 ms of ``examples list``, which compiles only
the package, this module and ``errors``, 12-15 ms of ``knot arf``, 23-26 ms
of ``decide``), to the command's work (well under 1 ms for ``knot arf`` or
``examples list``) and to exit, where ``Py_FinalizeEx`` runs two full
collections that walk every container left.  So ``main``, and only
``main``, sets the collector when it runs the process's own command line
(``argv`` None): it turns the collector off and registers ``gc.freeze``
with ``atexit``, which runs before those collections, so that no
collection walks what the process made; this saves a ``knot`` or
``examples list`` child 5-8 ms.  An in-process caller's collector is left
as it is.  ``os._exit`` would save about 2 ms more, but it skips
``atexit`` and the report of a failed flush, so it is not taken.  README
has the measurements.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from . import engine, gamma, knots, schema, shapes
from .errors import InternalConsistency, SchemaError

_DATA = Path(__file__).with_name("data")  # the shipped files; a zipped package is not supported

EXIT_OK = 0
EXIT_OUTPUT = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


def _resolve(path: str, kind: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    candidate = _DATA / kind / (path if path.endswith(".json") else path + ".json")
    if candidate.is_file():
        return candidate
    raise ValueError(f"no such file or shipped {kind[:-1]} '{path}'")


def _failure(exc: Exception) -> tuple[int, dict]:
    """Exit code and document of a failed command: 2 for bad or too large input, 3 for a failed check."""
    code = EXIT_INTERNAL if isinstance(exc, InternalConsistency) else EXIT_VALIDATION
    if isinstance(exc, MemoryError):
        return code, {"ok": False, "errors": ["out of memory: the input is too large"]}
    return code, {"ok": False, "errors": exc.errors if isinstance(exc, SchemaError) else [str(exc)]}


def to_json(doc) -> str:
    """The canonical byte-stable text of a JSON document: sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _load_instance(name: str) -> engine.ProblemInstance:
    return schema.load_instance(str(_resolve(name, "instances")))


def cmd_validate(args) -> tuple[int, dict]:
    _load_instance(args.instance)
    return EXIT_OK, {"ok": True, "errors": []}


def _decide_one(path: str, mode: str) -> tuple[int, dict]:
    """Exit code and document of one instance; a failure stays in the entry, for batches."""
    try:
        inst = _load_instance(path)
        verdict = engine.flowchart(inst) if mode == "regular" else engine.homotopy_analysis(inst)
    except (ValueError, InternalConsistency, MemoryError) as exc:  # every domain error is a ValueError
        return _failure(exc)
    return EXIT_OK, verdict.as_dict()


def cmd_decide(args) -> tuple[int, dict]:
    if not args.batch:
        return _decide_one(args.instance, args.mode)
    paths = sorted(filter(Path.is_file, Path(args.instance).glob("*.json")))
    if not paths:
        raise ValueError(f"no instance files in {args.instance}")
    worst = EXIT_OK
    out = {}
    for p in paths:
        code, out[p.name] = _decide_one(str(p), args.mode)
        worst = max(worst, code)
    return worst, out


def cmd_km(args) -> tuple[int, dict]:
    return EXIT_OK, {"km": engine.compute_km(_load_instance(args.instance))}


def cmd_gamma(args) -> tuple[int, dict]:
    inst = _load_instance(args.instance)
    j = args.other if args.other is not None else args.component
    elem = engine.obstruction(inst, {c.id: c.subgroup for c in inst.components}, args.component, j)
    return EXIT_OK, gamma.report(elem, args.query or [])


def cmd_knot(args) -> tuple[int, dict]:
    V = shapes.load_knot(str(_resolve(args.knot, "knots")))
    if args.invariant == "arf":
        return EXIT_OK, {"arf": knots.arf(V)}
    if args.invariant == "alex":
        return EXIT_OK, {"alexander_at_minus_one": knots.alexander_at_minus_one(V)}
    if args.invariant == "sig":
        try:  # the point exp(i*pi*p/q) as two ints, reduced by levine_tristram
            p, q = args.omega.split("/") if "/" in args.omega else (args.omega, "1")
            p, q = _int(p), _int(q)
            if not q:
                raise ValueError("zero denominator")
        except ValueError as exc:
            raise ValueError(f"bad --omega {args.omega!r}: {exc}") from None
        return EXIT_OK, {"signature": knots.levine_tristram(V, p, q)}
    if args.invariant == "sigma-d":
        return EXIT_OK, {"sigma_d": knots.sigma_d(V, args.d)}
    if args.invariant == "cp2-bound":
        return EXIT_OK, {"lower_bound": knots.cp2_genus_lower_bound(V, args.d)}
    if args.invariant == "cp2-verdict":
        v = knots.cp2_genus_verdict(V)
        return EXIT_OK, {"lower": v.lower, "upper": v.upper,
                         "exact": v.exact if v.exact is not None else "unknown",
                         "incomplete": v.incomplete, "scan_limit": v.scan_limit}
    return EXIT_OK, {"shake_genus_pm1": knots.shake_genus_pm1(V)}


def cmd_examples(args) -> tuple[int, dict]:
    out = {}
    for kind in ("instances", "knots"):
        try:
            out[kind] = sorted(name for name in os.listdir(_DATA / kind) if name.endswith(".json"))
        except OSError as exc:  # not a directory: a zipped package
            raise ValueError(f"cannot list the shipped {kind}: {exc}") from None
    return EXIT_OK, out


USAGE = """\
surfemb4 examples list                    # shipped instance and knot files
surfemb4 validate path/to/instance.json   # schema + semantic validation
surfemb4 decide torus_s3s1                # flowchart verdict with trace
surfemb4 decide --mode homotopy my.json   # homotopy-class analysis
surfemb4 decide --batch some/dir          # one verdict per instance file
surfemb4 km tubed_sphere                  # the secondary invariant only
surfemb4 gamma torus_s3s1 --component 0 --query "[0]"
surfemb4 gamma my.json --component 0 --other 1   # a pair of components
surfemb4 knot arf sum3_trefoil
surfemb4 knot alex trefoil                # the Alexander polynomial at -1
surfemb4 knot sig --omega 1/1 trefoil     # signature at exp(i*pi*1/1) = -1
surfemb4 knot sig trefoil --omega -1/3    # a value may start with -
surfemb4 knot sigma-d --d 3 sum3_trefoil
surfemb4 knot cp2-bound --d 2 sum3_trefoil
surfemb4 knot cp2-verdict sum3_trefoil
surfemb4 knot shake-genus trefoil
surfemb4 -h                               # this text; also after a command
"""


def cmd_help(args) -> tuple[int, str]:
    return EXIT_OK, USAGE


# The command table.  Each command has its handler, its positionals as (name,
# choices or None) and its options as name -> (kind, default).  A kind is FLAG,
# INT, STR, APPEND (a string, kept at each use) or a tuple of choices; an option
# whose default is REQUIRED must be given.
FLAG, INT, STR, APPEND = "flag", "int", "str", "append"
REQUIRED = ...
INSTANCE = (("instance", None),)
COMMANDS = {
    "validate": (cmd_validate, INSTANCE, {}),
    "decide": (cmd_decide, INSTANCE,
               {"mode": (("regular", "homotopy"), "regular"), "batch": (FLAG, False)}),
    "km": (cmd_km, INSTANCE, {}),
    "gamma": (cmd_gamma, INSTANCE,
              {"component": (INT, REQUIRED), "other": (INT, None), "query": (APPEND, None)}),
    "knot": (cmd_knot, (("invariant", ("arf", "alex", "sig", "sigma-d", "cp2-bound",
                                       "cp2-verdict", "shake-genus")), ("knot", None)),
             {"omega": (STR, "1/1"), "d": (INT, 2)}),
    "examples": (cmd_examples, (("what", ("list",)),), {}),
}


def _int(text: str) -> int:
    """``int(text)`` for a canonical decimal word only: ``text == str(int(text))``."""
    value = int(text)
    if text != str(value):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return value


def _value(option: str, kind, text: str, before):
    if kind is STR:
        return text
    if kind is APPEND:
        return (before or []) + [text]
    if kind is INT:
        try:
            return _int(text)
        except ValueError:
            raise ValueError(f"--{option} takes an integer, not {text!r}") from None
    if text not in kind:
        raise ValueError(f"--{option} takes one of {', '.join(kind)}, not {text!r}")
    return text


def parse(argv) -> SimpleNamespace:
    """The handler and values of a command line; they read ``args.func(args)``.

    The command comes first, then its positionals and options in any order:
    ``--opt VALUE`` or ``--opt=VALUE`` by full name, the value being the next
    word whatever it is.  ``--`` ends the options; ``-h`` or ``--help`` before
    it, or as the command, gives ``cmd_help``.  A bad line raises ValueError.
    """
    if not argv:
        raise ValueError(f"no command given; the commands are {', '.join(COMMANDS)}")
    command, *words = argv
    if command in ("-h", "--help"):
        return SimpleNamespace(command=None, func=cmd_help)
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; the commands are {', '.join(COMMANDS)}")
    handler, positionals, options = COMMANDS[command]
    # the handler bound on the module now, so that a wrapper set over it (perfbench's tracer) runs
    values = {"command": command, "func": globals()[handler.__name__],
              **{k: d for k, (_, d) in options.items()}}
    given, texts, unknown = [], [], []  # read first and checked after, so that help wins
    words = iter(words)
    for word in words:
        if word in ("-h", "--help"):
            return SimpleNamespace(command=command, func=cmd_help)
        key, eq, text = word[2:].partition("=")
        if word == "--":
            given += words  # every word left is a positional
        elif word[:2] != "--":
            given.append(word)
        elif key not in options or eq and options[key][0] is FLAG:
            unknown.append(word)
        elif options[key][0] is FLAG:
            values[key] = True
        elif eq or (text := next(words, None)) is not None:
            texts.append((key, text))
        else:
            raise ValueError(f"--{key} needs a value")
    for key, text in texts:
        values[key] = _value(key, options[key][0], text, values[key])
    for (name, choices), word in zip(positionals, given):
        if choices and word not in choices:
            raise ValueError(f"{command}: {name} is one of {', '.join(choices)}, not {word!r}")
        values[name] = word
    missing = [name for name, _ in positionals[len(given):]]
    missing += [f"--{k}" for k, v in values.items() if v is REQUIRED]
    if missing:
        raise ValueError(f"{command}: missing {', '.join(missing)}")
    unknown += given[len(positionals):]
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    own = argv is None  # the process's own command line: the process exits when main returns
    if own:  # no collection walks what the process made, the two at shutdown included
        gc.disable()
        atexit.register(gc.freeze)
    try:
        args = parse(sys.argv[1:] if own else argv)
        code, doc = args.func(args)
    except (ValueError, InternalConsistency, MemoryError) as exc:  # every domain error is a ValueError
        code, doc = _failure(exc)
    text = doc if isinstance(doc, str) else to_json(doc)
    try:  # flushed here, so that a failed write is reported here and not at exit
        if sys.stdout is None:  # the process started with fd 1 closed
            raise OSError("stdout is closed")
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"surfemb4: cannot write the result: {exc}", file=sys.stderr)
        if own and sys.stdout is not None:  # what the flush at exit writes goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OUTPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
