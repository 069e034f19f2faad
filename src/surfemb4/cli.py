"""Command-line interface.

Exit codes: 0 success, 1 the result could not be written (a full disk, a
closed pipe; one line on stderr), 2 validation failure, 3 internal
consistency failure (two independent computations of one quantity
disagreeing, e.g. the two Arf methods).  ``main`` alone turns errors into
exit codes; a command line that ``parse`` refuses is a validation failure,
printed as JSON like any other.  ``parse`` reads the command table
``COMMANDS`` by argparse's rules; it does not import argparse, whose import
and parser building cost about 5 ms of a child's start.

Each verdict is one interpreter start.  A child's CPU time goes to starting
the interpreter and ``site``, to compiling the package source it runs when
no bytecode is written (11 ms of ``examples list``, 26 ms of ``decide``), to
the command's work (well under 1 ms for ``knot arf`` or ``examples list``)
and to exit, where ``Py_FinalizeEx`` runs two full collections that walk
every container left.  So ``main``, and only ``main``, sets the collector
when it runs the process's own command line (``argv`` None): it turns the
collector off and registers ``gc.freeze`` with ``atexit``, which runs
before those collections, so that no collection walks what the process
made; this saves a ``knot`` or ``examples list`` child 5-8 ms.  An
in-process caller's collector is left as it is.  ``os._exit`` would save
about 2 ms more, but it skips ``atexit`` and the report of a failed flush,
so it is not taken.  README has the measurements.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from . import engine, gamma, knots, schema
from .errors import InternalConsistency

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


class _OutputError(Exception):
    """Writing the result to stdout failed: a full disk, a closed pipe."""


def _write(text: str) -> None:
    """Write and flush the result, so that a failed write raises here and not at exit."""
    if sys.stdout is None:  # the process started with fd 1 closed
        raise _OutputError("stdout is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise _OutputError(exc) from None


def _emit(doc) -> None:
    _write(schema.to_json(doc))


def _error_doc(exc: ValueError) -> dict:
    return {"ok": False, "errors": exc.errors if isinstance(exc, schema.SchemaError) else [str(exc)]}


def _load_instance(name: str) -> engine.ProblemInstance:
    return schema.load_instance(str(_resolve(name, "instances")))


def cmd_validate(args) -> int:
    _load_instance(args.instance)
    _emit({"ok": True, "errors": []})
    return EXIT_OK


def _decide_one(path: str, mode: str) -> tuple[int, dict]:
    """Exit code and output of one instance; errors stay in the entry, for batches."""
    try:
        inst = _load_instance(path)
        verdict = engine.flowchart(inst) if mode == "regular" else engine.homotopy_analysis(inst)
    except ValueError as exc:  # bad input and every domain error derived from it
        return EXIT_VALIDATION, _error_doc(exc)
    return EXIT_OK, verdict.as_dict()


def cmd_decide(args) -> int:
    if args.batch:
        paths = sorted(Path(args.instance).glob("*.json"))
        if not paths:
            raise ValueError(f"no instance files in {args.instance}")
        worst = EXIT_OK
        out = {}
        for p in paths:
            code, out[p.name] = _decide_one(str(p), args.mode)
            worst = max(worst, code)
        _emit(out)
        return worst
    code, doc = _decide_one(args.instance, args.mode)
    _emit(doc)
    return code


def cmd_km(args) -> int:
    _emit({"km": engine.compute_km(_load_instance(args.instance))})
    return EXIT_OK


def cmd_gamma(args) -> int:
    inst = _load_instance(args.instance)
    i = args.component
    j = args.other if args.other is not None else i
    s_f = inst.component(i).subgroup
    s_g = inst.component(j).subgroup
    ctx = gamma.PairingContext(inst.group, inst.wM, s_f, s_g, self_pairing=(i == j))
    target = gamma.build_gamma(ctx)
    classified = []  # each query checked once, by the classification
    for raw in args.query or []:
        try:
            value = json.loads(raw)
            classified.append((value, target.classify(value)))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"bad query element {raw!r}: {exc}") from None
    report: dict = {"self_pairing": i == j}
    if target.finite:
        orbits = target.orbits()  # built once; the counts are read off it
        report["orbits"] = [{"rep": o.rep, "order": "Z/2" if o.order_two else "Z"} for o in orbits]
        report["z2_count"] = sum(o.order_two for o in orbits)
        report["free_rank"] = len(orbits) - report["z2_count"]
        oracle_rank, oracle_torsion = gamma.smith_oracle(ctx)
        report["smith_oracle"] = {"free_rank": oracle_rank, "torsion": oracle_torsion}
    else:
        report["note"] = "infinite ambient group; orbits reported per queried element"
    # the reader checked the points against the group, so they are reduced as they are
    elem = gamma.reduce_list(engine.points_between(inst.points, i, j), target)
    queries = []
    for value, (orbit, section) in classified:
        queries.append({
            "element": value,
            "orbit_rep": orbit.rep,
            "order": "Z/2" if orbit.order_two else "Z",
            "coefficient": elem.coefficient(orbit, section).value,
        })
    report["reduced_is_zero"] = elem.is_zero()
    report["queries"] = queries
    _emit(report)
    return EXIT_OK


def cmd_knot(args) -> int:
    V = schema.load_knot(str(_resolve(args.knot, "knots")))
    if args.invariant == "arf":
        _emit({"arf": knots.arf(V)})
    elif args.invariant == "alex":
        _emit({"alexander_at_minus_one": knots.alexander_at_minus_one(V)})
    elif args.invariant == "sig":
        try:  # the point exp(i*pi*p/q) as two ints, reduced by levine_tristram
            p, q = args.omega.split("/") if "/" in args.omega else (args.omega, "1")
            p, q = int(p), int(q)
            if not q:
                raise ValueError("zero denominator")
        except ValueError as exc:
            raise ValueError(f"bad --omega {args.omega!r}: {exc}") from None
        _emit({"signature": knots.levine_tristram(V, p, q)})
    elif args.invariant == "sigma-d":
        _emit({"sigma_d": knots.sigma_d(V, args.d)})
    elif args.invariant == "cp2-bound":
        _emit({"lower_bound": knots.cp2_genus_lower_bound(V, args.d)})
    elif args.invariant == "cp2-verdict":
        v = knots.cp2_genus_verdict(V)
        _emit({"lower": v.lower, "upper": v.upper,
               "exact": v.exact if v.exact is not None else "unknown",
               "incomplete": v.incomplete, "scan_limit": v.scan_limit})
    elif args.invariant == "shake-genus":
        _emit({"shake_genus_pm1": knots.shake_genus_pm1(V)})
    return EXIT_OK


def cmd_examples(args) -> int:
    out = {}
    for kind in ("instances", "knots"):
        try:
            out[kind] = sorted(name for name in os.listdir(_DATA / kind) if name.endswith(".json"))
        except OSError as exc:  # not a directory: a zipped package
            raise ValueError(f"cannot list the shipped {kind}: {exc}") from None
    _emit(out)
    return EXIT_OK


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
surfemb4 knot sig --omega=-1/3 trefoil    # a value starting with - takes the = form
surfemb4 knot sigma-d --d 3 sum3_trefoil
surfemb4 knot cp2-bound --d 2 sum3_trefoil
surfemb4 knot cp2-verdict sum3_trefoil
surfemb4 knot shake-genus trefoil
surfemb4 -h                               # this text; also after a command
"""


def cmd_help(args) -> int:
    _write(USAGE)
    return EXIT_OK


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

# A word that looks like a negative number is a value, as in argparse.
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(word: str, names) -> tuple | None:
    """How a word before ``--`` reads: None for a value, else (option, its value or None).

    The option is one of ``names``, named in full or by a unique prefix, or
    None for an unknown option.  ``-h`` is "help", and so is ``-hh``
    or ``-h=h``; given any other tail, it is help given a value.
    """
    if word[:1] != "-" or word == "-":
        return None
    if word[1] == "-":
        key, eq, value = word[2:].partition("=")
        found = [key] if key in names else [n for n in names if n.startswith(key)]
        if len(found) > 1:
            raise ValueError(f"ambiguous option {word!r}: " + ", ".join("--" + n for n in found))
        if found:
            return found[0], value if eq else None
    elif word[1] == "h":
        tail = word[2:]
        return "help", None if not tail or set(tail.removeprefix("=")) == {"h"} else tail
    return None if _NEGATIVE.match(word) or " " in word else (None, None)


def _value(option: str, kind, text: str, before):
    if kind is STR:
        return text
    if kind is APPEND:
        return (before or []) + [text]
    if kind is INT:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"--{option} takes an integer, not {text!r}") from None
    if text not in kind:
        raise ValueError(f"--{option} takes one of {', '.join(kind)}, not {text!r}")
    return text


def _parse_command(command: str, words: list) -> SimpleNamespace:
    handler, positionals, options = COMMANDS[command]
    names = (*options, "help")
    marker = words.index("--") if "--" in words else len(words)
    # every word before -- is read first, so an ambiguous one is refused before any help
    opts = [_option(word, names) for word in words[:marker]]
    # the handler bound on the module now, so that a wrapper set over it (perfbench's tracer) runs
    values = {"command": command, "func": globals()[handler.__name__],
              **{k: d for k, (_, d) in options.items()}}
    taken, unknown = [], []

    def take(word):  # the next positional, checked as it comes
        if len(taken) == len(positionals):
            unknown.append(word)
            return
        name, choices = positionals[len(taken)]
        if choices and word not in choices:
            raise ValueError(f"{command}: {name} is one of {', '.join(choices)}, not {word!r}")
        taken.append(name)
        values[name] = word

    pairs = zip(words, opts)
    for word, opt in pairs:
        if opt is None:
            take(word)
            continue
        key, value = opt
        if key is None:
            unknown.append(word)
        elif key != "help" and options[key][0] is not FLAG:
            if value is None:  # the next word, if it reads as a value
                value, after = next(pairs, ("", ()))
                if after is not None:
                    raise ValueError(f"--{key} needs a value; one that starts with - "
                                     f"takes the form --{key}=VALUE")
            values[key] = _value(key, options[key][0], value, values[key])
        elif value is not None:
            raise ValueError(f"{word!r}: --{key} takes no value")
        elif key == "help":
            return SimpleNamespace(command=command, func=cmd_help)
        else:
            values[key] = True
    for word in words[marker + 1:]:
        take(word)
    missing = [name for name, _ in positionals[len(taken):]]
    missing += [f"--{k}" for k, v in values.items() if v is REQUIRED]
    if missing:
        raise ValueError(f"{command}: missing {', '.join(missing)}")
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**values)


def parse(argv) -> SimpleNamespace:
    """The handler and values of a command line; they read ``args.func(args)``.

    The same lines as ``argparse`` accepts, with the same values: options
    anywhere after their command, ``--opt value`` and ``--opt=value``, unique
    prefixes, ``--query`` kept at each use and any other option's last value,
    ``--`` ending the options, and a value that starts with ``-`` only when it
    looks like a negative number or has the ``=`` form.  ``-h`` or ``--help``
    gives ``cmd_help``, and a line that ``argparse`` refuses raises ValueError.
    """
    unknown = []
    for k, word in enumerate(argv):
        if word == "--":
            raise ValueError("the command must come before --")
        opt = _option(word, ("help",))
        if opt is None:
            if word not in COMMANDS:
                raise ValueError(f"unknown command {word!r}; the commands are {', '.join(COMMANDS)}")
            args = _parse_command(word, list(argv[k + 1:]))
            if unknown and args.func is not cmd_help:
                raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
            return args
        if opt[0] is None:
            unknown.append(word)
        elif opt[1] is None:
            return SimpleNamespace(command=None, func=cmd_help)
        else:
            raise ValueError(f"{word!r}: --help takes no value")
    raise ValueError(f"no command given; the commands are {', '.join(COMMANDS)}")


def main(argv=None) -> int:
    own = argv is None  # the process's own command line: the process exits when main returns
    if own:  # no collection walks what the process made, the two at shutdown included
        gc.disable()
        atexit.register(gc.freeze)
    try:
        try:
            args = parse(sys.argv[1:] if own else argv)
            return args.func(args)
        except ValueError as exc:  # bad input and every domain error derived from it
            _emit(_error_doc(exc))
            return EXIT_VALIDATION
        except InternalConsistency as exc:
            _emit({"ok": False, "errors": [str(exc)]})
            return EXIT_INTERNAL
    except _OutputError as exc:
        print(f"surfemb4: cannot write the result: {exc}", file=sys.stderr)
        if own and sys.stdout is not None:  # what the flush at exit writes goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
