"""Command-line interface.

Exit codes: 0 success, 2 validation failure, 3 internal consistency
failure (two independent computations of one quantity disagreeing, e.g.
the two Arf methods).  ``main`` alone turns errors into exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import _lazy, schema
from .errors import InternalConsistency

engine = _lazy("surfemb4.engine")
gamma = _lazy("surfemb4.gamma")
knots = _lazy("surfemb4.knots")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


def _data_dir(kind: str):
    return resources.files("surfemb4").joinpath("data", kind)


def _resolve(path: str, kind: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    candidate = _data_dir(kind).joinpath(path if path.endswith(".json") else path + ".json")
    if candidate.is_file():
        return Path(str(candidate))
    raise ValueError(f"no such file or shipped {kind[:-1]} '{path}'")


def _emit(doc) -> None:
    sys.stdout.write(schema.to_json(doc))


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
        orbits = target.orbits()
        report["orbits"] = [
            {"rep": o.rep, "order": "Z/2" if o.order_two else "Z"} for o in orbits
        ]
        report["free_rank"] = target.free_rank()
        report["z2_count"] = target.two_count()
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
    from fractions import Fraction  # here, so that no other command imports it
    V = schema.load_knot(str(_resolve(args.knot, "knots")))
    if args.invariant == "arf":
        _emit({"arf": knots.arf(V)})
    elif args.invariant == "alex":
        _emit({"alexander_at_minus_one": knots.alexander_at_minus_one(V)})
    elif args.invariant == "sig":
        try:
            p, q = args.omega.split("/") if "/" in args.omega else (args.omega, "1")
            omega = Fraction(int(p), int(q))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad --omega {args.omega!r}: {exc}") from None
        _emit({"signature": knots.levine_tristram(V, omega)})
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
    out = {"instances": [], "knots": []}
    for kind in ("instances", "knots"):
        base = _data_dir(kind)
        out[kind] = sorted(p.name for p in base.iterdir() if p.name.endswith(".json"))
    _emit(out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfemb4",
        description="Embedding obstructions for surfaces in 4-manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("decide", help="run the embedding decision flowchart")
    p.add_argument("instance", help="instance file, shipped example name, or directory with --batch")
    p.add_argument("--mode", choices=("regular", "homotopy"), default="regular")
    p.add_argument("--batch", action="store_true", help="process a directory of instance files")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("km", help="compute the secondary invariant only")
    p.add_argument("instance")
    p.set_defaults(func=cmd_km)

    p = sub.add_parser("gamma", help="report the intersection-number target group")
    p.add_argument("instance")
    p.add_argument("--component", type=int, required=True)
    p.add_argument("--other", type=int, default=None,
                   help="second component (defaults to a self-pairing)")
    p.add_argument("--query", action="append",
                   help="group element (JSON) whose orbit and coefficient to report")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("knot", help="Seifert-matrix knot invariants")
    p.add_argument("invariant", choices=("arf", "alex", "sig", "sigma-d",
                                         "cp2-bound", "cp2-verdict", "shake-genus"))
    p.add_argument("knot", help="knot file or shipped knot name")
    p.add_argument("--omega", default="1/1", help="signature point p/q, meaning exp(i*pi*p/q)")
    p.add_argument("--d", type=int, default=2, help="homology class for sigma-d / cp2-bound")
    p.set_defaults(func=cmd_knot)

    p = sub.add_parser("examples", help="shipped example files")
    p.add_argument("what", choices=("list",))
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad input and every domain error derived from it
        _emit(_error_doc(exc))
        return EXIT_VALIDATION
    except InternalConsistency as exc:
        _emit({"ok": False, "errors": [str(exc)]})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
