"""Seeded input generators for the three benchmark workloads.

Each workload is a *round*: a fixed list of CLI invocations.  Whatever sets
an invocation's cost (sizes, group family, a knot's summands, the code path
its flags select) is fixed per slot; the seed picks the content (element
labels, characters, subgroup generators, points, discs, band classes, the
order of a knot's summands, signature points).
Every invocation carries the answer it must produce and the reason that
answer holds, derived from how the input was built rather than from running
the program.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REG = "RegHomotopicToEmbedding"
NOT_REG = "NotRegHomotopicToEmbedding"
HOMOTOPIC = "HomotopicToEmbedding"
NO_CONCLUSION = "NoConclusion"
U = "undefined"


@dataclass
class Item:
    """One CLI invocation and what it must print."""

    argv: list[str]
    kind: str  # decide | batch | gamma | arf | sig | cp2
    expect: dict
    reason: str
    items: int = 1  # verdicts, reports or invariants the invocation yields
    files: dict = field(default_factory=dict, repr=False)  # relative path -> JSON doc


# -- expected verdicts ----------------------------------------------------------


def regular_verdict(unpaired: bool, theta_one: bool, t: int, duals: bool, good: bool) -> dict:
    """The flowchart outcome the construction forces (Fig. 2 of the paper)."""
    if unpaired:
        return {"outcome": NOT_REG, "km": U, "t": U, "b_char": U}
    if not theta_one:
        if t == 1:
            return {"outcome": NOT_REG, "km": 1, "t": 1, "b_char": "yes"}
        if not duals:
            return {"outcome": NO_CONCLUSION, "km": U, "t": 0, "b_char": "yes"}
        return {"outcome": REG if good else NO_CONCLUSION, "km": 0, "t": 0, "b_char": "yes"}
    if not duals:
        return {"outcome": NO_CONCLUSION, "km": U, "t": U, "b_char": "no"}
    return {"outcome": REG if good else NO_CONCLUSION, "km": 0, "t": U, "b_char": "no"}


def homotopy_verdict(case2: bool, unpaired: bool, theta_one: bool, t: int, duals: bool,
                     good: bool) -> dict:
    """Homotopy-mode outcome: case 2 trades t away, case 1 defers to the flowchart."""
    if unpaired:
        return {"outcome": NOT_REG, "km": U, "t": U, "b_char": U}
    if not case2:
        return regular_verdict(False, theta_one, t, duals, good)
    outcome = HOMOTOPIC if duals and good else NO_CONCLUSION
    return {"outcome": outcome, "km": U, "t": U, "b_char": U}


def _verdict_reason(unpaired, theta_one, t, duals, good, case2=None) -> str:
    parts = ["one unpaired double point, so the primary obstruction is nonzero" if unpaired
             else "double points come in cancelling pairs, so lambda = mu = 0"]
    if case2 is not None:
        parts.append("(1,-1) in the F^t signed subgroup (case 2)" if case2
                     else "no (1,-1) (case 1)")
    parts.append("one band record has Theta = 1" if theta_one
                 else "band boundaries are a-classes and every Theta is 0")
    parts.append(f"declared interior+framing+boundary parity t = {t}")
    parts.append(f"duals={duals} good_group={good}")
    return "; ".join(parts)


# -- surfaces, band catalogs and Whitney collections ------------------------------


def _band_catalog(rng: random.Random, genera: list[int], records: int, ft_comps: set[int],
                  theta_one: bool) -> tuple[dict, list]:
    """Records whose boundaries are sums of a-classes, so the boundary form vanishes.

    Returns the catalogs document and the surface components.  Records on
    components outside F^t are filtered by the engine and may carry any Theta.
    """
    offsets, dim = [], 0
    for g in genera:
        offsets.append(dim)
        dim += 2 * g

    def a_class(comp: int) -> list[int]:
        vec = [0] * dim
        picks = rng.sample(range(genera[comp]), k=rng.randint(1, genera[comp]))
        for i in picks:
            vec[offsets[comp] + 2 * i] = 1
        return vec

    on_ft = [c for c in range(len(genera)) if c in ft_comps]
    off_ft = [c for c in range(len(genera)) if c not in ft_comps] or on_ft
    bands, basis, boundary = [], [], {}
    theta_slot = rng.randrange(records) if theta_one else -1
    for r in range(records):
        # a fixed two thirds stay on F^t: the engine's boundary check is
        # quadratic in the records it keeps, so their number is not left to the seed
        comp = on_ft[0] if r == theta_slot or r % 3 != 2 else off_ft[0]
        kind = rng.choice(("surface", "annulus", "mobius"))
        circles = {"annulus": 2, "mobius": 1}.get(kind, rng.randint(1, 3))
        classes = [a_class(comp) for _ in range(circles)]
        total = [0] * dim
        for c in classes:
            total = [x ^ y for x, y in zip(total, c)]
        bits = [rng.randint(0, 1) for _ in range(3)]
        want = 1 if r == theta_slot else 0
        bits.append((want - sum(bits)) % 2)
        name = f"r{r}"
        basis.append(name)
        boundary[name] = total
        bands.append({
            "id": f"band{r}", "kind": kind, "rel_class": [int(i == r) for i in range(records)],
            "boundary_classes": classes, "w1_sigma": [0] * circles, "w1m_core": 0,
            "mu_boundary": bits[0], "arc_count": bits[1], "interior": bits[2], "euler": bits[3],
        })
    surface = [{"id": c, "genus": g, "orientable": True, "boundary_circles": 0}
               for c, g in enumerate(genera)]
    catalogs = {"rel_h2": {"basis": basis, "boundary": boundary}, "bands": bands,
                "spheres": [], "rp2": []}
    return catalogs, surface


def _whitney(rng: random.Random, pairs: list[tuple[int, int]], comp: int, other: int | None,
             weak: bool) -> tuple[dict, int]:
    """Discs pairing each cancelling pair on ``comp``; returns (collection, t).

    t is the parity of the interior counts on ``comp`` plus, for a weak
    collection, the framing, boundary self-intersection and pairwise
    boundary counts, which ``to_convenient`` turns into interior points.
    Interior counts on ``other`` (outside F^t) never enter t.
    """
    discs, t = [], 0
    for d, (p, q) in enumerate(pairs):
        interior = {str(comp): rng.randint(0, 2)}
        t += interior[str(comp)]
        if other is not None and rng.random() < 0.3:
            interior[str(other)] = rng.randint(1, 2)
        euler = mu = 0
        if weak:
            euler, mu = rng.randint(0, 1), rng.randint(0, 1)
            t += euler + mu
        discs.append({"id": d, "pairs": [p, q], "interior": interior,
                      "mu_boundary": mu, "euler": euler})
    boundary = []
    if weak and len(discs) > 1:
        for d1, d2 in {tuple(sorted(rng.sample(range(len(discs)), 2)))
                       for _ in range(len(discs) // 4)}:
            count = rng.randint(1, 3)
            t += count
            boundary.append([d1, d2, count])
    return {"convenient": not weak, "discs": discs, "boundary_intersections": boundary}, t % 2


def _component(cid: int, gens: list, dual: bool, framed: bool) -> dict:
    return {"id": cid, "signed_subgroup": gens, "has_alg_dual": dual, "dual_framed": framed}


def _point(pid: int, comps: tuple[int, int], sign: int, eta) -> dict:
    return {"id": pid, "components": list(comps), "sign": sign, "eta": eta}


# -- finite table groups ----------------------------------------------------------


def _factor(kind: str, m: int):
    """(elements, multiply, nontrivial characters) of C_m or the dihedral D_m (order 2m)."""
    if kind == "C":
        chars = [lambda k: -1 if k % 2 else 1] if m % 2 == 0 else []
        return list(range(m)), lambda a, b: (a + b) % m, chars
    elems = [(k, e) for k in range(m) for e in (0, 1)]

    def mul(a, b):
        return ((a[0] + (-b[0] if a[1] else b[0])) % m, a[1] ^ b[1])

    chars = [lambda x: -1 if x[1] else 1]
    if m % 2 == 0:
        chars += [lambda x: -1 if x[0] % 2 else 1, lambda x: -1 if (x[0] + x[1]) % 2 else 1]
    return elems, mul, chars


def _finite_group(rng: random.Random, spec: tuple):
    """A randomly relabelled table group with a nontrivial character and an involution.

    ``spec`` is a tuple of factors such as (("C", 2), ("D", 32)).
    Returns (table, wM values, label of an element of order 2, name).
    """
    factors = [_factor(kind, m) for kind, m in spec]
    elems = list(itertools.product(*[f[0] for f in factors]))
    index = {e: i for i, e in enumerate(elems)}
    label = list(range(len(elems)))
    rng.shuffle(label)

    def mul(x, y):
        return tuple(f[1](a, b) for f, a, b in zip(factors, x, y))

    table = [[0] * len(elems) for _ in elems]
    for i, x in enumerate(elems):
        row = table[label[i]]
        for j, y in enumerate(elems):
            row[label[j]] = label[index[mul(x, y)]]
    while True:
        picks = [rng.choice([None] + f[2]) for f in factors]
        if any(p is not None for p in picks):
            break
    wm = [1] * len(elems)
    for i, x in enumerate(elems):
        v = 1
        for p, a in zip(picks, x):
            if p is not None:
                v *= p(a)
        wm[label[i]] = v
    identity = elems[0]
    involution = rng.choice([i for i, x in enumerate(elems) if x != identity
                             and mul(x, x) == identity])
    return table, wm, label[involution], "x".join(f"{k}{m}" for k, m in spec)


def _finite_instance(rng: random.Random, slot: dict):
    """One component; its signed subgroup is generated by an involution, so it has
    two elements whatever the seed, which keeps the orbit and Smith costs per slot."""
    table, wm, involution, name = _finite_group(rng, slot["group"])
    n = len(table)
    gens = [[involution, rng.choice((1, -1))]]
    unpaired, theta_one, weak = slot["unpaired"], slot["theta_one"], slot["weak"]
    duals, good = rng.random() < 0.8, rng.random() < 0.8
    points, disc_pairs = [], []
    for k in range(slot["pairs"]):
        eta, sign = rng.randrange(n), rng.choice((1, -1))
        points += [_point(2 * k, (0, 0), sign, eta), _point(2 * k + 1, (0, 0), -sign, eta)]
        disc_pairs.append((2 * k, 2 * k + 1))
    query = None
    if unpaired:
        eta, sign = rng.randrange(n), rng.choice((1, -1))
        points.append(_point(2 * slot["pairs"], (0, 0), sign, eta))
        query = (eta, sign)
    collection, t = _whitney(rng, disc_pairs, 0, None, weak)
    catalogs, surface = _band_catalog(rng, [3], 6, {0}, theta_one)
    doc = {
        "version": 1, "group": {"kind": "finite", "table": table},
        "characters": {"wM": wm},
        "components": [_component(0, gens, duals, False)],
        "surface": {"components": surface}, "double_points": points,
        "whitney_collection": collection, "catalogs": catalogs,
        "flags": {"good_group": good, "torus_summand": []},
    }
    verdict = regular_verdict(unpaired, theta_one, t, duals, good)
    reason = f"{name}: " + _verdict_reason(unpaired, theta_one, t, duals, good)
    return doc, verdict, reason, query


def _finite_slot(command, *group, unpaired=False, theta_one=False, weak=False, pairs=150):
    return dict(command=command, group=group, unpaired=unpaired, theta_one=theta_one,
                weak=weak, pairs=pairs)


C, D = "C", "D"
# Round of decide-finite: everything that sets an item's cost is fixed per
# slot (group family and order, command, path flags, point count); the seed
# picks labels, characters, subgroups, points and discs.  Sorted by cost, the
# median falls among the order-128 decides and p75 among the order-128 gammas.
FINITE_ROUND = [
    _finite_slot("decide", (C, 64)), _finite_slot("decide", (D, 32), unpaired=True),
    _finite_slot("decide", (C, 2), (D, 16), weak=True),
    _finite_slot("decide", (C, 8), (C, 8), theta_one=True),
    _finite_slot("decide", (D, 48), weak=True), _finite_slot("decide", (C, 4), (C, 24)),
    _finite_slot("decide", (C, 128), weak=True), _finite_slot("decide", (D, 64)),
    _finite_slot("decide", (C, 2), (D, 32), unpaired=True),
    _finite_slot("decide", (C, 8), (C, 16), weak=True, theta_one=True),
    _finite_slot("decide", (C, 4), (D, 16)), _finite_slot("decide", (D, 64), weak=True),
    _finite_slot("decide", (D, 96), weak=True),
    _finite_slot("decide", (C, 256)),
    _finite_slot("gamma", (C, 2), (D, 16)), _finite_slot("gamma", (D, 32), unpaired=True),
    _finite_slot("gamma", (C, 128)), _finite_slot("gamma", (D, 64), unpaired=True),
    _finite_slot("gamma", (C, 2), (D, 32)), _finite_slot("gamma", (C, 8), (C, 16)),
    _finite_slot("gamma", (C, 4), (D, 16), unpaired=True),
    _finite_slot("gamma", (D, 128)),
]
FINITE_TINY = [_finite_slot("decide", (D, 8), pairs=20),
               _finite_slot("gamma", (C, 2), (C, 8), pairs=20),
               _finite_slot("gamma", (D, 12), unpaired=True, pairs=20)]


def decide_finite(seed: int, tiny: bool = False) -> list[Item]:
    rng = random.Random(f"decide-finite/{seed}")
    items = []
    for k, slot in enumerate(FINITE_TINY if tiny else FINITE_ROUND):
        doc, verdict, reason, query = _finite_instance(rng, slot)
        path = f"finite{k}.json"
        if slot["command"] == "decide":
            items.append(Item(["decide", path], "decide", {"verdict": verdict}, reason,
                              files={path: doc}))
            continue
        argv = ["gamma", path, "--component", "0"]
        if query is None:
            p = rng.choice(doc["double_points"])
            argv += ["--query", str(p["eta"])]
            expect = {"reduced_is_zero": True, "coefficient": 0}
            why = "paired points cancel, so the reduced list and every coefficient are 0"
        else:
            argv += ["--query", str(query[0])]
            expect = {"reduced_is_zero": False, "coefficient": query[1]}
            why = ("the unpaired point's coefficient is its sign on a Z orbit and 1 on a "
                   "Z/2 orbit, since all other points on the orbit cancel")
        items.append(Item(argv, "gamma", expect, f"{reason.split(':')[0]}: {why}; "
                          "orbit counts must match the Smith oracle",
                          files={path: doc}))
    return items


# -- f.g. abelian groups ----------------------------------------------------------


def _abelian_elem(rng: random.Random, factors: list[int], spread: int = 40) -> list[int]:
    return [rng.randint(-spread, spread) if f == 0 else rng.randrange(f) for f in factors]


def _abelian_instance(rng: random.Random, slot: dict):
    """Two components: 0 is F^t (no framed dual) and carries the discs, 1 has a framed dual.

    Component 1 and the (0,1) pairs need no discs, so the point count can
    exceed twice the disc count.  The unpaired point, when present, is on
    the (0,1) pair: it makes lambda nonzero and leaves mu_1 = 0, which
    homotopy mode requires.
    """
    factors = slot["factors"]
    while True:
        wm = [rng.choice((1, -1)) if f % 2 == 0 else 1 for f in factors]
        if -1 in wm:
            break

    def wm_of(x):
        return -1 if sum(v for v, w in zip(x, wm) if w == -1) % 2 else 1

    def elem(w):
        """A generator with wM = w and a nonzero Z coordinate, so it has infinite order.

        Whether wM is trivial on the generators decides whether every
        self-pairing orbit is Z/2, which changes the cost per point, so it
        is fixed per slot (``twisted``) rather than left to the seed.
        """
        while True:
            x = _abelian_elem(rng, factors, 5)
            if wm_of(x) == w and any(v for v, f in zip(x, factors) if f == 0):
                return x

    # All-positive signs keep (1,-1) out of component 0's subgroup (case 1);
    # case 2 puts it in with a generator taken with both signs.
    gens0 = [[elem(-1 if slot["twisted"] else 1), 1]]
    if slot["case2"]:
        h = elem(1)
        gens0 += [[h, 1], [h, -1]]
    gens1 = [[elem(1), rng.choice((1, -1))]]
    duals, good = rng.random() < 0.8, rng.random() < 0.8
    points, disc_pairs = [], []
    pid = 0
    for comps, count in (((0, 0), slot["discs"]), ((1, 1), slot["self1"]),
                         ((0, 1), slot["mixed"])):
        for _ in range(count):
            eta, sign = _abelian_elem(rng, factors), rng.choice((1, -1))
            points += [_point(pid, comps, sign, eta), _point(pid + 1, comps, -sign, eta)]
            if comps == (0, 0):
                disc_pairs.append((pid, pid + 1))
            pid += 2
    if slot["unpaired"]:
        points.append(_point(pid, (0, 1), rng.choice((1, -1)), _abelian_elem(rng, factors)))
    rng.shuffle(points)
    collection, t = _whitney(rng, disc_pairs, 0, 1, slot["weak"])
    g0 = slot["genus"] // 2
    catalogs, surface = _band_catalog(rng, [g0, slot["genus"] - g0], slot["records"], {0},
                                      slot["theta_one"])
    doc = {
        "version": 1, "group": {"kind": "abelian", "factors": factors},
        "characters": {"wM": wm},
        "components": [_component(0, gens0, duals, False), _component(1, gens1, True, True)],
        "surface": {"components": surface}, "double_points": points,
        "whitney_collection": collection, "catalogs": catalogs,
        "flags": {"good_group": good, "torus_summand": []},
    }
    facts = (slot["unpaired"], slot["theta_one"], t, duals, good)
    return doc, facts


def _abelian_slot(factors, discs, self1, mixed, genus, records, weak=False, theta_one=False,
                  unpaired=False, case2=False, twisted=False):
    """Sizes: discs = cancelling pairs on F^t (each with a disc), self1 = pairs on
    component 1, mixed = (0,1) pairs; genus sums both components, so the H1
    dimension is twice it; records is the band catalog size."""
    return dict(factors=factors, discs=discs, self1=self1, mixed=mixed, genus=genus,
                records=records, weak=weak, theta_one=theta_one, unpaired=unpaired,
                case2=case2, twisted=twisted)


# Round of decide-abelian: each batch directory is decided in both modes.  As
# in decide-finite, the group (invariant factors) and every path flag are
# fixed per slot, and the seed picks characters, subgroups, points and discs.
ABELIAN_ROUND = [
    [_abelian_slot([0, 0, 4, 6], 1000, 2500, 300, 20, 60, weak=True),
     _abelian_slot([0, 2], 300, 700, 100, 10, 20, weak=True, unpaired=True)],
    [_abelian_slot([0, 3, 0, 4, 0, 2, 0, 8], 400, 1600, 200, 15, 25, theta_one=True),
     _abelian_slot([0, 0, 6], 700, 300, 100, 10, 40, weak=True, case2=True)],
    [_abelian_slot([0, 4, 0, 0, 12], 500, 300, 200, 12, 30, case2=True),
     _abelian_slot([0, 2, 0, 0, 3, 4], 250, 500, 100, 16, 20, twisted=True)],
]
ABELIAN_TINY = [[_abelian_slot([0, 2], 20, 30, 5, 4, 4, weak=True, case2=True),
                 _abelian_slot([0, 3, 0], 15, 10, 5, 4, 3, unpaired=True)]]


def decide_abelian(seed: int, tiny: bool = False) -> list[Item]:
    rng = random.Random(f"decide-abelian/{seed}")
    items = []
    for b, batch in enumerate(ABELIAN_TINY if tiny else ABELIAN_ROUND):
        d = f"batch{b}"
        files, regular, homotopy, reasons = {}, {}, {}, []
        for k, slot in enumerate(batch):
            doc, facts = _abelian_instance(rng, slot)
            name = f"inst{k}.json"
            files[f"{d}/{name}"] = doc
            regular[name] = regular_verdict(*facts)
            homotopy[name] = homotopy_verdict(slot["case2"], *facts)
            reasons.append(f"{name}: " + _verdict_reason(*facts, case2=slot["case2"]))
        for mode, expect in (("regular", regular), ("homotopy", homotopy)):
            items.append(Item(["decide", "--batch", d, "--mode", mode], "batch",
                              {"verdicts": expect}, " | ".join(reasons),
                              items=len(batch), files=files if mode == "regular" else {}))
    return items


# -- knots ------------------------------------------------------------------------


def torus_seifert(q: int) -> list[list[int]]:
    """The (q-1)x(q-1) Seifert matrix of T(2,q): -1 on the diagonal, 1 above it."""
    n = q - 1
    return [[-1 if i == j else 1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]


def _block_sum(blocks: list[list[list[int]]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def torus_arf(q: int) -> int:
    """Arf(T(2,q)) = 0 exactly when q = +-1 mod 8."""
    return 0 if q % 8 in (1, 7) else 1


def torus_signature(q: int, r: Fraction) -> int:
    """Levine-Tristram signature of T(2,q) at exp(i*pi*r), r in (0,2) off the roots.

    The roots of (t^q+1)/(t+1) are exp(i*pi*m/q) for odd m != q, and each
    root on the upper half circle that is passed lowers the signature by 2,
    so sigma(-1) = -(q-1) and sigma(2-r) = sigma(r).
    """
    s = r if r <= 1 else 2 - r
    return -2 * sum(1 for m in range(1, q, 2) if Fraction(m, q) < s)


def _is_root(qs: list[int], r: Fraction) -> bool:
    return any((r * q).denominator == 1 and (r * q).numerator % 2 == 1
               and r * q != q for q in qs)


# Round of knots: (the q of each T(2,q) summand, signature request), where the
# request is "root" (a root of the Alexander polynomial, exit 2) or "generic".
# The summands fix each knot's cost (the Seifert size n = sum(q - 1) and the
# length of the cp2 scan), so the seed only orders them and picks the omegas.
KNOT_ROUND = [
    ((3,), "generic"), ((3, 3), "root"), ((5,), "generic"), ((3, 5), "generic"),
    ((7, 3), "root"), ((7, 3, 3), "generic"), ((13,), "generic"), ((5, 11), "root"),
    ((11, 7), "generic"), ((17,), "generic"), ((5, 5, 9), "generic"),
]


def knots(seed: int, tiny: bool = False) -> list[Item]:
    rng = random.Random(f"knots/{seed}")
    plan = KNOT_ROUND[:2] if tiny else KNOT_ROUND
    items = []
    for k, (summands, request) in enumerate(plan):
        qs = list(summands)
        rng.shuffle(qs)
        n = sum(q - 1 for q in qs)
        want_arf = sum(torus_arf(q) for q in qs) % 2
        name = "#".join(f"T(2,{q})" for q in qs)
        path = f"knot{k}.json"
        files = {path: {"name": name, "seifert": _block_sum([torus_seifert(q) for q in qs])}}
        arf_reason = f"{name}: Arf(T(2,q)) = 0 iff q = +-1 mod 8, additive under #"
        items.append(Item(["knot", "arf", path], "arf", {"arf": want_arf}, arf_reason,
                          files=files))
        items.append(Item(["knot", "sig", path, "--omega", "1/1"], "sig",
                          {"signature": -n},
                          f"{name}: sigma(-1) of T(2,q) is -(q-1), additive under #"))
        if request == "root":
            q = rng.choice(qs)
            m = rng.choice([m for m in range(1, 2 * q, 2) if m != q])
            r = Fraction(m, q)
            expect = {"exit": 2}
            why = f"exp(i*pi*{r}) is a root of the Alexander polynomial of T(2,{q})"
        else:
            while True:
                den = rng.randint(2, 12)
                r = Fraction(rng.randrange(1, 2 * den), den)
                if r != 1 and not _is_root(qs, r):
                    break
            expect = {"signature": sum(torus_signature(q, r) for q in qs)}
            why = f"{name}: signature jumps by -2 at each root passed, additive under #"
        items.append(Item(["knot", "sig", path, "--omega", f"{r.numerator}/{r.denominator}"],
                          "sig", expect, why))
        items.append(Item(["knot", "cp2-verdict", path], "cp2", {"arf": want_arf},
                          f"{name}: exact = 0 iff Arf = 0, and lower <= upper = 1"))
    return items


WORKLOADS = {"decide-finite": decide_finite, "decide-abelian": decide_abelian, "knots": knots}


def write_inputs(items: list[Item], root: Path) -> None:
    for item in items:
        for rel, doc in item.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc))


# -- answer checking --------------------------------------------------------------


def _verdict_matches(doc, want: dict) -> bool:
    return isinstance(doc, dict) and all(doc.get(k) == v for k, v in want.items())


def check(item: Item, code: int, doc) -> int:
    """Number of the item's verdicts, reports or invariants that are wrong."""
    exp = item.expect
    if item.kind == "batch":
        if code != 0 or not isinstance(doc, dict) or set(doc) != set(exp["verdicts"]):
            return item.items
        return sum(not _verdict_matches(doc[name], want)
                   for name, want in exp["verdicts"].items())
    if code != exp.get("exit", 0) or not isinstance(doc, dict):
        return 1
    if item.kind == "decide":
        return int(not _verdict_matches(doc, exp["verdict"]))
    if item.kind == "gamma":
        oracle = doc.get("smith_oracle", {})
        ok = (doc.get("reduced_is_zero") == exp["reduced_is_zero"]
              and oracle.get("free_rank") == doc.get("free_rank")
              and oracle.get("torsion") == [2] * (doc.get("z2_count") or 0)
              and len(doc.get("queries", [])) == 1)
        if ok:
            q = doc["queries"][0]
            coef = exp["coefficient"]
            if coef != 0 and q["order"] == "Z/2":
                coef = 1
            ok = q["coefficient"] == coef
        return int(not ok)
    if item.kind == "arf":
        return int(doc.get("arf") != exp["arf"])
    if item.kind == "sig":
        if "exit" in exp:
            return int(doc.get("ok") is not False)
        return int(doc.get("signature") != exp["signature"])
    if item.kind == "cp2":
        lower, upper, exact = doc.get("lower"), doc.get("upper"), doc.get("exact")
        if exp["arf"] == 0:
            return int((lower, upper, exact) != (0, 1, 0))
        ok = upper == 1 and exact in (1, "unknown") and lower == (1 if exact == 1 else 0)
        return int(not ok)
    raise ValueError(f"unknown item kind {item.kind!r}")
