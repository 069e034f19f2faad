"""Combinatorial double points, Whitney-disc collections, and t-counts.

Intersection data is stored as counts, not positions: every invariant in
scope is a signed or mod-2 count.  A collection is *convenient* when every
disc is framed (zero twisting), has no boundary self-intersections, and
all pairwise boundary intersection counts vanish; *weak* collections relax
all three, and ``t_alt``/``to_convenient`` implement the standard
accounting between the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .errors import InternalConsistency
from .gamma import GammaGroup, reduce_list


class WhitneyError(ValueError):
    pass


class NoPairing(WhitneyError):
    pass


class MixedComponents(WhitneyError):
    pass


class NotConvenient(WhitneyError):
    pass


class UnpairedPoints(WhitneyError):
    pass


class NothingToTransfer(WhitneyError):
    pass


@dataclass(frozen=True)
class DoublePoint:
    id: int
    components: tuple[int, int]  # (i, j); i == j for a self-intersection
    sign: int
    eta: object  # group element, per ambient backend


@dataclass(frozen=True)
class WhitneyDisc:
    id: int
    pair: tuple[int, int]  # ids of the two paired double points
    interior: dict  # surface component -> |Int W ^ f_i|, nonnegative counts
    mu_boundary: int = 0  # boundary self-intersections
    euler: int = 0  # twisting relative to the Whitney framing

    def interior_total(self) -> int:
        return sum(self.interior.values())

    def is_convenient(self) -> bool:
        return self.euler == 0 and self.mu_boundary == 0


@dataclass(frozen=True)
class WhitneyCollection:
    """Ordered disc list plus the symmetric boundary-intersection counts."""

    discs: tuple[WhitneyDisc, ...]
    boundary: dict = field(default_factory=dict)  # frozenset{id,id} -> count
    convenient: bool = True

    def __post_init__(self):
        ids = [d.id for d in self.discs]
        if len(set(ids)) != len(ids):
            raise WhitneyError("duplicate disc ids")
        paired = list(itertools.chain.from_iterable(d.pair for d in self.discs))
        if len(set(paired)) != len(paired):
            raise WhitneyError("a double point is paired by more than one disc")
        for d in self.discs:
            if d.pair[0] == d.pair[1]:
                raise WhitneyError(f"disc {d.id} pairs a point with itself")
            if any(c < 0 for c in d.interior.values()) or d.mu_boundary < 0:
                raise WhitneyError(f"negative count on disc {d.id}")
        known = set(ids)
        for key, count in self.boundary.items():
            if len(key) != 2 or not key <= known:
                raise WhitneyError(f"bad boundary pair {set(key)}")
            if count < 0:
                raise WhitneyError("negative boundary count")
        if self.convenient:
            for d in self.discs:
                if not d.is_convenient():
                    raise NotConvenient(f"disc {d.id} is twisted or has boundary self-intersections")
            if any(self.boundary.values()):
                raise NotConvenient("convenient collections have disjoint boundaries")

    def paired_point_ids(self) -> set[int]:
        return set(itertools.chain.from_iterable(d.pair for d in self.discs))


def _points_within(points, components) -> list[DoublePoint]:
    comps = set(components)
    return [p for p in points if set(p.components) <= comps]


def _check_pairs_exactly(points, components, collection) -> None:
    want = {p.id for p in _points_within(points, components)}
    got = collection.paired_point_ids()
    if want != got:
        raise UnpairedPoints(
            f"collection pairs {sorted(got)} but the components' double points are {sorted(want)}"
        )


def find_pairing(points: list[DoublePoint], gamma: GammaGroup) -> list[tuple[int, int]]:
    """Match double points into cancelling pairs, or raise NoPairing.

    A matching exists exactly when the signed sum of the points vanishes in
    the quotient group: order-two orbits need even counts, infinite-order
    orbits need balanced effective signs.
    """
    if not points:
        return []
    comp_pairs = {frozenset(p.components) for p in points}
    if len(comp_pairs) > 1:
        raise MixedComponents(f"points span component pairs {sorted(map(sorted, comp_pairs))}")
    buckets: dict = {}
    for p in sorted(points, key=lambda p: p.id):
        orbit, section = gamma.classify(p.eta)
        eff = 0 if section is None else p.sign * section
        buckets.setdefault((orbit, eff), []).append(p.id)
    pairs: list[tuple[int, int]] = []
    for (orbit, eff), ids in sorted(buckets.items(), key=lambda kv: str(kv[0])):
        if orbit.order_two:
            if len(ids) % 2:
                raise NoPairing(f"odd number of points on order-two orbit {orbit.rep!r}")
            pairs.extend((ids[i], ids[i + 1]) for i in range(0, len(ids), 2))
        elif eff == 1:
            minus = buckets.get((orbit, -1), [])
            if len(ids) != len(minus):
                raise NoPairing(f"unbalanced signs on orbit {orbit.rep!r}")
            pairs.extend(zip(ids, minus))
    # orbits seen only with eff == -1 and no partner
    for (orbit, eff), ids in buckets.items():
        if not orbit.order_two and eff == -1 and (orbit, 1) not in buckets and ids:
            raise NoPairing(f"unbalanced signs on orbit {orbit.rep!r}")
    if not reduce_list([(p.sign, p.eta) for p in points], gamma).is_zero():
        raise InternalConsistency("a complete pairing left a nonzero intersection number")
    return sorted(pairs)


def t_count(points, components, collection: WhitneyCollection) -> int:
    """Mod-2 count of interior intersections with the given components."""
    if not collection.convenient:
        raise NotConvenient("t is defined for convenient collections; use t_alt")
    _check_pairs_exactly(points, components, collection)
    comps = set(components)
    total = sum(c for d in collection.discs for comp, c in d.interior.items() if comp in comps)
    return total % 2


def t_alt(points, components, collection: WhitneyCollection) -> int:
    """Weak-collection t: adds framing, boundary, and arc terms mod 2, in O(D + B)."""
    _check_pairs_exactly(points, components, collection)
    comps = set(components)
    total = sum(collection.boundary.values())
    for d in collection.discs:
        total += d.mu_boundary + d.euler
        total += sum(c for comp, c in d.interior.items() if comp in comps)
    return total % 2


def to_convenient(points, collection: WhitneyCollection) -> WhitneyCollection:
    """Trade twisting and boundary intersections for interior intersections.

    Boundary twists fix the framing at the cost of one interior intersection
    each; arc intersections are pushed off the end of the lower-indexed
    disc's arc.  The t-count of the result equals t_alt of the input.  One
    pass over the discs and one over the boundary counts, O(D + B).
    """
    by_id = {p.id: p for p in points}
    position = {d.id: idx for idx, d in enumerate(collection.discs)}
    bumps = [d.euler + d.mu_boundary for d in collection.discs]
    for key, count in collection.boundary.items():
        bumps[min(position[i] for i in key)] += count
    new_discs = []
    for d, bump in zip(collection.discs, bumps):
        interior = dict(d.interior)
        if bump % 2:
            comp = min(by_id[d.pair[0]].components)
            interior[comp] = interior.get(comp, 0) + 1
        new_discs.append(replace(d, interior=interior, mu_boundary=0, euler=0))
    return WhitneyCollection(tuple(new_discs), {}, convenient=True)


def transfer_move(points, collection: WhitneyCollection, w1_id: int, w2_id: int,
                  identity) -> tuple[list[DoublePoint], WhitneyCollection]:
    """Move one interior intersection from each of two discs onto fresh discs.

    A finger move creates six new double points paired by three embedded
    discs V, U1, U2; V picks up the two transferred intersections and each
    U_i meets the surface twice, so the total t-count is unchanged.
    """
    discs = {d.id: d for d in collection.discs}
    if w1_id not in discs or w2_id not in discs:
        raise WhitneyError("unknown disc id")
    w1, w2 = discs[w1_id], discs[w2_id]
    if w1.interior_total() < 1 or w2.interior_total() < 1:
        raise NothingToTransfer("both discs need an interior intersection")
    by_id = {p.id: p for p in points}

    def decrement(d: WhitneyDisc) -> tuple[WhitneyDisc, int]:
        comp = min(c for c, v in sorted(d.interior.items()) if v > 0)
        interior = dict(d.interior)
        interior[comp] -= 1
        return replace(d, interior=interior), comp

    new_w1, comp_e = decrement(w1)
    new_w2, comp_f = decrement(w2)
    comp_a = by_id[w1.pair[0]].components[0]
    comp_c = by_id[w2.pair[0]].components[0]

    next_pid = max((p.id for p in points), default=-1) + 1
    next_did = max(discs) + 1

    def fresh_pair(pair_comps):
        nonlocal next_pid
        p = DoublePoint(next_pid, pair_comps, 1, identity)
        q = DoublePoint(next_pid + 1, pair_comps, -1, identity)
        next_pid += 2
        return p, q

    v1, v2 = fresh_pair((comp_a, comp_c))
    u11, u12 = fresh_pair((comp_e, comp_a))
    u21, u22 = fresh_pair((comp_f, comp_c))
    new_points = list(points) + [v1, v2, u11, u12, u21, u22]
    v_disc = WhitneyDisc(next_did, (v1.id, v2.id), {comp_e: 1, comp_f: 1} if comp_e != comp_f else {comp_e: 2})
    u1_disc = WhitneyDisc(next_did + 1, (u11.id, u12.id), {comp_a: 2})
    u2_disc = WhitneyDisc(next_did + 2, (u21.id, u22.id), {comp_c: 2})
    new_list = [new_w1 if d.id == w1_id else new_w2 if d.id == w2_id else d for d in collection.discs]
    new_list += [v_disc, u1_disc, u2_disc]
    return new_points, WhitneyCollection(tuple(new_list), dict(collection.boundary),
                                         convenient=collection.convenient)
