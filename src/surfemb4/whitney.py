"""Combinatorial double points, Whitney-disc collections, and t-counts.

Intersection data is stored as counts, not positions: every invariant in
scope is a signed or mod-2 count.  A collection is *convenient* when every
disc is framed (zero twisting), has no boundary self-intersections, and
all pairwise boundary intersection counts vanish; *weak* collections relax
all three.  ``t_count`` is the one t formula, for weak and convenient
collections alike: on a convenient collection its framing and boundary
terms are zero.  ``to_convenient`` trades those terms for interior
intersections and keeps the count.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import NamedTuple

from . import _INTS


class WhitneyError(ValueError):
    pass


class NotConvenient(WhitneyError):
    pass


class UnpairedPoints(WhitneyError):
    pass


class DoublePoint(NamedTuple):
    id: int
    components: tuple[int, int]  # (i, j); i == j for a self-intersection
    sign: int
    eta: object  # group element, per ambient backend


class WhitneyDisc(NamedTuple):
    id: int
    pair: tuple[int, int]  # ids of the two paired double points
    interior: dict  # surface component -> |Int W ^ f_i|, nonnegative counts
    mu_boundary: int = 0  # boundary self-intersections
    euler: int = 0  # twisting relative to the Whitney framing

    def is_convenient(self) -> bool:
        return self.euler == 0 and self.mu_boundary == 0


class WhitneyCollection(namedtuple("WhitneyCollection", "discs boundary convenient")):
    """Ordered disc list plus the symmetric boundary-intersection counts."""

    __slots__ = ()

    def __new__(cls, discs: tuple[WhitneyDisc, ...], boundary: dict = None, convenient: bool = True):
        boundary = {} if boundary is None else boundary  # frozenset{id,id} -> count
        ids = [d.id for d in discs]
        if len(set(ids)) != len(ids):
            raise WhitneyError("duplicate disc ids")
        for d in discs:  # before the next check, which a self-pair also fails
            if d.pair[0] == d.pair[1]:
                raise WhitneyError(f"disc {d.id} pairs a point with itself")
        paired = list(itertools.chain.from_iterable(d.pair for d in discs))
        if len(set(paired)) != len(paired):
            raise WhitneyError("a double point is paired by more than one disc")
        for d in discs:
            counts = (d.mu_boundary, *d.interior.values())
            if not (_INTS.issuperset(map(type, counts)) and type(d.euler) is int):
                raise WhitneyError(f"non-integer count on disc {d.id}")  # neither True nor 0.5
            if min(counts) < 0:
                raise WhitneyError(f"negative count on disc {d.id}")
        known = set(ids)
        for key, count in boundary.items():
            if len(key) != 2 or not key <= known:
                raise WhitneyError(f"bad boundary pair {set(key)}")
            if type(count) is not int:
                raise WhitneyError(f"non-integer boundary count {count!r}")
            if count < 0:
                raise WhitneyError("negative boundary count")
        if convenient:
            for d in discs:
                if not d.is_convenient():
                    raise NotConvenient(f"disc {d.id} is twisted or has boundary self-intersections")
            if any(boundary.values()):
                raise NotConvenient("convenient collections have disjoint boundaries")
        return super().__new__(cls, discs, boundary, convenient)

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


def t_count(points, components, collection: WhitneyCollection) -> int:
    """t mod 2: interior intersections with the given components, plus framing and boundary terms.

    The framing, boundary self-intersection and pairwise boundary counts are
    zero on a convenient collection, so one formula serves weak and
    convenient collections; O(D + B).
    """
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
    disc's arc, so ``t_count`` of the result equals that of the input.  One
    pass over the discs and one over the boundary counts, O(D + B).  The
    result is convenient by construction, so the constructor's checks are
    not run again.
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
        new_discs.append(d._replace(interior=interior, mu_boundary=0, euler=0))
    return collection._replace(discs=tuple(new_discs), boundary={}, convenient=True)
