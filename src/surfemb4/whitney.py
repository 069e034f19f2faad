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
from collections import defaultdict, namedtuple
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


class DoublePoints:
    """Double points as parallel columns: ids, component pairs, signs and etas.

    The reader builds one from its checked columns; ``of`` also takes
    ``DoublePoint`` records.  The passes over the points read the columns, and
    ``by_pair`` buckets them once; iterating gives one ``DoublePoint`` per point.
    """

    __slots__ = ("ids", "pairs", "signs", "etas", "_by_pair")

    def __init__(self, ids, pairs, signs, etas):
        self.ids, self.pairs, self.signs, self.etas = map(tuple, (ids, pairs, signs, etas))
        self._by_pair = None

    @classmethod
    def of(cls, points) -> "DoublePoints":
        """``points`` as columns; columns are returned as they are."""
        return points if isinstance(points, cls) else cls(*(tuple(zip(*points)) or ((),) * 4))

    def by_pair(self) -> dict:
        """Point indices by unordered component pair, in point order; bucketed on first use."""
        if self._by_pair is None:
            self._by_pair = buckets = defaultdict(list)
            for k, key in enumerate(map(frozenset, self.pairs)):
                buckets[key].append(k)
        return self._by_pair

    def take(self, idx) -> "DoublePoints":
        """The points at positions ``idx``, in that order."""
        return DoublePoints(*(map(col.__getitem__, idx)
                              for col in (self.ids, self.pairs, self.signs, self.etas)))

    def ids_within(self, components) -> set:
        """Ids of the points whose components are all among ``components``."""
        comps = set(components)
        return {self.ids[k] for key, idx in self.by_pair().items() if key <= comps for k in idx}

    def __iter__(self):
        return map(DoublePoint, self.ids, self.pairs, self.signs, self.etas)

    def __len__(self) -> int:
        return len(self.ids)


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


def t_count(points, components, collection: WhitneyCollection) -> int:
    """t mod 2: interior intersections with the given components, plus framing and boundary terms.

    The framing, boundary self-intersection and pairwise boundary counts are
    zero on a convenient collection, so one formula serves weak and
    convenient collections; O(D + B).
    """
    want, got = DoublePoints.of(points).ids_within(components), collection.paired_point_ids()
    if want != got:
        raise UnpairedPoints(
            f"collection pairs {sorted(got)} but the components' double points are {sorted(want)}")
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
    points = DoublePoints.of(points)
    pair_of = dict(zip(points.ids, points.pairs))
    position = {d.id: idx for idx, d in enumerate(collection.discs)}
    bumps = [d.euler + d.mu_boundary for d in collection.discs]
    for key, count in collection.boundary.items():
        bumps[min(position[i] for i in key)] += count
    new_discs = []
    for d, bump in zip(collection.discs, bumps):
        interior = d.interior
        if bump % 2:
            comp = min(pair_of[d.pair[0]])
            interior = {**interior, comp: interior.get(comp, 0) + 1}
        new_discs.append(WhitneyDisc(d.id, d.pair, interior))
    return collection._replace(discs=tuple(new_discs), boundary={}, convenient=True)
