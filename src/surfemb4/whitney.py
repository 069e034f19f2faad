"""Combinatorial double points, Whitney-disc collections, and t-counts.

Intersection data is stored as counts, not positions: every invariant in
scope is a signed or mod-2 count.  Points and discs have one form each,
parallel columns (``DoublePoints``, ``WhitneyDiscs``), and the checks and
counts are C-level passes over them.  ``DoublePoints`` are checked against
their group when built.  A collection is *convenient* when every disc is
framed (zero twisting), has no boundary self-intersections, and
all pairwise boundary intersection counts vanish; *weak* collections relax
all three.  ``t_count`` is the one t formula, for weak and convenient
collections alike: on a convenient collection its framing and boundary
terms are zero.  It makes the one cut of a collection down to the discs
that pair the double points of the given components, so callers hand it
the whole declared collection.  ``to_convenient`` trades those terms for
interior intersections and keeps the count of the whole collection.
"""

from __future__ import annotations

import reprlib
from collections import namedtuple
from itertools import chain, compress, count, repeat
from operator import add, eq, itemgetter

from . import _INTS
from .groups import check_signed


class WhitneyError(ValueError):
    pass


class UnpairedPoints(WhitneyError):
    pass


def _pick(col: tuple, idx: list) -> tuple:
    """The entries of ``col`` at positions ``idx``, by one ``itemgetter`` call."""
    return itemgetter(*idx)(col) if len(idx) > 1 else tuple(map(col.__getitem__, idx))


class DoublePoints:
    """Double points as parallel columns: ids, component pairs, signs and etas.

    Construction checks the signs and etas against ``group`` once and stores
    the etas canonical; ``group`` records the group object they were checked
    against, and ``take`` keeps it without checking again.  ``by_pair``
    buckets the points once.
    """

    __slots__ = ("ids", "pairs", "signs", "etas", "group", "_by_pair")

    def __init__(self, ids, pairs, signs, etas, group):
        self.ids, self.pairs, self.signs, self.etas = map(tuple, (ids, pairs, signs, etas))
        self.etas = check_signed(group, self.signs, self.etas)
        self.group, self._by_pair = group, None

    def by_pair(self) -> dict:
        """Point indices by unordered component pair, in point order; bucketed on first use.

        Each distinct ordered pair is sent to its unordered pair's list once,
        and each point is appended to its pair's list: C-level passes, O(P + K)
        for K distinct pairs, with no pass over the points per pair.
        """
        if self._by_pair is None:
            distinct = dict.fromkeys(self.pairs)
            keys = list(map(frozenset, distinct))
            self._by_pair = buckets = dict(zip(keys, map(list, repeat(()))))
            slot = dict(zip(distinct, map(buckets.__getitem__, keys)))
            # list.append returns None, so any() runs the appends to the end
            any(map(list.append, map(slot.__getitem__, self.pairs), count()))
        return self._by_pair

    def take(self, idx: list) -> "DoublePoints":
        """The points at positions ``idx``, in that order, checked against the same group."""
        out = DoublePoints.__new__(DoublePoints)  # checked already: __init__ is not run again
        out.ids, out.pairs, out.signs, out.etas = (_pick(col, idx) for col in (
            self.ids, self.pairs, self.signs, self.etas))
        out.group, out._by_pair = self.group, None
        return out

    def ids_within(self, components) -> set:
        """Ids of the points whose components are all among ``components``, read off the buckets."""
        buckets = self.by_pair()
        inside = compress(buckets.values(), map(set(components).issuperset, buckets))
        return set(_pick(self.ids, list(chain.from_iterable(inside))))

    def __len__(self) -> int:
        return len(self.ids)


class WhitneyDiscs:
    """Whitney discs as parallel columns: ids, point pairs, interiors, ``mu_boundary`` and ``euler``.

    The reader builds one from its checked columns, and the checks and counts
    are passes over them.
    """

    __slots__ = ("ids", "pairs", "interiors", "mu_boundary", "euler")

    def __init__(self, ids, pairs, interiors, mu_boundary, euler):
        self.ids, self.pairs, self.interiors, self.mu_boundary, self.euler = map(
            tuple, (ids, pairs, interiors, mu_boundary, euler))

    def __len__(self) -> int:
        return len(self.ids)


def _interior_values(discs: WhitneyDiscs):
    return chain.from_iterable(map(dict.values, discs.interiors))


class WhitneyCollection(namedtuple("WhitneyCollection", "discs boundary convenient")):
    """``WhitneyDiscs`` columns in order plus the symmetric boundary-intersection counts.

    ``boundary`` maps frozenset({id, id}) to a count.  Each check is a pass
    over the columns, and only a failing one walks them, for the first bad
    disc's message.
    """

    __slots__ = ()

    def __new__(cls, discs: WhitneyDiscs, boundary: dict, convenient: bool):
        ids = discs.ids
        if len(set(ids)) != len(ids):
            raise WhitneyError("duplicate disc ids")
        self_paired = list(map(eq, map(itemgetter(0), discs.pairs), map(itemgetter(1), discs.pairs)))
        if any(self_paired):  # before the next check, which a self-pair also fails
            raise WhitneyError(f"disc {next(compress(ids, self_paired))} pairs a point with itself")
        paired = list(chain.from_iterable(discs.pairs))
        if len(set(paired)) != len(paired):
            raise WhitneyError("a double point is paired by more than one disc")
        counts = list(chain(discs.mu_boundary, _interior_values(discs)))
        if not (_INTS.issuperset(map(type, counts)) and _INTS.issuperset(map(type, discs.euler))
                and min(counts, default=0) >= 0):
            for did, mu, interior, euler in zip(ids, discs.mu_boundary, discs.interiors, discs.euler):
                counts = (mu, *interior.values())
                if not (_INTS.issuperset(map(type, counts)) and type(euler) is int):
                    raise WhitneyError(f"non-integer count on disc {did}")  # neither True nor 0.5
                if min(counts) < 0:
                    raise WhitneyError(f"negative count on disc {did}")
        known, bcounts = set(ids), list(boundary.values())
        if not ({2}.issuperset(map(len, boundary)) and known.issuperset(chain.from_iterable(boundary))
                and _INTS.issuperset(map(type, bcounts)) and min(bcounts, default=0) >= 0):
            for key, value in boundary.items():
                if len(key) != 2 or not key <= known:
                    raise WhitneyError(f"bad boundary pair {set(key)}")
                if type(value) is not int:
                    raise WhitneyError(f"non-integer boundary count {value!r}")
                if value < 0:
                    raise WhitneyError("negative boundary count")
        if convenient:
            if any(discs.euler) or any(discs.mu_boundary):
                bad = next(compress(ids, map(any, zip(discs.euler, discs.mu_boundary))))
                raise WhitneyError(f"disc {bad} is twisted or has boundary self-intersections")
            if any(boundary.values()):
                raise WhitneyError("convenient collections have disjoint boundaries")
        return super().__new__(cls, discs, boundary, convenient)

    def paired_point_ids(self) -> set[int]:
        return set(chain.from_iterable(self.discs.pairs))


def t_count(points: DoublePoints, components, collection: WhitneyCollection) -> int:
    """t mod 2 over W: interior intersections with the components, plus framing and boundary terms.

    W is the discs of ``collection`` whose two points are double points of
    ``components``, and the boundary counts between two of them; every such
    point must be paired by a disc of W.  A crossing of a W arc with an arc
    outside W adds nothing: pushing the outside arc off the end changes only
    its own disc, and pushing the W arc off the end, at a point of f_i ^ f_j
    with f_j not among the components, makes the W disc meet f_j, which t
    does not count.  So the order of the discs never changes t.  The
    framing, boundary self-intersection and pairwise boundary counts are
    zero on a convenient collection, so one formula serves weak and
    convenient collections.  Each term is a sum over a column under one
    keep mask, the interior one also masked to ``components``: C-level
    passes, O(P + D + B).
    """
    ids, discs = points.ids_within(components), collection.discs
    keep = list(map(ids.issuperset, discs.pairs))
    unpaired = ids.difference(chain.from_iterable(compress(discs.pairs, keep)))
    if unpaired:
        raise UnpairedPoints(f"no disc pairs the components' double points "
                             f"{reprlib.repr(sorted(unpaired))}")
    w, interiors = set(compress(discs.ids, keep)), list(compress(discs.interiors, keep))
    boundary = compress(collection.boundary.values(), map(w.issuperset, collection.boundary))
    keys = chain.from_iterable(interiors)
    interior = compress(chain.from_iterable(map(dict.values, interiors)),
                        map(set(components).__contains__, keys))
    own = chain(compress(discs.mu_boundary, keep), compress(discs.euler, keep))
    return (sum(boundary) + sum(own) + sum(interior)) % 2


def to_convenient(points: DoublePoints, collection: WhitneyCollection) -> WhitneyCollection:
    """Trade twisting and boundary intersections for interior intersections.

    Boundary twists fix the framing at the cost of one interior intersection
    each; arc intersections are pushed off the end of the lower-indexed
    disc's arc, so ``t_count`` of the result equals that of the input over
    the whole collection only.  A crossing is credited to the lower-indexed
    disc, on the lesser component of that disc's first point, so a converted
    collection must not be cut down to some of its components.  Each disc's
    bump is its own terms plus the boundary counts credited to it, and a
    disc whose bump is odd gains one interior point: one pass over the
    boundary counts and one over the discs, O(D + B).  The result is
    convenient by construction, so the constructor's checks are not run
    again.
    """
    discs = collection.discs
    position = dict(zip(discs.ids, count()))
    bumps = list(map(add, discs.euler, discs.mu_boundary))
    for key, n in collection.boundary.items():
        bumps[min(map(position.__getitem__, key))] += n
    components = dict(zip(points.ids, points.pairs))
    interiors = []
    for pair, interior, bump in zip(discs.pairs, discs.interiors, bumps):
        if bump % 2:
            comp = min(components[pair[0]])
            interior = {**interior, comp: interior.get(comp, 0) + 1}
        interiors.append(interior)
    zeros = (0,) * len(discs)
    return collection._replace(discs=WhitneyDiscs(discs.ids, discs.pairs, interiors, zeros, zeros),
                               boundary={}, convenient=True)
