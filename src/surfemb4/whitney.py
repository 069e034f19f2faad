"""Combinatorial double points, Whitney-disc collections, and t-counts.

Intersection data is stored as counts, not positions: every invariant in
scope is a signed or mod-2 count.  Points and discs are held as parallel
columns, and the checks and counts are C-level passes over them.  A collection is *convenient* when every
disc is framed (zero twisting), has no boundary self-intersections, and
all pairwise boundary intersection counts vanish; *weak* collections relax
all three.  ``t_count`` is the one t formula, for weak and convenient
collections alike: on a convenient collection its framing and boundary
terms are zero.  ``to_convenient`` trades those terms for interior
intersections and keeps the count.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, compress, count, repeat
from operator import add, eq, itemgetter
from typing import NamedTuple

from . import _INTS, gamma  # its GammaError is the error of a bad sign
from .groups import check_signed

_odd = (1).__and__  # parity of an int, as a C-level callable


class WhitneyError(ValueError):
    pass


class NotConvenient(WhitneyError):
    pass


class UnpairedPoints(WhitneyError):
    pass


def _pick(col: tuple, idx: list) -> tuple:
    """The entries of ``col`` at positions ``idx``, by one ``itemgetter`` call."""
    return itemgetter(*idx)(col) if len(idx) > 1 else tuple(map(col.__getitem__, idx))


class DoublePoint(NamedTuple):
    id: int
    components: tuple[int, int]  # (i, j); i == j for a self-intersection
    sign: int
    eta: object  # group element, per ambient backend


class DoublePoints:
    """Double points as parallel columns: ids, component pairs, signs and etas.

    Built with a ``group``, the signs and etas are checked against it once and
    the etas stored canonical; ``group`` records it, and ``take`` keeps it.
    Without one, they are the view that ``t_count`` and ``to_convenient`` read.
    ``of`` is the one gate that decides whether columns are checked again.
    ``by_pair`` buckets the points once; iterating gives ``DoublePoint`` records.
    """

    __slots__ = ("ids", "pairs", "signs", "etas", "group", "_by_pair")

    def __init__(self, ids, pairs, signs, etas, group=None):
        self.ids, self.pairs, self.signs, self.etas = map(tuple, (ids, pairs, signs, etas))
        if group is not None:
            self.etas = check_signed(group, self.signs, self.etas, gamma.GammaError)
        self.group = group
        self._by_pair = None

    @classmethod
    def of(cls, points, group=None) -> "DoublePoints":
        """``points``, records or columns, as columns checked against ``group`` unless it is None."""
        if not isinstance(points, cls):
            return cls(*(tuple(zip(*points)) or ((),) * 4), group)
        if group in (None, points.group):  # no check asked for, or done already
            return points
        return cls(points.ids, points.pairs, points.signs, points.etas, group)

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
        out = DoublePoints(*(_pick(col, idx) for col in (self.ids, self.pairs, self.signs, self.etas)))
        out.group = self.group
        return out

    def ids_within(self, components) -> set:
        """Ids of the points whose components are all among ``components``, read off the buckets."""
        buckets = self.by_pair()
        inside = compress(buckets.values(), map(set(components).issuperset, buckets))
        return set(_pick(self.ids, list(chain.from_iterable(inside))))

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


class WhitneyDiscs:
    """Whitney discs as parallel columns: ids, point pairs, interiors, ``mu_boundary`` and ``euler``.

    The reader builds one from its checked columns; ``of`` also takes
    ``WhitneyDisc`` records.  The checks and counts are passes over the
    columns; iterating or indexing gives ``WhitneyDisc`` records.
    """

    __slots__ = ("ids", "pairs", "interiors", "mu_boundary", "euler")

    def __init__(self, ids, pairs, interiors, mu_boundary, euler):
        self.ids, self.pairs, self.interiors, self.mu_boundary, self.euler = map(
            tuple, (ids, pairs, interiors, mu_boundary, euler))

    @classmethod
    def of(cls, discs) -> "WhitneyDiscs":
        """``discs`` as columns; columns are returned as they are."""
        return discs if isinstance(discs, cls) else cls(*(tuple(zip(*discs)) or ((),) * 5))

    def _columns(self) -> tuple:
        return self.ids, self.pairs, self.interiors, self.mu_boundary, self.euler

    def where(self, mask) -> "WhitneyDiscs":
        """The discs at the true entries of ``mask``, in order."""
        mask = list(mask)
        return WhitneyDiscs(*(compress(col, mask) for col in self._columns()))

    def __iter__(self):
        return map(WhitneyDisc, *self._columns())

    def __getitem__(self, k: int) -> WhitneyDisc:
        return WhitneyDisc(*(col[k] for col in self._columns()))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        return isinstance(other, WhitneyDiscs) and self._columns() == other._columns()


def _interior_values(discs: WhitneyDiscs):
    return chain.from_iterable(map(dict.values, discs.interiors))


class WhitneyCollection(namedtuple("WhitneyCollection", "discs boundary convenient")):
    """Disc columns in order plus the symmetric boundary-intersection counts.

    ``discs`` may be ``WhitneyDisc`` records; they are stored as columns.
    Each check is a pass over the columns, and only a failing one walks the
    discs, for the first bad disc's message.
    """

    __slots__ = ()

    def __new__(cls, discs, boundary: dict = None, convenient: bool = True):
        boundary = {} if boundary is None else boundary  # frozenset{id,id} -> count
        discs = WhitneyDiscs.of(discs)
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
            for d in discs:
                counts = (d.mu_boundary, *d.interior.values())
                if not (_INTS.issuperset(map(type, counts)) and type(d.euler) is int):
                    raise WhitneyError(f"non-integer count on disc {d.id}")  # neither True nor 0.5
                if min(counts) < 0:
                    raise WhitneyError(f"negative count on disc {d.id}")
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
                bad = next(d.id for d in discs if not d.is_convenient())
                raise NotConvenient(f"disc {bad} is twisted or has boundary self-intersections")
            if any(boundary.values()):
                raise NotConvenient("convenient collections have disjoint boundaries")
        return super().__new__(cls, discs, boundary, convenient)

    def paired_point_ids(self) -> set[int]:
        return set(chain.from_iterable(self.discs.pairs))


def t_count(points, components, collection: WhitneyCollection) -> int:
    """t mod 2: interior intersections with the given components, plus framing and boundary terms.

    The framing, boundary self-intersection and pairwise boundary counts are
    zero on a convenient collection, so one formula serves weak and
    convenient collections.  Each term is a sum over a column, the interior
    one masked to ``components``: C-level passes, O(P + D + B).
    """
    want, got = DoublePoints.of(points).ids_within(components), collection.paired_point_ids()
    if want != got:
        raise UnpairedPoints(
            f"collection pairs {sorted(got)} but the components' double points are {sorted(want)}")
    discs = collection.discs
    keys = chain.from_iterable(discs.interiors)  # in the order of _interior_values
    interior = sum(compress(_interior_values(discs), map(set(components).__contains__, keys)))
    return (sum(collection.boundary.values()) + sum(discs.mu_boundary) + sum(discs.euler)
            + interior) % 2


def to_convenient(points, collection: WhitneyCollection) -> WhitneyCollection:
    """Trade twisting and boundary intersections for interior intersections.

    Boundary twists fix the framing at the cost of one interior intersection
    each; arc intersections are pushed off the end of the lower-indexed
    disc's arc, so ``t_count`` of the result equals that of the input.  Only
    a bump's parity matters, so the discs with odd own terms and the
    lower-indexed discs of odd boundary counts are tallied, and a disc
    tallied an odd number of times is bumped.  C-level passes over the discs
    and the boundary counts, O(D + B).  The result is convenient by
    construction, so the constructor's checks are not run again.
    """
    points, discs = DoublePoints.of(points), collection.discs
    position = dict(zip(discs.ids, count()))
    lower = map(min, map(map, repeat(position.__getitem__), collection.boundary))
    tally = Counter(chain(compress(count(), map(_odd, map(add, discs.euler, discs.mu_boundary))),
                          compress(lower, map(_odd, collection.boundary.values()))))
    bumped = list(compress(tally, map(_odd, tally.values())))
    # each bumped disc meets the lesser component of its first point once more
    first = map(itemgetter(0), map(discs.pairs.__getitem__, bumped))
    comps = list(map(min, map(dict(zip(points.ids, points.pairs)).__getitem__, first)))
    new = list(map(dict, map(discs.interiors.__getitem__, bumped)))
    list(map(dict.__setitem__, new, comps, map(add, map(dict.get, new, comps, repeat(0)), repeat(1))))
    interiors = map(dict(zip(bumped, new)).get, count(), discs.interiors)
    zeros = (0,) * len(discs)
    return collection._replace(discs=WhitneyDiscs(discs.ids, discs.pairs, interiors, zeros, zeros),
                               boundary={}, convenient=True)
