"""Fundamental-group backends, orientation characters, and signed subgroups.

Two group backends are supported: finite groups given by a multiplication
table (elements are indices 0..n-1) and finitely generated abelian groups
given by invariant factors (elements are reduced integer tuples, a factor
of 0 denoting an infinite cyclic summand).  A signed subgroup is a subgroup
of G x {+1,-1} recording the image of a surface group together with the
surface's orientation character.
"""

from __future__ import annotations

import reprlib
from collections import namedtuple
from itertools import compress, repeat
from operator import itemgetter, mod
from typing import Iterable, Sequence

from . import _INTS, intlinalg  # intlinalg is run by abelian groups only
from .errors import InternalConsistency

_SEQUENCES = frozenset((tuple, list))  # exact types, tested before the slower isinstance


class GroupError(ValueError):
    pass


class NotAssociative(GroupError):
    pass


class NoIdentity(GroupError):
    pass


class NoInverse(GroupError):
    pass


class FiniteTableGroup:
    """Finite group as a Cayley table on indices 0..n-1.

    ``generators`` generate the group under multiplication alone; there are
    at most floor(log2 n) + 1 of them (see ``make_finite_group``).
    """

    kind = "finite"

    def __init__(self, table: tuple[tuple[int, ...], ...], identity: int,
                 inverse: Sequence[int], generators: Sequence[int]):
        self.table = table
        self.identity = identity
        self.inverse = tuple(inverse)
        self.generators = tuple(generators)
        self.order = len(table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def check_elem(self, a) -> int:
        return self.check_elems([a])[0]

    def check_elems(self, values: Sequence) -> tuple[int, ...]:
        """The values, checked in C-level passes; raises at the first invalid one."""
        if values and not (_INTS.issuperset(map(type, values))
                           and 0 <= min(values) and max(values) < self.order):
            bad = next(a for a in values if type(a) is not int or not 0 <= a < self.order)
            raise GroupError(f"invalid element {reprlib.repr(bad)} for group of order {self.order}")
        return tuple(values)

    def __repr__(self):
        return f"FiniteTableGroup(order={self.order})"


class FGAbelianGroup:
    """F.g. abelian group with invariant factors; elements are tuples."""

    kind = "abelian"

    def __init__(self, factors: Sequence[int]):
        factors = tuple(factors)
        if not _INTS.issuperset(map(type, factors)):  # neither True nor 2.5
            raise GroupError(f"invariant factors must be integers, got {reprlib.repr(factors)}")
        if any(f < 0 for f in factors):
            raise GroupError("invariant factors must be >= 0 (0 denotes Z)")
        self.factors = factors
        self.rank = len(self.factors)
        self.identity = tuple(0 for _ in self.factors)

    def check_elem(self, a) -> tuple[int, ...]:
        return self.check_elems([a])[0]

    def check_elems(self, values: Sequence) -> tuple[tuple[int, ...], ...]:
        """The values reduced by the factors, column by column; raises at the first invalid one."""
        if ((_SEQUENCES.issuperset(map(type, values)) or all(map(isinstance, values, repeat((tuple, list)))))
                and {self.rank}.issuperset(map(len, values))):
            cols = list(zip(*values))
            if all(_INTS.issuperset(map(type, col)) for col in cols):
                cols = [list(map(mod, col, repeat(f))) if f else col
                        for col, f in zip(cols, self.factors)]
                # with rank 0 there are no columns, and every element is ()
                return tuple(zip(*cols)) or ((),) * len(values)
        bad = next(a for a in values if not isinstance(a, (tuple, list)) or len(a) != self.rank
                   or not _INTS.issuperset(map(type, a)))
        raise GroupError(f"invalid element {reprlib.repr(bad)} for factors {self.factors}")

    def __repr__(self):
        return f"FGAbelianGroup(factors={self.factors})"


AmbientGroup = FiniteTableGroup | FGAbelianGroup


def check_signed(group: AmbientGroup, signs: Sequence, elems: Sequence, error=GroupError) -> tuple:
    """The elements, checked and canonical, with signs +1 or -1: the one check of (sign, element) pairs.

    Raises at the first bad pair, its sign first: ``error`` for a sign (neither True nor 1.0).
    """
    if not (_INTS.issuperset(map(type, signs)) and {1, -1}.issuperset(signs)):
        k = next(k for k, s in enumerate(signs) if type(s) is not int or s not in (1, -1))
        group.check_elems(elems[:k])
        raise error(f"sign must be +1 or -1, got {signs[k]!r}")
    return group.check_elems(elems)


def make_finite_group(table: Sequence[Sequence[int]]) -> FiniteTableGroup:
    """Validate a multiplication table and build the group.

    After the shape and range checks, reports the first failing axiom in the
    order identity (``NoIdentity``), inverses (``NoInverse``), associativity
    (``NotAssociative``, whose message names a failing triple).

    Associativity is checked in two steps.  With an identity and inverses,
    a repeated entry a*b = a*c breaks it at (a^-1, a, b) or (a^-1, a, c),
    and b*a = c*a at (b, a, a^-1) or (c, a, a^-1); so the table must be a
    Latin square.  Then Light's test: if (x*g)*y = x*(g*y) for all x, y and
    every g in a set generating the table under multiplication, the table is
    associative.  In a Latin square with identity every product-closed
    subset H is a subloop, and g*H is disjoint from H for g outside H, so
    each greedy generator at least doubles the closure and at most
    floor(log2 n) + 1 are needed.  Each generator is tested as it is found
    (``_greedy_generators``), so the first failing one, and its first failing
    (x, y), are those of testing the whole set afterwards.  Every step is
    O(n^2) except Light's test, O(n^2) per generator and O(n^2 log n) in all.
    """
    rows = tuple(map(tuple, table))
    n = len(rows)
    if n == 0:
        raise GroupError("empty table")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise GroupError(f"row {i} has length {len(row)}, expected {n}")
        if not (_INTS.issuperset(map(type, row)) and 0 <= min(row) and max(row) < n):
            v = next(v for v in row if type(v) is not int or not (0 <= v < n))
            raise GroupError(f"entry {v!r} out of range in row {i}")
    cols = tuple(zip(*rows))
    ident = tuple(range(n))
    identity = next((e for e in range(n) if rows[e] == ident and cols[e] == ident), None)
    if identity is None:
        raise NoIdentity("no two-sided identity")
    inverse = []
    for a, row in enumerate(rows):
        right = compress(range(n), map(identity.__eq__, row))
        b = next((b for b in right if rows[b][a] == identity), None)
        if b is None:
            raise NoInverse(f"element {a} has no inverse")
        inverse.append(b)
    for a, (row, col) in enumerate(zip(rows, cols)):
        if len(set(row)) < n:
            b, c = _repeat(row)
            raise _failing_triple(rows, (inverse[a], a, b), (inverse[a], a, c))
        if len(set(col)) < n:
            b, c = _repeat(col)
            raise _failing_triple(rows, (b, a, inverse[a]), (c, a, inverse[a]))
    return FiniteTableGroup(rows, identity, inverse, _greedy_generators(rows, cols, identity))


def _repeat(seq: Sequence[int]) -> tuple[int, int]:
    """The first positions b < c with seq[b] == seq[c]; ``seq`` has a repeat."""
    first: dict[int, int] = {}
    c = next(c for c, v in enumerate(seq) if first.setdefault(v, c) != c)
    return first[seq[c]], c


def _failing_triple(rows, *triples) -> NotAssociative:
    for a, b, c in triples:
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
    raise InternalConsistency(f"a repeated table entry without a failing triple among {triples}")


def _greedy_generators(rows, cols, identity: int) -> list[int]:
    """Smallest elements not yet generated, each passing Light's test, until they generate ``rows``.

    Each generator g is tested as it is found: (x*g)*y = x*(g*y) for all x, y,
    or NotAssociative names the first failing (x, y).  The g that pass are
    closed under products (with g and h, (x*(gh))*y = ((x*g)*h)*y =
    (x*g)*(h*y) = x*(g*(h*y)) = x*((gh)*y)), so the products of generators
    associate, every one is a product g1*g2*...*gk of generators, and the
    closure under products is the closure under right multiplication by the
    generators.  That closure grows by multiplying the old members by the new
    generator and the new members by every generator, so each member is
    multiplied by each generator once: O(n log n) in all.
    """
    n = len(rows)
    generators: list[int] = []
    closure: set[int] = set()
    members: list[int] = []
    for g in range(n):
        if g in closure:
            continue
        if g != identity:  # the identity passes trivially; n >= 2 here, so itemgetter gives tuples
            x_g_y = list(map(rows.__getitem__, cols[g]))  # row x: (x*g)*y for all y
            x_gy = list(map(itemgetter(*rows[g]), rows))  # row x: x*(g*y) for all y
            if x_g_y != x_gy:
                x = next(x for x in range(n) if x_g_y[x] != x_gy[x])
                y = next(y for y in range(n) if x_g_y[x][y] != x_gy[x][y])
                raise NotAssociative(f"({x}*{g})*{y} != {x}*({g}*{y})")
        generators.append(g)
        fresh = {g, *map(cols[g].__getitem__, members)} - closure  # old members times g
        done = len(members)
        closure |= fresh
        members += fresh
        while done < len(members):  # new members times every generator
            fresh = set(map(rows[members[done]].__getitem__, generators)) - closure
            done += 1
            closure |= fresh
            members += fresh
    return generators


def abelian_group(factors: Sequence[int]) -> FGAbelianGroup:
    return FGAbelianGroup(factors)


class Character:
    """A homomorphism G -> {+1,-1}.

    For a finite group the values are given per element and multiplicativity
    is checked at every (a, b) with b in the group's generating set, which
    implies it everywhere; for an abelian group they are given per
    invariant-factor generator and compatibility with the factors is checked.
    """

    def __init__(self, group: AmbientGroup, values: Sequence[int]):
        self.group = group
        self.values = tuple(values)
        if not (_INTS.issuperset(map(type, self.values)) and {1, -1}.issuperset(self.values)):
            raise GroupError("character values must be +1 or -1")
        if group.kind == "finite":
            if len(self.values) != group.order:
                raise GroupError("need one value per group element")
            # the b with chi(a*b) = chi(a)*chi(b) for all a are closed under products
            for b in group.generators:
                for a in group.elements():
                    if self.values[group.mul(a, b)] != self.values[a] * self.values[b]:
                        raise GroupError(f"not multiplicative at ({a},{b})")
        else:
            if len(self.values) != group.rank:
                raise GroupError("need one value per invariant factor")
            for f, v in zip(group.factors, self.values):
                if f % 2 == 1 and f != 0 and v == -1:
                    raise GroupError(f"value -1 incompatible with odd factor {f}")

    def __call__(self, a) -> int:
        if self.group.kind == "finite":
            return self.values[a]
        out = 1
        for x, v in zip(a, self.values):
            if v == -1 and x % 2:
                out = -out
        return out


def _sign_bit(s: int) -> int:
    return 0 if s == 1 else 1


class SignedSubgroup(namedtuple("SignedSubgroup", "ambient generators closure lattice",
                                defaults=(None, None))):
    """Subgroup of G x {+1,-1} generated by (element, sign) pairs.

    Either the sign component is a homomorphism on the projection, or the
    closure contains (1,-1); both are legal, and ``contains_minus_one``
    distinguishes them.  Finite groups store the full ``closure``; abelian
    groups store a Hermite ``lattice`` with the sign encoded as an extra
    mod-2 coordinate.  Both derive from the generators, so equality and
    hashing read only ``ambient`` and ``generators``.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedSubgroup) and self[:2] == other[:2]

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])

    @property
    def contains_minus_one(self) -> bool:
        if self.ambient.kind == "finite":
            return (self.ambient.identity, -1) in self.closure
        return self.lattice.contains((0,) * self.ambient.rank + (1,))

    def character_trivial_on_projection(self, chi: Character) -> bool:
        """A character is trivial on a generated subgroup iff it is on the generators."""
        return all(chi(g) == 1 for g, _ in self.generators)


def subgroup_closure(ambient: AmbientGroup, generators: Iterable) -> SignedSubgroup:
    """Close a list of (element, sign) pairs inside G x {+1,-1}; the pairs are checked once."""
    pairs = list(generators)
    signs = [s for _, s in pairs]
    gens = tuple(zip(check_signed(ambient, signs, [g for g, _ in pairs]), signs))
    if ambient.kind == "finite":
        closure = {(ambient.identity, 1)}
        frontier = list(closure)
        while frontier:
            g, s = frontier.pop()
            for h, t in gens:  # forward moves reach every product in a finite group
                cand = (ambient.mul(g, h), s * t)
                if cand not in closure:
                    closure.add(cand)
                    frontier.append(cand)
        return SignedSubgroup(ambient, gens, closure=frozenset(closure))
    k = ambient.rank
    rows = [list(g) + [_sign_bit(s)] for g, s in gens]
    for i, f in enumerate(ambient.factors):
        if f:
            rows.append([f if j == i else 0 for j in range(k)] + [0])
    rows.append([0] * k + [2])
    return SignedSubgroup(ambient, gens, lattice=intlinalg.HermiteLattice(rows, k + 1))
