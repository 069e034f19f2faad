"""Fundamental-group backends, orientation characters, and signed subgroups.

Two group backends are supported: finite groups given by a multiplication
table (elements are indices 0..n-1) and finitely generated abelian groups
given by invariant factors (elements are reduced integer tuples, a factor
of 0 denoting an infinite cyclic summand).  A signed subgroup is a subgroup
of G x {+1,-1} recording the image of a surface group together with the
surface's orientation character.

Each backend owns its character rule: ``character(values)`` checks the
declared values and returns their evaluator.  A table group takes one value
per element, multiplicative at every (a, b) with b a generator, which
implies it everywhere; an abelian group one per invariant factor, with no
-1 on an odd factor.  ``Character`` itself checks only that every value is
+1 or -1.

Each backend owns one classifier of elements under a signed action
(``signed_classifier``): (a, s) on the left sends (g, t) to (a*g, s*t), (b, s)
on the right sends it to (g*b, s*t), and an optional inversion character chi
sends it to (g^-1, chi(g)*t).  It fills a table element -> (``Orbit``, sign
relative to the representative, or None on an orbit of order two), for the
identity with a subgroup's generators on the left (``subgroup_closure``) and
for the etas of a pairing context (``gamma``).  A finite group runs
``signed_search`` (it states the lemma) from each new element over its moves:
a table row per left generator, a column per right one and the inverse map;
laying them out costs O(n x generators), an orbit O(orbit size x
generators).  An abelian G = Z^k / (factors) reduces modulo one lattice L
in Z^(k+1): the left generators with their sign bit, the factors, (0, 2)
and the right generators.  A Hermite reduction returns the one vector of
its coset with 0 <= v[c] < pivot at every pivot column, so (e, 0) reduces
to (r, bit): r is e modulo the projection of L, the canonical element, and
(-1)^bit the lift sign.  With the inversion, (e, +1) ~ (-e, chi(e)); the
orbit takes the lesser of the two reductions, and has order two when (0, 1)
lies in L or both land on one element with opposite bits.  The new elements
are reduced together, column by column.
"""

from __future__ import annotations

import reprlib
from itertools import compress, repeat
from operator import add, and_, itemgetter, mod, neg
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import _INTS, intlinalg  # intlinalg is run by abelian groups only
from .errors import InternalConsistency

_SEQUENCES = frozenset((tuple, list))  # exact types, tested before the slower isinstance


class GroupError(ValueError):
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

    def check_elems(self, values: Sequence) -> tuple[int, ...]:
        """The values, checked in C-level passes; raises at the first invalid one."""
        if values and not (_INTS.issuperset(map(type, values))
                           and 0 <= min(values) and max(values) < self.order):
            bad = next(a for a in values if type(a) is not int or not 0 <= a < self.order)
            raise GroupError(f"invalid element {reprlib.repr(bad)} for group of order {self.order}")
        return tuple(values)

    def character(self, values: tuple) -> Callable[[int], int]:
        """The evaluator of one value per element, multiplicative at every (a, b), b a generator."""
        if len(values) != self.order:
            raise GroupError("need one value per group element")
        # the b with chi(a*b) = chi(a)*chi(b) for all a are closed under products
        for b in self.generators:
            for a, row in enumerate(self.table):
                if values[row[b]] != values[a] * values[b]:
                    raise GroupError(f"not multiplicative at ({a},{b})")
        return values.__getitem__

    def signed_classifier(self, left: Sequence, right: Sequence = (),
                          inversion: Optional[Character] = None) -> Callable[[dict, list], None]:
        """Fills the table by ``signed_search`` from each new element, for its whole orbit."""
        moves = [(self.table[a], (s,) * self.order) for a, s in left]
        moves += [(list(map(itemgetter(b), self.table)), (s,) * self.order) for b, s in right]
        if inversion is not None:
            moves.append((self.inverse, inversion.values))

        def classify(table: dict, new: list) -> None:
            for e in new:
                if e in table:  # an earlier element's orbit holds it
                    continue
                sign, two = signed_search(e, moves)
                orbit = Orbit(min(sign), two)
                for g, s in sign.items():
                    table[g] = (orbit, None if two else s * sign[orbit.rep])
        return classify

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

    def character(self, values: tuple) -> Callable[[tuple], int]:
        """The evaluator of one value per factor, with no -1 on an odd factor."""
        if len(values) != self.rank:
            raise GroupError("need one value per invariant factor")
        for f, v in zip(self.factors, values):
            if f % 2 == 1 and v == -1:
                raise GroupError(f"value -1 incompatible with odd factor {f}")
        odd = [i for i, v in enumerate(values) if v == -1]
        return lambda a: -1 if sum(a[i] for i in odd) % 2 else 1

    def signed_classifier(self, left: Sequence, right: Sequence = (),
                          inversion: Optional[Character] = None) -> Callable[[dict, list], None]:
        """Fills the table by reducing modulo one signed Hermite lattice, the new elements at once."""
        k = self.rank
        rows = [[*g, (1 - s) // 2] for g, s in left]  # the sign bit: 1 for -1
        rows += [[f if j == i else 0 for j in range(k)] + [0] for i, f in enumerate(self.factors) if f]
        rows += [[0] * k + [2]] + [[*g, (1 - s) // 2] for g, s in right]
        lattice = intlinalg.HermiteLattice(rows, k + 1)
        everywhere_two = lattice.contains((0,) * k + (1,))

        def classify(table: dict, new: list) -> None:
            reps = invs = lattice.reduce_all(list(map(add, new, repeat((0,)))))
            if inversion is not None:
                # (e, +1) ~ (-e, chi(e)): the inverses' classes, built column by column
                cols = list(zip(*new))
                odd = [col for col, v in zip(cols, inversion.values) if v == -1] or [(0,) * len(new)]
                invs = lattice.reduce_all(list(zip(*[map(neg, col) for col in cols],
                                                   map(and_, map(sum, zip(*odd)), repeat(1)))))
            for e, r, inv in zip(new, reps, invs):
                rep, bit, irep, ibit = r[:-1], r[-1], inv[:-1], inv[-1]
                two = everywhere_two or (irep == rep and ibit != bit)
                if irep < rep:
                    rep, bit = irep, ibit
                table[e] = (Orbit(rep, two), None if two else 1 - 2 * bit)
        return classify

    def __repr__(self):
        return f"FGAbelianGroup(factors={self.factors})"


AmbientGroup = FiniteTableGroup | FGAbelianGroup


def check_signed(group: AmbientGroup, signs: Sequence, elems: Sequence) -> tuple:
    """The elements, checked and canonical, with signs +1 or -1: the one check of (sign, element) pairs.

    Raises at the first bad pair, its sign first: ``GroupError`` for a sign (neither True nor 1.0).
    """
    if not (_INTS.issuperset(map(type, signs)) and {1, -1}.issuperset(signs)):
        k = next(k for k, s in enumerate(signs) if type(s) is not int or s not in (1, -1))
        group.check_elems(elems[:k])
        raise GroupError(f"sign must be +1 or -1, got {signs[k]!r}")
    return group.check_elems(elems)


def make_finite_group(table: Sequence[Sequence[int]]) -> FiniteTableGroup:
    """Validate a multiplication table and build the group.

    After the shape and range checks, raises ``GroupError`` for the first
    failing axiom in the order identity ("no two-sided identity"), inverses
    ("element a has no inverse"), associativity ("(a*b)*c != a*(b*c)",
    naming a failing triple).

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
        raise GroupError("no two-sided identity")
    inverse = []
    for a, row in enumerate(rows):
        right = compress(range(n), map(identity.__eq__, row))
        b = next((b for b in right if rows[b][a] == identity), None)
        if b is None:
            raise GroupError(f"element {a} has no inverse")
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


def _failing_triple(rows, *triples) -> GroupError:
    for a, b, c in triples:
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return GroupError(f"({a}*{b})*{c} != {a}*({b}*{c})")
    raise InternalConsistency(f"a repeated table entry without a failing triple among {triples}")


def _greedy_generators(rows, cols, identity: int) -> list[int]:
    """Smallest elements not yet generated, each passing Light's test, until they generate ``rows``.

    Each generator g is tested as it is found: (x*g)*y = x*(g*y) for all x, y,
    or a ``GroupError`` names the first failing (x, y).  The g that pass are
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
                raise GroupError(f"({x}*{g})*{y} != {x}*({g}*{y})")
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
    """A homomorphism G -> {+1,-1}, its values declared and checked by the group's ``character``."""

    def __init__(self, group: AmbientGroup, values: Sequence[int]):
        self.group = group
        self.values = tuple(values)
        if not (_INTS.issuperset(map(type, self.values)) and {1, -1}.issuperset(self.values)):
            raise GroupError("character values must be +1 or -1")
        self._evaluate = group.character(self.values)

    def __call__(self, a) -> int:
        return self._evaluate(a)


class SignedSubgroup(NamedTuple):
    """Subgroup of G x {+1,-1} generated by (element, sign) pairs.

    Either the sign component is a homomorphism on the projection, or the
    subgroup contains (1,-1); both are legal, and ``contains_minus_one``,
    found once by ``subgroup_closure``, tells them apart.
    """

    ambient: AmbientGroup
    generators: tuple
    contains_minus_one: bool


class Orbit(NamedTuple):
    """One orbit of a signed action; a tuple, so hashing it per distinct element stays cheap."""

    rep: object  # canonical element: int index or reduced tuple
    order_two: bool


def signed_search(start: int, moves: list[tuple]) -> tuple[dict[int, int], bool]:
    """Signs first given to the elements reached from (start, +1), and whether one got both.

    A move (image, signs), sequences indexed by element, sends (g, t) to
    (image[g], t * signs[g]); each image permutes the elements.  The lemma:
    a finite permutation's inverse is a power of it, so forward moves reach
    start's whole orbit; unless some element is reached with both signs, the
    signed set reached is closed under the moves, the orbit of (start, +1).
    The moves commute with (g, t) -> (g, -t), so an element reached with both
    puts (start, -1) in that orbit.  O(orbit size x number of moves).
    """
    sign, stack, both = {start: 1}, [start], False
    while stack:
        g = stack.pop()
        t = sign[g]
        for image, signs in moves:
            h, s = image[g], t * signs[g]
            if h not in sign:
                sign[h] = s
                stack.append(h)
            elif sign[h] != s:
                both = True
    return sign, both


def subgroup_closure(ambient: AmbientGroup, generators: Iterable) -> SignedSubgroup:
    """Close a list of (element, sign) pairs inside G x {+1,-1}; the pairs are checked once.

    The subgroup is the orbit of (1, +1) under the generators acting on the
    left alone, so it holds (1, -1) exactly when that orbit has order two.
    """
    pairs = list(generators)
    signs = [s for _, s in pairs]
    gens = tuple(zip(check_signed(ambient, signs, [g for g, _ in pairs]), signs))
    table: dict = {}
    ambient.signed_classifier(gens)(table, [ambient.identity])
    return SignedSubgroup(ambient, gens, table[ambient.identity][0].order_two)
