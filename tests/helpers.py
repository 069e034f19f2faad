"""Shared test fixtures, input builders and reference implementations.

Small-group catalog, characters, random subgroups and contexts; builders of
test inputs (cyclic groups, trivial characters, Seifert block sums, torus
knots T(p,q) and unimodular congruences, instance documents and their
reorderings, the t-preserving transfer move and cusp trick, and the
band-fibre finger move and formal union of band records, with the record
and surface sums they read); one-point and one-disc records (``DoublePoint``,
``WhitneyDisc``), which the package no longer has, with builders of the
checked ``DoublePoints`` and the ``WhitneyDiscs`` columns from them and
back; list reduction of (sign, element) pairs through the checked columns
``reduce_list`` takes, and the sum of two Gamma elements;
the paper's corollaries that no command runs (the Stong t-formula, the
projective-plane parity, the Euler-characteristic bound, the r- and
s-characteristic checks and the home of mu_1), which the acceptance
criteria check; the torus-knot closed forms (the Alexander polynomial and
Litherland's signature count);
Theta read off a ``ThetaFunctional`` at any class of its span; the paper's
H1 basis and intersection form, written out densely; and the slow
or older computations that the package's fast paths are compared against:
knot (the Arf count and the eigenvalue signature), the signed closure of
a subgroup's generators and membership in it by the group's own classifier,
finite abelian groups rewritten as relabelled Cayley tables (a group alone
or a whole instance document), finite and abelian gamma, list-reduction,
Whitney-conversion and projective-plane oracles, the Lagrange
interpolation of the Alexander polynomial, the per-point and per-disc
reader, bucketing and F^t filter that the double-point columns
replaced, the per-disc collection checks, t-count and conversion that the
disc columns replaced, the pair-by-pair boundary-form scan that the
span-basis walk replaced, and the per-record band checks that the
catalog's one mask per vector replaced.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
import random
import reprlib
from fractions import Fraction
from typing import NamedTuple, Optional

import mpmath

from surfemb4 import bands, cli, engine, groups, knots, whitney
from surfemb4.bands import BandError, BandRecord, SurfaceModel, ThetaFunctional, theta
from surfemb4.engine import (
    EngineError,
    MissingWhitneyData,
    ProblemInstance,
    points_between,
    restrict_Ft,
)
from surfemb4.errors import InternalConsistency, SchemaError
from surfemb4.gamma import (
    GammaElement,
    GammaError,
    GammaGroup,
    Orbit,
    PairingContext,
    build_gamma,
    reduce_list,
)
from surfemb4.groups import (
    AmbientGroup,
    Character,
    FGAbelianGroup,
    FiniteTableGroup,
    GroupError,
    NotAssociative,
    abelian_group,
    make_finite_group,
    subgroup_closure,
)
from surfemb4.intlinalg import HermiteLattice, bareiss_det
from surfemb4.knots import SeifertMatrix, _is_alexander_root
from surfemb4.schema import INSTANCE_SHAPE, SCHEMA_VERSION, _build, _domain_errors, _h1_dim_error
from surfemb4.shapes import shape_errors
from surfemb4.whitney import (
    DoublePoints,
    NotConvenient,
    UnpairedPoints,
    WhitneyCollection,
    WhitneyDiscs,
    WhitneyError,
    t_count,
    to_convenient,
)


def replace(record, **changes):
    """``record`` with ``changes``, rebuilt through its constructor, so its checks run again.

    A record's own ``_replace`` skips the constructor's checks.
    """
    fields = dict(record._asdict(), **changes)
    if isinstance(record, bands.BandCatalog):  # the constructor computes the masks again
        del fields["masks"]
    return type(record)(**fields)


def cyclic_group(n: int) -> AmbientGroup:
    """C_n as a table for n >= 1; the infinite cyclic group Z for n = 0."""
    if n < 0:
        raise GroupError("n must be >= 0")
    if n == 0:
        return FGAbelianGroup((0,))
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return make_finite_group(table)


def trivial_character(group: AmbientGroup) -> Character:
    n = group.order if group.kind == "finite" else group.rank
    return Character(group, [1] * n)


def direct_product(a: FiniteTableGroup, b: FiniteTableGroup) -> FiniteTableGroup:
    nb = b.order
    n = a.order * nb

    def enc(x, y):
        return x * nb + y

    table = [[0] * n for _ in range(n)]
    for x1 in a.elements():
        for y1 in b.elements():
            for x2 in a.elements():
                for y2 in b.elements():
                    table[enc(x1, y1)][enc(x2, y2)] = enc(a.mul(x1, x2), b.mul(y1, y2))
    return make_finite_group(table)


def dihedral(m: int) -> FiniteTableGroup:
    """The dihedral group of order 2m, with r^i s^a at index i + m*a."""

    def mul(x, y):
        (a, i), (b, k) = divmod(x, m), divmod(y, m)
        return (i + (-k if a else k)) % m + m * ((a + b) % 2)

    return make_finite_group([[mul(x, y) for y in range(2 * m)] for x in range(2 * m)])


def relabel(table, perm) -> list[list[int]]:
    """The same multiplication with element a renamed perm[a]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            out[perm[a]][perm[b]] = perm[v]
    return out


def is_group_table(table) -> bool:
    """The group axioms checked directly, associativity over all n^3 triples.

    The reference for ``make_finite_group``; the table must be square with
    entries in range.
    """
    n = len(table)
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return False
    identity = next((e for e in range(n)
                     if all(table[e][x] == x and table[x][e] == x for x in range(n))), None)
    return identity is not None and all(
        any(table[a][b] == identity and table[b][a] == identity for b in range(n))
        for a in range(n))


def greedy_generators_by_products(rows, cols, identity: int) -> list[int]:
    """``groups._greedy_generators`` as it was: every greedy generator first, then Light's test.

    The reference for the search that tests each generator as it is found.
    The closure grows by multiplying each new member with every earlier one
    on both sides, O(n^2); then each generator but the identity is tested in
    turn, and the first failing (x, g, y) raises NotAssociative.
    """
    n = len(rows)
    generators: list[int] = []
    closure: set[int] = set()
    members: list[int] = []
    for g in range(n):
        if g in closure:
            continue
        generators.append(g)
        closure.add(g)
        members.append(g)
        done = len(members) - 1
        while done < len(members):
            x = members[done]
            done += 1
            prefix = members[:done]
            fresh = set(map(rows[x].__getitem__, prefix))
            fresh.update(map(cols[x].__getitem__, prefix))
            fresh -= closure
            closure |= fresh
            members += fresh
    for g in generators:
        if g == identity:
            continue
        for x in range(n):
            y = next((y for y in range(n) if rows[rows[x][g]][y] != rows[x][rows[g][y]]), None)
            if y is not None:
                raise NotAssociative(f"({x}*{g})*{y} != {x}*({g}*{y})")
    return generators


def is_multiplicative(group: FiniteTableGroup, values) -> bool:
    """values[a*b] == values[a] * values[b] at every pair: the reference for ``Character``."""
    return all(values[group.mul(a, b)] == values[a] * values[b]
               for a in group.elements() for b in group.elements())


def random_character(group: FiniteTableGroup, rng: random.Random) -> Character:
    """A random homomorphism to {+1,-1}: random values on the generators, when they extend."""
    while True:
        on_gens = {g: 1 if g == group.identity else rng.choice((1, -1)) for g in group.generators}
        values = {group.identity: 1}
        frontier = [group.identity]
        while frontier:
            x = frontier.pop()
            for g, v in on_gens.items():
                y = group.mul(x, g)
                if y not in values:
                    values[y] = values[x] * v
                    frontier.append(y)
        values = [values[x] for x in group.elements()]
        if is_multiplicative(group, values):
            return Character(group, values)


def _perm_group(generators: list[tuple[int, ...]]) -> FiniteTableGroup:
    degree = len(generators[0])
    identity = tuple(range(degree))

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(degree))

    elements = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for g in generators:
            for q in (compose(g, p), compose(p, g)):
                if q not in elements:
                    elements.add(q)
                    frontier.append(q)
    elems = sorted(elements)
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[compose(p, q)] for q in elems] for p in elems]
    return make_finite_group(table)


def symmetric3() -> FiniteTableGroup:
    return _perm_group([(1, 0, 2), (1, 2, 0)])


def dihedral4() -> FiniteTableGroup:
    return _perm_group([(1, 2, 3, 0), (0, 3, 2, 1)])


def quaternion8() -> FiniteTableGroup:
    units = []
    for axis in range(4):  # 1, i, j, k
        for sign in (1, -1):
            q = [0, 0, 0, 0]
            q[axis] = sign
            units.append(tuple(q))
    units = sorted(units)
    index = {q: i for i, q in enumerate(units)}

    def hamilton(a, b):
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    table = [[index[hamilton(a, b)] for b in units] for a in units]
    return make_finite_group(table)


def all_groups_up_to_8() -> list[tuple[str, FiniteTableGroup]]:
    """All isomorphism classes of groups of order <= 8."""
    c = {n: cyclic_group(n) for n in range(1, 9)}
    return [
        ("C1", c[1]), ("C2", c[2]), ("C3", c[3]),
        ("C4", c[4]), ("C2xC2", direct_product(c[2], c[2])),
        ("C5", c[5]),
        ("C6", c[6]), ("S3", symmetric3()),
        ("C7", c[7]),
        ("C8", c[8]), ("C4xC2", direct_product(c[4], c[2])),
        ("C2xC2xC2", direct_product(direct_product(c[2], c[2]), c[2])),
        ("D4", dihedral4()), ("Q8", quaternion8()),
    ]


def cyclic_and_dihedral_groups_16_to_256() -> list[tuple[str, FiniteTableGroup]]:
    """C_n, D_n (order 2n) and their products of orders 16 to 256, the families that the
    decide-finite workload draws."""
    c = {n: cyclic_group(n) for n in (2, 4, 8, 16, 256)}
    return [
        ("C16", c[16]), ("D16", dihedral(16)), ("C2xD16", direct_product(c[2], dihedral(16))),
        ("C8xC8", direct_product(c[8], c[8])), ("C4xD16", direct_product(c[4], dihedral(16))),
        ("D128", dihedral(128)), ("C256", c[256]), ("D16xC8", direct_product(dihedral(16), c[8])),
    ]


def all_characters(group: FiniteTableGroup) -> list[Character]:
    """Every homomorphism to {+1,-1}, found by exhaustive filtering."""
    return [Character(group, signs)
            for signs in itertools.product((1, -1), repeat=group.order)
            if signs[group.identity] == 1 and is_multiplicative(group, signs)]


def random_signed_subgroup(group: FiniteTableGroup, rng: random.Random):
    gens = [
        (rng.randrange(group.order), rng.choice((1, -1)))
        for _ in range(rng.randrange(3))
    ]
    return subgroup_closure(group, gens)


def signed_closure(group: FiniteTableGroup, generators) -> frozenset:
    """The subgroup of G x {+1,-1} that the (element, sign) pairs generate, closed under products
    and inverses until nothing is new: the reference for ``subgroup_closure``."""
    closure, table = {(group.identity, 1), *generators}, group.table
    while True:
        more = {(group.inv(a), s) for a, s in closure}
        more |= {(table[a][b], s * t) for a, s in closure for b, t in closure}
        if more <= closure:
            return frozenset(closure)
        closure |= more


def closure_contains(group: AmbientGroup, generators, pairs) -> list[bool]:
    """Whether each (element, sign) pair lies in the signed subgroup the checked ``generators``
    give: in the orbit of (1, +1) under their action on the left, by the group's own classifier."""
    elems = group.check_elems([g for g, _ in pairs])
    table: dict = {}
    group.signed_classifier(generators)(table, list(dict.fromkeys((group.identity, *elems))))
    one, sign = table[group.identity]
    return [table[g][0] == one and (sign is None or table[g][1] == s * sign)
            for g, (_, s) in zip(elems, pairs)]


def classified_batches(monkeypatch, backend: type) -> list[list]:
    """Each batch of elements that the signed classifiers ``backend`` builds from now on receive."""
    batches = []
    original = backend.signed_classifier

    def counted(self, *args):
        classify = original(self, *args)
        return lambda table, new: batches.append(list(new)) or classify(table, new)
    monkeypatch.setattr(backend, "signed_classifier", counted)
    return batches


def pivot_cols(lattice: HermiteLattice) -> list[int]:
    """The pivot columns of a Hermite lattice, in increasing order."""
    return sorted(lattice._by_pivot)


def hermite_rows(lattice: HermiteLattice) -> list[list[int]]:
    """The echelon rows of a Hermite lattice, in pivot order."""
    return [lattice._by_pivot[col] for col in pivot_cols(lattice)]


def abelian_table(factors, rng: random.Random):
    """The Cayley table of the product of the Z/f (each f >= 1), its elements relabelled by a
    random permutation, and the function giving each element's label from any integer tuple."""
    elements = list(itertools.product(*map(range, factors)))  # mixed radix
    label = dict(zip(elements, rng.sample(range(len(elements)), len(elements))))

    def label_of(elem) -> int:
        return label[tuple(x % f for x, f in zip(elem, factors))]

    table = [[0] * len(elements) for _ in elements]
    for a, la in label.items():
        row = table[la]
        for b, lb in label.items():
            row[lb] = label_of(map(operator.add, a, b))
    return table, label_of


def abelian_as_table(doc: dict, rng: random.Random) -> dict:
    """``doc``, over invariant factors all >= 1, written over a relabelled Cayley table of the same
    group: wM extended to every element as the product of wM(e_i)^(a_i), and every signed-subgroup
    element and every eta mapped to its label."""
    doc = copy.deepcopy(doc)
    factors = doc["group"]["factors"]
    table, label = abelian_table(factors, rng)
    values = doc["characters"]["wM"]
    wm = [1] * len(table)
    for elem in itertools.product(*map(range, factors)):
        wm[label(elem)] = math.prod(v ** a for v, a in zip(values, elem))
    doc["group"], doc["characters"]["wM"] = {"kind": "finite", "table": table}, wm
    for comp in doc["components"]:
        comp["signed_subgroup"] = [[label(g), s] for g, s in comp["signed_subgroup"]]
    for point in doc["double_points"]:
        point["eta"] = label(point["eta"])
    return doc


def random_seifert_rows(rng: random.Random, max_genus: int = 3, min_genus: int = 1,
                        bound: int = 2) -> list[list[int]]:
    """Random Seifert matrix with entries in [-bound, bound] and V - V^T symplectic."""
    g = rng.randrange(min_genus, max_genus + 1)
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randrange(-bound, bound + 1)
    for i in range(n):
        for j in range(i + 1, n):
            target = 1 if (j == i + 1 and i % 2 == 0) else 0
            vji = rng.randrange(-bound, bound + 1 - target)
            rows[j][i] = vji
            rows[i][j] = vji + target
    return rows


def torus_sum(qs) -> SeifertMatrix:
    """The connected sum of the T(2,q), q in ``qs``: block sums of -1 on the diagonal, 1 above it."""
    blocks = [SeifertMatrix([[-1 if i == j else 1 if j == i + 1 else 0 for j in range(q - 1)]
                             for i in range(q - 1)]) for q in qs]
    out = blocks[0]
    for b in blocks[1:]:
        out = block_sum(out, b)
    return out


def block_sum(a: SeifertMatrix, b: SeifertMatrix) -> SeifertMatrix:
    """The block-diagonal Seifert matrix of the connected sum."""
    return SeifertMatrix([list(row) + [0] * b.size for row in a.rows]
                         + [[0] * a.size + list(row) for row in b.rows])


def torus_sum_signature(qs, r: Fraction) -> int:
    """Closed form of the Levine-Tristram signature of the sum of the T(2,q), q in ``qs``.

    The roots of (t^q + 1)/(t + 1) are exp(i*pi*k/q), k odd, k != q, all simple,
    and the signature of T(2,q) drops by 2 at each of them from 0 near w = 1:
    -2 #{odd k < q : k/q < r} for r folded into (0, 1].  Meaningless at a root.
    """
    r = Fraction(r) % 2
    r = min(r, 2 - r)
    return -2 * sum(1 for q in qs for k in range(1, q, 2) if Fraction(k, q) < r)


def torus_knot(p: int, q: int) -> SeifertMatrix:
    """V(T(p,q)) = -A_(p-1) (x) A_(q-1), A_k the T(2,k+1) block of ``torus_sum``.

    The Seifert form of the Milnor fibre of x^p + y^q, the join of the two
    A-type forms (Sebastiani-Thom, Invent. Math. 13, 1971; Sakamoto, J. Math.
    Soc. Japan 26, 1974).  With p = 2 it is ``torus_sum([q])``, so it has the
    same sign convention: T(2,3) has signature -2.
    """
    a, b = ([[-1 if i == j else 1 if j == i + 1 else 0 for j in range(k - 1)] for i in range(k - 1)]
            for k in (p, q))
    return SeifertMatrix([[-x * y for x in row_a for y in row_b] for row_a in a for row_b in b])


def torus_knot_alexander(p: int, q: int) -> list[int]:
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), low degree first, by exact division."""
    def times(f, k, c):  # f * (t^k + c)
        out = [0] * (len(f) + k)
        for i, x in enumerate(f):
            out[i] += c * x
            out[i + k] += x
        return out

    num = times([-1] + [0] * (p * q - 1) + [1], 1, -1)
    for k in (p, q):  # divide by t^k - 1, from the top: x_i = n_(i+k) + x_(i+k)
        out = [0] * (len(num) - k)
        for i in range(len(out) - 1, -1, -1):
            out[i] = num[i + k] + (out[i + k] if i + k < len(out) else 0)
        assert times(out, k, -1) == num
        num = out
    return num


def torus_knot_signature(p: int, q: int, r) -> int:
    """Litherland's count for the signature of T(p,q) at exp(i*pi*r), in ``torus_sum``'s sign.

    With x = (r mod 2)/2 in (0, 1): the pairs 0 < i < p, 0 < j < q with i/p + j/q
    outside [x, x + 1], minus those inside (x, x + 1) (Litherland, Signatures of
    iterated torus knots, LNM 722, 1979).  A sum equal to x or x + 1 is a jump,
    where exp(i*pi*r) is a root of the Alexander polynomial, and r = 0 mod 2 is
    w = 1: both raise ``SingularAtOmega``.
    """
    x = Fraction(r) % 2 / 2
    if x == 0:
        raise knots.SingularAtOmega("w = 1")
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            if s in (x, x + 1):
                raise knots.SingularAtOmega(f"a jump of T({p},{q}) at r = {r}")
            total += -1 if x < s < x + 1 else 1
    return total


def unimodular_congruence(V: SeifertMatrix, rng: random.Random, steps: int) -> SeifertMatrix:
    """P V P^T for P a product of ``steps`` random elementary moves, each kept while every entry
    stays below 2^53 in magnitude, the knot files' cap; the congruence keeps Delta, Arf and every
    signature."""
    rows = [list(row) for row in V.rows]
    n = len(rows)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        new = [row[:] for row in rows]
        new[i] = [x + c * y for x, y in zip(new[i], new[j])]  # row i += c row j, then the columns
        for row in new:
            row[i] += c * row[j]
        if max(abs(x) for row in new for x in row) < 1 << 53:
            rows = new
    return SeifertMatrix(rows)


def eighe_signature(V: SeifertMatrix, r, dps: int = 200) -> Optional[int]:
    """The Levine-Tristram signature at exp(i*pi*r) from mpmath's Hermitian eigenvalues; None at a root.

    The reference for ``knots.levine_tristram``: the eigenvalue loop that once
    decided where the float certificate declined.  A root of the Alexander
    polynomial (or r = 0 mod 2) gives None.  Elsewhere the eigenvalues are
    computed at ``dps`` digits, then twice and four times that, until every one
    exceeds norm * 10^(12 - dps) in magnitude.  No proved bound backs that
    tolerance, so this is an oracle only.  About 0.1 s at n = 16 and 1.2 s at
    n = 40, at 200 digits.
    """
    r = Fraction(r) % 2
    if r == 0 or _is_alexander_root(V, r.numerator, r.denominator):
        return None
    n = V.size
    for digits in (dps, 2 * dps, 4 * dps):
        with mpmath.workdps(digits):
            w = mpmath.expjpi(mpmath.mpf(r.numerator) / r.denominator)
            a, ac = 1 - w, 1 - mpmath.conj(w)
            mat = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    mat[i, j] = a * V.rows[i][j] + ac * V.rows[j][i]
            eigs = mpmath.eighe(mat, eigvals_only=True)
            norm = max(abs(mat[i, j]) for i in range(n) for j in range(n)) * n
            tol = norm * mpmath.mpf(10) ** (12 - digits)
            if all(abs(e) > tol for e in eigs):
                return sum(1 if e > 0 else -1 for e in eigs)
    raise AssertionError(f"eigenvalues not separated from zero at {4 * dps} digits")


def arf_bruteforce(V: SeifertMatrix) -> int:
    """The majority value of q(x) = x V x^T mod 2 over all 2^n vectors x.

    The counting reference for ``knots.arf``, at O(2^n n^2): use it for n <= 12.
    """
    n = V.size
    counts = [0, 0]
    for mask in range(1 << n):
        q = 0
        for i in range(n):
            if (mask >> i) & 1:
                for j in range(n):
                    if (mask >> j) & 1:
                        q += V.rows[i][j]
        counts[q % 2] += 1
    assert counts[0] != counts[1]
    return 0 if counts[0] > counts[1] else 1


# The signature-point arithmetic on Fractions, as ``knots`` did it before points became
# integer pairs: the references for ``knots._omega_order``, ``_cos_sin_pi``'s reduction,
# the fold of ``_folded_signatures`` and ``_lower_bound``.

def omega_order_by_fractions(r) -> int:
    """Order of exp(i*pi*r) as a root of unity: the denominator of (r mod 2) / 2."""
    return ((Fraction(r) % 2) / 2).denominator


def cos_sin_pi_by_fractions(r, b: int) -> tuple[int, int]:
    """``knots._cos_sin_pi`` at exp(i*pi*r), r reduced to [0, 1/4] on Fractions.

    The sign and swap symmetries are applied here, so ``knots._cos_sin_pi`` runs
    only its series, on the reduced point, where it reduces nothing.
    """
    r = Fraction(r) % 2
    sign_c = sign_s = 1
    if r >= 1:
        r, sign_c, sign_s = r - 1, -1, -1
    if r > Fraction(1, 2):
        r, sign_c = 1 - r, -sign_c
    swap = r > Fraction(1, 4)
    if swap:
        r = Fraction(1, 2) - r
    c, s = knots._cos_sin_pi(r.numerator, r.denominator, b)
    if swap:
        c, s = s, c
    return sign_c * c, sign_s * s


def fold_by_fractions(r) -> Fraction:
    """The point min(r, 2 - r), r taken mod 2, at which ``_folded_signatures`` evaluates r."""
    r = Fraction(r) % 2
    return min(r, 2 - r)


def lower_bound_by_fractions(d: int, signature) -> int:
    """``knots._lower_bound`` with its bounds as Fractions; ``signature(r)`` takes a Fraction."""
    if d in (1, -1):
        raise knots.DNotCovered("classes +-1 are governed by the Arf invariant")
    bounds = []
    if d % 2 == 0:
        sigma = signature(Fraction(1))
        bounds.append(abs(Fraction(d * d, 2) - 1 - sigma))
    if d != 0:
        primes = knots._odd_prime_divisors(abs(d))
        if primes:
            try:
                s = signature(Fraction(d - 1, d))  # sigma_d
            except knots.SingularAtOmega:
                primes = []  # signature jump point: no usable bound at this d
            for p in primes:
                bounds.append(abs(Fraction((p * p - 1) * d * d, 2 * p * p) - 1 - s))
    if any(b.denominator != 1 for b in bounds):
        raise InternalConsistency("a cp2 genus bound is not an integer")
    return max((int(b) // 2 for b in bounds), default=0)


ABELIAN_FACTORS = (0, 2, 3, 4, 6, 8, 12)


def orbit_counts(gamma) -> tuple[int, int]:
    """(free rank, number of Z/2 orbits) of a finite ambient's target group, from one orbit list."""
    orbits = gamma.orbits()
    two = sum(o.order_two for o in orbits)
    return len(orbits) - two, two


def random_abelian_element(group, rng: random.Random) -> tuple[int, ...]:
    """A small element, often not in canonical form; one in four has order <= 2."""
    if rng.random() < 0.25:
        return tuple(rng.randrange(-2, 3) * f + rng.choice((0, f // 2)) for f in group.factors)
    return tuple(rng.randrange(-2 * f, 2 * f + 1) if f else rng.randrange(-9, 10)
                 for f in group.factors)


def random_abelian_signed_subgroup(group, rng: random.Random, minus_one: bool = False):
    gens = [(random_abelian_element(group, rng), rng.choice((1, -1)))
            for _ in range(rng.randrange(3))]
    if minus_one:
        gens.append((group.identity, -1))
    return subgroup_closure(group, gens)


def random_abelian_context(rng: random.Random, self_pairing: bool) -> PairingContext:
    """Rank <= 4, factors from ``ABELIAN_FACTORS``, a random character, sometimes (1, -1) in a subgroup."""
    group = abelian_group([rng.choice(ABELIAN_FACTORS) for _ in range(rng.randrange(5))])
    wM = Character(group, [1 if f % 2 else rng.choice((1, -1)) for f in group.factors])
    s_f = random_abelian_signed_subgroup(group, rng, rng.random() < 0.1)
    s_g = s_f if self_pairing else random_abelian_signed_subgroup(group, rng, rng.random() < 0.1)
    return PairingContext(group, wM, s_f, s_g, self_pairing=self_pairing)


class TwoLatticeGamma:
    """Orbits and section signs of an abelian context, from two Hermite lattices.

    The projection lattice (subgroup generators and factors, signs dropped)
    gives the orbit representative, min(r+, r-) under self-pairing; the
    signed lattice with an extra mod-2 sign coordinate gives the order-two
    test and, by a search over the translate and the inverted translate of
    the representative, the section sign.  The reference for
    ``GammaGroup.classify`` on abelian ambients.
    """

    def __init__(self, ctx: PairingContext):
        G, wM = ctx.ambient, ctx.wM
        k = G.rank
        self.ctx = ctx
        hat_rows, proj_rows = [], []
        gen_pairs = list(ctx.s_f.generators)
        gen_pairs += [(g, s * wM(G.check_elems([g])[0])) for g, s in ctx.s_g.generators]
        wm_nontrivial_on_span = False
        for g, s in gen_pairs:
            v = list(G.check_elems([g])[0])
            hat_rows.append(v + [(1 - s) // 2])
            proj_rows.append(v)
            wm_nontrivial_on_span |= wM(tuple(v)) == -1
        for i, f in enumerate(G.factors):
            if f:
                row = [f if j == i else 0 for j in range(k)]
                hat_rows.append(row + [0])
                proj_rows.append(row)
        hat_rows.append([0] * k + [2])
        if ctx.self_pairing and wm_nontrivial_on_span:
            hat_rows.append([0] * k + [1])
        self.hat = HermiteLattice(hat_rows, k + 1)
        self.proj = HermiteLattice(proj_rows, k)
        self.global_two = self.hat.contains([0] * k + [1])

    def orbit_of(self, elem) -> Orbit:
        e = self.ctx.ambient.check_elems([elem])[0]
        r_plus = self.proj.reduce(e)
        if self.ctx.self_pairing:
            rep = min(r_plus, self.proj.reduce([-x for x in e]))
        else:
            rep = r_plus
        two = self.global_two
        if not two and self.ctx.self_pairing:
            wbit = (1 - self.ctx.wM(e)) // 2
            two = self.hat.contains([2 * x for x in e] + [wbit ^ 1])
        return Orbit(rep, two)

    def section_sign(self, elem):
        """+-1 relative to the representative, or None on an order-two orbit."""
        e = self.ctx.ambient.check_elems([elem])[0]
        orbit = self.orbit_of(e)
        if orbit.order_two:
            return None
        rep = orbit.rep
        diff = [x - y for x, y in zip(e, rep)]
        if self.proj.contains(diff):
            if self.hat.contains(diff + [0]):
                return 1
            assert self.hat.contains(diff + [1]), e
            return -1
        summ = [x + y for x, y in zip(e, rep)]
        assert self.ctx.self_pairing and self.proj.contains(summ), e
        wr = self.ctx.wM(self.ctx.ambient.check_elems([rep])[0])
        if self.hat.contains(summ + [0]):
            return wr
        assert self.hat.contains(summ + [1]), e
        return -wr

    def reduce(self, entries) -> dict:
        """{Orbit: nonzero coefficient} of a list of (sign, element) pairs."""
        coeffs: dict = {}
        for sign, elem in entries:
            orbit = self.orbit_of(elem)
            if orbit.order_two:
                coeffs[orbit] = (coeffs.get(orbit, 0) + 1) % 2
            else:
                coeffs[orbit] = coeffs.get(orbit, 0) + sign * self.section_sign(elem)
        return {k: v for k, v in coeffs.items() if v}

    def coefficient_at(self, coeffs: dict, elem) -> tuple[int, str]:
        """(value, "Z" or "Z/2") at ``elem`` of a reduced element, as ``gamma.coefficient_at``."""
        orbit = self.orbit_of(elem)
        raw = coeffs.get(orbit, 0)
        if orbit.order_two:
            return raw % 2, "Z/2"
        return raw * self.section_sign(elem), "Z"


class EnumeratedFiniteGamma:
    """Orbits and section signs of a finite context, from every signed element at once.

    Enumerates the signed orbits of all of G x {+1,-1}, stepping through
    every member of both subgroups (``signed_closure`` of their generators),
    then projects them to element orbits represented by their least element.  ``_table`` maps each element
    to (orbit, section sign or None) and ``_orbits`` lists the orbits by
    representative.  The reference for ``GammaGroup`` on finite ambients,
    which searches only the orbits queried, over the subgroup generators.
    """

    def __init__(self, ctx: PairingContext):
        self.ctx = ctx
        self._table: dict = {}
        self._build_finite()

    def _build_finite(self):
        G = self.ctx.ambient
        wM = self.ctx.wM
        table = G.table
        left = sorted(signed_closure(G, self.ctx.s_f.generators))
        right = [(b, eb * wM(b)) for b, eb in sorted(signed_closure(G, self.ctx.s_g.generators))]
        orbit_id: dict[tuple, int] = {}
        next_id = 0
        for e in G.elements():
            for s in (1, -1):
                if (e, s) in orbit_id:
                    continue
                oid = next_id
                next_id += 1
                stack = [(e, s)]
                orbit_id[(e, s)] = oid
                while stack:
                    g, t = stack.pop()
                    row = table[g]
                    nbrs = [(table[a][g], t * ea) for a, ea in left]
                    nbrs += [(row[b], t * f) for b, f in right]
                    if self.ctx.self_pairing:
                        nbrs.append((G.inv(g), t * wM(g)))
                    for node in nbrs:
                        if node not in orbit_id:
                            orbit_id[node] = oid
                            stack.append(node)
        # project signed orbits to element orbits, represented by their least element
        least = [G.order] * next_id
        for (g, _), oid in orbit_id.items():
            least[oid] = min(least[oid], g)
        orbits: dict[int, Orbit] = {}
        for e in G.elements():
            rep = least[orbit_id[(e, 1)]]
            two = orbit_id[(e, 1)] == orbit_id[(e, -1)]
            orbit = orbits.setdefault(rep, Orbit(rep, two))
            if two:
                self._table[e] = (orbit, None)
            else:
                self._table[e] = (orbit, 1 if orbit_id[(e, 1)] == orbit_id[(rep, 1)] else -1)
        self._orbits = [orbits[r] for r in sorted(orbits)]


class DoublePoint(NamedTuple):
    """One double point as a record: a row of ``whitney.DoublePoints``."""
    id: int
    components: tuple[int, int]  # (i, j); i == j for a self-intersection
    sign: int
    eta: object  # group element, per ambient backend


class WhitneyDisc(NamedTuple):
    """One Whitney disc as a record: a row of ``whitney.WhitneyDiscs``."""
    id: int
    pair: tuple[int, int]  # ids of the two paired double points
    interior: dict  # surface component -> |Int W ^ f_i|
    mu_boundary: int = 0  # boundary self-intersections
    euler: int = 0  # twisting relative to the Whitney framing

    def is_convenient(self) -> bool:
        return self.euler == 0 and self.mu_boundary == 0


def point_columns(points, group: AmbientGroup) -> DoublePoints:
    """``DoublePoint`` records, or any (id, components, sign, eta) rows, as columns checked
    against ``group``."""
    return DoublePoints(*(tuple(zip(*points)) or ((),) * 4), group)


def point_records(points: DoublePoints) -> list[DoublePoint]:
    return list(map(DoublePoint, points.ids, points.pairs, points.signs, points.etas))


def disc_columns(discs) -> WhitneyDiscs:
    """``WhitneyDisc`` records as columns."""
    return WhitneyDiscs(*(tuple(zip(*discs)) or ((),) * 5))


def disc_values(discs: WhitneyDiscs) -> tuple:
    """The five columns of ``discs``, for comparing two disc columns by value."""
    return discs.ids, discs.pairs, discs.interiors, discs.mu_boundary, discs.euler


def collection_values(collection: WhitneyCollection) -> tuple:
    """``disc_values`` of the discs, then the boundary counts and the convenient flag."""
    return disc_values(collection.discs), collection.boundary, collection.convenient


def disc_records(discs: WhitneyDiscs) -> list[WhitneyDisc]:
    return list(map(WhitneyDisc, discs.ids, discs.pairs, discs.interiors, discs.mu_boundary,
                    discs.euler))


def disc_collection(discs, boundary: Optional[dict] = None,
                    convenient: bool = True) -> WhitneyCollection:
    """``WhitneyCollection`` of ``WhitneyDisc`` records, with no boundary counts unless given."""
    return WhitneyCollection(disc_columns(discs), {} if boundary is None else boundary, convenient)


def reduce_pairs(entries, gamma: GammaGroup) -> GammaElement:
    """``reduce_list`` of (sign, element) pairs, put into the columns it takes.

    The columns are built by ``DoublePoints`` against the ambient group, so
    ``check_signed`` checks the pairs once, with its own errors and messages.
    """
    entries = list(entries)
    n = len(entries)
    points = DoublePoints(range(n), [(0, 0)] * n, [sign for sign, _ in entries],
                          [elem for _, elem in entries], gamma.ctx.ambient)
    return reduce_list(points, gamma)


def gamma_sum(a: GammaElement, b: GammaElement) -> GammaElement:
    """The sum of two elements of one target group: coefficients merged, order-two ones mod 2,
    zeros dropped."""
    assert a.gamma is b.gamma
    out = dict(a.coeffs)
    for orbit, v in b.coeffs.items():
        out[orbit] = out.get(orbit, 0) + v
        if orbit.order_two:
            out[orbit] %= 2
    return GammaElement(a.gamma, {k: v for k, v in out.items() if v})


def reduce_list_per_point(entries, gamma: GammaGroup) -> GammaElement:
    """``gamma.reduce_list`` one point at a time, each classified by ``classify``: the reference
    for the tally by distinct element."""
    coeffs: dict = {}
    for sign, elem in entries:
        if type(sign) is not int or sign not in (1, -1):
            raise GammaError(f"sign must be +1 or -1, got {sign!r}")
        orbit, section = gamma.classify(elem)
        if section is None:
            coeffs[orbit] = (coeffs.get(orbit, 0) + 1) % 2
        else:
            coeffs[orbit] = coeffs.get(orbit, 0) + sign * section
    return GammaElement(gamma, {k: v for k, v in coeffs.items() if v})


def instance_from_dict_per_point(doc) -> ProblemInstance:
    """``schema.instance_from_dict`` one element and one point at a time: the reference for the
    reader's column pass and its single element check.

    Each subgroup is closed by ``subgroup_closure``, which checks its own generators, and each
    point is checked on its own and becomes a ``DoublePoint``; the errors are the reader's, in
    the reader's order.
    """
    errors = shape_errors(INSTANCE_SHAPE, doc)
    if errors:
        raise SchemaError(errors)
    gdoc = doc["group"]
    if gdoc["kind"] == "finite":
        group = _build(errors, "/group/table", groups.make_finite_group, gdoc["table"])
    else:
        group = _build(errors, "/group/factors", groups.abelian_group, gdoc["factors"])
    wM, components = None, []
    if group is not None:
        wM = _build(errors, "/characters/wM", groups.Character, group, doc["characters"]["wM"])
        for i, comp in enumerate(doc["components"]):
            subgroup = _build(errors, f"/components/{i}/signed_subgroup", groups.subgroup_closure,
                              group, comp["signed_subgroup"])
            if subgroup is not None:
                components.append(engine.ComponentData(
                    comp["id"], subgroup, comp["has_alg_dual"], comp["dual_framed"]))
    parts = [_build(errors, f"/surface/components/{i}", bands.SurfaceComponent, **sc)
             for i, sc in enumerate(doc["surface"]["components"])]
    too_large = _h1_dim_error(doc["surface"]["components"])
    errors += too_large
    surface = (None if too_large or None in parts
               else _build(errors, "/surface", bands.SurfaceModel, parts))
    declared = {c["id"] for c in doc["components"]}
    points, seen = [], set()
    for i, dp in enumerate(doc["double_points"]):
        pid, pair = dp["id"], dp["components"]
        if not set(pair) <= declared:
            errors.append(f"/double_points/{i}/components: unknown component in {pair}")
        elif pid in seen:
            errors.append(f"/double_points/{i}/id: duplicate double-point id")
        elif group is not None:
            try:
                eta, = group.check_elems([dp["eta"]])
                points.append(DoublePoint(pid, tuple(pair), dp["sign"], eta))
            except GroupError as exc:
                errors.append(f"/double_points/{i}/eta: {exc}")
        seen.add(pid)
    collection, wc = None, doc["whitney_collection"]
    if wc is not None:
        discs = tuple(WhitneyDisc(d["id"], tuple(d["pairs"]), {int(k): v for k, v in d["interior"].items()},
                                  d["mu_boundary"], d["euler"]) for d in wc["discs"])
        boundary = {}
        for i, (d1, d2, count) in enumerate(wc["boundary_intersections"]):
            if frozenset((d1, d2)) in boundary:
                errors.append(f"/whitney_collection/boundary_intersections/{i}: disc pair listed twice")
            boundary[frozenset((d1, d2))] = count
        collection = _build(errors, "/whitney_collection", whitney_collection_per_disc, discs,
                            boundary, wc["convenient"])
    catalogs = doc["catalogs"]
    rel = _build(errors, "/catalogs/rel_h2", bands.RelH2, tuple(catalogs["rel_h2"]["basis"]),
                 {k: tuple(v) for k, v in catalogs["rel_h2"]["boundary"].items()})
    records = [_build(errors, f"/catalogs/bands/{i}", bands.BandRecord, **dict(
        b, rel_class=tuple(b["rel_class"]), w1_sigma=tuple(b["w1_sigma"]),
        boundary_classes=tuple(tuple(c) for c in b["boundary_classes"])))
        for i, b in enumerate(catalogs["bands"])]
    band_catalog = None
    if rel is not None and surface is not None and None not in records:
        band_catalog = _build(errors, "/catalogs/bands", bands.BandCatalog, surface, rel, tuple(records))
    if errors:
        raise SchemaError(errors)
    try:  # the disc references last, one disc at a time, as ProblemInstance checks them
        inst = ProblemInstance(
            group=group, wM=wM, components=tuple(components),
            points=point_columns(points, group), collection=None, band_catalog=band_catalog,
            good_group=doc["flags"]["good_group"], torus_summands=frozenset(doc["flags"]["torus_summand"]))
        if collection is not None:
            if not {pid for d in discs for pid in d.pair} <= {p.id for p in points}:
                raise engine.ValidationError("Whitney collection references unknown double points")
            known = {c.id for c in components}
            for d in discs:
                if not set(d.interior) <= known:
                    raise engine.ValidationError(f"Whitney disc {d.id} meets unknown components")
        return inst._replace(collection=collection)
    except _domain_errors() as exc:
        raise SchemaError([f"/: {exc}"]) from None


def whitney_collection_per_disc(discs, boundary: dict, convenient: bool) -> WhitneyCollection:
    """``WhitneyCollection`` with each check made one disc at a time, in the constructor's order:
    the reference for its column passes."""
    ids = [d.id for d in discs]
    if len(set(ids)) != len(ids):
        raise WhitneyError("duplicate disc ids")
    for d in discs:
        if d.pair[0] == d.pair[1]:
            raise WhitneyError(f"disc {d.id} pairs a point with itself")
    paired = [pid for d in discs for pid in d.pair]
    if len(set(paired)) != len(paired):
        raise WhitneyError("a double point is paired by more than one disc")
    for d in discs:
        counts = (d.mu_boundary, *d.interior.values())
        if not all(type(c) is int for c in (*counts, d.euler)):
            raise WhitneyError(f"non-integer count on disc {d.id}")
        if min(counts) < 0:
            raise WhitneyError(f"negative count on disc {d.id}")
    for key, count in boundary.items():
        if len(key) != 2 or not key <= set(ids):
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
    return disc_collection(discs, boundary, convenient)


def t_count_per_disc(points: DoublePoints, components, collection: WhitneyCollection) -> int:
    """``whitney.t_count`` summed one disc at a time: the reference for its column sums.

    A disc is in W when both its points lie on the components, and a boundary count is summed
    only between two discs of W."""
    comps = set(components)
    want = {p.id for p in point_records(points) if set(p.components) <= comps}
    discs = [d for d in disc_records(collection.discs) if set(d.pair) <= want]
    unpaired = want - {pid for d in discs for pid in d.pair}
    if unpaired:
        raise UnpairedPoints(f"no disc pairs the components' double points "
                             f"{reprlib.repr(sorted(unpaired))}")
    kept = {d.id for d in discs}
    total = sum(n for key, n in collection.boundary.items() if key <= kept)
    for d in discs:
        total += d.mu_boundary + d.euler
        total += sum(c for comp, c in d.interior.items() if comp in comps)
    return total % 2


def to_convenient_per_disc(points: DoublePoints, collection: WhitneyCollection) -> WhitneyCollection:
    """``whitney.to_convenient`` with each bump summed and each disc rebuilt on its own: the
    reference for its column passes."""
    pair_of = {p.id: p.components for p in point_records(points)}
    discs = disc_records(collection.discs)
    position = {d.id: idx for idx, d in enumerate(discs)}
    bumps = [d.euler + d.mu_boundary for d in discs]
    for key, count in collection.boundary.items():
        bumps[min(position[i] for i in key)] += count
    new_discs = []
    for d, bump in zip(discs, bumps):
        interior = d.interior
        if bump % 2:
            comp = min(pair_of[d.pair[0]])
            interior = {**interior, comp: interior.get(comp, 0) + 1}
        new_discs.append(WhitneyDisc(d.id, d.pair, interior))
    return disc_collection(new_discs)


def points_between_per_point(points: DoublePoints, i: int, j: int) -> list[DoublePoint]:
    """``engine.points_between`` by a test of every point."""
    return [p for p in point_records(points) if set(p.components) == {i, j}]


def primary_obstructions_per_point(inst: ProblemInstance) -> dict:
    """The coefficients of ``engine.primary_obstructions``, each point bucketed on its own and each
    list reduced by ``gamma.reduce_list`` over checked columns."""
    lists: dict = {}
    for p in point_records(inst.points):
        lists.setdefault(frozenset(p.components), []).append((p.sign, p.eta))
    out = {}
    subgroup = {c.id: c.subgroup for c in inst.components}
    ids = sorted(subgroup)
    for a, i in enumerate(ids):
        for j in ids[a:]:
            entries = lists.get(frozenset((i, j)), [])
            if i != j and not entries:
                continue
            ctx = PairingContext(inst.group, inst.wM, subgroup[i], subgroup[j], self_pairing=i == j)
            out[("mu", i) if i == j else ("lambda", i, j)] = reduce_pairs(entries, build_gamma(ctx)).coeffs
    return out


def t_for_ft_per_point(inst: ProblemInstance, ft) -> int:
    """``engine._t_for_ft`` with the F^t points found by a test of every point, and W^t (the
    discs whose points are all F^t points, and the boundary counts among them) by a test of
    every disc and every boundary count."""
    pts = [p for p in point_records(inst.points) if set(p.components) <= set(ft)]
    if not pts:
        return 0
    collection = inst.collection
    if collection is None:
        raise MissingWhitneyData("F^t has double points but no Whitney collection was declared")
    ids = {p.id for p in pts}
    discs = [d for d in disc_records(collection.discs) if set(d.pair) <= ids]
    wt = {d.id for d in discs}
    sub = collection._replace(discs=disc_columns(discs), boundary={
        key: n for key, n in collection.boundary.items() if set(key) <= wt})
    try:
        return t_count_per_disc(point_columns(pts, inst.group), ft, sub)
    except UnpairedPoints as exc:
        raise MissingWhitneyData(
            f"the declared collection does not pair the double points of F^t: {exc}") from exc


def random_points_doc(rng: random.Random, finite: bool, pairs: int, components: int = 3,
                      factors: Optional[list[int]] = None) -> dict:
    """An instance document of ``components`` spheres and ``pairs`` cancelling pairs of double points.

    Each pair lies on a random component pair, self or mixed, its two points have one eta and
    opposite signs, so lambda = mu = 0, and one disc pairs them; about half the collections are
    weak.  The group is a cyclic table of order 4, 6 or 8, or an abelian group, with ``factors``
    or else with free and torsion factors, whose etas are written unreduced.  The band catalog
    is empty.
    """
    if finite:
        n = rng.choice((4, 6, 8))
        group = {"kind": "finite", "table": [[(a + b) % n for b in range(n)] for a in range(n)]}
        wm = rng.choice(([1] * n, [(-1) ** a for a in range(n)]))

        def elem():
            return rng.randrange(n)
    else:
        if factors is None:
            factors = rng.choice(([0], [0, 2], [0, 3, 0], [2, 0, 4]))
        group = {"kind": "abelian", "factors": factors}
        wm = [rng.choice((1, -1)) if f % 2 == 0 else 1 for f in factors]

        def elem():
            return [rng.randrange(-2 * f - 3, 2 * f + 4) for f in factors]
    weak = rng.random() < 0.5
    points, discs = [], []
    for k in range(pairs):
        comps, eta, sign = [rng.randrange(components) for _ in range(2)], elem(), rng.choice((1, -1))
        points += [{"id": 2 * k, "components": comps, "sign": sign, "eta": eta},
                   {"id": 2 * k + 1, "components": comps, "sign": -sign, "eta": eta}]
        discs.append({"id": k, "pairs": [2 * k, 2 * k + 1],
                      "interior": {str(rng.randrange(components)): rng.randrange(3)},
                      "mu_boundary": rng.randrange(2) if weak else 0,
                      "euler": rng.randrange(-1, 2) if weak else 0})
    rng.shuffle(points)
    boundary = [[d, d + 1, rng.randrange(1, 3)] for d in range(0, pairs - 1, 7)] if weak else []
    return {
        "version": SCHEMA_VERSION, "group": group, "characters": {"wM": wm},
        "components": [{"id": c, "signed_subgroup": [[elem(), rng.choice((1, -1))]],
                        "has_alg_dual": rng.random() < 0.8, "dual_framed": rng.random() < 0.5}
                       for c in range(components)],
        "surface": {"components": [{"id": c, "genus": 0, "orientable": True, "boundary_circles": 0}
                                   for c in range(components)]},
        "double_points": points,
        "whitney_collection": {"convenient": not weak, "discs": discs,
                               "boundary_intersections": boundary},
        "catalogs": {"rel_h2": {"basis": [], "boundary": {}}, "bands": [], "spheres": [], "rp2": []},
        "flags": {"good_group": rng.random() < 0.8, "torus_summand": []},
    }


def reordered_doc(rng: random.Random, doc: dict) -> dict:
    """``doc`` written in another order: the same instance, with new point and disc ids.

    The double points, discs, boundary entries, components, surface components and band records
    are shuffled, each disc's two points and each boundary entry's two discs are listed in a
    random order, and the point and disc ids are renumbered by random injections.  Components
    keep their ids, since the band vectors are laid out by component id.
    """
    doc = copy.deepcopy(doc)
    points, wc = doc["double_points"], doc["whitney_collection"]

    def renumber(ids):
        return dict(zip(ids, rng.sample(range(3 * len(ids) + 1), len(ids))))

    point_id = renumber([p["id"] for p in points])
    for p in points:
        p["id"] = point_id[p["id"]]
    if wc is not None:
        disc_id = renumber([d["id"] for d in wc["discs"]])
        for d in wc["discs"]:
            d["id"], d["pairs"] = disc_id[d["id"]], rng.sample([point_id[i] for i in d["pairs"]], 2)
        wc["boundary_intersections"] = [rng.sample([disc_id[a], disc_id[b]], 2) + [n]
                                        for a, b, n in wc["boundary_intersections"]]
        for key in ("discs", "boundary_intersections"):
            rng.shuffle(wc[key])
    for records in (points, doc["components"], doc["surface"]["components"],
                    doc["catalogs"]["bands"]):
        rng.shuffle(records)
    return doc


def band_catalog_doc(n: int, seed: int) -> dict:
    """n records over an n-class basis on a genus-n/2 component, and a framed torus beside it.

    Each record's circles sum to the boundary of its random class.  Every
    third record is an annulus whose two circles both cross the torus, so it
    falls outside F^t; the others lie on the first component.
    """
    rng = random.Random(seed)

    def vec():
        return [int(rng.random() < 0.3) for _ in range(n)] + [0, 0]

    boundary = {f"c{i}": vec() for i in range(n)}
    bands_doc = []
    for k in range(n):
        cls = [rng.randrange(2) for _ in range(n)]
        kind = "annulus" if k % 3 == 0 else rng.choice(("annulus", "mobius", "surface"))
        circles = [vec() for _ in range({"annulus": 2, "mobius": 1}.get(kind, rng.randrange(1, 4)) - 1)]
        last = [0] * (n + 2)
        for name, bit in zip(boundary, cls):
            last = [a ^ b * bit for a, b in zip(last, boundary[name])]
        for c in circles:
            last = [a ^ b for a, b in zip(last, c)]
        circles.append(last)
        if k % 3 == 0:  # both circles cross the torus; their sum does not
            circles[0][n] = circles[1][n] = 1
        bands_doc.append({"id": f"r{k}", "kind": kind, "rel_class": cls, "boundary_classes": circles,
                          "w1_sigma": [0] * len(circles), "w1m_core": 0,
                          "mu_boundary": rng.randrange(2), "arc_count": 0,
                          "interior": rng.randrange(2), "euler": rng.randrange(2)})
    component = {"signed_subgroup": [], "has_alg_dual": True}
    return {
        "version": 1, "group": {"kind": "finite", "table": [[0]]}, "characters": {"wM": [1]},
        "components": [dict(component, id=0, dual_framed=False), dict(component, id=1, dual_framed=True)],
        "surface": {"components": [
            {"id": 0, "genus": n // 2, "orientable": True, "boundary_circles": 0},
            {"id": 1, "genus": 1, "orientable": True, "boundary_circles": 0}]},
        "double_points": [], "whitney_collection": None,
        "catalogs": {"rel_h2": {"basis": list(boundary), "boundary": boundary}, "bands": bands_doc,
                     "spheres": [], "rp2": []},
        "flags": {"good_group": True, "torus_summand": []},
    }


def linear_pencil_det_lagrange(pairs) -> list[int]:
    """``intlinalg.linear_pencil_det`` by Lagrange interpolation over ``Fraction``s, O(n^3)
    rational operations: the reference for the forward-difference interpolation."""
    n = len(pairs)
    if n == 0:
        return [1]
    xs = list(range(n + 1))
    ys = [bareiss_det([[v * x - w for (v, w) in row] for row in pairs]) for x in xs]
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        poly, denom = [Fraction(1)], 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(poly) + 1)
            for k, c in enumerate(poly):
                new[k + 1] += c
                new[k] -= c * xj
            poly = new
        for k, c in enumerate(poly):
            coeffs[k] += Fraction(ys[i], denom) * c
    if any(c.denominator != 1 for c in coeffs):
        raise InternalConsistency("interpolated integer polynomial has a fractional coefficient")
    return [int(c) for c in coeffs]


def to_convenient_quadratic(points: DoublePoints, collection: WhitneyCollection) -> WhitneyCollection:
    """``whitney.to_convenient`` by a scan of all later discs for every disc, O(D^2).

    Each disc's bump is its framing, boundary self-intersections and the
    boundary counts against every later disc, mod 2; a bumped disc gains one
    interior point on the lesser component of its first double point.
    """
    by_id = {p.id: p for p in point_records(points)}
    discs = disc_records(collection.discs)
    order = [d.id for d in discs]
    new_discs = []
    for idx, d in enumerate(discs):
        bump = d.euler + d.mu_boundary
        for later in order[idx + 1:]:
            bump += collection.boundary.get(frozenset((d.id, later)), 0)
        interior = dict(d.interior)
        if bump % 2:
            comp = min(by_id[d.pair[0]].components)
            interior[comp] = interior.get(comp, 0) + 1
        new_discs.append(replace(d, interior=interior, mu_boundary=0, euler=0))
    return disc_collection(new_discs)


class InvalidEulerParity(EngineError):
    pass


class NotDivisibleBy8(EngineError):
    pass


def rp2_euler_parity(e: int) -> int:
    """t of a projective plane in 4-space from its normal Euler number.

    t = 0 at the base Euler numbers +-2 and flips at each step of 8 from
    there, so t = 0 iff e = +-2 mod 16.
    """
    if e % 4 != 2:
        raise InvalidEulerParity(f"normal Euler number must be 2 mod 4, got {e}")
    return 0 if e % 16 in (2, 14) else 1


def stong_t_formula(sigma_m: int, self_int: int) -> int:
    """t of a characteristic sphere from (signature - self-intersection)/8."""
    if (sigma_m - self_int) % 8:
        raise NotDivisibleBy8(
            f"signature {sigma_m} minus self-intersection {self_int} is not divisible by 8"
        )
    return ((sigma_m - self_int) // 8) % 2


def euler_characteristic(comp: bands.SurfaceComponent) -> int:
    """chi of a compact surface: 2 - 2g, or 2 - g for g cross-caps, less one per boundary circle."""
    closed = 2 - 2 * comp.genus if comp.orientable else 2 - comp.genus
    return closed - comp.boundary_circles


class EulerBoundResult(NamedTuple):
    ok: bool
    chi: int
    bound: int


def abelian_euler_bound_check(surface: SurfaceModel, n_generators: int) -> EulerBoundResult:
    """Euler-characteristic bound for closed characteristic surfaces.

    A closed connected surface declared b-characteristic over an abelian
    fundamental group with n generators must satisfy chi >= -2n; a failure
    flags the instance as inconsistent.
    """
    if len(surface.components) != 1:
        raise engine.ValidationError("the bound applies to a connected surface")
    comp = surface.components[0]
    if comp.boundary_circles:
        raise engine.ValidationError("the bound applies to closed surfaces")
    chi = euler_characteristic(comp)
    bound = -2 * n_generators
    return EulerBoundResult(chi >= bound, chi, bound)


def is_s_characteristic(sphere_catalog) -> bool:
    """Each pair is (F.a mod 2, a.a mod 2) over declared sphere generators."""
    return all(fa % 2 == aa % 2 for fa, aa in sphere_catalog)


def is_r_characteristic(rp2_catalog) -> bool:
    """Each pair is (F.R mod 2, R.R mod 2) over projective planes with trivial w1 pullback."""
    return all(fr % 2 == rr % 2 for fr, rr in rp2_catalog)


def mu1_home(ctx: PairingContext) -> str:
    """Home of the identity coefficient of a self-intersection number, by the subgroup criterion.

    "Z" when the surface character is trivial on the kernel (no (1,-1) in the
    signed subgroup) and the ambient character is trivial on the image,
    which it is iff it is on the generators; otherwise "Z/2".  The tests
    compare it with the order tag of the identity orbit.
    """
    if not ctx.self_pairing:
        raise GammaError("mu1_home needs a self-pairing context")
    s = ctx.s_f
    home_z = not s.contains_minus_one and all(ctx.wM(g) == 1 for g, _ in s.generators)
    return "Z" if home_z else "Z/2"


def rp2_euler_parity_walk(e: int) -> int:
    """t of a projective plane from its Euler number e = 2 mod 4, by walking in steps of 8.

    Starts at the base value +-2 (t = 0) congruent to e mod 8 and flips t at
    each step: the reference for ``rp2_euler_parity``, O(|e|).
    """
    assert e % 4 == 2, e
    cur, t = (2 if e % 8 == 2 else -2), 0
    while cur != e:
        cur += 8 if cur < e else -8
        t ^= 1
    return t


def paper_basis(components) -> list[tuple[int, str, int]]:
    """(component id, letter, index) for each H1 basis position, in the paper's order.

    Written out from the component list alone, as the reference for
    ``bands.SurfaceModel``: components in id order, each with a_1, b_1, ...,
    a_g, b_g (orientable) or e_1, ..., e_g (cross-caps), then d_1, ...,
    d_{b-1}, one class for each boundary circle but the last.
    """
    basis = []
    for c in sorted(components, key=lambda c: c.id):
        if c.orientable:
            basis += [(c.id, letter, i) for i in range(c.genus) for letter in "ab"]
        else:
            basis += [(c.id, "e", i) for i in range(c.genus)]
        basis += [(c.id, "d", i) for i in range(c.boundary_circles - 1)]
    return basis


def paper_form(basis) -> list[list[int]]:
    """The dense intersection matrix on ``paper_basis``: a_i.b_i = 1 and e_i.e_i = 1, else 0."""
    return [[int(ci == cj and ki == kj and ({li, lj} == {"a", "b"} or li == lj == "e"))
             for cj, lj, kj in basis] for ci, li, ki in basis]


def mask(vec) -> int:
    """The int bitmask of a 0/1 vector, bit i for entry i."""
    return int("".join(map(str, reversed(vec))) or "0", 2)


def theta_violations(pairs) -> set[tuple[int, ...]]:
    """Index sets of the (class, Theta) pairs that make Theta nonlinear, by brute force.

    A catalog is inconsistent exactly when some nonempty subset of its
    records has classes that XOR to zero and an odd Theta sum; this returns
    every such subset, in increasing index order.  O(2^R) on R records: the
    reference for ``bands.ThetaFunctional``.
    """
    out = set()
    for k in range(1, len(pairs) + 1):
        for subset in itertools.combinations(range(len(pairs)), k):
            total = [0] * len(pairs[0][0])
            for i in subset:
                total = [a ^ b for a, b in zip(total, pairs[i][0])]
            if not any(total) and sum(pairs[i][1] for i in subset) % 2:
                out.add(subset)
    return out


def boundary_form_witness_pairs(catalog) -> Optional[tuple[str, str]]:
    """First pair of record ids, in i <= j order, whose total boundaries pair to 1, or None.

    Every pair is tried in that order, O(R^2) form evaluations on R records:
    the reference for ``bands._boundary_form_witness``, which walks a span basis.
    """
    surface = catalog.surface
    totals = [(r.id, total_boundary(r, surface)) for r in catalog.records]
    for i, (id1, x) in enumerate(totals):
        for id2, y in totals[i:]:
            if surface.form(x, y):
                return id1, id2
    return None


def _per_record_bits(vec, n: int, error: str, *names) -> tuple:
    """``vec`` as n entries, each an exact int 0 or 1, else a BandError worded by ``error``."""
    bits = tuple(vec)
    if len(bits) != n or not all(type(x) is int and x in (0, 1) for x in bits):
        raise BandError(error.format(vec, n, *names))
    return bits


def _per_record_fold(named, dim: int, what: str) -> int:
    """GF(2) sum, as a bitmask, of the (name, vector) pairs' H1 vectors, each checked."""
    total = 0
    for name, vec in named:
        if len(vec) != dim:
            raise BandError(f"{what} {name!r} has length {len(vec)}, expected the H1 dimension {dim}")
        total ^= mask(_per_record_bits(vec, dim, "{2} {3!r} has an entry other than 0 or 1: {0!r}",
                                       what, name))
    return total


def band_catalog_per_record(surface, rel, records) -> None:
    """The band catalog's checks as they were made before the catalog masked each vector once.

    Each circle is checked for its w1 value, then again in the fold of the
    record's total boundary, and each record's class is checked and its
    named basis boundaries folded again; ``bands.BandCatalog`` must raise the
    same first ``BandError``.  The bit rule is the exact-int one throughout.
    """
    dim, basis_boundary = surface.dim, "boundary of RelH2 basis class"
    if len({r.id for r in records}) != len(records):
        raise BandError("duplicate band ids")
    _per_record_fold(((name, rel.boundary[name]) for name in rel.basis), dim, basis_boundary)
    for r in records:
        for c, w in zip(r.boundary_classes, r.w1_sigma):
            vec = _per_record_bits(c, dim, "bad H1 vector {0!r}; expected {1} bits")
            if bin(mask(vec) & surface.w1).count("1") % 2 != w:
                raise BandError(f"band {r.id!r}: declared w1(Sigma) value {w} disagrees with the class")
        if (r.w1m_core + sum(r.w1_sigma)) % 2 != 0:
            raise BandError(f"band {r.id!r} violates the w1 admissibility condition")
        if r.kind == "mobius" and r.w1_sigma[0] != 0:
            raise BandError(f"mobius band {r.id!r} with orientation-reversing boundary is excluded")
        if r.kind == "surface" and any(r.w1_sigma):
            raise BandError(f"surface record {r.id!r} needs w1-trivial boundary circles")
        declared = _per_record_fold(enumerate(r.boundary_classes), dim, f"band {r.id!r}: boundary circle")
        cls = _per_record_bits(r.rel_class, len(rel.basis), "bad RelH2 vector {0!r}")
        named = itertools.compress(rel.basis, cls)
        if _per_record_fold(((name, rel.boundary[name]) for name in named), dim, basis_boundary) != declared:
            raise BandError(f"band {r.id!r}: boundary map of its class disagrees with the "
                            "declared boundary circles")


def theta_value(functional: ThetaFunctional, vec) -> int:
    """Theta of a class in the span of the records, read off the functional's echelon rows."""
    rest, value, _ = functional._reduce(mask(vec), 0, 0)
    if rest:
        raise BandError(f"class {list(vec)} is outside the declared span")
    return value


def instance_to_dict(inst: ProblemInstance) -> dict:
    """Serialize an in-memory instance back to the interchange format.

    The instance stores no sphere or RP2 catalog and no ``w2`` or ``e``, so the
    catalogs are written empty and the two optional fields left out."""
    group = inst.group
    if group.kind == "finite":
        gdoc = {"kind": "finite", "table": [list(row) for row in group.table]}
    else:
        gdoc = {"kind": "abelian", "factors": list(group.factors)}
    comps = [{"id": c.id, "signed_subgroup": [[g, s] for g, s in c.subgroup.generators],
              "has_alg_dual": c.has_alg_dual, "dual_framed": c.dual_framed} for c in inst.components]
    wc = None
    if inst.collection is not None:
        wc = {
            "convenient": inst.collection.convenient,
            "discs": [
                {
                    "id": d.id,
                    "pairs": list(d.pair),
                    "interior": {str(k): v for k, v in sorted(d.interior.items())},
                    "mu_boundary": d.mu_boundary,
                    "euler": d.euler,
                }
                for d in disc_records(inst.collection.discs)
            ],
            "boundary_intersections": [
                [min(key), max(key), count]
                for key, count in sorted(inst.collection.boundary.items(), key=lambda kv: sorted(kv[0]))
            ],
        }
    return {
        "version": SCHEMA_VERSION,
        "group": gdoc,
        "characters": {"wM": list(inst.wM.values)},
        "components": comps,
        "surface": {
            "components": [
                {"id": s.id, "genus": s.genus, "orientable": s.orientable,
                 "boundary_circles": s.boundary_circles}
                for s in inst.band_catalog.surface.components
            ]
        },
        "double_points": [
            {"id": p.id, "components": list(p.components), "sign": p.sign,
             "eta": p.eta}
            for p in point_records(inst.points)
        ],
        "whitney_collection": wc,
        "catalogs": {
            "rel_h2": {
                "basis": list(inst.band_catalog.rel.basis),
                "boundary": {k: list(v) for k, v in sorted(inst.band_catalog.rel.boundary.items())},
            },
            "bands": [
                {
                    "id": r.id, "kind": r.kind, "rel_class": list(r.rel_class),
                    "boundary_classes": [list(c) for c in r.boundary_classes],
                    "w1_sigma": list(r.w1_sigma), "w1m_core": r.w1m_core,
                    "mu_boundary": r.mu_boundary, "arc_count": r.arc_count,
                    "interior": r.interior, "euler": r.euler,
                }
                for r in inst.band_catalog.records
            ],
            "spheres": [],
            "rp2": [],
        },
        "flags": {"good_group": inst.good_group,
                  "torus_summand": sorted(inst.torus_summands)},
    }


class PreconditionW1Ker(EngineError):
    pass


def cusp_trick(inst: ProblemInstance) -> ProblemInstance:
    """Four same-sign cusps plus two interlocking discs; flips the t-count.

    Applicable when some F^t component carries (1,-1) in its signed
    subgroup, so the four new identity-labeled points cancel in the
    order-two identity class and mu is unchanged.
    """
    ft = restrict_Ft(inst)
    subgroup = {c.id: c.subgroup for c in inst.components}
    eligible = [cid for cid in ft if subgroup[cid].contains_minus_one]
    if not eligible:
        raise PreconditionW1Ker(
            "no F^t component has orientation-reversing kernel classes"
        )
    cid = min(eligible)
    identity = inst.group.identity
    next_pid = max(inst.points.ids, default=-1) + 1
    new_points = [
        DoublePoint(next_pid + k, (cid, cid), 1, identity) for k in range(4)
    ]
    collection = inst.collection
    if collection is None:
        if inst.points:
            raise MissingWhitneyData("cannot rebuild t without a Whitney collection")
        collection = disc_collection(())
    next_did = max(collection.discs.ids, default=-1) + 1
    w_a = WhitneyDisc(next_did, (new_points[0].id, new_points[1].id), {})
    w_b = WhitneyDisc(next_did + 1, (new_points[2].id, new_points[3].id), {})
    boundary = {**collection.boundary, frozenset((w_a.id, w_b.id)): 1}
    new_collection = disc_collection(disc_records(collection.discs) + [w_a, w_b], boundary,
                                     convenient=False)
    all_points = point_columns(point_records(inst.points) + new_points, inst.group)

    ctx = PairingContext(inst.group, inst.wM, subgroup[cid], subgroup[cid], self_pairing=True)
    gamma = build_gamma(ctx)
    before = reduce_list(points_between(inst.points, cid, cid), gamma)
    after = reduce_list(points_between(all_points, cid, cid), gamma)
    if before != after:
        raise InternalConsistency("cusp quadruple changed mu")

    return replace(inst, points=all_points, collection=new_collection)


class NothingToTransfer(WhitneyError):
    pass


def transfer_move(points: DoublePoints, collection: WhitneyCollection, w1_id: int, w2_id: int,
                  identity) -> tuple[DoublePoints, WhitneyCollection]:
    """Move one interior intersection from each of two discs onto fresh discs.

    A finger move creates six new double points paired by three embedded
    discs V, U1, U2; V picks up the two transferred intersections and each
    U_i meets the surface twice, so the total t-count is unchanged.
    """
    discs = {d.id: d for d in disc_records(collection.discs)}
    if w1_id not in discs or w2_id not in discs:
        raise WhitneyError("unknown disc id")
    w1, w2 = discs[w1_id], discs[w2_id]
    if sum(w1.interior.values()) < 1 or sum(w2.interior.values()) < 1:
        raise NothingToTransfer("both discs need an interior intersection")
    by_id = {p.id: p for p in point_records(points)}

    def decrement(d: WhitneyDisc) -> tuple[WhitneyDisc, int]:
        comp = min(c for c, v in sorted(d.interior.items()) if v > 0)
        interior = dict(d.interior)
        interior[comp] -= 1
        return replace(d, interior=interior), comp

    new_w1, comp_e = decrement(w1)
    new_w2, comp_f = decrement(w2)
    comp_a = by_id[w1.pair[0]].components[0]
    comp_c = by_id[w2.pair[0]].components[0]

    next_pid = max(points.ids, default=-1) + 1
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
    new_points = point_columns(point_records(points) + [v1, v2, u11, u12, u21, u22], points.group)
    v_disc = WhitneyDisc(next_did, (v1.id, v2.id), {comp_e: 1, comp_f: 1} if comp_e != comp_f else {comp_e: 2})
    u1_disc = WhitneyDisc(next_did + 1, (u11.id, u12.id), {comp_a: 2})
    u2_disc = WhitneyDisc(next_did + 2, (u21.id, u22.id), {comp_c: 2})
    new_list = [new_w1 if d.id == w1_id else new_w2 if d.id == w2_id else d for d in discs.values()]
    new_list += [v_disc, u1_disc, u2_disc]
    return new_points, disc_collection(new_list, dict(collection.boundary), collection.convenient)


def total_boundary(record: BandRecord, surface: SurfaceModel) -> int:
    """The GF(2) sum of a record's boundary circles, each checked by ``surface.mask``."""
    return functools.reduce(operator.xor, map(surface.mask, record.boundary_classes), 0)


def components_of(surface: SurfaceModel, x: int) -> set[int]:
    """The ids of the components whose H1 positions meet the bitmask ``x``."""
    return {cid for cid, span in surface._spans.items() if x & span}


def union_records(r1: BandRecord, r2: BandRecord, surface: SurfaceModel,
                  new_id: Optional[str] = None) -> BandRecord:
    """Formal union: counts add, and the boundary pairing corrects mu.

    Implements the quadratic law Theta(S u S') = Theta(S) + Theta(S') +
    lambda(C, C').
    """
    if len(r1.rel_class) != len(r2.rel_class):
        raise BandError("records live over different RelH2 bases")
    lam = surface.form(total_boundary(r1, surface), total_boundary(r2, surface))
    return BandRecord(
        id=new_id or f"{r1.id}+{r2.id}",
        kind="surface",
        rel_class=tuple(a ^ b for a, b in zip(r1.rel_class, r2.rel_class)),
        boundary_classes=r1.boundary_classes + r2.boundary_classes,
        w1_sigma=r1.w1_sigma + r2.w1_sigma,
        w1m_core=(r1.w1m_core + r2.w1m_core) % 2,
        mu_boundary=(r1.mu_boundary + r2.mu_boundary + lam) % 2,
        arc_count=(r1.arc_count + r2.arc_count) % 2,
        interior=(r1.interior + r2.interior) % 2,
        euler=(r1.euler + r2.euler) % 2,
    )


def band_fibre_finger_move(points: DoublePoints, collection: WhitneyCollection, record: BandRecord,
                           surface: SurfaceModel, components, identity):
    """Finger move along a band fibre: two new double points, one new disc.

    The new disc inherits the band's four parities; after normalising to a
    convenient collection the t-count changes by exactly Theta of the band,
    which is checked.  Returns (points, collection, delta_t).
    """
    expected = theta(record)
    touched = [components_of(surface, surface.mask(c)) for c in record.boundary_classes]
    if record.kind == "annulus":
        pair_comps = tuple(min(comps, default=min(components)) for comps in touched)
    else:
        first = min(set().union(*touched), default=min(components))
        pair_comps = (first, first)
    before = t_count(points, components, collection)

    next_pid = max(points.ids, default=-1) + 1
    next_did = max(collection.discs.ids, default=-1) + 1
    p = DoublePoint(next_pid, pair_comps, 1, identity)
    q = DoublePoint(next_pid + 1, pair_comps, -1, identity)
    new_points = point_columns(point_records(points) + [p, q], points.group)
    interior = {pair_comps[0]: record.interior} if record.interior else {}
    new_disc = WhitneyDisc(next_did, (p.id, q.id), interior,
                           mu_boundary=record.mu_boundary, euler=record.euler)
    boundary = dict(collection.boundary)
    if record.arc_count:
        if not collection.discs:
            raise BandError(
                f"band {record.id!r} declares an arc intersection but there are no Whitney arcs"
            )
        boundary[frozenset((new_disc.id, collection.discs.ids[0]))] = record.arc_count
    weak = disc_collection(disc_records(collection.discs) + [new_disc], boundary, convenient=False)
    out = to_convenient(new_points, weak)
    after = t_count(new_points, components, out)
    delta = (after - before) % 2
    if delta != expected:
        raise InternalConsistency("finger move changed t by a value other than Theta")
    return new_points, out, delta
