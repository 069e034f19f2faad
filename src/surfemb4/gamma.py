"""Targets of equivariant intersection numbers and reduction into them.

An intersection list (``DoublePoints`` columns of signs and
fundamental-group elements) reduces to an element of an abelian group
built from the ambient group by dividing out the signed double-coset
action of two signed subgroups, plus an inversion relation in the
self-intersection case.  The group splits as a direct sum of Z summands
(one per "infinite" orbit, with a chosen section sign) and Z/2 summands
(one per orbit containing both signs of an element).

Each element is classified once, as (orbit, section sign), and cached;
nothing is classified before a query.  A list reduction tallies its points
by element first and queries only the live elements, those whose points do
not cancel (as many + as - signs add 0 to a Z orbit and to a Z/2 orbit), so
it costs O(P) C-level tallying for P points plus the classification of the
live elements alone.  For a finite ambient, ``groups.signed_search`` (that
of ``subgroup_closure``; it states the lemma) from (e, +1) classifies e's
whole orbit, represented by its least element: O(n x generators) per context
to lay out the moves, O(orbit size x generators) per orbit.  For a finitely
generated abelian ambient G = Z^k / (factors), one signed lattice L in
Z^(k+1) does it: the subgroup generators with their sign bit, the s_g
generators with the sign twisted by wM, the factors, and (0, 2).
A Hermite reduction returns the one vector of its coset with
0 <= v[c] < pivot at every pivot column, so reducing (e, 0) gives
(r, bit), where r is e reduced modulo the projection of L (the canonical
orbit element) and bit is the lift sign, (-1)^bit.  With self-pairing,
(e, +1) ~ (-e, wM(e)), so (-e, bit(wM(e))) reduces to the class of the
inverse; the orbit takes the lesser of the two, and has order two when
(0, 1) lies in L or when both land on one element with opposite bits.

``smith_oracle`` recomputes the same invariants by brute force from the
relation presentation via Smith normal form and is kept independent of
the orbit search.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from itertools import compress, filterfalse, repeat
from operator import add, and_, eq, itemgetter, mul, ne, neg
from typing import NamedTuple, Optional

from . import intlinalg  # run by abelian groups and the Smith oracle only
from .errors import InternalConsistency
from .groups import AmbientGroup, Character, SignedSubgroup, _sign_bit, signed_search


class GammaError(ValueError):
    pass


class AmbientNotFinite(GammaError):
    pass


class PairingContext(namedtuple("PairingContext", "ambient wM s_f s_g self_pairing")):
    """Data determining the target group of an intersection number.

    With ``self_pairing`` the second subgroup is forced equal to the first
    and the inversion relation gamma ~ wM(gamma) * gamma^-1 is added.
    """

    __slots__ = ()

    def __new__(cls, ambient: AmbientGroup, wM: Character, s_f: SignedSubgroup,
                s_g: SignedSubgroup, self_pairing: bool = False):
        if wM.group is not ambient:
            raise GammaError("character not over the ambient group")
        if s_f.ambient is not ambient or s_g.ambient is not ambient:
            raise GammaError("subgroup not over the ambient group")
        return super().__new__(cls, ambient, wM, s_f, s_f if self_pairing else s_g, self_pairing)


class Orbit(NamedTuple):
    """One summand of the quotient; a tuple, so hashing it per distinct element stays cheap."""

    rep: object  # canonical element: int index or reduced tuple
    order_two: bool


class GammaGroup:
    """Orbit decomposition of the quotient; backend chosen by the ambient.

    Both backends answer ``classify_all`` from one table of element ->
    (orbit, section sign), filled by ``_classify_new`` for the elements new
    to each call: the finite backend searches each new element's orbit, the
    abelian backend reduces them in one batched Hermite pass (two with
    self-pairing).
    """

    def __init__(self, ctx: PairingContext):
        self.ctx = ctx
        self._table: dict = {}  # element -> (Orbit, sign or None)
        G = ctx.ambient
        wM = ctx.wM
        if self.finite:
            # g -> a*g, g -> g*b and g -> g^-1, each with the sign factor it applies
            self._moves = [(G.table[a], (ea,) * G.order) for a, ea in ctx.s_f.generators]
            self._moves += [(list(map(itemgetter(b), G.table)), (eb * wM(b),) * G.order)
                            for b, eb in ctx.s_g.generators]
            if ctx.self_pairing:
                self._moves.append((G.inverse, wM.values))
            return
        # with self-pairing, a generator g with wM(g) = -1 enters with both sign
        # bits, so (0, 1) lies in the lattice and every orbit has order two
        twisted = [list(g) + [_sign_bit(s * wM(g))] for g, s in ctx.s_g.generators]
        self._hat = intlinalg.HermiteLattice(ctx.s_f.lattice.rows + twisted, G.rank + 1)
        self._global_two = self._hat.contains([0] * G.rank + [1])

    def _classify_new(self, new: list) -> None:
        """Table entries for canonical elements not yet classified."""
        if self.finite:
            for e in new:
                if e in self._table:  # an earlier element's orbit holds it
                    continue
                sign, two = signed_search(e, self._moves)
                orbit = Orbit(min(sign), two)
                for g, s in sign.items():
                    self._table[g] = (orbit, None if two else s * sign[orbit.rep])
            return
        reps = self._hat.reduce_all(list(map(add, new, repeat((0,)))))
        invs = reps  # without self-pairing, comparing each class with itself changes nothing
        if self.ctx.self_pairing:
            # (e, +1) ~ (-e, wM(e)): the inverses' classes, built column by column
            cols = list(zip(*new))
            bits = [0] * len(new)
            for col, v in zip(cols, self.ctx.wM.values):
                if v == -1:
                    bits = list(map(add, bits, col))
            invs = self._hat.reduce_all(list(zip(*[map(neg, col) for col in cols],
                                                 map(and_, bits, repeat(1)))))
        for e, r, inv in zip(new, reps, invs):
            rep, bit, irep, ibit = r[:-1], r[-1], inv[:-1], inv[-1]
            two = self._global_two or (irep == rep and ibit != bit)
            if irep < rep:
                rep, bit = irep, ibit
            self._table[e] = (Orbit(rep, two), None if two else 1 - 2 * bit)

    # -- shared API ------------------------------------------------------

    @property
    def finite(self) -> bool:
        return self.ctx.ambient.kind == "finite"

    def orbits(self) -> list[Orbit]:
        """Every orbit, by representative; classifies every element not yet classified."""
        if not self.finite:
            raise GammaError("orbits of an infinite group are computed per query")
        entries = self._classify_canonical(list(self.ctx.ambient.elements()))
        return sorted({orbit for orbit, _ in entries})

    def classify_all(self, elems: list) -> list[tuple[Orbit, Optional[int]]]:
        """``classify`` of each element; those new to the table are classified in one batch."""
        return self._classify_canonical(self.ctx.ambient.check_elems(elems))

    def _classify_canonical(self, canon: list) -> list[tuple[Orbit, Optional[int]]]:
        """``classify_all`` of elements already checked and in canonical form."""
        new = list(filterfalse(self._table.__contains__, dict.fromkeys(canon)))
        if new:
            self._classify_new(new)
        return list(map(self._table.__getitem__, canon))

    def classify(self, elem) -> tuple[Orbit, Optional[int]]:
        """(orbit of ``elem``, its sign relative to the representative, or None on order two)."""
        return self.classify_all([elem])[0]

    def orbit_of(self, elem) -> Orbit:
        return self.classify(elem)[0]

    def section_sign(self, elem) -> int:
        """Sign of ``elem`` relative to its orbit representative (+1 there)."""
        sign = self.classify(elem)[1]
        if sign is None:
            raise GammaError("section signs only exist on infinite-order orbits")
        return sign


def build_gamma(ctx: PairingContext) -> GammaGroup:
    """Orbit decomposition of the intersection-number target group."""
    return GammaGroup(ctx)


class GammaElement(NamedTuple):
    """Coefficient vector over the orbits of a GammaGroup.

    Infinite-orbit coefficients are integers relative to the stored section
    (representative has sign +1); order-two orbits carry GF(2) coefficients.
    ``coeffs`` holds no zero coefficient (``reduce_list`` drops them), so the
    tuple's own equality compares elements.
    """

    gamma: GammaGroup
    coeffs: dict

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, orbit: Orbit, section: Optional[int]) -> int:
        """Coefficient at an element that ``GammaGroup.classify`` sends to (orbit, section sign)."""
        raw = self.coeffs.get(orbit, 0)
        return raw % 2 if section is None else raw * section


def reduce_list(points, gamma: GammaGroup) -> GammaElement:
    """Reduce ``whitney.DoublePoints`` columns into the quotient, by their signs and etas.

    Like the character and the subgroups, the columns must be checked against
    the ambient group object; they are not checked again.  The list is
    tallied by distinct element, as (point count, signed sum), and each live
    element, one whose signed sum is not 0, is classified once, in order of
    first occurrence: an order-two orbit gains the count mod 2, an infinite
    orbit the signed sum times the section sign.  An element whose points
    cancel adds 0 to either kind of orbit, so it is not classified.
    """
    if getattr(points, "group", None) is not gamma.ctx.ambient:
        raise GammaError("double points not over the ambient group")
    signs, canon = points.signs, points.etas
    count = Counter(canon)
    plus = Counter(compress(canon, map(eq, signs, repeat(1))))
    live = list(compress(count, map(ne, map(mul, map(plus.get, count, repeat(0)), repeat(2)),
                                    count.values())))  # one C-level pass
    coeffs: dict = {}
    for e, (orbit, section) in zip(live, gamma._classify_canonical(live)):
        n = count[e]
        coeffs[orbit] = coeffs.get(orbit, 0) + (n if section is None else (2 * plus[e] - n) * section)
    coeffs = {k: v % 2 if k.order_two else v for k, v in coeffs.items()}
    return GammaElement(gamma, {k: v for k, v in coeffs.items() if v})


def coefficient_at(elem: GammaElement, g) -> int:
    """Coefficient at g, with the convention that the section sends [g] to g."""
    return elem.coefficient(*elem.gamma.classify(g))


def smith_oracle(ctx: PairingContext) -> tuple[int, list[int]]:
    """Brute-force invariants (free rank, torsion) of the quotient group.

    Builds one relation row per (subgroup generator, group element) pair,
    plus the inversion rows in the self-pairing case, and reads the
    cokernel off the Smith normal form.  Independent of the orbit code.
    """
    G = ctx.ambient
    if G.kind != "finite":
        raise AmbientNotFinite("the Smith oracle needs a finite ambient group")
    n = G.order
    wM = ctx.wM
    # each relation g ~ s h is the row e_g - s e_h
    relations = [(g, G.mul(a, g), ea) for a, ea in ctx.s_f.generators for g in G.elements()]
    relations += [(g, G.mul(g, b), eb * wM(b))
                  for b, eb in ctx.s_g.generators for g in G.elements()]
    if ctx.self_pairing:
        relations += [(g, G.inv(g), wM(g)) for g in G.elements()]
    rows = [{g: 1 - s} if g == h else {g: 1, h: -s} for g, h, s in relations]
    diag = intlinalg.smith_diagonal(rows, n)
    free_rank = n - len(diag)
    torsion = [d for d in diag if d > 1]
    return free_rank, torsion


def report(elem: GammaElement, queries: list[str]) -> dict:
    """The ``gamma`` answer on ``elem`` and the JSON-text elements ``queries``; on a finite
    ambient, the orbit list, whose counts the Smith oracle must confirm (else InternalConsistency)."""
    target = elem.gamma
    classified = []  # each query checked once, by the classification
    for raw in queries:
        try:
            value = json.loads(raw)
            classified.append((value, target.classify(value)))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"bad query element {raw!r}: {exc}") from None
    out: dict = {"self_pairing": target.ctx.self_pairing}
    if target.finite:
        orbits = target.orbits()  # built once; the counts are read off it
        out["orbits"] = [{"rep": o.rep, "order": "Z/2" if o.order_two else "Z"} for o in orbits]
        out["z2_count"] = sum(o.order_two for o in orbits)
        out["free_rank"] = len(orbits) - out["z2_count"]
        oracle_rank, oracle_torsion = smith_oracle(target.ctx)
        if (oracle_rank, oracle_torsion) != (out["free_rank"], [2] * out["z2_count"]):
            raise InternalConsistency(
                f"orbit counts (free rank {out['free_rank']}, {out['z2_count']} Z/2) disagree "
                f"with the Smith oracle (free rank {oracle_rank}, torsion {oracle_torsion})")
        out["smith_oracle"] = {"free_rank": oracle_rank, "torsion": oracle_torsion}
    else:
        out["note"] = "infinite ambient group; orbits reported per queried element"
    out["reduced_is_zero"] = elem.is_zero()
    out["queries"] = [{"element": value, "orbit_rep": orbit.rep, "order": "Z/2" if orbit.order_two else "Z",
                       "coefficient": elem.coefficient(orbit, section)}
                      for value, (orbit, section) in classified]
    return out
