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
live elements alone.  The ambient's ``signed_classifier`` classifies them
(the ``groups`` docstring states both backends): s_f acts on the left,
s_g on the right with its signs twisted by wM, and with self-pairing the
inversion by wM.

``smith_oracle`` recomputes the same invariants by brute force from the
relation presentation via Smith normal form and is kept independent of
the orbit search.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from itertools import compress, filterfalse, repeat
from operator import eq, mul, ne
from typing import NamedTuple, Optional

from . import intlinalg  # run by the Smith oracle only
from .errors import InternalConsistency
from .groups import AmbientGroup, Character, Orbit, SignedSubgroup


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


class GammaGroup:
    """Orbit decomposition of the quotient.

    ``_lookup`` reads one table of element -> (orbit, section sign), which
    the ambient's classifier fills for the elements new to each call.
    """

    def __init__(self, ctx: PairingContext):
        self.ctx = ctx
        self._table: dict = {}  # element -> (Orbit, sign or None)
        wM = ctx.wM  # with self-pairing, a generator g with wM(g) = -1 makes every orbit order two
        self._classify = ctx.ambient.signed_classifier(
            ctx.s_f.generators, [(b, eb * wM(b)) for b, eb in ctx.s_g.generators],
            wM if ctx.self_pairing else None)

    def _lookup(self, canon: list) -> list[tuple[Orbit, Optional[int]]]:
        """``classify`` of elements already checked and canonical; the new ones in one batch."""
        new = list(filterfalse(self._table.__contains__, dict.fromkeys(canon)))
        if new:
            self._classify(self._table, new)
        return list(map(self._table.__getitem__, canon))

    @property
    def finite(self) -> bool:
        return self.ctx.ambient.kind == "finite"

    def orbits(self) -> list[Orbit]:
        """Every orbit, by representative; classifies every element not yet classified."""
        if not self.finite:
            raise GammaError("orbits of an infinite group are computed per query")
        return sorted({orbit for orbit, _ in self._lookup(list(self.ctx.ambient.elements()))})

    def classify(self, elem) -> tuple[Orbit, Optional[int]]:
        """(orbit of ``elem``, its sign relative to the representative, or None on order two)."""
        return self._lookup(self.ctx.ambient.check_elems([elem]))[0]

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
    for e, (orbit, section) in zip(live, gamma._lookup(live)):
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
    else:  # abelian: infinite exactly when a factor is 0
        size = "infinite" if 0 in target.ctx.ambient.factors else "finite abelian"
        out["note"] = f"{size} ambient group; orbits reported per queried element"
    out["reduced_is_zero"] = elem.is_zero()
    out["queries"] = [{"element": value, "orbit_rep": orbit.rep, "order": "Z/2" if orbit.order_two else "Z",
                       "coefficient": elem.coefficient(orbit, section)}
                      for value, (orbit, section) in classified]
    return out
