"""Decision procedures: the embedding flowchart and its helper computations.

The flowchart decides whether a generic immersion is regularly homotopic to
an embedding, from declared data: signed subgroups and double points feed
the primary intersection obstructions, a band catalog feeds the
characteristic decision, and a Whitney collection feeds the secondary
count.  Every verdict carries an ordered trace of the nodes visited, with
the citations needed to audit it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from typing import NamedTuple, Optional, Sequence

from . import __version__ as TOOL_VERSION
from .bands import BCharResult, SurfaceModel, is_b_characteristic
from .gamma import PairingContext, build_gamma, coefficient_at, reduce_list
from .groups import SignedSubgroup
from .whitney import DoublePoints, UnpairedPoints, t_count, to_convenient

REG_EMBED = "RegHomotopicToEmbedding"
NOT_REG_EMBED = "NotRegHomotopicToEmbedding"
HOMOTOPIC_EMBED = "HomotopicToEmbedding"
NO_CONCLUSION = "NoConclusion"


class EngineError(ValueError):
    pass


class ValidationError(EngineError):
    pass


class PrimaryObstructionNonzero(EngineError):
    pass


class NoDualSpheres(EngineError):
    pass


class MissingWhitneyData(EngineError):
    pass


class InvalidEulerParity(EngineError):
    pass


class NotDivisibleBy8(EngineError):
    pass


class ComponentData(NamedTuple):
    id: int
    subgroup: SignedSubgroup
    has_alg_dual: bool
    dual_framed: bool
    w2: Optional[int] = None
    euler: Optional[int] = None


class ProblemInstance(namedtuple("ProblemInstance", (
        "group wM components surface points collection sphere_catalog rp2_catalog band_catalog "
        "good_group torus_summands"), defaults=(frozenset(),))):
    """One decision problem; its components, points and discs must refer to each other.

    ``points`` are ``DoublePoint`` records or ``DoublePoints`` columns, stored
    as ``DoublePoints.of(points, group)``.  The character, the subgroups and
    the band catalog must be built over this instance's group and surface.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.wM.group is not self.group:
            raise ValidationError("character not over the instance's group")
        for c in self.components:
            if c.subgroup.ambient is not self.group:
                raise ValidationError(f"subgroup of component {c.id} not over the instance's group")
        if getattr(self.band_catalog, "surface", None) is not self.surface:  # a missing catalog too
            raise ValidationError("band catalog not over the instance's surface")
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate component ids")
        known = set(ids)
        surface_ids = {c.id for c in self.surface.components}
        if known != surface_ids:
            raise ValidationError(
                f"immersion components {sorted(known)} != surface components {sorted(surface_ids)}"
            )
        points = DoublePoints.of(self.points, self.group)
        point_ids = set(points.ids)
        if len(point_ids) != len(points):
            raise ValidationError("duplicate double-point ids")
        if not known.issuperset(chain.from_iterable(set(points.pairs))):  # the distinct pairs
            pid = next(p for p, pair in zip(points.ids, points.pairs) if not known.issuperset(pair))
            raise ValidationError(f"double point {pid} references unknown components")
        if not self.torus_summands <= known:
            raise ValidationError("torus_summand flag references unknown components")
        if self.collection is not None:
            if not self.collection.paired_point_ids() <= point_ids:
                raise ValidationError("Whitney collection references unknown double points")
            discs = self.collection.discs
            if not known.issuperset(chain.from_iterable(discs.interiors)):
                did = next(d.id for d in discs if not known.issuperset(d.interior))
                raise ValidationError(f"Whitney disc {did} meets unknown components")
        return self if points is self.points else self._replace(points=points)

    def component(self, cid: int) -> ComponentData:
        for c in self.components:
            if c.id == cid:
                return c
        raise ValidationError(f"no component {cid}")


class TraceEntry(NamedTuple):
    node: str
    paper_ref: str
    value: object


class Verdict(NamedTuple):
    outcome: str
    km: Optional[int]
    t: Optional[int]
    b_char: str  # "yes" / "no" / "undefined"
    trace: list[TraceEntry]

    def as_dict(self) -> dict:
        km, t = ("undefined" if v is None else v for v in (self.km, self.t))
        return {"outcome": self.outcome, "km": km, "t": t, "b_char": self.b_char,
                "trace": [e._asdict() for e in self.trace], "tool_version": TOOL_VERSION}


# -- primary obstructions ----------------------------------------------------


def points_between(points, i: int, j: int) -> DoublePoints:
    """Double points between components i and j; self-intersections when i == j."""
    points = DoublePoints.of(points)
    return points.take(points.by_pair().get(frozenset((i, j)), ()))


def primary_obstructions(inst: ProblemInstance) -> dict:
    """Reduce all intersection and self-intersection lists into their targets.

    mu for each of C components and lambda for each of the K pairs that meet, read off the
    buckets: O(C log C + K log K).  ``reduce_list`` does not check the checked points again.
    """
    out = {}
    subgroup = {c.id: c.subgroup for c in inst.components}
    pairs = {(i, i) for i in subgroup}
    pairs.update(tuple(sorted(key)) for key in inst.points.by_pair() if len(key) == 2)
    for i, j in sorted(pairs):
        ctx = PairingContext(inst.group, inst.wM, subgroup[i], subgroup[j], self_pairing=i == j)
        key = ("mu", i) if i == j else ("lambda", i, j)
        out[key] = reduce_list(points_between(inst.points, i, j), build_gamma(ctx))
    return out


def primary_vanishes(inst: ProblemInstance) -> bool:
    return all(v.is_zero() for v in primary_obstructions(inst).values())


def restrict_Ft(inst: ProblemInstance) -> list[int]:
    """Components whose images have no framed algebraically dual sphere."""
    return sorted(c.id for c in inst.components if not (c.has_alg_dual and c.dual_framed))


# -- characteristic status and t ----------------------------------------------


def _bchar_nodes(inst: ProblemInstance, ft: Sequence[int], trace: list[TraceEntry]):
    """Run the two Fig.-2 characteristic nodes; returns a BCharResult."""
    flagged = sorted(set(ft) & inst.torus_summands)
    if flagged:
        trace.append(TraceEntry("pi_1-trivial torus summand declared on F^t", "Prop 7.1",
                                {"components": flagged}))
        return BCharResult(False, tuple(flagged))
    status = is_b_characteristic(inst.band_catalog.supported_on(ft))
    trace.append(TraceEntry("Is lambda_Sigma|_dB(F^t) != 0?", "Fig. 2; Def 5.6, Lemma 5.7",
                            "yes" if status.form_nonzero else "no"))
    if not status.form_nonzero:
        trace.append(TraceEntry("Is Theta: B(F^t) -> Z/2 nontrivial?",
                                "Fig. 2; Defs 5.8/5.9, Lemma 5.10",
                                "yes" if status.witness is not None else "no"))
    return status


def _t_for_ft(inst: ProblemInstance, ft: Sequence[int]) -> int:
    """t(F^t, W^t) from the discs that pair the double points of F^t.

    Subsets of the reader's checked collection pass every constructor check,
    so the F^t collection is taken with ``_replace``, its discs by one mask
    over the pair column.
    """
    ids = inst.points.ids_within(ft)
    if not ids:
        return 0
    collection = inst.collection
    if collection is None:
        raise MissingWhitneyData(
            "F^t has double points but no Whitney collection was declared"
        )
    if not collection.convenient:
        collection = to_convenient(inst.points, collection)
    discs = collection.discs
    sub = collection._replace(discs=discs.where(map(ids.issuperset, discs.pairs)), boundary={})
    try:
        return t_count(inst.points, ft, sub)
    except UnpairedPoints as exc:
        raise MissingWhitneyData(
            f"the declared collection does not pair the double points of F^t: {exc}"
        ) from exc


def compute_km(inst: ProblemInstance) -> int:
    """The secondary invariant via the combinatorial formula.

    Requires algebraically dual spheres for every component and vanishing
    primary obstructions; equals 0 off the characteristic case and the
    t-count of F^t otherwise.
    """
    if not all(c.has_alg_dual for c in inst.components):
        raise NoDualSpheres("every component needs an algebraically dual sphere")
    verdict = flowchart(inst)
    if verdict.km is None:  # with dual spheres, only a nonzero primary obstruction leaves km open
        raise PrimaryObstructionNonzero("lambda or mu is nonzero; km is undefined")
    return verdict.km


# -- the flowchart -------------------------------------------------------------


def flowchart(inst: ProblemInstance) -> Verdict:
    """Deterministic traversal of the embedding decision diagram."""
    return _flowchart(inst, primary_obstructions(inst))


def _primary_node(obstructions: dict, trace: list[TraceEntry], refs: str, failure: str,
                  failure_refs: str) -> Optional[Verdict]:
    """The primary question "lambda = mu = 0?"; the early verdict when some obstruction is not."""
    primary_ok = all(v.is_zero() for v in obstructions.values())
    trace.append(TraceEntry("Is lambda(f_i,f_j)=mu(f_i)=0 for all i != j?", refs,
                            "yes" if primary_ok else "no"))
    if primary_ok:
        return None
    trace.append(TraceEntry(failure, failure_refs, NOT_REG_EMBED))
    return Verdict(NOT_REG_EMBED, None, None, "undefined", trace)


def _flowchart(inst: ProblemInstance, obstructions: dict) -> Verdict:
    trace: list[TraceEntry] = []
    early = _primary_node(obstructions, trace, "Fig. 2; Defs 2.9, 2.13, 2.17",
                          "F is not regularly homotopic, rel. boundary, to an embedding",
                          "Fig. 2; Prop 2.18/2.23 (regular homotopy invariance)")
    if early is not None:
        return early

    ft = restrict_Ft(inst)
    trace.append(TraceEntry("F^t: components without framed algebraically dual spheres", "Def 5.1",
                            {"components": ft}))

    status = _bchar_nodes(inst, ft, trace)
    if status.yes:
        trace.append(TraceEntry("F^t is b-characteristic", "Def 5.11", "yes"))
        t = _t_for_ft(inst, ft)
        trace.append(TraceEntry("Is t(F^t, W^t) = 0 in Z/2?", "Fig. 2; Def 5.3",
                                "yes" if t == 0 else "no"))
        if t == 1:
            trace.append(TraceEntry("km(F) = 1", "Thm 1.2", 1))
            trace.append(TraceEntry("F is not regularly homotopic, rel. boundary, to an embedding",
                                    "Thm 1.3", NOT_REG_EMBED))
            return Verdict(NOT_REG_EMBED, 1, 1, "yes", trace)
        b_char = "yes"
    else:
        trace.append(TraceEntry("F^t is not b-characteristic", "Def 5.11",
                                {"witness": status.witness}))
        t, b_char = None, "no"
    success = TraceEntry("F is regularly homotopic, rel. boundary, to an embedding", "Thm 1.1",
                         REG_EMBED)
    return _dual_spheres_tail(inst, trace, success, km=0, t=t, b_char=b_char)


def _dual_spheres_tail(inst: ProblemInstance, trace: list[TraceEntry], success: TraceEntry,
                       km: Optional[int], t: Optional[int], b_char: str) -> Verdict:
    """The Fig. 2 tail "dual spheres? -> good group?", ending in ``success``.

    ``success.value`` is the outcome reached when both answers are yes.  A
    ``km`` of 0 is what the dual spheres establish (Thm 1.2), so its trace
    node follows the dual-sphere node; None leaves km undefined.
    """
    duals = all(c.has_alg_dual for c in inst.components)
    trace.append(TraceEntry("Are there algebraically dual spheres?", "Fig. 2; Def 4.1",
                            "yes" if duals else "no"))
    if not duals:
        trace.append(TraceEntry("no conclusion", "Fig. 2", NO_CONCLUSION))
        return Verdict(NO_CONCLUSION, None, t, b_char, trace)
    if km is not None:
        trace.append(TraceEntry(f"km(F) = {km}", "Thm 1.2", km))
    trace.append(TraceEntry("Is pi_1(M) good?",
                            "Fig. 2; virtually solvable and subexponential-growth groups are good",
                            "yes" if inst.good_group else "no"))
    if not inst.good_group:
        trace.append(TraceEntry("no conclusion", "Fig. 2", NO_CONCLUSION))
        return Verdict(NO_CONCLUSION, km, t, b_char, trace)
    trace.append(success)
    return Verdict(success.value, km, t, b_char, trace)


# -- homotopy-class analysis ---------------------------------------------------


def homotopy_analysis(inst: ProblemInstance) -> Verdict:
    """Decide homotopy to an embedding, splitting on the kernel character.

    Requires the normalized representative with vanishing identity
    coefficients.  When some F^t component has an orientation-reversing
    kernel class, the count t can be traded away, so dual spheres plus a
    good group give an embedding regardless of the characteristic status.
    """
    obstructions = primary_obstructions(inst)
    bad = sorted(
        c.id for c in inst.components
        if coefficient_at(obstructions[("mu", c.id)], inst.group.identity).value != 0
    )
    if bad:
        raise ValidationError(
            f"mu(f_i)_1 != 0 for components {bad}; homotope to the normalized "
            "representative before running the analysis"
        )
    trace: list[TraceEntry] = []
    early = _primary_node(obstructions, trace, "§1.4 (after normalizing mu_1 = 0)",
                          "F is not homotopic to an embedding", "§1.4")
    if early is not None:
        return early
    ft = restrict_Ft(inst)
    ft_set = set(ft)
    case2 = sorted(c.id for c in inst.components if c.id in ft_set and c.subgroup.contains_minus_one)
    trace.append(TraceEntry("Is w_1(Sigma)|_ker nontrivial on some component of F^t?",
                            "§1.4 Case 1 / Case 2; Lemma 2.16",
                            {"case": 2, "components": case2} if case2 else {"case": 1}))
    if not case2:
        inner = _flowchart(inst, obstructions)
        return inner._replace(trace=trace + inner.trace)
    success = TraceEntry("F is homotopic, rel. boundary, to an embedding",
                         "Thm 1.5 (the count t can be normalized to 0 by Construction 5.16)",
                         HOMOTOPIC_EMBED)
    return _dual_spheres_tail(inst, trace, success, km=None, t=None, b_char="undefined")


# -- auxiliary operations -------------------------------------------------------


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
        raise ValidationError("the bound applies to a connected surface")
    comp = surface.components[0]
    if comp.boundary_circles:
        raise ValidationError("the bound applies to closed surfaces")
    chi = comp.euler_characteristic()
    bound = -2 * n_generators
    return EulerBoundResult(chi >= bound, chi, bound)
