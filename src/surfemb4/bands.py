"""Surface homology models, the band invariant, and characteristic checks.

The surface carries a GF(2) intersection form on a fixed basis (symplectic
pairs for orientable components, self-dual classes for cross-caps, inert
boundary-parallel classes).  Band records declare the four parity
ingredients of the invariant Theta for a generating set of classes in the
relative second homology; the checks here validate the declarations and
decide the b-/r-/s-characteristic conditions.

Once the boundary form vanishes on the declared boundaries, Theta is a
GF(2)-linear functional on the span of the record classes (Lemma 5.10).
``ThetaFunctional`` is the one consistency check: records whose classes sum
to zero while their Theta values sum to 1 raise ``ThetaConflict`` naming
exactly those records.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Optional, Sequence

from .errors import InternalConsistency
from .whitney import DoublePoint, WhitneyCollection, WhitneyDisc, t_alt, t_count, to_convenient


class BandError(ValueError):
    pass


class MixedW1Annulus(BandError):
    """Annulus with exactly one orientation-reversing boundary curve.

    Theta is undefined here, but the self-pairing of the boundary class is
    then 1, which already forces the secondary obstruction to vanish.
    """

    def __init__(self, band_id):
        super().__init__(
            f"band {band_id}: annulus with exactly one w1-nontrivial boundary; "
            "Theta undefined, and the boundary class has lambda(dS,dS)=1, forcing km=0"
        )
        self.verdict_hint = "km=0"


class NotLinearizable(BandError):
    pass


class ThetaConflict(BandError):
    """Records whose classes sum to zero while their Theta values sum to 1."""

    def __init__(self, witnesses: tuple[str, ...]):
        super().__init__(
            f"records {', '.join(map(repr, witnesses))} have classes summing to zero but "
            "Theta summing to 1; Theta is not linear on the span, inconsistent declaration"
        )
        self.witnesses = witnesses


class SurfaceComponent(namedtuple("SurfaceComponent", "id genus orientable boundary_circles")):
    """One compact surface; ``genus`` is the cross-cap number when nonorientable."""

    __slots__ = ()

    def __new__(cls, id: int, genus: int, orientable: bool, boundary_circles: int = 0):
        if genus < 0 or boundary_circles < 0:
            raise BandError("negative genus or boundary count")
        if not orientable and genus == 0:
            raise BandError("nonorientable components need cross-cap number >= 1")
        return super().__new__(cls, id, genus, orientable, boundary_circles)

    def euler_characteristic(self) -> int:
        closed = 2 - 2 * self.genus if self.orientable else 2 - self.genus
        return closed - self.boundary_circles

    def basis_names(self) -> list[str]:
        names = []
        if self.orientable:
            for i in range(1, self.genus + 1):
                names += [f"a{i}", f"b{i}"]
        else:
            names += [f"e{i}" for i in range(1, self.genus + 1)]
        names += [f"d{i}" for i in range(1, self.boundary_circles)]
        return names


class SurfaceModel:
    """GF(2) first homology of a disjoint union of compact surfaces."""

    def __init__(self, components: Sequence[SurfaceComponent]):
        ids = [c.id for c in components]
        if len(set(ids)) != len(ids):
            raise BandError("duplicate surface component ids")
        self.components = tuple(sorted(components, key=lambda c: c.id))
        self.basis: list[tuple[int, str]] = []
        self._slices: dict[int, tuple[int, int]] = {}
        for comp in self.components:
            start = len(self.basis)
            self.basis += [(comp.id, name) for name in comp.basis_names()]
            self._slices[comp.id] = (start, len(self.basis))
        self.dim = len(self.basis)
        # The form pairs each a-class with the b-class right after it, and is
        # 1 on the diagonal exactly at the cross-cap classes, where w1 is 1.
        self.w1 = tuple(1 if name.startswith("e") else 0 for _, name in self.basis)
        self._a_classes = tuple(i for i, (_, name) in enumerate(self.basis) if name.startswith("a"))

    def check_vec(self, vec) -> tuple[int, ...]:
        bits = tuple(vec)  # counting is C-level; == accepts what `x in (0, 1)` does
        if len(bits) != self.dim or bits.count(0) + bits.count(1) != self.dim:
            raise BandError(f"bad H1 vector {vec!r}; expected {self.dim} bits")
        return bits

    def form(self, x, y) -> int:
        x, y = self.check_vec(x), self.check_vec(y)
        diagonal = sum(a * b * w for a, b, w in zip(x, y, self.w1))
        pairs = sum(x[i] * y[i + 1] + x[i + 1] * y[i] for i in self._a_classes)
        return (diagonal + pairs) % 2

    def w1_of(self, vec) -> int:
        vec = self.check_vec(vec)
        return sum(a * b for a, b in zip(vec, self.w1)) % 2

    def components_of_vec(self, vec) -> set[int]:
        vec = self.check_vec(vec)
        out = set()
        for cid, (lo, hi) in self._slices.items():
            if any(vec[lo:hi]):
                out.add(cid)
        return out


class RelH2(namedtuple("RelH2", "basis boundary")):
    """Named GF(2) basis of the relative second homology with its boundary map."""

    __slots__ = ()

    def __new__(cls, basis: tuple[str, ...], boundary: dict):  # boundary: basis name -> H1 vector
        if len(set(basis)) != len(basis):
            raise BandError("duplicate RelH2 basis names")
        if set(boundary) != set(basis):
            raise BandError("boundary map must be defined exactly on the basis")
        return super().__new__(cls, basis, boundary)

    def check_class(self, vec) -> tuple[int, ...]:
        bits, n = tuple(vec), len(self.basis)
        if len(bits) != n or bits.count(0) + bits.count(1) != n:
            raise BandError(f"bad RelH2 vector {vec!r}")
        return bits

    def boundary_of(self, vec, dim: int) -> tuple[int, ...]:
        """The boundary of a class in H1 = GF(2)^dim; class 0 has boundary 0, also over no basis."""
        total = (0,) * dim
        for bit, name in zip(self.check_class(vec), self.basis):
            b = self.boundary[name]
            if len(b) != dim:
                raise BandError(f"boundary of RelH2 basis class {name!r} has length {len(b)}, "
                                f"expected the H1 dimension {dim}")
            if bit:
                total = tuple(x ^ y for x, y in zip(total, b))
        return total


class BandRecord(namedtuple("BandRecord", "id kind rel_class boundary_classes w1_sigma w1m_core "
                                         "mu_boundary arc_count interior euler")):
    """One declared generator of the representable classes, with Theta data.

    ``kind`` is "annulus", "mobius", or "surface"; general surfaces stand in
    for bands of the same class.  All count fields are parities: ``w1_sigma``
    holds <w1(Sigma), boundary component> per circle, ``w1m_core`` is
    <w1(M), core>, ``arc_count`` is |dB ^ A| and ``interior`` is |Int B ^ F|.
    """

    __slots__ = ()

    def __new__(cls, id: str, kind: str, rel_class: tuple[int, ...],
                boundary_classes: tuple[tuple[int, ...], ...], w1_sigma: tuple[int, ...],
                w1m_core: int, mu_boundary: int, arc_count: int, interior: int, euler: int):
        if kind not in ("annulus", "mobius", "surface"):
            raise BandError(f"unknown band kind {kind!r}")
        for bit in (w1m_core, mu_boundary, arc_count, interior, euler):
            if bit not in (0, 1):
                raise BandError(f"parity fields must be 0 or 1 on band {id!r}")
        if len(w1_sigma) != len(boundary_classes):
            raise BandError(f"band {id!r}: one w1 value per boundary circle")
        if kind == "annulus" and len(boundary_classes) != 2:
            raise BandError(f"annulus {id!r} needs exactly two boundary circles")
        if kind == "mobius" and len(boundary_classes) != 1:
            raise BandError(f"mobius band {id!r} needs exactly one boundary circle")
        return super().__new__(cls, id, kind, rel_class, boundary_classes, w1_sigma, w1m_core,
                               mu_boundary, arc_count, interior, euler)

    def total_boundary(self, dim: int) -> tuple[int, ...]:
        total = (0,) * dim
        for c in self.boundary_classes:
            total = tuple(x ^ y for x, y in zip(total, c))
        return total


def validate_record(record: BandRecord, surface: SurfaceModel, rel: Optional[RelH2] = None) -> None:
    """Admissibility and declaration consistency for one record."""
    for c, w in zip(record.boundary_classes, record.w1_sigma):
        if surface.w1_of(c) != w:
            raise BandError(
                f"band {record.id!r}: declared w1(Sigma) value {w} disagrees with the class"
            )
    if (record.w1m_core + sum(record.w1_sigma)) % 2 != 0:
        raise BandError(f"band {record.id!r} violates the w1 admissibility condition")
    if record.kind == "mobius" and record.w1_sigma[0] != 0:
        raise BandError(
            f"mobius band {record.id!r} with orientation-reversing boundary is excluded"
        )
    if record.kind == "surface" and any(record.w1_sigma):
        raise BandError(f"surface record {record.id!r} needs w1-trivial boundary circles")
    if rel is not None:
        declared = record.total_boundary(surface.dim)
        if rel.boundary_of(record.rel_class, surface.dim) != declared:
            raise BandError(
                f"band {record.id!r}: boundary map of its class disagrees with the "
                "declared boundary circles"
            )


class BandCatalog(namedtuple("BandCatalog", "surface rel records")):
    """User-declared generators of the representable-band subset."""

    __slots__ = ()

    def __new__(cls, surface: SurfaceModel, rel: RelH2, records: tuple[BandRecord, ...]):
        self = super().__new__(cls, surface, rel, records)
        self.__post_init__()
        return self

    def __post_init__(self):
        """The catalog checks, kept as a method of their own so the benchmark can time them."""
        ids = [r.id for r in self.records]
        if len(set(ids)) != len(ids):
            raise BandError("duplicate band ids")
        for r in self.records:
            self.rel.check_class(r.rel_class)
            validate_record(r, self.surface, self.rel)


def theta(record: BandRecord) -> int:
    """The four-term parity invariant of a band or surface record.

    An annulus with both boundary curves orientation-reversing uses the
    cut-open Euler term, declared in the same field; the mixed annulus case
    has no invariant and raises with a verdict hint.
    """
    if record.kind == "annulus" and sorted(record.w1_sigma) == [0, 1]:
        raise MixedW1Annulus(record.id)
    return (record.mu_boundary + record.arc_count + record.interior + record.euler) % 2


def _boundary_form_witness(catalog: BandCatalog) -> Optional[tuple[str, str]]:
    """First pair of record ids, in i <= j order, whose total boundaries pair to 1.

    This O(R^2) scan is the only evaluation of the boundary form lambda_Sigma
    on the declared records; None when the form vanishes on all of them.
    """
    surface = catalog.surface
    totals = [(r.id, r.total_boundary(surface.dim)) for r in catalog.records]
    for i, (id1, x) in enumerate(totals):
        for id2, y in totals[i:]:
            if surface.form(x, y):
                return id1, id2
    return None


def lambda_boundary_check(catalog: BandCatalog) -> bool:
    """True when the intersection form vanishes on all declared boundaries."""
    return _boundary_form_witness(catalog) is None


def _bits(vec) -> int:
    return sum(bit << i for i, bit in enumerate(vec))


class ThetaFunctional:
    """GF(2)-linear extension of the record values to the span of the classes.

    Classes are int bitmasks; each echelon row, keyed by its highest bit, is
    (class, Theta value, mask of the records it sums), so a record reducing
    to class 0 with value 1 names the records of a ``ThetaConflict``.
    ``witness`` is the first record with Theta = 1, or None.  Each record
    costs at most one XOR per bit of its class.
    """

    def __init__(self, records: Sequence[BandRecord]):
        self._rows: dict[int, tuple[int, int, int]] = {}
        self.witness: Optional[str] = None
        for k, r in enumerate(records):
            value = theta(r)
            if value and self.witness is None:
                self.witness = r.id
            vec, value, used = self._reduce(_bits(r.rel_class), value, 1 << k)
            if vec:
                self._rows[vec.bit_length() - 1] = (vec, value, used)
            elif value:
                raise ThetaConflict(tuple(q.id for i, q in enumerate(records) if used >> i & 1))

    def _reduce(self, vec: int, value: int, used: int) -> tuple[int, int, int]:
        """Clear leading bits with rows; stops at the first leading bit without a row."""
        while vec:
            row = self._rows.get(vec.bit_length() - 1)
            if row is None:
                break
            vec, value, used = vec ^ row[0], value ^ row[1], used ^ row[2]
        return vec, value, used

    def evaluate(self, vec) -> int:
        rest, value, _ = self._reduce(_bits(vec), 0, 0)
        if rest:
            raise BandError(f"class {list(vec)} is outside the declared span")
        return value

    def is_zero(self) -> bool:
        return self.witness is None


def theta_on_span(catalog: BandCatalog) -> ThetaFunctional:
    """Linear functional given by the records; needs the boundary form to vanish."""
    if _boundary_form_witness(catalog) is not None:
        raise NotLinearizable("the cross-term lambda(C,C') obstructs linearity")
    return ThetaFunctional(catalog.records)


def validate_theta_well_defined(catalog: BandCatalog) -> Optional[ThetaConflict]:
    """Theta must be linear on the span of the classes; returns the conflict if not."""
    try:
        theta_on_span(catalog)
    except ThetaConflict as conflict:
        return conflict
    return None


class BCharResult(NamedTuple):
    yes: bool
    witness: object = None  # pair of ids whose boundaries pair to 1, or first id with Theta = 1

    def __bool__(self):
        return self.yes

    @property
    def form_nonzero(self) -> bool:
        """The witness is a pair of records whose boundaries pair to 1."""
        return isinstance(self.witness, tuple)


def is_b_characteristic(catalog: BandCatalog) -> BCharResult:
    """Boundary form zero and Theta identically zero on the declared generators.

    Raises ``ThetaConflict`` when the form vanishes but Theta is not linear.
    """
    pair = _boundary_form_witness(catalog)
    if pair is not None:
        return BCharResult(False, pair)
    witness = ThetaFunctional(catalog.records).witness
    return BCharResult(witness is None, witness)


def is_s_characteristic(sphere_catalog: Sequence[tuple[int, int]]) -> bool:
    """Each pair is (F.a mod 2, a.a mod 2) over declared sphere generators."""
    return all(fa % 2 == aa % 2 for fa, aa in sphere_catalog)


def is_r_characteristic(rp2_catalog: Sequence[tuple[int, int]]) -> bool:
    """Each pair is (F.R mod 2, R.R mod 2) over projective planes with trivial w1 pullback."""
    return all(fr % 2 == rr % 2 for fr, rr in rp2_catalog)


def union_records(r1: BandRecord, r2: BandRecord, surface: SurfaceModel,
                  new_id: Optional[str] = None) -> BandRecord:
    """Formal union: counts add, and the boundary pairing corrects mu.

    Implements the quadratic law Theta(S u S') = Theta(S) + Theta(S') +
    lambda(C, C').
    """
    if len(r1.rel_class) != len(r2.rel_class):
        raise BandError("records live over different RelH2 bases")
    lam = surface.form(r1.total_boundary(surface.dim), r2.total_boundary(surface.dim))
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


def band_fibre_finger_move(points, collection: WhitneyCollection, record: BandRecord,
                           surface: SurfaceModel, components, identity):
    """Finger move along a band fibre: two new double points, one new disc.

    The new disc inherits the band's four parities; after normalising to a
    convenient collection the t-count changes by exactly Theta of the band,
    which is checked.  Returns (points, collection, delta_t).
    """
    expected = theta(record)
    comps_touched = sorted(
        set().union(*(surface.components_of_vec(c) for c in record.boundary_classes))
        if record.boundary_classes
        else set()
    )
    if record.kind == "annulus":
        cands = [surface.components_of_vec(c) for c in record.boundary_classes]
        pair_comps = (
            min(cands[0]) if cands[0] else min(components),
            min(cands[1]) if cands[1] else min(components),
        )
    else:
        pair_comps = (
            (min(comps_touched), min(comps_touched)) if comps_touched
            else (min(components), min(components))
        )
    before = t_alt(points, components, collection)

    next_pid = max((p.id for p in points), default=-1) + 1
    next_did = max((d.id for d in collection.discs), default=-1) + 1
    p = DoublePoint(next_pid, pair_comps, 1, identity)
    q = DoublePoint(next_pid + 1, pair_comps, -1, identity)
    new_points = list(points) + [p, q]
    interior = {pair_comps[0]: record.interior} if record.interior else {}
    new_disc = WhitneyDisc(next_did, (p.id, q.id), interior,
                           mu_boundary=record.mu_boundary, euler=record.euler)
    boundary = dict(collection.boundary)
    if record.arc_count:
        if not collection.discs:
            raise BandError(
                f"band {record.id!r} declares an arc intersection but there are no Whitney arcs"
            )
        boundary[frozenset((new_disc.id, collection.discs[0].id))] = record.arc_count
    weak = WhitneyCollection(tuple(collection.discs) + (new_disc,), boundary, convenient=False)
    out = to_convenient(new_points, weak)
    after = t_count(new_points, components, out)
    delta = (after - before) % 2
    if delta != expected:
        raise InternalConsistency("finger move changed t by a value other than Theta")
    return new_points, out, delta
