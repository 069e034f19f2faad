"""Surface homology models, the band invariant, and characteristic checks.

The surface's GF(2) H1 has a fixed basis (``SurfaceModel``).  Declared H1
vectors are 0/1 tuples; ``BandCatalog`` checks each one once, into an int
bitmask, and everything after it reads the bitmasks: the intersection form
is a popcount on them.  Band records declare the four parity
ingredients of the invariant Theta for a generating set of classes in the
relative second homology; the checks here validate the declarations and
decide the b-characteristic condition.

Once the boundary form vanishes on the declared boundaries, Theta is a
GF(2)-linear functional on the span of the record classes (Lemma 5.10).
``ThetaFunctional`` is the one consistency check: records whose classes sum
to zero while their Theta values sum to 1 raise a ``BandError`` naming
exactly those records.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import compress
from operator import xor
from typing import NamedTuple, Optional, Sequence

from . import _INTS


class BandError(ValueError):
    pass


def h1_ranks(genus: int, orientable: bool, boundary_circles: int) -> tuple[int, int]:
    """The GF(2) ranks of a compact surface's H1: its closed classes, then its boundary classes."""
    return 2 * genus if orientable else genus, max(boundary_circles - 1, 0)


class SurfaceComponent(namedtuple("SurfaceComponent", "id genus orientable boundary_circles")):
    """One compact surface; ``genus`` is the cross-cap number when nonorientable."""

    __slots__ = ()

    def __new__(cls, id: int, genus: int, orientable: bool, boundary_circles: int = 0):
        if type(genus) is not int or type(boundary_circles) is not int:  # neither True nor 1.0
            raise BandError("non-integer genus or boundary count")
        if genus < 0 or boundary_circles < 0:
            raise BandError("negative genus or boundary count")
        if not orientable and genus == 0:
            raise BandError("nonorientable components need cross-cap number >= 1")
        return super().__new__(cls, id, genus, orientable, boundary_circles)


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(vec, n: int, error: str, *names) -> int:
    """The bitmask (bit i for entry i) of n exact ints 0 or 1, else a BandError worded by ``error``."""
    bits = tuple(vec)  # C-level passes: the types, the values, then one base-2 parse
    if len(bits) != n or not _INTS.issuperset(map(type, bits)) or not {0, 1}.issuperset(bits):
        raise BandError(error.format(vec, n, *names))
    return int(bytes(bits[::-1]).translate(_DIGITS) or b"0", 2)


class SurfaceModel:
    """GF(2) first homology of a disjoint union of compact surfaces.

    In id order, each component takes the next ``h1_ranks`` positions: a_1,
    b_1, ..., a_g, b_g or cross-caps e_1, ..., e_g, then one inert class per
    boundary circle but the last.  H1 vectors are int bitmasks, bit i for
    position i; ``mask`` turns a declared 0/1 vector into one.  Bitmask
    ``w1`` marks the e_i, ``_a`` the a_i, and ``_spans`` each component's
    positions.
    """

    def __init__(self, components: Sequence[SurfaceComponent]):
        ids = [c.id for c in components]
        if len(set(ids)) != len(ids):
            raise BandError("duplicate surface component ids")
        self.components = tuple(sorted(components, key=lambda c: c.id))
        self._spans: dict[int, int] = {}
        self.w1 = self._a = lo = 0
        for comp in self.components:
            closed, boundary = h1_ranks(comp.genus, comp.orientable, comp.boundary_circles)
            if comp.orientable:  # bits 0, 2, ..., 2g - 2 of the component
                self._a |= (4 ** comp.genus - 1) // 3 << lo
            else:
                self.w1 |= ((1 << closed) - 1) << lo
            self._spans[comp.id] = ((1 << closed + boundary) - 1) << lo
            lo += closed + boundary
        self.dim = lo

    def mask(self, vec) -> int:
        """The bitmask of a declared H1 vector: ``dim`` entries, each 0 or 1."""
        return _mask(vec, self.dim, "bad H1 vector {0!r}; expected {1} bits")

    def form(self, x: int, y: int) -> int:
        """lambda(x, y) on bitmasks: the cross-cap diagonal and the a_i.b_i pairs, by popcount."""
        pairs = ((x & (y >> 1)) ^ ((x >> 1) & y)) & self._a
        return ((x & y & self.w1) ^ pairs).bit_count() & 1

    def w1_of(self, x: int) -> int:
        return (x & self.w1).bit_count() & 1


_BASIS_BOUNDARY = "boundary of RelH2 basis class"


class RelH2(namedtuple("RelH2", "basis boundary")):
    """Named GF(2) basis of the relative second homology with its boundary map."""

    __slots__ = ()

    def __new__(cls, basis: tuple[str, ...], boundary: dict):  # boundary: basis name -> H1 vector
        if len(set(basis)) != len(basis):
            raise BandError("duplicate RelH2 basis names")
        if set(boundary) != set(basis):
            raise BandError("boundary map must be defined exactly on the basis")
        return super().__new__(cls, basis, boundary)


class BandRecord(namedtuple("BandRecord", "id kind rel_class boundary_classes w1_sigma w1m_core "
                                         "mu_boundary arc_count interior euler")):
    """One declared generator of the representable classes, with Theta data.

    ``kind`` is "annulus", "mobius", or "surface"; general surfaces stand in
    for bands of the same class.  All count fields are parities: ``w1_sigma``
    holds <w1(Sigma), boundary component> per circle, ``w1m_core`` is
    <w1(M), core>, ``arc_count`` is |dB ^ A| and ``interior`` is |Int B ^ F|.
    Vectors are stored as tuples.  The class is checked by the catalog, against
    its basis (``validate_record``), and only there.
    """

    __slots__ = ()

    def __new__(cls, id: str, kind: str, rel_class, boundary_classes, w1_sigma,
                w1m_core: int, mu_boundary: int, arc_count: int, interior: int, euler: int):
        if kind not in ("annulus", "mobius", "surface"):
            raise BandError(f"unknown band kind {kind!r}")
        _mask((w1m_core, mu_boundary, arc_count, interior, euler), 5,
              "parity fields must be 0 or 1 on band {2!r}", id)
        _mask(w1_sigma, len(w1_sigma),
              "band {2!r}: w1_sigma has an entry other than 0 or 1: {0!r}", id)
        if len(w1_sigma) != len(boundary_classes):
            raise BandError(f"band {id!r}: one w1 value per boundary circle")
        if kind == "annulus" and len(boundary_classes) != 2:
            raise BandError(f"annulus {id!r} needs exactly two boundary circles")
        if kind == "mobius" and len(boundary_classes) != 1:
            raise BandError(f"mobius band {id!r} needs exactly one boundary circle")
        return super().__new__(cls, id, kind, tuple(rel_class), tuple(map(tuple, boundary_classes)),
                               tuple(w1_sigma), w1m_core, mu_boundary, arc_count, interior, euler)


class RecordMasks(NamedTuple):
    """A checked record's vectors as bitmasks: its class, total boundary and circles' support."""

    rel_class: int
    boundary: int
    support: int


def validate_record(record: BandRecord, surface: SurfaceModel, boundaries: Sequence[int]) -> RecordMasks:
    """Admissibility and declaration consistency for one record, each circle checked once.

    ``boundaries`` are the catalog's basis-boundary masks: the class is
    checked against the basis, and the XOR of the masks it names against the
    circles' sum.
    """
    total = support = 0
    for c, w in zip(record.boundary_classes, record.w1_sigma):
        x = surface.mask(c)
        if surface.w1_of(x) != w:
            raise BandError(
                f"band {record.id!r}: declared w1(Sigma) value {w} disagrees with the class"
            )
        total ^= x
        support |= x
    if (record.w1m_core + sum(record.w1_sigma)) % 2 != 0:
        raise BandError(f"band {record.id!r} violates the w1 admissibility condition")
    if record.kind == "mobius" and record.w1_sigma[0] != 0:
        raise BandError(
            f"mobius band {record.id!r} with orientation-reversing boundary is excluded"
        )
    if record.kind == "surface" and any(record.w1_sigma):
        raise BandError(f"surface record {record.id!r} needs w1-trivial boundary circles")
    rel_class = _mask(record.rel_class, len(boundaries), "bad RelH2 vector {0!r}")
    if reduce(xor, compress(boundaries, record.rel_class), 0) != total:
        raise BandError(
            f"band {record.id!r}: boundary map of its class disagrees with the "
            "declared boundary circles"
        )
    return RecordMasks(rel_class, total, support)


class BandCatalog(namedtuple("BandCatalog", "surface rel records masks")):
    """User-declared generators of the representable-band subset.

    Each basis boundary, class and circle is checked here once; ``masks``
    maps each record id to the ``RecordMasks`` that all later work reads.
    """

    __slots__ = ()

    def __new__(cls, surface: SurfaceModel, rel: RelH2, records: tuple[BandRecord, ...]):
        self = super().__new__(cls, surface, rel, records, {})
        self.__post_init__()
        return self

    def __post_init__(self):
        """The catalog checks, kept as a method of their own so the benchmark can time them.

        O(B·dim + R·(B + c·dim)) bit operations: B basis classes, R records of c circles."""
        ids = [r.id for r in self.records]
        if len(set(ids)) != len(ids):
            raise BandError("duplicate band ids")
        dim, boundaries = self.surface.dim, []
        for name in self.rel.basis:
            vec = self.rel.boundary[name]
            if len(vec) != dim:
                raise BandError(f"{_BASIS_BOUNDARY} {name!r} has length {len(vec)}, "
                                f"expected the H1 dimension {dim}")
            boundaries.append(_mask(vec, dim, "{2} {3!r} has an entry other than 0 or 1: {0!r}",
                                    _BASIS_BOUNDARY, name))
        for r in self.records:
            self.masks[r.id] = validate_record(r, self.surface, boundaries)

    def supported_on(self, components) -> BandCatalog:
        """The records whose circles lie on the given components, by one AND a record.

        Checked records pass every check, so ``_replace`` skips them and keeps
        ``masks``, which is keyed by id.
        """
        outside = ~sum(self.surface._spans.get(cid, 0) for cid in components)
        return self._replace(records=tuple(
            r for r in self.records if not self.masks[r.id].support & outside))


def theta(record: BandRecord) -> int:
    """The four-term parity invariant of a band or surface record.

    An annulus with both boundary curves orientation-reversing uses the
    cut-open Euler term, declared in the same field.  An annulus with exactly
    one orientation-reversing boundary curve has no invariant and raises with
    a verdict hint: the self-pairing of its boundary class is then 1, which
    already forces the secondary obstruction km to vanish.
    """
    if record.kind == "annulus" and sorted(record.w1_sigma) == [0, 1]:
        raise BandError(
            f"band {record.id}: annulus with exactly one w1-nontrivial boundary; "
            "Theta undefined, and the boundary class has lambda(dS,dS)=1, forcing km=0"
        )
    return (record.mu_boundary + record.arc_count + record.interior + record.euler) % 2


def _boundary_form_witness(catalog: BandCatalog) -> Optional[tuple[str, str]]:
    """First pair of record ids, in i <= j order, whose total boundaries pair to 1.

    The only evaluation of the boundary form lambda_Sigma on the declared
    records; None when the form vanishes on all of them.  Walking the records
    from last to first keeps an echelon basis, keyed by top bit, of the span of
    the boundaries x_i, ..., x_(R-1); record i fails when lambda(x_i, b) = 1 for
    some basis vector b.  The least failing i is the first id, its first
    partner j >= i the second: O(R * k) form evaluations for R records whose
    boundaries span a space of rank k.
    """
    surface = catalog.surface
    totals = [catalog.masks[r.id].boundary for r in catalog.records]
    basis: dict[int, int] = {}
    first = None
    for i in range(len(totals) - 1, -1, -1):
        v = x = totals[i]
        while v and v.bit_length() - 1 in basis:
            v ^= basis[v.bit_length() - 1]
        if v:
            basis[v.bit_length() - 1] = v
        if any(surface.form(x, b) for b in basis.values()):
            first = i
    if first is None:
        return None
    x = totals[first]
    second = next(j for j in range(first, len(totals)) if surface.form(x, totals[j]))
    return catalog.records[first].id, catalog.records[second].id


def lambda_boundary_check(catalog: BandCatalog) -> bool:
    """True when the intersection form vanishes on all declared boundaries."""
    return _boundary_form_witness(catalog) is None


class ThetaFunctional:
    """GF(2)-linear extension of the record values to the span of the classes.

    Classes are int bitmasks; each echelon row, keyed by its highest bit, is
    (class, Theta value, mask of the records it sums), so a record reducing
    to class 0 with value 1 names, in a ``BandError``, the records whose
    classes sum to zero while their Theta values sum to 1.
    ``witness`` is the first record with Theta = 1, or None.  Each record
    costs at most one XOR per bit of its class.
    """

    def __init__(self, catalog: BandCatalog):
        self._rows: dict[int, tuple[int, int, int]] = {}
        self.witness: Optional[str] = None
        records = catalog.records
        for k, r in enumerate(records):
            value = theta(r)
            if value and self.witness is None:
                self.witness = r.id
            vec, value, used = self._reduce(catalog.masks[r.id].rel_class, value, 1 << k)
            if vec:
                self._rows[vec.bit_length() - 1] = (vec, value, used)
            elif value:
                witnesses = (q.id for i, q in enumerate(records) if used >> i & 1)
                raise BandError(
                    f"records {', '.join(map(repr, witnesses))} have classes summing to zero but "
                    "Theta summing to 1; Theta is not linear on the span, inconsistent declaration"
                )

    def _reduce(self, vec: int, value: int, used: int) -> tuple[int, int, int]:
        """Clear leading bits with rows; stops at the first leading bit without a row."""
        while vec:
            row = self._rows.get(vec.bit_length() - 1)
            if row is None:
                break
            vec, value, used = vec ^ row[0], value ^ row[1], used ^ row[2]
        return vec, value, used


def validate_theta_well_defined(catalog: BandCatalog) -> ThetaFunctional:
    """Theta as a linear functional on the span of the classes.

    Raises ``BandError``: "the cross-term lambda(C,C') obstructs linearity"
    when the boundary form does not vanish on the records, and "records ...
    have classes summing to zero but Theta summing to 1" when Theta is not
    linear on their span.
    """
    if _boundary_form_witness(catalog) is not None:
        raise BandError("the cross-term lambda(C,C') obstructs linearity")
    return ThetaFunctional(catalog)


class BCharResult(NamedTuple):
    yes: bool
    witness: object = None  # pair of ids whose boundaries pair to 1, or first id with Theta = 1

    @property
    def form_nonzero(self) -> bool:
        """The witness is a pair of records whose boundaries pair to 1."""
        return isinstance(self.witness, tuple)


def is_b_characteristic(catalog: BandCatalog) -> BCharResult:
    """Boundary form zero and Theta identically zero on the declared generators.

    Raises ``BandError`` "records ... have classes summing to zero but Theta
    summing to 1" when the form vanishes but Theta is not linear.
    """
    pair = _boundary_form_witness(catalog)
    if pair is not None:
        return BCharResult(False, pair)
    witness = ThetaFunctional(catalog).witness
    return BCharResult(witness is None, witness)

