import itertools
import random

import pytest
from hypothesis import given, strategies as st

import sympy
from sympy.matrices.normalforms import smith_normal_form

from helpers import (cyclic_group, dihedral, direct_product, hermite_rows, linear_pencil_det_lagrange,
                     pivot_cols, random_character, random_signed_subgroup)
from surfemb4 import intlinalg
from surfemb4.errors import InternalConsistency
from surfemb4.gamma import PairingContext, smith_oracle
from surfemb4.intlinalg import (
    HermiteLattice,
    bareiss_det,
    cyclotomic,
    linear_pencil_det,
    poly_divmod,
    smith_diagonal,
)


def _sparse(rows):
    """Dense rows as the ``{column: entry}`` rows ``smith_diagonal`` takes, zeros kept."""
    return [dict(enumerate(row)) for row in rows]


def _sympy_diagonal(rows, n):
    """The reference: the nonzero diagonal of sympy's Smith normal form, as positive ints."""
    if not rows or not n:
        return []
    snf = smith_normal_form(sympy.Matrix(rows))
    return sorted(abs(int(snf[i, i])) for i in range(min(len(rows), n)) if snf[i, i] != 0)


def test_smith_diagonal_basic():
    assert smith_diagonal([], 3) == []
    assert smith_diagonal(_sparse([[2, 0], [0, 3]]), 2) == [1, 6]
    assert smith_diagonal([{1: 2}], 2) == [2]
    assert smith_diagonal(_sparse([[2, 4], [4, 8]]), 2) == [2]
    assert smith_diagonal([{0: 0}, {}], 1) == []


def test_smith_diagonal_divisibility_chain():
    rng = random.Random(13)
    for _ in range(200):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        diag = smith_diagonal(_sparse(rows), n)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_smith_diagonal_against_sympy():
    rng = random.Random(17)
    for _ in range(60):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        assert smith_diagonal(_sparse(rows), n) == _sympy_diagonal(rows, n), rows


# Each case forces one branch of the elimination loop.
BRANCH_CASES = {
    # no +-1 anywhere: every pivot comes from the scan for a least entry
    "no unit": [[2, 4, 0], [0, 6, 8], [4, 0, 10]],
    # column remainders move the pivot: 6 leaves 10 - 6 = 4, then 4 leaves 6 - 4 = 2, ...
    "column remainder": [[6], [10], [15]],
    # row residues move the pivot: 10 and 15 mod 6 leave 4 and 3
    "row residue": [[6, 10, 15]],
    "both": [[6, 10, 0], [15, 0, 10], [0, 15, 6]],
    # 4 clears its column, leaving [0, 1]; the residue 6 mod 4 = 2 is the pivot, and the 1
    # below it, smaller, becomes the pivot with no row operation
    "smaller entry below": [[4, 6], [4, 7]],
    "empty row": [[0, 0, 0], [2, 0, 4], [0, 0, 0], [0, 3, 0]],
    # the order-256 dihedral oracle's shape: units leave isolated +-2, repeated up to sign
    "isolated twos": [[1, -1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 2, 0, 0], [0, 0, -2, 0, 0],
                      [0, 0, 0, 2, 0], [0, 0, 0, 0, -2], [0, 0, 0, 0, 2], [1, 0, 0, 0, 0]],
    "units then a residue": [[1, 2, 0], [2, 2, 0], [0, 4, 6], [-1, 0, 6]],
}


@pytest.mark.parametrize("rows", BRANCH_CASES.values(), ids=BRANCH_CASES)
def test_smith_diagonal_branches_against_sympy(rows):
    n = len(rows[0])
    assert smith_diagonal(_sparse(rows), n) == _sympy_diagonal(rows, n)


def test_smith_diagonal_sparse_against_sympy():
    rng = random.Random(29)
    for _ in range(250):
        m, n = rng.randrange(1, 11), rng.randrange(1, 11)
        density = rng.choice((0.15, 0.3, 0.5))
        entries = rng.choice(((1, -1, 2, -2), (2, -2, 1), (2, -2), (6, 10, 15, -6)))
        rows = [[rng.choice(entries) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]
        sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
        assert smith_diagonal(sparse, n) == _sympy_diagonal(rows, n), rows


def _relations(ctx):
    """The oracle's relation matrix written out densely: e_g - s e_h for each relation g ~ s h."""
    G, n = ctx.ambient, ctx.ambient.order
    relations = [(g, G.mul(a, g), ea) for a, ea in ctx.s_f.generators for g in G.elements()]
    relations += [(g, G.mul(g, b), eb * ctx.wM(b)) for b, eb in ctx.s_g.generators for g in G.elements()]
    if ctx.self_pairing:
        relations += [(g, G.inv(g), ctx.wM(g)) for g in G.elements()]
    rows = []
    for g, h, s in relations:
        row = [0] * n
        row[g] += 1
        row[h] -= s
        rows.append(row)
    return rows


@pytest.mark.parametrize("group", ["C32", "D16", "C4xD4"])
def test_smith_oracle_against_sympy(group):
    G = {"C32": lambda: cyclic_group(32), "D16": lambda: dihedral(16),
         "C4xD4": lambda: direct_product(cyclic_group(4), dihedral(4))}[group]()
    rng = random.Random(group)
    for self_pairing in (False, True, True):
        s_f = random_signed_subgroup(G, rng)
        s_g = s_f if self_pairing else random_signed_subgroup(G, rng)
        ctx = PairingContext(G, random_character(G, rng), s_f, s_g, self_pairing=self_pairing)
        diag = _sympy_diagonal(_relations(ctx), G.order)
        assert smith_oracle(ctx) == (G.order - len(diag), [d for d in diag if d > 1])


def test_hermite_reduce_is_coset_invariant():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randrange(1, 4)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(rng.randrange(4))]
        lat = HermiteLattice(rows, n)
        vec = [rng.randrange(-6, 7) for _ in range(n)]
        base = lat.reduce(vec)
        for row in rows:
            k = rng.randrange(-2, 3)
            shifted = [v + k * r for v, r in zip(vec, row)]
            assert lat.reduce(shifted) == base
        assert lat.reduce(base) == base  # idempotent


def test_hermite_membership_brute_force():
    rng = random.Random(23)
    for _ in range(30):
        rows = [[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)]
        lat = HermiteLattice(rows, 2)
        span = set()
        for a, b in itertools.product(range(-6, 7), repeat=2):
            v = (a * rows[0][0] + b * rows[1][0], a * rows[0][1] + b * rows[1][1])
            span.add(v)
        for x, y in itertools.product(range(-4, 5), repeat=2):
            got = lat.contains((x, y))
            if (x, y) in span:
                assert got
            elif not got:
                pass  # outside the sampled window nothing to assert
            else:
                # claimed member must be an integer combination; solve 2x2
                det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
                if det != 0:
                    assert (x * rows[1][1] - y * rows[1][0]) % det == 0
                    assert (y * rows[0][0] - x * rows[0][1]) % det == 0


def test_bareiss_det():
    assert bareiss_det([]) == 1
    assert bareiss_det([[5]]) == 5
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        # cofactor expansion oracle
        def cof(mat):
            if len(mat) == 1:
                return mat[0][0]
            return sum(
                (-1) ** j * mat[0][j] * cof([row[:j] + row[j + 1:] for row in mat[1:]])
                for j in range(len(mat))
            )
        assert bareiss_det(m) == cof(m)


def test_linear_pencil_det_matches_alexander_endpoints():
    from surfemb4.knots import SeifertMatrix, alexander_at_minus_one

    rng = random.Random(31)
    from helpers import random_seifert_rows

    for _ in range(30):
        V = SeifertMatrix(random_seifert_rows(rng))
        pairs = [[(V.rows[i][j], V.rows[j][i]) for j in range(V.size)]
                 for i in range(V.size)]
        poly = linear_pencil_det(pairs)  # det(tV - V^T)
        at_minus_one = sum(c * (-1) ** k for k, c in enumerate(poly))
        assert at_minus_one == alexander_at_minus_one(V)
        at_one = sum(poly)
        assert abs(at_one) == 1  # det(V - V^T) is unimodular


ENTRY = st.integers(-10 ** 6, 10 ** 6)


@given(st.integers(0, 10).flatmap(lambda n: st.lists(
    st.lists(st.tuples(ENTRY, ENTRY), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_linear_pencil_det_equals_lagrange_interpolation(pairs):
    assert linear_pencil_det(pairs) == linear_pencil_det_lagrange(pairs)


def test_linear_pencil_det_rejects_a_non_polynomial_sample(monkeypatch):
    """x(x-1)/2 takes integer values at 0, 1, 2 but has a fractional coefficient."""
    samples = iter([0, 0, 1])
    monkeypatch.setattr(intlinalg, "bareiss_det", lambda mat: next(samples))
    with pytest.raises(InternalConsistency, match="fractional coefficient"):
        linear_pencil_det([[(1, 0), (0, 0)], [(0, 0), (1, 0)]])


def test_cyclotomic_product_identity():
    for m in (1, 2, 3, 4, 6, 8, 12):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic(d)
                new = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        expected = [-1] + [0] * (m - 1) + [1]
        assert prod == expected, m


def test_poly_divmod():
    # (x^2 - 1) / (x - 1) = x + 1 rem 0
    q, r = poly_divmod([-1, 0, 1], [-1, 1])
    assert q == [1, 1] and r == []
    q, r = poly_divmod([1, 1, 1], [0, 1])  # (x^2 + x + 1) / x
    assert q == [1, 1] and r == [1]


_ENTRY = st.integers(-2**70, 2**70) | st.integers(-5, 5)


@given(st.data())
def test_hermite_reduce_all_matches_reduce_per_vector(data):
    n = data.draw(st.integers(0, 6))
    row = st.lists(_ENTRY, min_size=n, max_size=n)
    lat = HermiteLattice(data.draw(st.lists(row, max_size=5)), n)
    vecs = data.draw(st.lists(row, max_size=8))
    got = lat.reduce_all(vecs)
    assert got == [lat.reduce(v) for v in vecs]
    for vec, rep in zip(vecs, got):  # each output is the canonical member of its coset
        assert lat.contains([a - b for a, b in zip(vec, rep)])
        assert all(0 <= rep[col] < r[col] for r, col in zip(hermite_rows(lat), pivot_cols(lat)))


@given(st.data())
def test_hermite_rows_have_one_positive_pivot_per_column_in_increasing_order(data):
    n = data.draw(st.integers(0, 6))
    row = st.lists(_ENTRY, min_size=n, max_size=n)
    rows = data.draw(st.lists(row, max_size=6))
    lat = HermiteLattice(rows, n)
    cols = pivot_cols(lat)
    assert all(a < b for a, b in zip(cols, cols[1:]))
    assert len(hermite_rows(lat)) == len(cols)
    for r, col in zip(hermite_rows(lat), cols):
        assert len(r) == n and not any(r[:col]) and r[col] > 0
    assert all(lat.contains(r) for r in rows)


def test_hermite_reduce_all_on_an_empty_batch_and_a_zero_lattice():
    assert HermiteLattice([[2, 1]], 2).reduce_all([]) == []
    zero = HermiteLattice([[0, 0, 0]], 3)
    assert zero.reduce_all([[1, -2, 2**70], (0, 0, 0)]) == [(1, -2, 2**70), (0, 0, 0)]
    assert HermiteLattice([], 0).reduce_all([[], ()]) == [(), ()]
