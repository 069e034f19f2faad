import itertools
import random

import pytest
from hypothesis import given, strategies as st

from helpers import linear_pencil_det_lagrange
from surfemb4 import intlinalg
from surfemb4.errors import InternalConsistency
from surfemb4.intlinalg import (
    HermiteLattice,
    _eliminate_unit_pivots,
    bareiss_det,
    cyclotomic,
    linear_pencil_det,
    poly_divmod,
    smith_diagonal,
)


def test_smith_diagonal_basic():
    assert smith_diagonal([], 3) == []
    assert smith_diagonal([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_diagonal([[0, 2]], 2) == [2]
    assert smith_diagonal([[2, 4], [4, 8]], 2) == [2]


def test_smith_diagonal_divisibility_chain():
    rng = random.Random(13)
    for _ in range(200):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        diag = smith_diagonal(rows, n)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_smith_diagonal_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(17)
    for _ in range(60):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        mine = smith_diagonal(rows, n)
        snf = smith_normal_form(sympy.Matrix(rows))
        theirs = sorted(abs(snf[i, i]) for i in range(min(m, n)) if snf[i, i] != 0)
        assert mine == theirs, rows


def test_smith_diagonal_sparse_against_sympy():
    # sparse entries in {0, +-1, +-2}: unit pivots are eliminated first, and the
    # dense loop runs on whatever is left
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(29)
    paths = {"units": 0, "residue": 0, "both": 0}
    for _ in range(250):
        m, n = rng.randrange(1, 11), rng.randrange(1, 11)
        density = rng.choice((0.15, 0.3, 0.5))
        entries = rng.choice(((1, -1, 2, -2), (2, -2, 1), (2, -2)))
        rows = [[rng.choice(entries) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]
        ones, residue = _eliminate_unit_pivots(rows)
        paths["units"] += ones > 0
        paths["residue"] += bool(residue)
        paths["both"] += ones > 0 and bool(residue)
        mine = smith_diagonal(rows, n)
        snf = smith_normal_form(sympy.Matrix(rows))
        theirs = sorted(abs(snf[i, i]) for i in range(min(m, n)) if snf[i, i] != 0)
        assert mine == theirs, rows
        assert mine[:ones] == [1] * ones
    assert min(paths.values()) >= 40, paths


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
        assert all(0 <= rep[col] < r[col] for r, col in zip(lat.rows, lat.pivot_cols))


@given(st.data())
def test_hermite_rows_have_one_positive_pivot_per_column_in_increasing_order(data):
    n = data.draw(st.integers(0, 6))
    row = st.lists(_ENTRY, min_size=n, max_size=n)
    rows = data.draw(st.lists(row, max_size=6))
    lat = HermiteLattice(rows, n)
    cols = lat.pivot_cols
    assert all(a < b for a, b in zip(cols, cols[1:]))
    assert len(lat.rows) == len(cols)
    for r, col in zip(lat.rows, cols):
        assert len(r) == n and not any(r[:col]) and r[col] > 0
    assert all(lat.contains(r) for r in rows)


def test_hermite_reduce_all_on_an_empty_batch_and_a_zero_lattice():
    assert HermiteLattice([[2, 1]], 2).reduce_all([]) == []
    zero = HermiteLattice([[0, 0, 0]], 3)
    assert zero.reduce_all([[1, -2, 2**70], (0, 0, 0)]) == [(1, -2, 2**70), (0, 0, 0)]
    assert HermiteLattice([], 0).reduce_all([[], ()]) == [(), ()]
