"""Exact integer matrix routines: Smith diagonal, Hermite form, determinants.

Everything here works on plain Python ints (arbitrary precision).  The
Hermite form and the determinants hold lists of lists and use the classical
cubic algorithms, since their matrices stay small; the Hermite form keeps
one row per pivot column, keyed by the column.  The Smith diagonal takes
sparse ``{column: entry}`` rows and runs one sparse elimination, which keeps
the large and very sparse relation matrices of the Smith oracle cheap.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import floordiv, mul, sub
from typing import Mapping, Sequence

from .errors import InternalConsistency


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a,b) > 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def smith_diagonal(rows: Sequence[Mapping[int, int]], ncols: int) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form of a sparse integer matrix.

    ``rows`` are ``{column: entry}`` maps over the columns ``0 .. ncols-1``.
    Returns the invariant factors d_1 | d_2 | ... | d_r (all positive); the
    cokernel of the row lattice is Z^(ncols-r) + sum_i Z/d_i.

    One elimination loop.  The pivot is a +-1 of a row changed since it was
    last searched, else an entry of least magnitude.  Row operations clear
    its column, a nonzero remainder becoming the next, smaller pivot; with
    the column clear, a column operation changes the pivot row only, so that
    row is reduced mod the pivot, a nonzero residue again becoming the pivot.
    A pivot alone in its row and column is a diagonal entry, and a gcd/lcm
    pass makes the divisibility chain.  A unit pivot costs the rows that meet
    its column; any other pivot also costs one scan of the live entries.
    """
    live: dict[int, dict[int, int]] = {}
    where: dict[int, set[int]] = {j: set() for j in range(ncols)}  # column -> live rows with a nonzero there
    for i, row in enumerate(rows):
        row = {j: v for j, v in row.items() if v}
        if row:
            live[i] = row
            for j in row:
                where[j].add(i)
    diag = []
    queue = list(live)  # rows changed since they were last searched for a unit
    while live:
        j = None
        while queue and j is None:
            r = queue.pop()
            units = [k for k, v in live.get(r, {}).items() if v == 1 or v == -1]
            if units:
                j = min(units, key=lambda k: len(where[k]))
        if j is None:
            _, r, j = min((abs(v), i, k) for i, row in live.items() for k, v in row.items())
        pivot_row = live[r]
        while True:
            p = pivot_row[j]
            for i in [i for i in where[j] if i != r]:
                row = live[i]
                q = row[j] // p
                if q:
                    for k, v in pivot_row.items():
                        nv = row.get(k, 0) - q * v
                        if nv:
                            if k not in row:
                                where[k].add(i)
                            row[k] = nv
                        else:
                            del row[k]
                            where[k].discard(i)
                    if not row:
                        del live[i]
                        continue
                    queue.append(i)
                if j in row:  # what is left is smaller than p: the next pivot
                    r, pivot_row = i, row
                    break
            else:  # column j is clear but at row r
                for k in [k for k in pivot_row if k != j]:
                    v = pivot_row[k] % p
                    if v:
                        pivot_row[k] = v
                    else:
                        del pivot_row[k]
                        where[k].discard(r)
                if len(pivot_row) == 1:
                    break
                j = min((k for k in pivot_row if k != j), key=lambda k: abs(pivot_row[k]))
        diag.append(abs(p))
        del live[r]
        where[j].discard(r)
    big = [d for d in diag if d > 1]
    for i in range(len(big)):
        for j in range(i + 1, len(big)):
            if big[j] % big[i] != 0:
                g = math.gcd(big[i], big[j])
                big[i], big[j] = g, big[i] * big[j] // g
    return [1] * (len(diag) - len(big)) + sorted(big)


class HermiteLattice:
    """An integer lattice in Z^n held in row-echelon Hermite form.

    One row per pivot column, keyed by that column, each with a positive
    pivot.  Supports
    canonical coset representatives and membership tests, which is all the
    orbit machinery for finitely generated abelian groups needs.
    """

    def __init__(self, rows: Sequence[Sequence[int]], ncols: int):
        self.ncols = ncols
        self._by_pivot: dict[int, list[int]] = {}
        for row in rows:
            self._insert(list(row))

    def _insert(self, row: list[int]) -> None:
        while any(row):
            col = next(j for j in range(self.ncols) if row[j] != 0)
            p = self._by_pivot.get(col)
            if p is None:
                self._by_pivot[col] = row if row[col] > 0 else [-v for v in row]
                return
            g, x, y = _egcd(p[col], row[col])
            pa, ra = p[col] // g, row[col] // g
            # unimodular combination: pivot row keeps column col with entry g,
            # the remainder row becomes zero at col and strictly shorter
            self._by_pivot[col] = [x * p[j] + y * row[j] for j in range(self.ncols)]
            row = [-ra * p[j] + pa * row[j] for j in range(self.ncols)]

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of ``vec`` modulo the lattice."""
        return self.reduce_all([vec])[0]

    def reduce_all(self, vecs: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
        """Canonical representatives of ``vecs`` modulo the lattice, in one pass.

        The vectors are held as columns, so each pivot costs one list pass
        per column it touches, over all the vectors at once.
        """
        if not vecs:
            return []
        cols = [list(c) for c in zip(*vecs)]
        for col, row in sorted(self._by_pivot.items()):
            q = list(map(floordiv, cols[col], repeat(row[col])))
            if any(q):
                for j in range(col, self.ncols):
                    if row[j]:
                        cols[j] = list(map(sub, cols[j], map(mul, q, repeat(row[j]))))
        return list(zip(*cols)) or [()] * len(vecs)  # with no columns, each vector is ()

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))


def bareiss_det(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def linear_pencil_det(pairs: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """Coefficients of det(t*V - W), low degree first, for entries (v, w).

    Evaluates exact integer determinants f(0), ..., f(n) and interpolates in
    Newton's forward form, f(x) = sum_k a_k x(x-1)...(x-k+1) with a_k the k-th
    forward difference at 0 divided by k!: integers, exactly when f has
    integer coefficients.  O(n^2) integer operations after the determinants.
    """
    n = len(pairs)
    diffs = [bareiss_det([[v * x - w for (v, w) in row] for row in pairs]) for x in range(n + 1)]
    newton = []
    for k in range(n + 1):
        a, rest = divmod(diffs[0], math.factorial(k))
        if rest:
            raise InternalConsistency("interpolated integer polynomial has a fractional coefficient")
        newton.append(a)
        diffs = list(map(sub, diffs[1:], diffs[:-1]))
    poly = [newton[n]]
    for k in range(n - 1, -1, -1):  # poly * (x - k) + a_k, Horner's rule on the Newton form
        poly = [newton[k] - k * poly[0]] + [c - k * d for c, d in zip(poly, poly[1:])] + [poly[-1]]
    return poly


def poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Division with remainder for integer polynomials; ``den`` must be monic."""
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den or den[-1] != 1:
        raise InternalConsistency("divisor must be monic")
    rem = list(num)
    qlen = max(0, len(rem) - len(den) + 1)
    quot = [0] * qlen
    for k in range(qlen - 1, -1, -1):
        c = rem[k + len(den) - 1]
        quot[k] = c
        if c:
            for j in range(len(den)):
                rem[k + j] -= c * den[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, rem = poly_divmod(poly, list(_cyclotomic(d)))
            if rem:
                raise InternalConsistency(f"cyclotomic polynomial {d} does not divide x^{m} - 1")
    return tuple(poly)


def cyclotomic(m: int) -> list[int]:
    """Coefficients of the m-th cyclotomic polynomial, low degree first."""
    if m < 1:
        raise InternalConsistency(f"cyclotomic polynomial of order {m} < 1")
    return list(_cyclotomic(m))
