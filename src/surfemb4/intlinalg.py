"""Exact integer matrix routines: Smith diagonal, Hermite form, determinants.

Everything here works on plain Python ints (arbitrary precision) held in
lists of lists.  The Hermite form and the determinants use the classical
cubic algorithms, since their matrices stay small; the Hermite form keeps
one row per pivot column, keyed by the column.  The Smith diagonal
first eliminates unit pivots on sparse rows, which keeps the large and very
sparse relation matrices of the Smith oracle cheap, and runs the cubic
dense loop only on what is left.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress, repeat
from operator import floordiv, mul, sub
from typing import Sequence

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


def smith_diagonal(rows: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form of an integer matrix.

    Returns the invariant factors d_1 | d_2 | ... | d_r (all positive); the
    cokernel of the row lattice is Z^(ncols-r) + sum_i Z/d_i.

    A pivot of +-1 splits the matrix as 1 + (the rest): clearing its column
    with row operations and then its row with column operations changes
    nothing else.  Such pivots are eliminated first on sparse rows, each
    costing the rows that meet its column; the dense loop then runs on the
    distinct residue rows only, over the columns they still use.
    """
    ones, residue = _eliminate_unit_pivots(rows)
    cols = sorted({j for row in residue for j in row})
    at = {j: k for k, j in enumerate(cols)}
    distinct = set()  # rows equal up to sign span the same lattice, so one of each is enough
    for row in residue:
        out = [0] * len(cols)
        for j, v in row.items():
            out[at[j]] = v
        sign = 1 if next(filter(None, out)) > 0 else -1
        distinct.add(tuple(sign * v for v in out))
    return [1] * ones + _dense_smith_diagonal([list(row) for row in distinct], len(cols))


def _eliminate_unit_pivots(rows: Sequence[Sequence[int]]) -> tuple[int, list[dict[int, int]]]:
    """(number of +-1 pivots eliminated, the nonzero rows left, as {column: entry})."""
    live: dict[int, dict[int, int]] = {}
    where: dict[int, set[int]] = {}  # column -> live rows with a nonzero there
    for i, row in enumerate(rows):
        sparse = {j: row[j] for j in compress(range(len(row)), row)}
        if sparse:
            live[i] = sparse
            for j in sparse:
                where.setdefault(j, set()).add(i)
    ones = 0
    queue = list(live)
    while queue:
        r = queue.pop()
        pivot_row = live.get(r)
        if pivot_row is None:
            continue
        units = [j for j, v in pivot_row.items() if v in (1, -1)]
        if not units:
            continue
        j = min(units, key=lambda c: len(where[c]))
        p = pivot_row[j]
        del live[r]
        for k in pivot_row:
            where[k].discard(r)
        for i in where.pop(j):
            row = live[i]
            q = row[j] * p  # p = +-1, so row[j] / p
            for k, v in pivot_row.items():
                nv = row.get(k, 0) - q * v
                if nv:
                    if k not in row:
                        where[k].add(i)
                    row[k] = nv
                else:
                    del row[k]
                    if k != j:
                        where[k].discard(i)
            if row:
                queue.append(i)
            else:
                del live[i]
        ones += 1
    return ones, list(live.values())


def _dense_smith_diagonal(a: list[list[int]], n: int) -> list[int]:
    """``smith_diagonal`` by a full pivot search each step, on nonzero rows ``a`` (changed)."""
    m = len(a)
    if m == 0:
        return []
    diag: list[int] = []
    t = 0
    while t < m and t < n:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        # clear row and column t; each restart strictly shrinks |pivot|
        while True:
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // pivot
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // pivot
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j] != 0:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
                        break
            if not dirty:
                break
        diag.append(abs(a[t][t]))
        t += 1
    diag = [d for d in diag if d != 0]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i] != 0:
                g = math.gcd(diag[i], diag[j])
                diag[i], diag[j] = g, diag[i] * diag[j] // g
    return sorted(diag)


class HermiteLattice:
    """An integer lattice in Z^n held in row-echelon Hermite form.

    One row per pivot column, keyed by that column, each with a positive
    pivot; ``rows`` and ``pivot_cols`` read them in pivot order.  Supports
    canonical coset representatives and membership tests, which is all the
    orbit machinery for finitely generated abelian groups needs.
    """

    def __init__(self, rows: Sequence[Sequence[int]], ncols: int):
        self.ncols = ncols
        self._by_pivot: dict[int, list[int]] = {}
        for row in rows:
            self._insert(list(row))

    @property
    def pivot_cols(self) -> list[int]:
        return sorted(self._by_pivot)

    @property
    def rows(self) -> list[list[int]]:
        return [self._by_pivot[col] for col in self.pivot_cols]

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
