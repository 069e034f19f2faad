"""Knot files, Seifert-matrix knot invariants and topological genus bounds.

Knot files are read here (``load_knot``, with the JSON layer ``shapes``),
beside the invariants whose cost and float start their caps protect.

Every invariant is polynomial in the Seifert size n.  The Arf invariant is
computed two independent ways, the mod-8 determinant rule (O(n^3)) and a
symplectic basis of the quadratic form over GF(2) (O(n^3) bit operations),
and the two must agree.  The Alexander polynomial det(tV - V^T) costs
O(n^4); a signature needs it only where the 53-bit certificate declines.  A
signature has one algorithm, O(n^3) operations at p bits: a congruence from
a pivoted LDL^H, checked by Gershgorin intervals with rigorous rounding bounds
(see ``_certified_signature``), run in floats at p = 53 and, where that
declines, in mpmath's p-bit arithmetic at p = 106, 212, ... up to
``MAX_PREC``.  A diagonal entry is a pivot only when it is at least half the
largest entry of its row, so a diagonal that is 0 in exact arithmetic, and
rounding error at p bits, is never one.  cos(pi r) and sin(pi r) come from
integer fixed point (``_cos_sin_pi``), so a signature that the 53-bit step
decides runs no mpmath.  The certificate never answers at a singular point: after its first
decline an exact singularity pre-check against the cyclotomic minimal
polynomial raises there, computing the Alexander polynomial at most once per
matrix.  The cp2 class scan evaluates each distinct point once.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from functools import cached_property
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

from . import _INTS, _lazy
from .errors import InternalConsistency, SchemaError
from .intlinalg import bareiss_det, cyclotomic, linear_pencil_det, poly_divmod
from .shapes import STR, Array, Leaf, Object, read_json, shape_errors

mpmath = _lazy("mpmath")  # run by p-bit arithmetic above 53 bits only


class KnotError(ValueError):
    pass


class ArfMethodsDisagree(InternalConsistency):
    pass


class SingularAtOmega(KnotError):
    pass


class SignRefinementFailed(KnotError):
    pass


class DNotCovered(KnotError):
    pass


# Seifert entries of magnitude below 2^53 are exact as floats, so the signature
# certificate can start in floats on every knot file.  Larger ones would also
# raise the exact path's working precision: one signature of a 40 x 40 matrix
# with 100-digit entries took 75 s.
FLOAT_EXACT_BOUND = 1 << 53

# Largest Seifert matrix a knot file may declare.  Checked before the matrix
# is built, since its unimodularity check and every invariant cost O(n^3) to
# O(n^4) and the cp2 scan's signatures grow with n.
MAX_SEIFERT_SIZE = 40

SEIFERT_ENTRY = Leaf("an integer of magnitude below 2^53", int,
                     minimum=1 - FLOAT_EXACT_BOUND, maximum=FLOAT_EXACT_BOUND - 1)

KNOT_SHAPE = Object({"seifert": Array(Array(SEIFERT_ENTRY)), "name": STR}, optional=("name",))


class SeifertMatrix:
    """Square integer matrix of even size with unimodular antisymmetrisation."""

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = tuple(map(tuple, rows))
        if not all(_INTS.issuperset(map(type, row)) for row in self.rows):  # neither True nor 1.5
            raise KnotError("Seifert matrix entries must be integers")
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise KnotError("matrix must be square")
        if n % 2:
            raise KnotError("Seifert matrices have even size")
        anti = [[self.rows[i][j] - self.rows[j][i] for j in range(n)] for i in range(n)]
        if abs(bareiss_det(anti)) != 1:
            raise KnotError("V - V^T must be unimodular")
        self.size = n

    @cached_property
    def alexander(self) -> list[int]:
        """det(tV - V^T) as integer coefficients, low degree first."""
        return linear_pencil_det(
            [[(self.rows[i][j], self.rows[j][i]) for j in range(self.size)]
             for i in range(self.size)])

    def symmetrized(self) -> list[list[int]]:
        return [
            [self.rows[i][j] + self.rows[j][i] for j in range(self.size)]
            for i in range(self.size)
        ]


def load_knot(path) -> SeifertMatrix:
    """The Seifert matrix of a knot file, or a SchemaError."""
    doc = read_json(path, "knot file")
    if KNOT_SHAPE.fits_all([doc]) is None:
        raise SchemaError(shape_errors(KNOT_SHAPE, doc))
    if len(doc["seifert"]) > MAX_SEIFERT_SIZE:
        raise SchemaError([f"/seifert: the Seifert size {len(doc['seifert'])} "
                           f"exceeds the cap of {MAX_SEIFERT_SIZE}"])
    try:
        return SeifertMatrix(doc["seifert"])
    except KnotError as exc:
        raise SchemaError([f"/seifert: {exc}"]) from None


def alexander_at_minus_one(V: SeifertMatrix) -> int:
    """det(V + V^T), the knot determinant up to sign."""
    return bareiss_det(V.symmetrized())


def _arf_symplectic(rows: Sequence[Sequence[int]]) -> int:
    """Arf invariant of q(x) = x V x^T mod 2 from a symplectic basis of its form.

    The bilinear form B = V + V^T mod 2 is reduced pair by pair: take any
    remaining e, a partner f with B(e, f) = 1, add q(e) q(f), and project the
    other vectors off the pair by v <- v + B(v, f) e + B(v, e) f.  The pairs
    form a symplectic basis, and Arf = sum q(a_i) q(b_i) (Lickorish, An
    Introduction to Knot Theory, ch. 10).  Vectors are int bitmasks, so the
    reduction costs O(n^3) bit operations.  A form with no partner for some
    e is degenerate, which V - V^T unimodular rules out: that raises.
    """
    n = len(rows)
    odd = [sum(1 << j for j in range(n) if rows[i][j] % 2) for i in range(n)]
    form = [sum(1 << j for j in range(n) if (rows[i][j] + rows[j][i]) % 2) for i in range(n)]

    def bits(x: int):
        while x:
            low = x & -x
            yield low.bit_length() - 1
            x ^= low

    def image(x: int) -> int:  # B(x, .) as a bitmask
        out = 0
        for i in bits(x):
            out ^= form[i]
        return out

    def dot(x: int, y: int) -> int:  # over GF(2)
        return (x & y).bit_count() & 1

    def q(x: int) -> int:
        return sum((odd[i] & x).bit_count() for i in bits(x)) & 1

    vectors = [1 << i for i in range(n)]
    result = 0
    while vectors:
        e = vectors.pop()
        be = image(e)
        k = next((k for k, v in enumerate(vectors) if dot(be, v)), None)
        if k is None:
            raise InternalConsistency("V + V^T is degenerate mod 2: no symplectic partner")
        f = vectors.pop(k)
        bf = image(f)
        result ^= q(e) & q(f)
        vectors = [v ^ (e if dot(bf, v) else 0) ^ (f if dot(be, v) else 0) for v in vectors]
    return result


def arf(V: SeifertMatrix) -> int:
    """Arf invariant, via the mod-8 determinant rule and a symplectic basis.

    Rule (a): 0 iff |det(V+V^T)| = +-1 mod 8.  Method (b): the symplectic
    reduction of q(x) = x V x^T mod 2 over GF(2)^(2g) (``_arf_symplectic``).
    Both cost O(n^3).  Disagreement is an internal-consistency failure and
    raises.
    """
    det = abs(alexander_at_minus_one(V))
    if det % 2 == 0:
        raise KnotError("knot determinant must be odd")
    by_det = 0 if det % 8 in (1, 7) else 1
    by_form = _arf_symplectic(V.rows)
    if by_det != by_form:
        raise ArfMethodsDisagree(
            f"determinant rule gives {by_det}, symplectic basis gives {by_form}"
        )
    return by_det


def _point(p: int, q: int) -> tuple[int, int]:
    """p/q in lowest terms with a positive denominator; q = 0 raises ZeroDivisionError."""
    g = math.gcd(p, q) * ((q > 0) - (q < 0))
    return p // g, q // g


def _omega_order(p: int, q: int) -> int:
    """Order of exp(i*pi*p/q) as a root of unity, q != 0: 2q over gcd(p, 2q), in any terms."""
    return abs(2 * q) // math.gcd(p, 2 * q)


def _is_alexander_root(V: SeifertMatrix, p: int, q: int) -> bool:
    """Whether the order-m root of unity exp(i*pi*p/q) is a root of the Alexander polynomial.

    Delta(1) = det(V - V^T) = +-1, so Delta is nonzero of degree at most n,
    and Phi_m divides it only if phi(m) <= n.  As phi(m) >= sqrt(m/2), no
    m > 2n^2 qualifies, and no polynomial is built for it.
    """
    m = _omega_order(p, q)
    if m > 2 * V.size ** 2:
        return False
    _, rem = poly_divmod(V.alexander, cyclotomic(m))
    return not rem


def _atan_inv(k: int, w: int) -> int:
    """2^w atan(1/k) in fixed point, each term of its series rounded down."""
    total, power, j, sign = 0, (1 << w) // k, 1, 1
    while power:
        total += sign * (power // j)
        power //= k * k
        j, sign = j + 2, -sign
    return total


def _cos_sin_pi(p: int, q: int, b: int) -> tuple[int, int]:
    """Integers c, s with |c - 2^b cos(pi r)| <= 1 and |s - 2^b sin(pi r)| <= 1, for b >= 16.

    r = p/q, q > 0, in any terms, is reduced exactly on p and q to r' in [0, 1/4]
    by the sign and swap symmetries (r -> r - 1 negates both values, r -> 1 - r
    negates cos, r -> 1/2 - r swaps them).  At w = b + g bits, pi = 16 atan(1/5)
    - 4 atan(1/239) (Machin), and the Taylor series of cos and sin at x = pi r'
    run until a term is 0, each term computed from the last by one rounding down
    (Brent and Zimmermann, Modern Computer Arithmetic, 2010, sections 4.3-4.4).

    Error, in units of 2^-w.  The arctangent series have at most w/4.6 + 1/2 and
    w/15.8 + 1/2 terms, each rounded down by less than 1, and tails below 1, so pi
    is within 4w + 30, x within w + 9 and x^2 within 1.6w + 15.  A term is the
    last times x^2 / ((j+1)(j+2)) <= 0.31, so either series has at most 0.6w + 1
    terms and inherits each error damped by that factor; with its tail, each sum
    is within 2.1w + 13 <= 3w.  The g = bit_length(b) + 6 guard bits make
    2^g > 6w, so rounding them off to nearest leaves an error of at most
    1/2 + 1/2 units of 2^-b.  At a multiple of 1/2, x = 0 and the values are
    exact; at r' = 1/4, s is set to c.
    """
    p %= 2 * q
    sign_c = sign_s = 1
    if p >= q:
        p, sign_c, sign_s = p - q, -1, -1
    if 2 * p > q:
        p, sign_c = q - p, -sign_c
    swap = 4 * p > q
    if swap:
        p, q = q - 2 * p, 2 * q
    g = b.bit_length() + 6
    w = b + g
    x = (16 * _atan_inv(5, w) - 4 * _atan_inv(239, w)) * p // q
    x2 = x * x >> w

    def series(t: int, j: int) -> int:  # t - t x^2/((j+1)(j+2)) + ..., every term rounded down
        total, sign = 0, 1
        while t:
            total += sign * t
            t = (t * x2 >> w) // ((j + 1) * (j + 2))
            j, sign = j + 2, -sign
        return total

    c = series(1 << w, 0)
    s = c if 4 * p == q else series(x, 1)
    half = 1 << (g - 1)
    c, s = (c + half) >> g, (s + half) >> g
    if swap:
        c, s = s, c
    return sign_c * c, sign_s * s


def _certified_signature(V: SeifertMatrix, num: int, den: int, prec: int = 53) -> Optional[int]:
    """Signature of H = (1-w)V + (1-conj(w))V^T at w = exp(i*pi*num/den), proven at p = prec bits.

    Arithmetic.  At p = 53 the code runs on Python floats and runs no mpmath,
    and above it on mpmath's mpf and mpc under workprec(p).  Both round to
    nearest, and no mpmath operation rounds more often than its float
    counterpart: mpc_mul rounds each exact partial-product sum once, and fdot,
    which forms the inner products of C^, rounds its sum of exact products once
    (dropping only terms below 2^-2p of its running sum).  So the standard model
    with u = 2^-p bounds both, and the one proof below holds at every p.
    Skipping zero multipliers and zero entries of X changes no computed value.

    Error in H.  With S = V + V^T and A = V - V^T, H = (1-c)S - i s A for
    c = cos(pi r), s = sin(pi r), r = num/den, den > 0.  ``_cos_sin_pi`` gives
    integers within 1 of 2^b c and 2^b s, b = p + 60, and c^ and s^ are those
    over 2^b rounded once to nearest at p bits (float() or mpf(), then an exact
    scaling).  Rounding a value at most 1 + 2^-b in magnitude adds at most
    u (1 + 2^-b), so |c^ - c|, |s^ - s| <= u + 2^-(p+59) < 2u.  H^ has the
    entries fl(fl(1 - c^) S) - i fl(s^ A) and is exactly Hermitian, and following
    each rounding gives |H - H^| <= E with E_jk = 20u max(|V_jk|, |V_kj|).

    The congruence.  Gaussian elimination of H^ by congruence accumulates
    X ~ L^-1 of H^ = L D L^H.  The pivot is the largest remaining |diagonal|
    when that is at least half the largest |entry| of its row.  Otherwise the
    largest remaining h_ij (i != j) is moved onto the diagonal and pivoted on,
    as for a diagonal that is all 0: e_i becomes e_i + z e_j, z in
    {1, -1, i, -i} maximising |h_ii + h_jj + 2 Re(z h_ji)|, so the new pivot is
    at least sqrt(2) |h_ij|.  (A diagonal that is 0 in exact arithmetic rounds
    to about 1e-16; a pivot that small makes later entries huge, and no
    interval would clear 0 at any precision.)  This is T = I + z e_i e_j^T,
    unimodular over Z[i], applied to the block, to the stored rows
    (X_i += z X_j) and to H^; it keeps the inertia of H, and there is at most
    one per pivot.  Products by z are exact, so H^ stays exactly Hermitian and
    is T H^ T^H up to 3u |T| |H^| |T|^T, which is added to E before E becomes
    |T| E |T|^T.  The proof holds for any pivot sequence; the rule only keeps
    the intervals narrow.  In pivot order X is unit lower triangular as stored,
    so it is exactly nonsingular, and by Sylvester's law of inertia
    C = X H X^H has the inertia of H.  C^ = fl(fl(X H^) X^H) is formed from
    complex inner products of length <= n, each within gamma_(n+2) |x|^T |y|
    of exact, gamma_k = ku/(1-ku) (Higham, Accuracy and Stability of
    Numerical Algorithms, sections 3.1 and 3.6).  Hence

        |C - C^| <= B = |X| (g |H^| + E) |X|^T,  g = gamma_(n+2) (2 + gamma_(n+2)),

    whose row sums cost two matrix-vector products.  Underflow, in floats only,
    adds less than 2^-1000 (sum |X| + n) to a row sum.

    The count.  Every eigenvalue of the Hermitian C lies in one of the
    Gershgorin intervals [C_ii +- sum_(j != i) |C_ij|], and these lie inside
    the intervals [Re C^_ii +- (sum_(j != i) |C^_ij| + sum_j B_ij)].  If none
    of the latter contains 0, then neither does any interval of
    C(t) = diag C + t (C - diag C) for 0 <= t <= 1.  So no eigenvalue crosses 0
    between diag C and C, and the signature of H is the number of positive
    centres minus the number of negative ones (Rump, Verification methods,
    Acta Numerica 2010).  H is then nonsingular, so w is not a root of the
    Alexander polynomial.  The radii are summed at p bits and then scaled by
    1 + 2^-20, which exceeds their own rounding and that of E (at most n
    changes of basis, five roundings each), (1 - u)^-(10n + 16) - 1, for n < 2^26.

    Returns None when an interval meets 0 or is not finite, when a pivot is 0
    or not a number, or when an entry has |v| >= 2^p.  Cost: O(n^3) operations
    at p bits; the pivot rule's row scans add O(n^2).
    """
    n, rows = V.size, V.rows
    if any(abs(v) >> prec for row in rows for v in row):
        return None
    c, s = _cos_sin_pi(num, den, prec + 60)
    if prec == 53:
        scope, real, cplx, dot = nullcontext(), float, complex, lambda xs, ys: sum(map(mul, xs, ys))
    else:  # the only use of mpmath: p-bit arithmetic once the 53-bit step has declined
        scope, real, cplx, dot = mpmath.workprec(prec), mpmath.mpf, mpmath.mpc, mpmath.fdot
    with scope:
        u = real(2) ** -prec
        # c^, s^: the integers rounded once to p bits, then scaled exactly by 2^-(p+60)
        a, s = 1 - real(c) * (u * 2.0 ** -60), real(s) * (u * 2.0 ** -60)
        H = [[cplx(a * (v + w), s * (w - v)) for v, w in zip(row, col)]
             for row, col in zip(rows, zip(*rows))]
        E = [[20 * u * max(abs(v), abs(w)) for v, w in zip(row, col)]
             for row, col in zip(rows, zip(*rows))]

        # elimination; X[i] holds row i of X on the pivots chosen before i
        X: list[list] = [[] for _ in range(n)]
        order, active, block = [], list(range(n)), [row[:] for row in H]
        while active:
            q = max(range(len(active)), key=lambda t: abs(block[t][t].real))
            if 2 * abs(block[q][q]) < max(map(abs, block[q])):  # change of basis e_i -> e_i + z e_j
                size, q, k = max(((abs(block[k][t]), t, k) for t in range(len(active))
                                  for k in range(len(active)) if k != t))
                diag = block[q][q].real + block[k][k].real
                z = max((1, -1, 1j, -1j), key=lambda z: abs(diag + 2 * (z * block[k][q]).real))
                i, j = active[q], active[k]
                X[i] = [xi + z * xj for xi, xj in zip(X[i], X[j])]
                E = [[e + 3 * u * abs(h) for e, h in zip(er, hr)] for er, hr in zip(E, H)]
                for M, ti, tj, w in ((block, q, k, z), (H, i, j, z), (E, i, j, 1)):
                    M[ti] = [mi + w * mj for mi, mj in zip(M[ti], M[tj])]
                    for row in M:
                        row[ti] += w.conjugate() * row[tj]
            d = block[q][q].real
            if not abs(d) > 0:
                return None
            p = active.pop(q)
            order.append(p)
            pivot_row, xp = block.pop(q), X[p]
            del pivot_row[q]
            for t, i in enumerate(active):
                row = block[t]
                m = row.pop(q) / d
                if m:  # a zero multiplier changes nothing: sparse H costs less
                    block[t] = [h - m * g for h, g in zip(row, pivot_row)]
                    X[i] = [xi - m * xj for xi, xj in zip(X[i], xp)]
                X[i].append(-m)
        X = [X[p] + [1.0] for p in order]

        # C^ = X H^ X^H in pivot order, row i from its diagonal on; each row of X is held
        # as its nonzero positions and entries, so a sparse H costs less
        H_cols = [[H[j][k] for j in order] for k in order]
        nz = [([k for k, x in enumerate(row) if x], [x for x in row if x]) for row in X]
        Xc = [(ks, [x.conjugate() for x in xs]) for ks, xs in nz]
        Y = [[dot(xs, map(col.__getitem__, ks)) for col in H_cols] for ks, xs in nz]
        C = [[dot(map(y.__getitem__, ks), xc) for ks, xc in Xc[i:]] for i, y in enumerate(Y)]

        # row sums of B: |X| (G (|X|^T 1)), G = g |H^| + E
        gamma = (n + 2) * u / (1 - (n + 2) * u)
        g = gamma * (2 + gamma)
        col_sums = [0.0] * n
        for ks, xs in nz:
            for k, xk in zip(ks, xs):
                col_sums[k] += abs(xk)
        gw = [sum((g * abs(H[j][k]) + E[j][k]) * col_sums[t] for t, k in enumerate(order))
              for j in order]
        underflow = 2.0 ** -1000 * (sum(col_sums) + n)

        signature = 0
        for i, (ks, xs) in enumerate(nz):
            centre = C[i][0].real
            radius = (sum(map(abs, C[i][1:])) + sum(abs(C[j][i - j]) for j in range(i))
                      + sum(abs(xk) * gw[k] for k, xk in zip(ks, xs)) + underflow)
            if not abs(centre) > radius * (1 + 2.0 ** -20):
                return None
            signature += 1 if centre > 0 else -1
    return signature


# Working precision, in bits, at which the certificate gives up: 53 doubled five times.
MAX_PREC = 53 << 5


def levine_tristram(V: SeifertMatrix, omega, q: int = 1) -> int:
    """Signature of (1-w)V + (1-conj(w))V^T at w = exp(i*pi*omega/q).

    ``omega`` is an int or a Fraction and ``q`` a nonzero int.  Their numerators
    and denominators are read once, into p/q in lowest terms (``_point``), and
    every later step works on those two ints.  One algorithm decides:
    ``_certified_signature`` in floats, then at 106, 212, ... bits up to
    ``MAX_PREC``.  It never answers at a singular point.
    After its first decline, values of w where the matrix is singular (roots of
    the Alexander polynomial, where the signature jumps) raise instead of
    refining; a point that no precision up to the cap separates from the
    singular ones raises SignRefinementFailed.
    """
    if V.size == 0:
        return 0
    p, q = _point(omega.numerator, omega.denominator * q)
    if not p % (2 * q):
        raise SingularAtOmega(f"exp(i*pi*{p}) = 1 annihilates the pairing")  # q = 1 here
    p %= 2 * q  # still in lowest terms
    prec = 53
    while (signature := _certified_signature(V, p, q, prec)) is None:
        if prec == 53 and _is_alexander_root(V, p, q):
            point = f"{p}/{q}" if q > 1 else p  # as str(Fraction(p, q))
            raise SingularAtOmega(f"exp(i*pi*{point}) is a root of the Alexander polynomial")
        if prec == MAX_PREC:
            raise SignRefinementFailed(f"could not separate the signature from zero at {prec} bits")
        prec *= 2
    return signature


def sigma_d(V: SeifertMatrix, d: int) -> int:
    """Levine-Tristram signature at exp(i*pi*(d-1)/d)."""
    if abs(d) < 2:
        raise KnotError("sigma_d needs |d| >= 2")
    return levine_tristram(V, d - 1, d)


def _odd_prime_divisors(n: int) -> list[int]:
    out = []
    while n and n % 2 == 0:
        n //= 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 2
    if n > 1:
        out.append(n)
    return out


def _lower_bound(d: int, signature: Callable[[int, int], int]) -> int:
    """Genus lower bound in class d from the bounds 2g+1 >= |...| that apply to it.

    ``signature(p, q)`` is the Levine-Tristram signature at exp(i*pi*p/q).  Each
    bound, a multiple of 1/2, is held exactly as the integer twice its value.
    """
    if d in (1, -1):
        raise DNotCovered("classes +-1 are governed by the Arf invariant")
    doubled = []
    if d % 2 == 0:
        doubled.append(abs(d * d - 2 - 2 * signature(1, 1)))
    if d != 0:
        primes = _odd_prime_divisors(abs(d))
        if primes:
            try:
                s = signature(d - 1, d)  # sigma_d
            except SingularAtOmega:
                primes = []  # signature jump point: no usable bound at this d
            for p in primes:
                doubled.append(abs((p * p - 1) * (d // p) ** 2 - 2 - 2 * s))
    if any(t % 2 for t in doubled):
        raise InternalConsistency("a cp2 genus bound is not an integer")
    return max((t // 4 for t in doubled), default=0)


# Classes d with |d| below this bound are accepted by ``cp2_genus_lower_bound``.
# Its odd prime divisors are found by trial division, O(sqrt(d)): 0.07-0.09 s
# for the largest prime below 2^40, 1.2 s below 2^48 (Python 3.11, Xeon VM).
CP2_CLASS_BOUND = 1 << 40


def cp2_genus_lower_bound(V: SeifertMatrix, d: int) -> int:
    """Genus lower bound for a surface in class d, from the signature bounds."""
    if abs(d) >= CP2_CLASS_BOUND:
        raise KnotError(f"the class d = {d} is not below the cap of 2^40 in magnitude")
    return _lower_bound(d, lambda p, q: levine_tristram(V, p, q))


def _folded_signatures(V: SeifertMatrix) -> Callable[[int, int], int]:
    """``levine_tristram(V, p, q)`` evaluated once per point min(r, 2 - r), r = p/q mod 2.

    Folding is exact: the matrix at conj(w) is the complex conjugate of the
    one at w, so its Hermitian eigenvalues are the same.  The memo's keys are
    pairs in lowest terms; a SingularAtOmega outcome is kept and raised again.
    """
    memo: dict[tuple[int, int], object] = {}

    def signature(p: int, q: int) -> int:
        p, q = _point(p, q)
        p %= 2 * q
        key = (min(p, 2 * q - p), q)
        if key not in memo:
            try:
                memo[key] = levine_tristram(V, *key)
            except SingularAtOmega as exc:
                memo[key] = exc
        out = memo[key]
        if isinstance(out, SingularAtOmega):
            raise out
        return out

    return signature


class CP2GenusVerdict(NamedTuple):
    lower: int
    upper: int
    exact: Optional[int]
    incomplete: bool = False  # the window always covers every class; kept in the output
    scan_limit: int = 0


def cp2_genus_verdict(V: SeifertMatrix) -> CP2GenusVerdict:
    """Minimal genus of a surface bounded by the knot in the punctured manifold.

    The upper bound 1 always holds by a stabilisation argument.  Arf = 0
    gives a degree +-1 disc, so genus 0 exactly.  Arf = 1 rules out genus 0
    in classes +-1, and the verdict is exactly 1 when the signature bounds
    rule out genus 0 in every other class; the class scan window is finite
    because the bounds grow quadratically in d.
    """
    a = arf(V)
    if a == 0:
        return CP2GenusVerdict(lower=0, upper=1, exact=0)
    n = V.size
    # |sigma| <= n bounds the tail: both formulas give RHS >= 2 beyond this
    need = max(2 * n + 6, (9 * (n + 3) + 3) // 4)
    window = math.isqrt(need) + 1
    signature = _folded_signatures(V)
    for d in range(-window, window + 1):
        if d in (-1, 1):
            continue
        if _lower_bound(d, signature) < 1:
            return CP2GenusVerdict(lower=0, upper=1, exact=None, scan_limit=window)
    return CP2GenusVerdict(lower=1, upper=1, exact=1, scan_limit=window)


def shake_genus_pm1(V: SeifertMatrix) -> int:
    """Minimal genus generating the second homology of the +-1 trace."""
    return arf(V)
