"""Torus knots T(p,q): every knot invariant against its closed form, at Seifert sizes up to 40.

V(T(p,q)) = -A_(p-1) (x) A_(q-1) (``helpers.torus_knot``); some draws are made
dense by a unimodular congruence, which keeps Delta, Arf and every signature.
The closed forms: Delta = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)); Arf by
Levine's rule, 0 iff Delta(-1) = +-1 mod 8; the signatures by Litherland's count
(``helpers.torus_knot_signature``).  The roots of Delta are the pq-th roots of
unity that are neither p-th nor q-th roots, all simple, so the signature jumps
there and nowhere else.
"""

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

from surfemb4 import cli, knots
from surfemb4.knots import SingularAtOmega, arf, cp2_genus_lower_bound, levine_tristram

from helpers import (torus_knot, torus_knot_alexander, torus_knot_signature, torus_sum,
                     torus_sum_signature, unimodular_congruence)

PAIRS = [(p, q) for p in range(2, 8) for q in range(p + 1, 42)
         if math.gcd(p, q) == 1 and (p - 1) * (q - 1) <= 40]

def _is_root(p: int, q: int, r: Fraction) -> bool:
    """Whether exp(i*pi*r) is a root of Delta(T(p,q)): r/2 = k/pq with p and q not dividing k."""
    k = r % 2 / 2 * p * q
    return k.denominator == 1 and k.numerator % p != 0 and k.numerator % q != 0


@st.composite
def torus_knots(draw):
    """(p, q, V): a pair with (p - 1)(q - 1) <= 40 and its matrix, one draw in three dense."""
    p, q = draw(st.sampled_from(PAIRS))
    V = torus_knot(p, q)
    if draw(st.integers(0, 2)) == 0:
        V = unimodular_congruence(V, random.Random(draw(st.integers(0, 2 ** 32 - 1))),
                                  steps=3 * V.size)
        event("dense")
    event(f"n = {V.size // 8 * 8}..{V.size // 8 * 8 + 7}")
    return p, q, V


def test_the_p_equals_2_matrix_and_count_are_the_torus_sum_ones():
    for q in (3, 5, 11, 41):
        assert torus_knot(2, q).rows == torus_sum([q]).rows
        for r in (Fraction(1), Fraction(1, 2 * q), Fraction(2, 3), Fraction(7, 4)):
            assert torus_knot_signature(2, q, r) == torus_sum_signature([q], r)


@settings(max_examples=10)
@given(knot=torus_knots(), k=st.integers(0, 10 ** 6),
       d=st.integers(-30, 30).filter(lambda d: abs(d) != 1), side=st.sampled_from([-1, 1]))
@example(knot=(5, 11, torus_knot(5, 11)), k=7, d=15, side=-1)  # n = 40, the cap
def test_torus_knot_invariants_match_their_closed_forms(knot, k, d, side):
    p, q, V = knot
    pq = p * q
    alexander = torus_knot_alexander(p, q)
    assert V.alexander == alexander
    at_minus_one = sum(c if i % 2 == 0 else -c for i, c in enumerate(alexander))
    assert arf(V) == (0 if at_minus_one % 8 in (1, 7) else 1)

    # exp(2*pi*i*k/pq) raises exactly at the roots; between two of them the count holds
    root = Fraction(2 * (k % pq), pq)
    if root == 0:
        with pytest.raises(SingularAtOmega, match="annihilates the pairing"):
            levine_tristram(V, root)
    elif _is_root(p, q, root):
        with pytest.raises(SingularAtOmega, match="root of the Alexander polynomial"):
            levine_tristram(V, root)
    else:
        assert levine_tristram(V, root) == torus_knot_signature(p, q, root)
    for far in (root + Fraction(1, pq), Fraction(1), Fraction(k % 997 + 1, 1000)):
        if not _is_root(p, q, far):
            assert levine_tristram(V, far) == torus_knot_signature(p, q, far), far
    with pytest.raises(SingularAtOmega, match="annihilates the pairing"):
        levine_tristram(V, 2)

    # 10^-20 from the root of Delta nearest above exp(2*pi*i*k/pq)
    j = next(j for j in range(k % pq, k % pq + pq) if _is_root(p, q, Fraction(2 * j, pq)))
    near = Fraction(2 * j, pq) + side * Fraction(1, 10 ** 20)
    assert levine_tristram(V, near) == torus_knot_signature(p, q, near)

    def signature(num, den):
        return torus_knot_signature(p, q, Fraction(num, den))

    assert cp2_genus_lower_bound(V, d) == knots._lower_bound(d, signature)


# Regular points, roots of no Delta, where the elimination of the sparse matrix meets a diagonal
# that is 0 in exact arithmetic and rounding error in p-bit arithmetic.  A pivot on it would
# leave every interval over 0 at every precision up to knots.MAX_PREC.
@pytest.mark.parametrize("p, q, r", [(3, 5, Fraction(5, 6)), (3, 8, Fraction(7, 9)),
                                     (2, 19, Fraction(3, 7)), (2, 25, Fraction(5, 9)),
                                     (3, 13, Fraction(7, 10)), (4, 9, Fraction(3, 5)),
                                     (5, 6, Fraction(1, 6))])
def test_the_certificate_decides_every_regular_point(p, q, r):
    assert not _is_root(p, q, r)
    assert levine_tristram(torus_knot(p, q), r) == torus_knot_signature(p, q, r)


def test_knot_sig_decides_t3_5_at_five_sixths(tmp_path):
    """``knot sig --omega 5/6`` on T(3,5), the first of the points above, prints -6 and exits 0."""
    path = tmp_path / "t3_5.json"
    path.write_text(json.dumps({"seifert": [list(row) for row in torus_knot(3, 5).rows]}))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["knot", "sig", str(path), "--omega", "5/6"])
    assert code == 0 and json.loads(out.getvalue()) == {"signature": -6}


def test_every_regular_point_of_the_small_torus_knots_is_decided_at_53_bits(monkeypatch):
    """Every regular point a/b, b <= 10, of every T(p,q) with (p - 1)(q - 1) <= 12 equals
    Litherland's count, and no certificate runs above 53 bits."""
    precisions = []

    def certified(V, num, den, prec=53):
        precisions.append(prec)
        return certify(V, num, den, prec)

    certify = knots._certified_signature
    monkeypatch.setattr(knots, "_certified_signature", certified)
    points = sorted({Fraction(a, b) for b in range(1, 11) for a in range(1, 2 * b)})
    checked = 0
    for p, q in [(p, q) for p, q in PAIRS if (p - 1) * (q - 1) <= 12]:
        V = torus_knot(p, q)
        for r in points:
            if not _is_root(p, q, r):
                assert levine_tristram(V, r) == torus_knot_signature(p, q, r), (p, q, r)
                checked += 1
    assert checked > 500 and set(precisions) == {53}, (checked, set(precisions))
