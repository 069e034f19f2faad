import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import mpmath
import pytest
from hypothesis import event, example, given, settings, strategies as st

from surfemb4 import knots
from surfemb4.errors import InternalConsistency
from surfemb4.intlinalg import cyclotomic, poly_divmod
from surfemb4.knots import (
    CP2GenusVerdict,
    DNotCovered,
    KnotError,
    SeifertMatrix,
    SingularAtOmega,
    alexander_at_minus_one,
    arf,
    cp2_genus_lower_bound,
    cp2_genus_verdict,
    levine_tristram,
    shake_genus_pm1,
    sigma_d,
)

from helpers import (
    arf_bruteforce,
    block_sum,
    eighe_signature,
    random_seifert_rows,
    torus_sum,
    torus_sum_signature,
)


def load(name) -> SeifertMatrix:
    path = resources.files("surfemb4").joinpath("data", "knots", name + ".json")
    return SeifertMatrix(json.loads(path.read_text())["seifert"])


UNKNOT = load("unknot")
TREFOIL = load("trefoil")
SUM3 = load("sum3_trefoil")


def test_seifert_validation():
    with pytest.raises(KnotError):
        SeifertMatrix([[1]])  # odd size
    with pytest.raises(KnotError):
        SeifertMatrix([[0, 0], [0, 0]])  # V - V^T not unimodular


def test_block_sum_connected_sum():
    assert block_sum(block_sum(TREFOIL, TREFOIL), TREFOIL).rows == SUM3.rows


def test_alexander_values():
    assert alexander_at_minus_one(UNKNOT) == 1
    # 2x2 determinant oracle by direct expansion: ad - bc
    sym = TREFOIL.symmetrized()
    assert sym[0][0] * sym[1][1] - sym[0][1] * sym[1][0] == 3
    assert alexander_at_minus_one(TREFOIL) == 3
    # multiplicativity under block sum
    assert alexander_at_minus_one(SUM3) == alexander_at_minus_one(TREFOIL) ** 3 == 27


def test_arf_values():
    assert arf(UNKNOT) == 0
    assert arf(SUM3) == 1
    assert arf(TREFOIL) == arf_bruteforce(TREFOIL) == 1
    assert arf(load("figure_eight")) == 1
    assert arf(load("t2_5")) == 1
    assert arf(load("t2_7")) == 0


def _congruent(rows, rng) -> list[list[int]]:
    """P V P^T for a random unimodular P: the same Seifert form in another basis."""
    rows = [list(r) for r in rows]
    n = len(rows)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        for k in range(n):  # row i += s row j, then column i += s column j
            rows[i][k] += s * rows[j][k]
        for k in range(n):
            rows[k][i] += s * rows[k][j]
    return rows


def test_arf_agreement_random_sample():
    # random_seifert_rows gives V - V^T in standard symplectic form; the
    # congruent copy mixes the basis so the reduction has to project
    rng = random.Random(53)
    sizes = set()
    for _ in range(150):
        rows = random_seifert_rows(rng, max_genus=6)
        V, W = SeifertMatrix(rows), SeifertMatrix(_congruent(rows, rng))
        sizes.add(V.size)
        assert arf(V) == arf_bruteforce(V) == arf(W) == arf_bruteforce(W)
    assert sizes == {2, 4, 6, 8, 10, 12}


def test_arf_of_torus_sums_n20_to_40():
    # closed form: Arf(T(2,q)) = 0 iff q = +-1 mod 8, additive under connected sum
    rng = random.Random(71)
    sizes = set()
    for _ in range(40):
        qs = []
        while sum(q - 1 for q in qs) < 20:
            qs.append(rng.randrange(3, 22, 2))
        if sum(q - 1 for q in qs) > 40:
            continue
        V = torus_sum(qs)
        sizes.add(V.size)
        assert arf(V) == sum(0 if q % 8 in (1, 7) else 1 for q in qs) % 2, qs
    assert min(sizes) <= 24 and max(sizes) >= 36


@pytest.mark.parametrize("rows", [[[0, 0], [0, 0]], [[1, 1], [1, 1]], [[1]],
                                  [[0, 1, 0], [0, 0, 0], [0, 0, 1]]])
def test_symplectic_reduction_rejects_degenerate_forms(rows):
    # V + V^T mod 2 has a kernel, so some vector has no symplectic partner
    with pytest.raises(InternalConsistency):
        knots._arf_symplectic(rows)


def test_alexander_polynomial_once_per_matrix(monkeypatch):
    calls = []
    pencil = knots.linear_pencil_det
    monkeypatch.setattr(knots, "linear_pencil_det", lambda pairs: calls.append(1) or pencil(pairs))
    V = load("sum3_trefoil")
    assert cp2_genus_verdict(V).exact == 1
    for r in (Fraction(1), Fraction(1, 2), Fraction(2, 7), Fraction(-3, 5)):
        levine_tristram(V, r)
    assert calls == []  # every point so far is certified: no polynomial at all
    for r in (Fraction(1, 3), Fraction(5, 3)):  # the roots need it, once per matrix
        with pytest.raises(SingularAtOmega):
            levine_tristram(V, r)
    sigma_d(V, 5)
    cp2_genus_lower_bound(V, 3)
    assert len(calls) == 1
    W = load("sum3_trefoil")  # a new matrix computes its own, and only at a root
    levine_tristram(W, Fraction(1))
    assert len(calls) == 1
    with pytest.raises(SingularAtOmega):
        levine_tristram(W, Fraction(1, 3))
    assert len(calls) == 2


def test_cp2_scan_evaluates_each_folded_point_once(monkeypatch):
    points = []
    signature = knots.levine_tristram

    def counted(V, omega, *args):
        r = Fraction(omega) % 2
        points.append(min(r, 2 - r))
        return signature(V, omega, *args)

    monkeypatch.setattr(knots, "levine_tristram", counted)
    for qs in [(3, 3, 3), (5,), (11,), (3, 5, 5)]:
        V = torus_sum(qs)
        points.clear()
        verdict = cp2_genus_verdict(V)
        assert verdict.exact == 1 and verdict.scan_limit >= 5
        # the scan covers d and -d, and sigma(-1) at every even d
        assert len(points) == len(set(points)) >= 3, (qs, points)
        assert Fraction(1) in points


def test_folded_signatures_remember_singular_points(monkeypatch):
    calls = []
    signature = knots.levine_tristram
    monkeypatch.setattr(knots, "levine_tristram",
                        lambda V, r: calls.append(r) or signature(V, r))
    memo = knots._folded_signatures(TREFOIL)
    for r in (Fraction(1, 3), Fraction(5, 3), Fraction(-1, 3), Fraction(1, 3)):
        with pytest.raises(SingularAtOmega):
            memo(r)
    assert memo(Fraction(3, 2)) == memo(Fraction(1, 2)) == levine_tristram(TREFOIL, Fraction(1, 2))
    assert calls == [Fraction(1, 3), Fraction(1, 2)]


def test_levine_tristram_unknot():
    for r in (Fraction(1), Fraction(1, 2), Fraction(3, 7)):
        assert levine_tristram(UNKNOT, r) == 0


def test_levine_tristram_trefoil_at_minus_one():
    # hand oracle: the symmetrized matrix [[-2,1],[1,-2]] has eigenvalues -1, -3
    assert levine_tristram(TREFOIL, Fraction(1)) == -2


def test_levine_tristram_sum_at_minus_one():
    assert levine_tristram(SUM3, Fraction(1)) == -6


def test_levine_tristram_singular_point():
    # exp(i*pi/3) is a root of the trefoil's Alexander polynomial
    with pytest.raises(SingularAtOmega):
        levine_tristram(TREFOIL, Fraction(1, 3))
    with pytest.raises(SingularAtOmega):
        levine_tristram(TREFOIL, Fraction(0))


# the certificate's precision ladder 53, 106, ... MAX_PREC, each taking cos and sin at p + 60 bits
PRECISIONS = [53 << k for k in range((knots.MAX_PREC // 53).bit_length())]


@settings(max_examples=60, deadline=None)
@given(num=st.integers(-4 * 10 ** 15, 4 * 10 ** 15), den=st.integers(1, 10 ** 15))
@example(num=1, den=3)
@example(num=-33333333333333, den=100000000000000)
@example(num=2 * 10 ** 15 + 1, den=10 ** 15)
def test_integer_cos_sin_pi_within_one_unit_of_mpmath(num, den):
    r = Fraction(num, den)
    for p in PRECISIONS:
        b = p + 60
        c, s = knots._cos_sin_pi(r, b)
        with mpmath.workprec(b + 64):
            x = mpmath.mpf(r.numerator) / r.denominator
            reference = mpmath.cospi(x), mpmath.sinpi(x)
            # the documented bound, 1 unit of 2^-b, plus the reference's own error
            assert all(abs(v - mpmath.ldexp(e, b)) <= 1 + mpmath.ldexp(1, -32)
                       for v, e in zip((c, s), reference))
        with mpmath.workprec(p):  # rounded to p bits, as the certificate rounds them
            rounded = [mpmath.ldexp(mpmath.mpf(v), -b) for v in (c, s)]
        if p == 53:  # float() rounds to nearest as mpf() does at 53 bits
            assert [float(v) * 2.0 ** -b for v in (c, s)] == rounded
        with mpmath.workprec(b + 64):
            assert all(abs(v - e) <= mpmath.ldexp(2, -p) for v, e in zip(rounded, reference))


def test_integer_cos_sin_pi_exact_at_multiples_of_one_half_and_equal_at_one_quarter():
    assert PRECISIONS[-1] == knots.MAX_PREC
    for p in PRECISIONS:
        b = p + 60
        one = 1 << b
        for k in range(-9, 10):
            assert knots._cos_sin_pi(Fraction(k, 2), b) == [(one, 0), (0, one), (-one, 0),
                                                            (0, -one)][k % 4]
        c, s = knots._cos_sin_pi(Fraction(1, 4), b)
        assert c == s
        for k in range(-7, 8, 2):  # the other odd multiples of 1/4, by the symmetries
            assert tuple(map(abs, knots._cos_sin_pi(Fraction(k, 4), b))) == (c, c)


def _check_against_oracle(V, r):
    """Where the 53-bit certificate answers it equals the eigenvalue oracle, and so does
    ``levine_tristram``; every singular point raises."""
    exact = eighe_signature(V, r)
    certified = knots._certified_signature(V, Fraction(r) % 2)
    if exact is None:
        assert certified is None
        with pytest.raises(SingularAtOmega):
            levine_tristram(V, r)
    else:
        assert certified in (None, exact)
        assert levine_tristram(V, r) == exact
    low = V.size // 10 * 10
    event(f"{low} <= n < {low + 10}")
    event("singular" if exact is None else "declined" if certified is None else "certified")
    return exact, certified


@settings(max_examples=20)
@given(genus=st.integers(1, 15), bound=st.sampled_from([2, 100, 1 << 20]),
       zero_diagonal=st.booleans(), seed=st.integers(0, 2 ** 32), p=st.integers(1, 59),
       q=st.integers(1, 30))
@example(genus=20, bound=1 << 20, zero_diagonal=False, seed=0, p=1, q=1)
def test_signature_agrees_with_eigenvalue_oracle_on_random_matrices(genus, bound, zero_diagonal,
                                                                   seed, p, q):
    rows = random_seifert_rows(random.Random(seed), max_genus=genus, min_genus=genus, bound=bound)
    if zero_diagonal:  # V - V^T stays unimodular
        for i, row in enumerate(rows):
            row[i] = 0
    _check_against_oracle(SeifertMatrix(rows), Fraction(p, q))


def test_53_bit_certificate_decides_zero_diagonal_matrices_off_the_roots():
    # every diagonal entry of H is 0, so each first pivot is a change of basis e_i + z e_j
    rng = random.Random(67)
    sizes = set()
    for _ in range(40):
        rows = random_seifert_rows(rng, max_genus=20, bound=rng.choice([2, 100, 1 << 20]))
        for i, row in enumerate(rows):
            row[i] = 0
        V = SeifertMatrix(rows)
        # w = exp(i*pi*r) has order 2q or q > 2 n^2, so Phi of its order has degree above n
        # and w is no root of the Alexander polynomial: H is nonsingular there
        q = rng.choice([3203, 3209, 4001, 10007])
        r = Fraction(rng.randrange(1, q) + q * rng.randrange(2), q)
        assert r.denominator == q and not knots._is_alexander_root(V, r)
        certified = knots._certified_signature(V, r)
        assert certified is not None, (rows, r)
        if V.size <= 12:  # the oracle costs about 1 s at n = 40
            assert certified == eighe_signature(V, r)
        sizes.add(V.size)
    assert len(sizes) >= 15 and max(sizes) >= 36


def _within_cap(qs):
    """The longest prefix of ``qs`` whose torus sum has Seifert size <= 40."""
    while sum(q - 1 for q in qs) > 40:
        qs = qs[:-1]
    return qs


TORUS_SUMS = st.lists(st.integers(1, 10).map(lambda k: 2 * k + 1), min_size=1, max_size=3).map(
    _within_cap)


@settings(max_examples=20)
@given(qs=TORUS_SUMS, pick=st.integers(0, 10 ** 6), side=st.sampled_from([-1, 0, 1]))
@example(qs=[41], pick=0, side=1)
@example(qs=[11, 31], pick=1, side=-1)
def test_signature_agrees_with_eigenvalue_oracle_next_to_alexander_roots(qs, pick, side):
    # the roots of T(2,q) are k/q with k odd, k != q; k/q +- 1/(100q) has an even
    # denominator, so it is a root of no T(2,q') and the closed form holds there
    q = qs[pick % len(qs)]
    ks = [k for k in range(1, 2 * q, 2) if k != q]
    r = Fraction(ks[pick // len(qs) % len(ks)], q) + side * Fraction(1, 100 * q)
    exact, certified = _check_against_oracle(torus_sum(qs), r)
    if side:
        assert exact == torus_sum_signature(qs, r)
    else:
        assert exact is None and certified is None


def _recording_precisions(monkeypatch, decline_below: int = 0) -> list[int]:
    """Record the precision of every certificate step; steps below ``decline_below`` bits decline."""
    precisions = []
    certify = knots._certified_signature

    def step(V, r, prec=53):
        precisions.append(prec)
        return None if prec < decline_below else certify(V, r, prec)

    monkeypatch.setattr(knots, "_certified_signature", step)
    return precisions


@pytest.mark.parametrize("qs", [(3, 3, 3), (5,), (11,), (3, 5, 7, 9, 11), (41,), (11, 31)])
def test_certificate_decides_torus_sums_without_exact_path(qs, monkeypatch):
    # the 53-bit step alone decides: no higher precision and no Alexander polynomial
    V = torus_sum(qs)
    with monkeypatch.context() as m:  # the cp2 scan on the closed form
        m.setattr(knots, "levine_tristram", lambda V, r: torus_sum_signature(qs, r))
        expected = cp2_genus_verdict(V)

    def exact_path(*args, **kwargs):
        raise AssertionError("the Alexander polynomial was computed at a certified point")

    monkeypatch.setattr(knots, "linear_pencil_det", exact_path)
    precisions = _recording_precisions(monkeypatch)
    for r in (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), Fraction(9, 10),
              Fraction(7, 8)):
        assert levine_tristram(V, r) == torus_sum_signature(qs, r)
    assert cp2_genus_verdict(V) == expected
    assert len(precisions) >= 6 and set(precisions) == {53}


def test_higher_precision_decides_where_the_53_bit_certificate_declines(monkeypatch):
    precisions = _recording_precisions(monkeypatch, decline_below=106)
    assert levine_tristram(TREFOIL, Fraction(1)) == -2
    assert levine_tristram(SUM3, Fraction(1, 2)) == torus_sum_signature((3, 3, 3), Fraction(1, 2))
    assert precisions == [53, 106, 53, 106]
    for r in (Fraction(1, 3), Fraction(0)):  # the pre-check raises after the first decline
        with pytest.raises(SingularAtOmega):
            levine_tristram(TREFOIL, r)
    assert precisions[4:] == [53]
    assert cp2_genus_verdict(SUM3).exact == 1
    assert set(precisions) == {53, 106}


NEAR_ROOT_SUMS = st.lists(st.integers(1, 8).map(lambda k: 2 * k + 1), min_size=1, max_size=4).map(
    lambda qs: [q for i, q in enumerate(qs) if sum(p - 1 for p in qs[:i + 1]) <= 16])


@settings(max_examples=25, deadline=None)
@given(qs=NEAR_ROOT_SUMS, pick=st.integers(0, 10 ** 6), side=st.sampled_from([-1, 1]),
       digits=st.integers(15, 40))
@example(qs=[3], pick=0, side=1, digits=40)
@example(qs=[7, 9], pick=5, side=-1, digits=15)
def test_signature_agrees_with_eigenvalue_oracle_within_1e_15_of_roots(qs, pick, side, digits):
    # k/q +- 10^-digits is a root of no T(2,q') with q' <= 17: its denominator is too large
    q = qs[pick % len(qs)]
    ks = [k for k in range(1, 2 * q, 2) if k != q]
    r = Fraction(ks[pick // len(qs) % len(ks)], q) + side * Fraction(1, 10 ** digits)
    V = torus_sum(qs)
    with pytest.MonkeyPatch.context() as m:
        precisions = _recording_precisions(m)
        signature = levine_tristram(V, r)
    assert signature == eighe_signature(V, r) == torus_sum_signature(qs, r)
    event(f"decided at {precisions[-1]} bits")


def test_certificate_declines_entries_beyond_float_precision():
    # V + V^T = [[2a, 1], [1, 2a]] is positive definite: signature 2 at w = -1
    for a, certified in ((2 ** 53 - 1, 2), (2 ** 53, None)):
        V = SeifertMatrix([[a, 1], [0, a]])
        assert knots._certified_signature(V, Fraction(1)) == certified
        assert knots._certified_signature(V, Fraction(1), 106) == 2  # entries below 2^106
        assert levine_tristram(V, Fraction(1)) == 2


def test_signature_conjugation_symmetry_and_evenness():
    rng = random.Random(59)
    for _ in range(25):
        V = SeifertMatrix(random_seifert_rows(rng, max_genus=2))
        p = rng.randrange(1, 8)
        q = rng.randrange(p + 1, 12)
        r = Fraction(p, q)
        try:
            s = levine_tristram(V, r)
        except SingularAtOmega:
            continue
        assert s % 2 == 0
        assert levine_tristram(V, -r) == s


def test_block_sum_adds_signatures():
    rng = random.Random(61)
    for _ in range(10):
        a = SeifertMatrix(random_seifert_rows(rng, max_genus=1))
        b = SeifertMatrix(random_seifert_rows(rng, max_genus=1))
        r = Fraction(1)
        try:
            sa, sb = levine_tristram(a, r), levine_tristram(b, r)
            sab = levine_tristram(block_sum(a, b), r)
        except SingularAtOmega:
            continue
        assert sab == sa + sb


def test_sigma_d_values():
    assert sigma_d(UNKNOT, 2) == 0
    assert sigma_d(SUM3, 3) == -6
    assert sigma_d(SUM3, 2) == -6
    with pytest.raises(KnotError):
        sigma_d(SUM3, 1)


def test_cp2_lower_bounds():
    # direct evaluation: even-d formula |d^2/2 - 1 - sigma| with sigma = -6
    assert abs(2 - 1 - (-6)) == 7
    assert cp2_genus_lower_bound(SUM3, 2) == 7 // 2 == 3
    # odd-d formula |(8/18)*9 - 1 - sigma_3| = 9
    assert cp2_genus_lower_bound(SUM3, 3) == 9 // 2 == 4
    assert cp2_genus_lower_bound(UNKNOT, 2) == 0
    with pytest.raises(DNotCovered):
        cp2_genus_lower_bound(SUM3, 1)


def test_odd_prime_divisors_strip_the_factor_two():
    assert [knots._odd_prime_divisors(n) for n in (3, 6, 10, 12, 14, 15, 18, 30)] == [
        [3], [3], [5], [3], [7], [3, 5], [3], [3, 5]]


def test_cp2_lower_bound_uses_the_odd_prime_of_an_even_class():
    # mirror of T(2,11)#T(2,11): at d = 6 the p = 3 bound |(8/9)*18 - 1 - sigma_6| = 5
    # beats the sigma(-1) bound |18 - 1 - 20| = 3
    V = torus_sum([11, 11])
    mirror = SeifertMatrix([[-v for v in row] for row in V.rows])
    assert levine_tristram(mirror, Fraction(1)) == 20
    assert sigma_d(mirror, 6) == 20
    assert cp2_genus_lower_bound(mirror, 6) == cp2_genus_lower_bound(mirror, -6) == 2


def test_cp2_lower_bound_skips_the_odd_primes_when_sigma_d_is_at_an_alexander_root():
    # Delta = t^4 - t^2 + 1 = Phi_12 vanishes at exp(i*pi*5/6), so sigma_6 is a jump point:
    # the bound at d = 6 is the even-class one, |36/2 - 1 - sigma(-1)| = 17, alone
    V = SeifertMatrix([[0, 1, 0, -1], [0, -1, 2, -2], [0, 2, -1, 0], [-1, -2, -1, 0]])
    assert list(V.alexander) == cyclotomic(12) == [1, 0, -1, 0, 1]
    with pytest.raises(SingularAtOmega, match="root of the Alexander polynomial"):
        levine_tristram(V, Fraction(5, 6))
    assert levine_tristram(V, Fraction(1)) == 0
    assert cp2_genus_lower_bound(V, 6) == cp2_genus_lower_bound(V, -6) == 17 // 2 == 8


def _knot_command(*argv) -> tuple[int, dict]:
    """Exit code and JSON output of ``surfemb4 knot ...`` in a child limited to 1 GiB of memory."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "surfemb4.cli", "knot", *argv], capture_output=True, text=True,
        timeout=20, env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert not proc.stderr, proc.stderr  # no traceback, whatever the exit code
    return proc.returncode, json.loads(proc.stdout)


def test_signature_next_to_a_root_needs_no_cyclotomic_polynomial_of_its_order():
    # 1/3 is a root; the certificate declines 1e-14 away from it, where the order is about 3e14
    assert _knot_command("sig", "trefoil", "--omega", "33333333333333/100000000000000") == (
        0, {"signature": 0})


@pytest.mark.parametrize("omega, point", [("2/1", "2"), ("0", "0"), ("-4/2", "-2")])
def test_signature_at_a_multiple_of_two_names_the_point(omega, point):
    # w = 1 there; --omega 1/1 is w = -1, a valid point
    assert _knot_command("sig", "trefoil", f"--omega={omega}") == (
        2, {"ok": False, "errors": [f"exp(i*pi*{point}) = 1 annihilates the pairing"]})


def test_signature_within_1e_3000_of_a_root_fails_at_the_precision_cap():
    # 1/3 + 10^-3000: a point of huge order, so no pre-check applies, and no precision up to
    # the cap separates the trefoil's matrix there from the singular one at 1/3
    omega = Fraction(1, 3) + Fraction(1, 10 ** 3000)
    with pytest.raises(knots.SignRefinementFailed, match=f"at {knots.MAX_PREC} bits"):
        levine_tristram(TREFOIL, omega)
    message = f"could not separate the signature from zero at {knots.MAX_PREC} bits"
    assert _knot_command("sig", "trefoil", "--omega", f"{omega.numerator}/{omega.denominator}") == (
        2, {"ok": False, "errors": [message]})


@pytest.mark.parametrize("V", [torus_sum(qs) for qs in ((3,), (5,), (3, 7), (9, 9))]
                         + [SeifertMatrix(random_seifert_rows(random.Random(seed), 3, bound=3))
                            for seed in range(4)])
def test_no_cyclotomic_factor_of_order_above_twice_the_size_squared(V):
    limit = 2 * V.size ** 2
    orders = [m for m in range(1, limit + 60) if not poly_divmod(V.alexander, cyclotomic(m))[1]]
    assert max(orders, default=0) <= limit
    assert all(knots._is_alexander_root(V, Fraction(1, m)) == (2 * m in orders)
               for m in range(1, limit + 30))


def test_cp2_lower_bound_caps_the_class():
    cap = knots.CP2_CLASS_BOUND
    assert cp2_genus_lower_bound(TREFOIL, 1 - cap) >= 0
    for d in (cap, -cap, 2 ** 61 - 1):
        with pytest.raises(KnotError, match="2\\^40"):
            cp2_genus_lower_bound(TREFOIL, d)
    code, doc = _knot_command("cp2-bound", "trefoil", "--d", str(2 ** 61 - 1))
    assert code == 2 and doc["ok"] is False


def test_cp2_lower_bound_monotone_in_rhs():
    values = [b // 2 for b in range(20)]
    assert values == sorted(values)


def test_cp2_verdicts():
    assert cp2_genus_verdict(UNKNOT).exact == 0
    v = cp2_genus_verdict(SUM3)
    assert v.exact == 1 and v.lower == 1 and v.upper == 1 and not v.incomplete
    # regression value for the trefoil: the class-0 bound cannot rule out
    # genus zero, so the scan is inconclusive (not asserted by theory)
    t = cp2_genus_verdict(TREFOIL)
    assert t == CP2GenusVerdict(lower=0, upper=1, exact=None, incomplete=False,
                                scan_limit=t.scan_limit)


def test_shake_genus():
    assert shake_genus_pm1(UNKNOT) == 0
    assert shake_genus_pm1(SUM3) == 1
    assert shake_genus_pm1(TREFOIL) == 1

