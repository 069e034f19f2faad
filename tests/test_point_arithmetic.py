"""Signature points as integer pairs agree with the Fraction arithmetic they replace.

``knots`` carries each point exp(i*pi*p/q) as the two ints p and q.  Hypothesis
checks each integer step against its Fraction-based reference in
``tests/helpers.py``: the lowest terms of a point, its order as a root of
unity, the reduction of ``_cos_sin_pi`` to [0, 1/4], the fold min(r, 2 - r)
of the cp2 scan's memo, the genus bounds of ``_lower_bound`` and the messages
of ``levine_tristram``.  Numerators run over +-10^6, 0 and values near +-2^80,
denominators over 1..10^4, values near 2^80 and their negatives.
"""

import random
from fractions import Fraction
from operator import neg

import pytest
from hypothesis import example, given, strategies as st

from surfemb4 import knots
from surfemb4.errors import InternalConsistency
from surfemb4.knots import SingularAtOmega, levine_tristram

from helpers import (
    cos_sin_pi_by_fractions,
    fold_by_fractions,
    lower_bound_by_fractions,
    omega_order_by_fractions,
    torus_sum,
)

NEAR_2_80 = st.integers(-1000, 1000).map(lambda k: 2 ** 80 + k)
NUMERATORS = st.integers(-10 ** 6, 10 ** 6) | st.just(0) | NEAR_2_80 | NEAR_2_80.map(neg)
POSITIVE = st.integers(1, 10 ** 4) | NEAR_2_80
DENOMINATORS = POSITIVE | POSITIVE.map(neg)
TREFOIL = torus_sum([3])


def _outcome(f, *args):
    """The value of f(*args), or the class and message of the exception it raises."""
    try:
        return "value", f(*args)
    except (ValueError, InternalConsistency) as exc:  # the knot errors and the consistency check
        return type(exc), str(exc)


@given(p=NUMERATORS, q=DENOMINATORS)
@example(p=0, q=-7)
@example(p=-(2 ** 80), q=-(2 ** 79))
def test_point_is_the_fraction_in_lowest_terms(p, q):
    r = Fraction(p, q)
    assert knots._point(p, q) == (r.numerator, r.denominator)


@pytest.mark.parametrize("p", [0, 1, -5, 2 ** 80])
def test_point_refuses_a_zero_denominator(p):
    with pytest.raises(ZeroDivisionError):
        knots._point(p, 0)


@given(p=NUMERATORS, q=DENOMINATORS, k=st.integers(1, 12))
@example(p=0, q=1, k=1)
@example(p=2 ** 80, q=3, k=1)
def test_omega_order_matches_fractions(p, q, k):
    # in any terms: k p / k q is the same point
    assert knots._omega_order(k * p, k * q) == omega_order_by_fractions(Fraction(p, q))


@given(p=NUMERATORS, q=POSITIVE, k=st.integers(1, 12), b=st.integers(16, 200))
@example(p=1, q=4, k=3, b=16)
@example(p=-3, q=4, k=1, b=113)
@example(p=7, q=2, k=2, b=16)
@example(p=2 ** 80 + 1, q=2 ** 80, k=1, b=64)
def test_cos_sin_pi_reduction_matches_fractions(p, q, k, b):
    assert knots._cos_sin_pi(k * p, k * q, b) == cos_sin_pi_by_fractions(Fraction(p, q), b)


@given(p=NUMERATORS, q=DENOMINATORS)
@example(p=0, q=5)
@example(p=3, q=-2)
@example(p=-(2 ** 80) - 1, q=2 ** 80)
def test_folded_signatures_evaluate_the_fraction_fold(p, q):
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(knots, "levine_tristram", lambda V, p, q=1: calls.append((p, q)) or 0)
        assert knots._folded_signatures(TREFOIL)(p, q) == 0
    folded = fold_by_fractions(Fraction(p, q))
    assert calls == [(folded.numerator, folded.denominator)]
    assert all(type(v) is int for v in calls[0])


def _table(seed: int):
    """A signature for each folded point, even or odd, or SingularAtOmega at about one in five."""
    def signature(r: Fraction) -> int:
        rng = random.Random(f"{seed}/{fold_by_fractions(r)}")
        if rng.random() < 0.2:
            raise SingularAtOmega(f"a jump at {r}")
        return rng.randrange(-40, 41)
    return signature


@given(d=st.integers(-10 ** 6, 10 ** 6) | st.integers(-60, 60), seed=st.integers(0, 2 ** 32))
@example(d=6, seed=0)
@example(d=-15, seed=1)
@example(d=1, seed=0)
@example(d=0, seed=0)
def test_lower_bound_matches_fractions(d, seed):
    table = _table(seed)
    got = _outcome(knots._lower_bound, d, lambda p, q: table(Fraction(p, q)))
    assert got == _outcome(lower_bound_by_fractions, d, table)


@pytest.mark.parametrize("d", [2, 3, -6])
def test_lower_bound_refuses_a_bound_that_is_not_an_integer(d):
    # a half-integer signature makes every bound a half-integer
    half = Fraction(1, 2)
    with pytest.raises(InternalConsistency, match="not an integer"):
        knots._lower_bound(d, lambda p, q: half)
    with pytest.raises(InternalConsistency, match="not an integer"):
        lower_bound_by_fractions(d, lambda r: half)


@given(p=st.integers(-30, 30) | NEAR_2_80, q=st.integers(-30, 30).filter(bool))
@example(p=4, q=2)
@example(p=-1, q=3)
@example(p=1, q=-3)
@example(p=0, q=5)
@example(p=7, q=3)
def test_levine_tristram_reads_ints_and_fractions_alike(p, q):
    r = Fraction(p, q)
    outcomes = {_outcome(levine_tristram, TREFOIL, p, q), _outcome(levine_tristram, TREFOIL, r),
                _outcome(levine_tristram, TREFOIL, Fraction(7 * p, q), 7)}
    assert len(outcomes) == 1, outcomes
    # the messages write the point as str(Fraction) does
    if r % 2 == 0:
        assert outcomes == {(SingularAtOmega, f"exp(i*pi*{r}) = 1 annihilates the pairing")}
    elif r % 2 in (Fraction(1, 3), Fraction(5, 3)):  # the trefoil's roots
        assert outcomes == {(SingularAtOmega,
                             f"exp(i*pi*{r % 2}) is a root of the Alexander polynomial")}
    else:
        assert outcomes.pop()[0] == "value"
