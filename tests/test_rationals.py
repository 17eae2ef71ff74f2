import math
from fractions import Fraction

import pytest

from tmf3 import rationals
from tmf3.rationals import bernoulli, val_p_int

# B_2 .. B_14
_SMALL = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42),
          8: Fraction(-1, 30), 10: Fraction(5, 66), 12: Fraction(-691, 2730),
          14: Fraction(7, 6)}


def test_bernoulli_closed_forms():
    for m, b in _SMALL.items():
        assert bernoulli(m) == b


def _is_prime(p):
    return p > 1 and all(p % f for f in range(2, math.isqrt(p) + 1))


def test_bernoulli_von_staudt_clausen():
    # B_m + sum of 1/p over the primes p with p - 1 | m is an integer, so the
    # denominator of B_m is the product of those primes; the sign alternates
    for m in range(40, 0, -2):
        primes = [p for p in range(2, m + 2) if _is_prime(p) and m % (p - 1) == 0]
        b = bernoulli(m)
        assert (b + sum(Fraction(1, p) for p in primes)).denominator == 1
        assert b.denominator == math.prod(primes)
        assert (b > 0) == (m % 4 == 2)


def _reference_bernoulli(top):
    """B_0 .. B_top by the O(top^2) Fraction recurrence
    sum_{k<=n} C(n+1,k) B_k = 0 (convention B_1 = -1/2)."""
    bs = [Fraction(1)]
    for n in range(1, top + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * bs[k]
        bs.append(-acc / (n + 1))
    return bs


_REFERENCE = _reference_bernoulli(200)


def test_bernoulli_matches_the_reference_recurrence(monkeypatch):
    # each even m <= 200 from a cold table; then all of them in descending
    # order, the first of which builds the whole table, and in ascending
    # order, which extends it again and again
    for m in range(2, 201, 2):
        monkeypatch.setattr(rationals, "_BERNOULLI", [])
        assert bernoulli(m) == _REFERENCE[m], m
    for order in (range(200, 0, -2), range(2, 201, 2)):
        monkeypatch.setattr(rationals, "_BERNOULLI", [])
        for m in order:
            assert bernoulli(m) == _REFERENCE[m], m


def test_bernoulli_rejects_odd_and_small_indices():
    for m in (0, 1, 3, -2):
        with pytest.raises(ValueError, match="even m >= 2"):
            bernoulli(m)


def test_val_p_int():
    assert (val_p_int(96, 2), val_p_int(-18, 3), val_p_int(7, 2)) == (5, 2, 0)
    with pytest.raises(ValueError, match="n != 0"):
        val_p_int(0, 2)
