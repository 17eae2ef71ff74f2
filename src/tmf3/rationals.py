"""Exact rational arithmetic helpers: p-adic valuations, Bernoulli numbers,
divisor power sums.

Rationals are plain ``fractions.Fraction`` values: always reduced, positive
denominator, structural equality.
"""

from __future__ import annotations

import math
from fractions import Fraction


def val_p_int(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    if n == 0:
        raise ValueError("val_p_int requires n != 0")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


# B_0, B_1, ... as far as computed so far; `bernoulli` extends it on demand,
# so each number is computed once per process whatever order m arrives in
_BERNOULLI = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m for even m >= 2 (B_2 = 1/6, B_4 = -1/30)."""
    if m < 2 or m % 2 != 0:
        raise ValueError(f"bernoulli requires even m >= 2, got {m}")
    bs = _BERNOULLI
    # sum_{k<=n} C(n+1,k) B_k = 0 (convention B_1 = -1/2)
    for n in range(len(bs), m + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * bs[k]
        bs.append(-acc / (n + 1))
    return bs[m]


def sigma_pow(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) = sum of d^k over divisors d of n."""
    if n <= 0:
        raise ValueError(f"sigma_pow requires n >= 1, got {n}")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total
