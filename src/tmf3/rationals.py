"""Exact rational arithmetic helpers: p-adic valuations, Bernoulli numbers,
divisor power sums.

Rationals are plain ``fractions.Fraction`` values: always reduced, positive
denominator, structural equality.
"""

from __future__ import annotations

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


# B_2, B_4, ... as far as computed so far; `bernoulli` rebuilds it when m is
# past its end, to at least twice its length, so weights asked in ascending
# order rebuild it only O(log m) times
_BERNOULLI = []


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m for even m >= 2 (B_2 = 1/6, B_4 = -1/30).

    From the tangent numbers T_1, T_2, ... by their integer recurrence,
    and B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) (Brent and
    Harvey, "Fast computation of Bernoulli, tangent and secant numbers",
    2013, Algorithm TangentNumbers).
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"bernoulli requires even m >= 2, got {m}")
    if m // 2 > len(_BERNOULLI):
        n = max(m // 2, 2 * len(_BERNOULLI))
        t = [0, 1]
        for k in range(2, n + 1):
            t.append((k - 1) * t[k - 1])
        for k in range(2, n + 1):
            for j in range(k, n + 1):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        _BERNOULLI[:] = [Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
                         for k in range(1, n + 1)]
    return _BERNOULLI[m // 2 - 1]


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
