"""Exact q-expansions of modular forms and Eisenstein series.

A QSeries is a truncated power series in q with rational coefficients and an
explicit precision: coefficients are known for q^0 .. q^(prec-1).  They are
stored as a list of integer numerators over one common denominator, reduced
so that gcd(den, numerators) = 1, and products are computed on the ints.
Arithmetic truncates to the minimum precision of the operands, so precision
tracking is automatic and pessimistic.

Provides c4, c6, Delta, the Eisenstein series G_2k, and exact expression of
G_2k in the c4/c6/Delta monomial basis by back-substitution: that basis is
unitriangular in q, since c4^a c6^eps Delta^d = q^d + O(q^(d+1)).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul

from .rationals import bernoulli, sigma_pow
from .ring import Ring


def _canonical(nums, den):
    """(nums, den) divided by gcd(den, nums); ``den`` must be positive."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return [c // g for c in nums], den // g
    return nums, den


class QSeries(Ring):
    """sum nums[n]/den q^n, exact up to (not including) q^prec."""

    __slots__ = ("nums", "den", "prec")

    def __init__(self, coeffs, prec=None):
        coeffs = [Fraction(c) for c in coeffs]
        if prec is None:
            prec = len(coeffs)
        if prec < 1:
            raise ValueError("precision must be >= 1")
        coeffs = coeffs[:prec]
        den = lcm(*(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        self.nums, self.den = _canonical(nums + [0] * (prec - len(nums)), den)
        self.prec = prec

    @classmethod
    def _make(cls, nums, den, prec):
        """Internal: build from prec int numerators over a positive den."""
        self = cls.__new__(cls)
        self.nums, self.den = _canonical(nums, den)
        self.prec = prec
        return self

    @classmethod
    def zero(cls, prec):
        return cls([], prec)

    @classmethod
    def q(cls, prec):
        return cls([0, 1], prec)

    def one(self):
        return QSeries([1], self.prec)

    @property
    def coeffs(self):
        """The known coefficients, as Fractions."""
        return [Fraction(c, self.den) for c in self.nums]

    def __getitem__(self, n):
        if not 0 <= n < self.prec:
            raise IndexError(f"coefficient of q^{n} beyond precision {self.prec}")
        return Fraction(self.nums[n], self.den)

    def is_zero(self):
        return not any(self.nums)

    def __eq__(self, other):
        """Equality of the known coefficients, to the common precision."""
        if isinstance(other, (int, Fraction)):
            other = QSeries([other], self.prec)
        n = min(self.prec, other.prec)
        return ([c * other.den for c in self.nums[:n]]
                == [c * self.den for c in other.nums[:n]])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries([other], self.prec)
        n = min(self.prec, other.prec)
        den = lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        return QSeries._make([a * f1 + b * f2 for a, b in
                              zip(self.nums[:n], other.nums[:n])], den, n)

    def __neg__(self):
        return QSeries._make([-c for c in self.nums], self.den, self.prec)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
            return QSeries._make([c * n for c in self.nums], self.den * d, self.prec)
        n = min(self.prec, other.prec)
        b = other.nums[:n]
        out = [0] * n
        for i, a in enumerate(self.nums[:n]):
            if a:
                out[i:] = map(add, out[i:], map(mul, b, repeat(a)))
        return QSeries._make(out, self.den * other.den, n)

    def __pow__(self, n: int):
        # Ring's, restated so that perfbench/tracer.py times q-series
        # powers apart from the other classes'
        return super().__pow__(n)

    def inverse(self):
        """Multiplicative inverse; requires a unit constant term."""
        if not self.nums[0]:
            raise ZeroDivisionError("inverse of a q-series with zero constant term")
        c = self.coeffs
        inv0 = 1 / c[0]
        out = [inv0]
        for n in range(1, self.prec):
            out.append(-inv0 * sum(c[k] * out[n - k] for k in range(1, n + 1)))
        return QSeries(out, self.prec)

    def shift(self, k: int):
        """Multiply by q^k (k >= 0 keeps precision window at prec)."""
        if k < 0:
            if any(self.nums[:-k]):
                raise ValueError("negative shift of a series with low-order terms")
            return QSeries._make(self.nums[-k:] + [0] * min(-k, self.prec),
                                 self.den, self.prec)
        return QSeries._make(([0] * k + self.nums)[:self.prec], self.den, self.prec)

    def to_text(self, terms=8):
        parts = []
        for n, c in enumerate(self.coeffs[:terms]):
            if c == 0:
                continue
            if n == 0:
                parts.append(str(c))
            elif n == 1:
                parts.append(f"{c}*q")
            else:
                parts.append(f"{c}*q^{n}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^{min(terms, self.prec)})"


# -- the standard level-1 forms ----------------------------------------------

def eisenstein_G(k: int, prec: int) -> QSeries:
    """G_k = -B_k/(2k) + sum_{n>=1} sigma_(k-1)(n) q^n, for even k >= 4."""
    if k < 4 or k % 2 != 0:
        raise ValueError("eisenstein_G needs even weight >= 4")
    coeffs = [-bernoulli(k) / (2 * k)]
    coeffs += [Fraction(sigma_pow(k - 1, n)) for n in range(1, prec)]
    return QSeries(coeffs, prec)


def series_c4(prec: int) -> QSeries:
    """c4 = 1 + 240 sum sigma_3(n) q^n."""
    coeffs = [Fraction(1)] + [240 * Fraction(sigma_pow(3, n))
                              for n in range(1, prec)]
    return QSeries(coeffs, prec)


def series_c6(prec: int) -> QSeries:
    """c6 = 1 - 504 sum sigma_5(n) q^n."""
    coeffs = [Fraction(1)] + [-504 * Fraction(sigma_pow(5, n))
                              for n in range(1, prec)]
    return QSeries(coeffs, prec)


def series_delta(prec: int) -> QSeries:
    """Delta = q prod (1 - q^n)^24 = q (eta^3)^8, where by Jacobi's identity
    eta^3 = prod (1 - q^n)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2); the eighth
    power is three squarings."""
    cube = [0] * prec
    k = 0
    while k * (k + 1) // 2 < prec:
        cube[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    eta3 = QSeries(cube, prec)
    for _ in range(3):
        eta3 = eta3 * eta3
    return eta3.shift(1)


# -- expressing Eisenstein series in c4, c6, Delta ---------------------------

def eisenstein_in_c4c6(k: int) -> dict:
    """Exact expression of G_k as a polynomial in c4, c6, Delta.

    Returns {(a, eps, d): coefficient} with G_k = sum c * c4^a c6^eps Delta^d,
    in ascending a. The weight-k monomials have eps = 1 exactly when
    k = 2 mod 4, and c4^a c6^eps Delta^d = q^d + O(q^(d+1)); so for
    d = 0, 1, ... the coefficient of Delta^d is the q^d coefficient of what is
    left of G_k after the lower powers of Delta are subtracted. What is left
    at the end must vanish to precision (number of monomials) + 10.
    """
    eps = 1 if k % 4 == 2 else 0
    if k % 2 or k < 6 * eps:
        raise ValueError(f"no holomorphic forms of weight {k}")
    n = (k - 6 * eps) // 12 + 1
    prec = n + 10
    c4s, c6s, ds = series_c4(prec), series_c6(prec), series_delta(prec)
    rest = eisenstein_G(k, prec)
    expr = {}
    for d in range(n):
        c = rest[d]
        if c:
            a = (k - 6 * eps - 12 * d) // 4
            s = c4s ** a
            if eps:
                s = s * c6s
            rest = rest - c * (s * ds ** d)
            expr[(a, eps, d)] = c
    if not rest.is_zero():
        raise ValueError("inconsistent system")
    return dict(reversed(expr.items()))


def e_alpha(expr: dict):
    """The explicit building 1-cocycle on G_k, from its expression
    ``expr = eisenstein_in_c4c6(k)``: the pair
    (u (q* - f*) G_k, u (3^k - 1) G_k) with u = 1 for k = 0 mod 4 and
    u = 2 for k = 2 mod 4, returned as (LocElem, LevelOneForm)."""
    from .levelmaps import LevelOneForm, delta_map

    G = LevelOneForm(expr)
    k = G.weight_of()
    u = 1 if k % 4 == 0 else 2
    return u * delta_map(G), (u * (3 ** k - 1)) * G
