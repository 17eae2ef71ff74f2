"""Exact q-expansions of modular forms and Eisenstein series.

A QSeries is a truncated power series in q with rational coefficients and an
explicit precision: coefficients are known for q^0 .. q^(prec-1).  They are
stored as a list of integer numerators over one common denominator, reduced
by ``tmf3.ring``'s rule to gcd(den, numerators) = 1, and products are
computed on the ints.
Arithmetic truncates to the minimum precision of the operands, so precision
tracking is automatic and pessimistic.

Provides c4, c6, Delta, the Eisenstein series G_2k, and G_2k as a
``LevelOneForm`` by back-substitution: the c4/c6/Delta monomial basis is
unitriangular in q, since c4^a c6^eps Delta^d = q^d + O(q^(d+1)).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import add, mul

from .levelmaps import LevelOneForm, cochain_D0, monomial_images
from .rationals import bernoulli, sigma_pow
from .ring import (DomainError, Ring, integral_model, lowest_terms,
                   monomial_text)


class QSeries(Ring):
    """sum nums[n]/den q^n, exact up to (not including) q^prec."""

    __slots__ = ("nums", "den", "prec")

    def __init__(self, coeffs, prec=None):
        coeffs = [Fraction(c) for c in coeffs]
        if prec is None:
            prec = len(coeffs)
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.den, nums = integral_model(coeffs[:prec], repeat(1))
        self.nums = nums + [0] * (prec - len(nums))
        self.prec = prec

    @classmethod
    def _make(cls, nums, den, prec):
        """Internal: build from prec int numerators over a positive den."""
        self = cls.__new__(cls)
        self.nums, self.den = lowest_terms(nums, den)
        self.prec = prec
        return self

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
        if (other := self._lift(other)) is None:
            return NotImplemented
        n = min(self.prec, other.prec)
        return ([c * other.den for c in self.nums[:n]]
                == [c * self.den for c in other.nums[:n]])

    def __add__(self, other):
        if (other := self._lift(other)) is None:
            return NotImplemented
        n = min(self.prec, other.prec)
        den = lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        return QSeries._make([a * f1 + b * f2 for a, b in
                              zip(self.nums[:n], other.nums[:n])], den, n)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
            return QSeries._make([c * n for c in self.nums], self.den * d, self.prec)
        if (other := self._lift(other)) is None:
            return NotImplemented
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

    def to_text(self, terms=8):
        parts = []
        for n, c in enumerate(self.coeffs[:terms]):
            if c:
                mono = monomial_text(("q",), (n,))
                parts.append(f"{c}*{mono}" if mono else str(c))
        body = " + ".join(parts) or "0"
        return f"{body} + O(q^{min(terms, self.prec)})"


# -- the standard level-1 forms ----------------------------------------------

def eisenstein_G(k: int, prec: int) -> QSeries:
    """G_k = -B_k/(2k) + sum_{n>=1} sigma_(k-1)(n) q^n, for even k >= 4."""
    if k < 4 or k % 2 != 0:
        raise ValueError("eisenstein_G needs even weight >= 4")
    coeffs = [-bernoulli(k) / (2 * k)]
    coeffs += [sigma_pow(k - 1, n) for n in range(1, prec)]
    return QSeries(coeffs, prec)


def series_c4(prec: int) -> QSeries:
    """c4 = 1 + 240 sum sigma_3(n) q^n."""
    return QSeries([1] + [240 * sigma_pow(3, n) for n in range(1, prec)], prec)


def series_c6(prec: int) -> QSeries:
    """c6 = 1 - 504 sum sigma_5(n) q^n."""
    return QSeries([1] + [-504 * sigma_pow(5, n) for n in range(1, prec)], prec)


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
    return QSeries._make([0] + eta3.nums[:prec - 1], eta3.den, prec)


# -- expressing Eisenstein series in c4, c6, Delta ---------------------------

def check_weight(k: int) -> None:
    """The weight rule of ``eisenstein_in_c4c6``: a DomainError unless
    weight k has holomorphic forms (k even, and k >= 6 when k = 2 mod 4)
    and G_k is defined (k >= 4)."""
    if k % 2 or k < (6 if k % 4 == 2 else 0):
        raise DomainError(f"no holomorphic forms of weight {k}")
    if k < 4:
        raise DomainError("eisenstein_G needs even weight >= 4")


def eisenstein_in_c4c6(ks) -> dict:
    """{k: G_k as a LevelOneForm in c4, c6, Delta} for each weight k in
    ``ks``, each in ascending power of c4.

    The weight-k monomials have eps = 1 exactly when k = 2 mod 4, and
    c4^a c6^eps Delta^d = q^d + O(q^(d+1)); so for d = 0, 1, ... the
    coefficient of Delta^d is the q^d coefficient of what is left of G_k
    after the lower powers of Delta are subtracted. What is left at the end
    must vanish to precision (number of monomials) + 10.  The series of the
    monomials of every weight come from one ``monomial_images`` table at
    the largest of these precisions; a difference of q-series has the lower
    precision of the two, so each G_k is still solved and checked to its
    own.
    """
    bases = {}
    for k in ks:
        check_weight(k)
        eps = 1 if k % 4 == 2 else 0
        bases[k] = [((k - 6 * eps - 12 * d) // 4, eps, d)
                    for d in range((k - 6 * eps) // 12 + 1)]
    top = max(map(len, bases.values()), default=0) + 10
    images = monomial_images(chain.from_iterable(bases.values()), series_c4(top),
                             series_c6(top), series_delta(top))
    exprs = {}
    for k, basis in bases.items():
        rest = eisenstein_G(k, len(basis) + 10)
        terms = {}
        for key in basis:
            c = rest[key[2]]
            if c:
                rest = rest - c * images[key]
                terms[key] = c
        if not rest.is_zero():
            raise ValueError(f"G_{k} has no expression in c4, c6, Delta: "
                             "inconsistent system")
        # the basis runs down in the power of c4
        exprs[k] = LevelOneForm(dict(reversed(terms.items())))
    return exprs


def e_alpha(G):
    """The explicit building 1-cocycle on G_k = ``eisenstein_in_c4c6([k])[k]``:
    D0(u G_k) = (u (q* - f*) G_k, u (h* - 1) G_k) with u = 1 for k = 0 mod 4
    and u = 2 for k = 2 mod 4, returned as (LocElem, LevelOneForm)."""
    u = 1 if G.weight_of() % 4 == 0 else 2
    return cochain_D0(u * G)
