"""What every arithmetic class shares: the ``Ring`` base, powering by
square-and-multiply, and printing a monomial as name^x factors.

``MultiPoly``, ``GF2Poly``, ``LocElem``, ``LevelOneForm``, ``QSeries`` and
``FFElem`` are ``Ring``s. A subclass defines ``+`` and ``*`` (each also
taking an int or Fraction where the class mixes with scalars), ``one()``,
``is_zero()``, ``to_text()``, ``_key()`` (its canonical fields) and
``inverse()`` where elements can be inverted; ``Ring`` derives ``==`` and
``hash`` from ``_key()``, with ``_lift`` taking a scalar c to c * one() and
declining an operand of another class, truth (a zero is falsy), the
reflected and mixed operators, unary and binary ``-``, ``/``, ``**`` with
its rule for n < 0, and ``str`` and ``repr``.
``ladder`` takes several powers of one element from one table. Every rule
that rejects a user's input raises the one ``DomainError``.
The rule for int numerators over one denominator: ``integral_model`` clears
denominators, for the curves and the constructors from rationals, and
``lowest_terms`` divides out the gcd of a computed ``LevelOneForm`` or
``QSeries``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class DomainError(ValueError):
    """Well-formed input that asks for an undefined operation."""


def integral_model(values, weights):
    """(u, [v * u^w]) for rational values v of weights w, with u the lcm of
    their denominators: every entry is an int, also when u = 1, and with
    every weight 1 the entries over u are in lowest terms."""
    u = lcm(*(v.denominator for v in values))
    return u, [v.numerator * (u ** w // v.denominator)
               for v, w in zip(values, weights)]


def lowest_terms(nums, den):
    """(nums, den) divided by gcd(den, nums) for a list of ints over a
    positive den, so an empty or all-zero list gets den 1."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return [n // g for n in nums], den // g
    return nums, den


def power(x, n: int, one):
    """x^n for n >= 0 by square-and-multiply from ``one``; the last
    squaring, whose result nothing would use, is skipped."""
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def ladder(x, exponents):
    """{n: x^n} for 1 and each n != 0 in ``exponents`` (0 is left out), from
    one table built upward: the least exponent by ``x ** n``, and each
    further one as the power below it times x^gap, where a step x^gap is
    made once and kept in the table.  The exponents of c4 in a homogeneous
    level-1 form step by 3, and those of Delta by 1, so one step serves all
    their powers past the least.  A negative n, as for Delta^-1 or a pole
    of the function field, is taken from a second such table of
    ``x.inverse()``, made only when one is asked for."""
    table = _upward(x, [n for n in exponents if n > 0])
    below = [-n for n in exponents if n < 0]
    if below:
        table.update((-n, p) for n, p in _upward(x.inverse(), below).items())
    return table


def _upward(x, exponents):
    table = {1: x}
    below = 0
    for n in sorted(set(exponents)):
        if n not in table:
            gap = n - below
            if gap not in table:
                table[gap] = x ** gap
            if gap != n:
                table[n] = table[below] * table[gap]
        below = n
    return table


class Ring:
    """Operators derived from ``+``, ``*``, ``one()``, ``is_zero()``,
    ``inverse()``, ``to_text()`` and ``_key()``; every ring here is
    commutative, and equal values have equal keys. An operator whose operand
    ``_lift`` declines returns NotImplemented, so Python tries the reflected
    operator of the other operand, or raises TypeError."""

    __slots__ = ()

    def _lift(self, x):
        """x as an element of this ring: a scalar c as c * one(), an element
        of exactly this class as it is, and None for anything else."""
        if type(x) is type(self):
            return x
        return self.one() * x if isinstance(x, (int, Fraction)) else None

    def __eq__(self, other):
        if (other := self._lift(other)) is None:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __bool__(self):
        return not self.is_zero()

    def __neg__(self):
        return self * -1

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        if (other := self._lift(other)) is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if (other := self._lift(other)) is None:
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, n: int):
        return power(self if n >= 0 else self.inverse(), abs(n), self.one())

    def inverse(self):
        raise DomainError(f"{self!r} is not invertible")

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()})"


def monomial_text(names, exps) -> str:
    """The factors name^x joined by "*": the bare name for x = 1 and
    nothing for x = 0, so the empty monomial is ""."""
    return "*".join(name if x == 1 else f"{name}^{x}"
                    for name, x in zip(names, exps) if x)


def terms_text(names, terms) -> str:
    """{exponents: coefficient} as "c*monomial + ...", in descending order
    of the exponent tuples; "0" when there are no terms."""
    parts = []
    for e in sorted(terms, reverse=True):
        mono = monomial_text(names, e)
        parts.append(f"{terms[e]}*{mono}" if mono else str(terms[e]))
    return " + ".join(parts) or "0"
