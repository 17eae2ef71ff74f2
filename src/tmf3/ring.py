"""What every arithmetic class shares: the ``Ring`` base, powering by
square-and-multiply, and printing a monomial as name^x factors.

``MultiPoly``, ``GF2Poly``, ``LocElem``, ``LevelOneForm``, ``QSeries`` and
``FFElem`` are ``Ring``s. A subclass defines ``+`` and ``*`` (each also
taking an int or Fraction where the class mixes with scalars), unary ``-``
for subtraction, ``one()`` and ``to_text()``, and ``inverse()`` where
elements can be inverted; ``Ring`` derives the reflected and mixed
operators, ``-``, ``/``, ``**`` with its rule for n < 0, and ``repr``.
"""

from __future__ import annotations

from fractions import Fraction


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


class Ring:
    """Operators derived from ``+``, unary ``-``, ``*``, ``one()``,
    ``inverse()`` and ``to_text()``; every ring here is commutative."""

    __slots__ = ()

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        return power(self if n >= 0 else self.inverse(), abs(n), self.one())

    def inverse(self):
        raise ValueError(f"{self!r} is not invertible")

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
