"""What every arithmetic class shares: powering by square-and-multiply, and
printing a monomial as name^x factors.

``MultiPoly``, ``GF2Poly``, ``LevelOneForm``, ``QSeries`` and ``FFElem``
each keep their own ``__pow__`` for their own rule on negative exponents,
and call ``power`` for the rest.
"""

from __future__ import annotations


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
