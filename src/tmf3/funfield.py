"""Function field of the universal curve y^2 + a1 xy + a3 y = x^3.

Elements are (u + v*y) / (x^i * a3^j) with u, v ``MultiPoly``s in
(a1, a3, x) of weights (1, 3, 2); multiplication uses the reduction
y^2 = x^3 - (a1 x + a3) y.  The conjugate ybar = -y - a1 x - a3 satisfies
y * ybar = -x^3, and translation by (0,0) sends (x, y) to
(-a3 y / x^2, -a3^2 y / x^3), so the isogeny checks only ever invert units:
elements whose norm is a constant times a monomial in x and a3, inverted as
conjugate over norm.

Provides the translation-by-(0,0) pullback sigma*, the degree-3 quotient
coordinates (X, Y), the quotient curve, and the exact verification that
(X, Y) defines an isogeny pulling the invariant differential back to itself.
"""

from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly, _leading_zeros
from .ring import DomainError, Ring, ladder, monomial_text
from .weierstrass import WCurve, gamma1_curves

VARS = ("a1", "a3", "x")

_A1 = MultiPoly.gen("a1", VARS)
_A3 = MultiPoly.gen("a3", VARS)
_X = MultiPoly.gen("x", VARS)
_X3 = _X ** 3
_S = _A1 * _X + _A3     # y + ybar = -(a1 x + a3)


def _shift(p: MultiPoly, dx: int, da3: int) -> MultiPoly:
    """p * x^dx * a3^da3, for shifts that keep every exponent >= 0."""
    return p._shift((0, da3, dx))


def _euler(p: MultiPoly, i: int) -> MultiPoly:
    """x * dp/dx - i * p: each group's list runs over the power k of x."""
    return MultiPoly._new({key: [c * (k - i) for k, c in enumerate(cs)]
                           for key, cs in p.groups.items()},
                          p.den, p.vars, p.weights)


class FFElem(Ring):
    """(u + v*y) / (x^i * a3^j), with den = (i, j) and the common power of
    x and of a3 stripped from u, v and the denominator, so that equal
    elements have equal fields."""

    __slots__ = ("u", "v", "den")

    def __init__(self, u=0, v=0, den=(0, 0)):
        u, v = _X._lift(u), _X._lift(v)
        i, j = den
        groups = [*u.groups.items(), *v.groups.items()]
        if not groups:
            i = j = 0
        # a weight group's list runs over the power of x, and its key's
        # second entry is the power of a3
        di = min(i, *(_leading_zeros(cs) for _, cs in groups)) if i else 0
        dj = min(j, *(key[1] for key, _ in groups)) if j else 0
        if di or dj:
            u, v = _shift(u, -di, -dj), _shift(v, -di, -dj)
        self.u, self.v, self.den = u, v, (i - di, j - dj)

    @classmethod
    def x(cls):
        return cls(_X)

    @classmethod
    def y(cls):
        return cls(0, 1)

    def one(self):
        return FFElem(1)

    def is_zero(self):
        return not (self.u or self.v)

    def _lift(self, x):
        """A MultiPoly p as p + 0*y, and a scalar as for every Ring."""
        return FFElem(x) if isinstance(x, MultiPoly) else super()._lift(x)

    def _key(self):
        return self.u, self.v, self.den

    def __add__(self, other):
        if (other := self._lift(other)) is None:
            return NotImplemented
        (i1, j1), (i2, j2) = self.den, other.den
        i, j = max(i1, i2), max(j1, j2)
        return FFElem(_shift(self.u, i - i1, j - j1) + _shift(other.u, i - i2, j - j2),
                      _shift(self.v, i - i1, j - j1) + _shift(other.v, i - i2, j - j2),
                      (i, j))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FFElem(self.u * other, self.v * other, self.den)
        if (other := self._lift(other)) is None:
            return NotImplemented
        u1, v1, u2, v2 = self.u, self.v, other.u, other.v
        # (u1 + v1 y)(u2 + v2 y), with y^2 = x^3 - (a1 x + a3) y
        vv = v1 * v2
        return FFElem(u1 * u2 + vv * _X3, u1 * v2 + u2 * v1 - vv * _S,
                      (self.den[0] + other.den[0], self.den[1] + other.den[1]))

    def conj(self) -> "FFElem":
        """Image under y -> ybar = -y - a1 x - a3."""
        return FFElem(self.u - self.v * _S, -self.v, self.den)

    def inv(self) -> "FFElem":
        """Inverse of a unit: raises DomainError unless the norm is a
        constant times a monomial in x and a3."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in the function field")
        n = self * self.conj()      # the norm, with no y part
        if len(n.u.terms) != 1 or next(iter(n.u.terms))[0]:
            raise DomainError(f"{self} is not a unit: its norm is not "
                             "a constant times a monomial in x and a3")
        ((_, e3, ex), c), = n.u.terms.items()
        ni, nj = n.den
        inv_norm = FFElem(_shift(_X._lift(Fraction(n.u.den, c)), ni, nj), 0, (ex, e3))
        return self.conj() * inv_norm

    inverse = inv

    def to_text(self):
        s = f"({self.u.to_text()}) + ({self.v.to_text()})*y"
        den = monomial_text(("x", "a3"), self.den)
        return f"({s}) / ({den})" if den else s


# sigma(x, y) = (-a3 y / x^2, -a3^2 y / x^3)
_SIGMA_X = FFElem(0, -_A3, (2, 0))
_SIGMA_Y = FFElem(0, -_A3 * _A3, (3, 0))


def sigma_pullback(e: FFElem) -> FFElem:
    """Pullback along translation by P0 = (0,0), term by term:
    sigma(x, y) = (-a3 y / x^2, -a3^2 y / x^3) and a1, a3 are fixed.  A term
    with x^n over x^i takes sigma*(x)^(n - i), of either sign, from one
    ``ladder`` per call."""
    i, j = e.den
    parts = ((e.u, None), (e.v, _SIGMA_Y))
    powers = ladder(_SIGMA_X, [ex - i for p, _ in parts for (_, _, ex) in p.terms])
    result = FFElem(0)
    for p, sy in parts:
        for (e1, e3, ex), c in p.terms.items():
            term = FFElem(MultiPoly({(e1, e3, 0): Fraction(c, p.den)}, VARS), 0, (0, j))
            # a factor 1 is left out
            for factor in (sy, powers.get(ex - i)):
                if factor is not None:
                    term = term * factor
            result = result + term
    return result


def velu3():
    """Quotient data for the degree-3 isogeny with kernel {O, P0, -P0}.

    Returns (Cprime, X, Y): the quotient curve of ``gamma1_curves`` and the
    trace coordinates X = x + s*x + s*s*x, Y likewise.
    """
    X, Y = (t + sigma_pullback(t) + sigma_pullback(sigma_pullback(t))
            for t in (FFElem.x(), FFElem.y()))
    return gamma1_curves(_A1, _A3)[1], X, Y


def velu3_closed_form():
    """The closed-form coordinates X = x - a3 y/x^2 + a3 x/y,
    Y = y - a3^2 y/x^3 - a3 x^3/y^2."""
    x = FFElem.x()
    y = FFElem.y()
    a3 = FFElem(_A3)
    X = x - a3 * y / (x * x) + a3 * x / y
    Y = y - (a3 * a3) * y / x ** 3 - a3 * x ** 3 / (y * y)
    return X, Y


def verify_isogeny(Cprime, X, Y):
    """Exact checks that (X, Y) maps the universal curve onto Cprime
    with phi* eta' = eta, as for ``verify_isogeny(*velu3())``.  Returns a
    dict of named boolean results."""
    report = {}

    # (i) the image satisfies the Weierstrass equation of Cprime
    report["equation"] = (WCurve(*map(FFElem, Cprime.coeffs()))
                          .equation_at(X, Y).is_zero())

    # (ii) phi* eta' = eta, without division: the derivation
    # (2y + a1 x + a3) d/dx + (3x^2 - a1 y) d/dy of the function field
    # sends X to 2Y + a1 X + 3 a3.  For X = (u + v y) / (x^i a3^j),
    # dX/dx = ((x u' - i u) + (x v' - i v) y) / (x^(i+1) a3^j), dX/dy = v / (x^i a3^j).
    i, j = X.den
    dXdx = FFElem(_euler(X.u, i), _euler(X.v, i), (i + 1, j))
    dXdy = FFElem(X.v, 0, X.den)
    lhs2 = dXdx * FFElem(_S, 2) + dXdy * FFElem(3 * _X * _X, -_A1)
    report["differential"] = lhs2 == Y + Y + FFElem(_A1) * X + FFElem(3 * _A3)

    # (iii) sigma* has order 3 on the coordinate generators
    x, y = FFElem.x(), FFElem.y()
    report["sigma_order_3"] = (
        sigma_pullback(sigma_pullback(sigma_pullback(x))) == x
        and sigma_pullback(sigma_pullback(sigma_pullback(y))) == y)

    # (iv) X and Y are sigma*-invariant (they are trace sums)
    report["sigma_invariant"] = (sigma_pullback(X) == X
                                 and sigma_pullback(Y) == Y)

    # (v) trace form agrees with the closed form
    Xc, Yc = velu3_closed_form()
    report["closed_form"] = (X == Xc and Y == Yc)
    return report

