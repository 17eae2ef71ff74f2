"""Weierstrass curves y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

Coefficients live in any exact commutative ring whose elements support
+, -, * and scalar integers (Fraction for numeric work, MultiPoly for
symbolic work).  Operations needing division (group law, j, normalization)
require rational (int or Fraction) coefficients and coordinates.

Points (``WPoint``), curves (``WCurve``) and transforms (``WTransform``) are
records (``tmf3.record``): namedtuples, built positionally or by keyword,
hashable and immutable, that equal only their own type.  A curve unpacks to
its coefficients (a1, a2, a3, a4, a6).

Transformation convention: ``WTransform(lam, r, s, t)`` substitutes
x = x'/lam^2 + r, y = y'/lam^3 + s x'/lam^2 + t internally, so the new
invariants scale as c4' = lam^4 c4, c6' = lam^6 c6, Delta' = lam^12 Delta,
and a point (x, y) maps to (lam^2 (x - r), lam^3 (y - s x + s r - t)).

Integral model (Silverman, AEC III.1).  Every formula here is weighted
homogeneous: a1, a2, a3, a4, a6 have weights 1, 2, 3, 4, 6, a point's x and
y weights 2 and 3, and a change of variables' r, s, t weights 2, 1, 3.  So
for rational inputs v of weights w, with u the lcm of their denominators,
the v * u^w are integers, and a formula of weight W on them is u^W times its
value.  The invariants, the equation and ``transform`` are each written once
and follow one rule.  Values that are all ints, or not all rational, such as
the MultiPoly coefficients of the universal curves, are used as they are.
Values that contain a Fraction go through ``integral_model`` once, the
formula runs on its ints, and the value is divided by u^W once.  So c4, c6
and disc read the b-values of an all-int model, with no second scan.

Group law.  The public group law is ``smul``, n * P for any integer n; it
serves only verify item 5's oracle, the reference for the flex test.  It is
double-and-add on the affine chord-and-tangent rule (Silverman, AEC III.2),
on Fractions.  The input and every point it produces are checked with
``equation_at``.

Tangent frame (Silverman, AEC III.1).  x = x' + x0, y = y' + y0 moves a
point P = (x0, y0) to the origin: then a6 = 0 iff P is on the curve, and the
tangent at P is a3 y = a4 x, vertical iff a3 = 0.  The shear s = a4/a3 lays
it on y' = 0, which meets the curve in x'^3 + a2 x'^2 + a4 x' + a6.  So P is
a flex iff a2 = a4 = a6 = 0 in this frame.  On a smooth cubic a point has
order 3 iff it is a flex (AEC Ex. 3.7), so the frame alone decides and
reaches the Gamma_1(3) normal form y^2 + a1 xy + a3 y = x^3.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm

from .record import record


class CurveError(ValueError):
    pass


# the weights of a1, a2, a3, a4, a6; of a point's x, y; of a change of
# variables' r, s, t
CURVE_WEIGHTS = (1, 2, 3, 4, 6)
POINT_WEIGHTS = (2, 3)
CHANGE_WEIGHTS = (2, 1, 3)


def _has_fraction(values):
    """True iff the values are rational and not all ints: the values that go
    through ``integral_model``."""
    types = set(map(type, values))
    return Fraction in types and types <= {int, Fraction}


def integral_model(values, weights):
    """(u, [v * u^w]) for rational values v of weights w, with u the lcm of
    their denominators: every entry is an int, also when u = 1."""
    u = lcm(*(v.denominator for v in values))
    return u, [v.numerator * (u ** w // v.denominator)
               for v, w in zip(values, weights)]


def _integral(weight):
    """Decorate a WCurve method computing a polynomial of weight ``weight``
    in the coefficients and, if it takes one, the point (x, y): values that
    contain a Fraction are scanned once (``integral_model``), the formula
    runs on the all-int model and its value is divided by u^weight once."""
    def decorate(formula):
        @functools.wraps(formula)
        def method(self, *point):
            values = self.coeffs() + point
            if not _has_fraction(values):
                return formula(self, *point)
            u, v = integral_model(values,
                                  CURVE_WEIGHTS + POINT_WEIGHTS[:len(point)])
            return Fraction(formula(WCurve(*v[:5]), *v[5:]), u ** weight)
        return method
    return decorate


class WPoint(record("WPoint", "x y infinity", defaults=(None, None, False))):
    """Affine point (x, y) or the point at infinity O."""
    __slots__ = ()

    def __repr__(self):
        return "O" if self.infinity else f"({self.x}, {self.y})"


O = WPoint(infinity=True)


class WCurve(record("WCurve", "a1 a2 a3 a4 a6")):
    __slots__ = ()

    def coeffs(self):
        return tuple(self)

    # -- invariants (Deligne / Silverman p. 46) ---------------------------

    @_integral(2)
    def b2(self):
        return self.a1 * self.a1 + 4 * self.a2

    @_integral(4)
    def b4(self):
        return 2 * self.a4 + self.a1 * self.a3

    @_integral(6)
    def b6(self):
        return self.a3 * self.a3 + 4 * self.a6

    @_integral(8)
    def b8(self):
        a1, a2, a3, a4, a6 = self.coeffs()
        return (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4
                + a2 * a3 * a3 - a4 * a4)

    @_integral(4)
    def c4(self):
        b2, b4 = self.b2(), self.b4()
        return b2 * b2 - 24 * b4

    @_integral(6)
    def c6(self):
        b2, b4, b6 = self.b2(), self.b4(), self.b6()
        return -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6

    @_integral(12)
    def disc(self):
        b2, b4, b6, b8 = self.b2(), self.b4(), self.b6(), self.b8()
        return (-(b2 * b2) * b8 - 8 * (b4 * b4 * b4) - 27 * (b6 * b6)
                + 9 * b2 * b4 * b6)

    def j(self):
        d = self.disc()
        if not d:
            raise CurveError("j-invariant of a singular curve")
        return Fraction(self.c4() ** 3, d)

    def is_smooth(self):
        return bool(self.disc())

    # -- membership -------------------------------------------------------

    @_integral(6)
    def equation_at(self, x, y):
        """y^2 + a1 xy + a3 y - x^3 - a2 x^2 - a4 x - a6."""
        a1, a2, a3, a4, a6 = self.coeffs()
        return (y * y + a1 * x * y + a3 * y
                - x * x * x - a2 * x * x - a4 * x - a6)

    # -- group law (chord and tangent, Silverman AEC III.2) --------------

    def smul(self, n: int, P: WPoint) -> WPoint:
        def checked(Q, error="the group law produced {}, which is"):
            if not Q.infinity and self.equation_at(Q.x, Q.y):
                raise CurveError(f"{error.format(Q)} not on the curve")
            return Q

        checked(P, "point {} is")
        if n < 0:
            n, P = -n, checked(_neg(self, P))
        R = O
        while n:
            if n & 1:
                R = checked(_add(self, R, P))
            n >>= 1
            if n:
                P = checked(_add(self, P, P))
        return R


def _neg(C, P):
    """-P, the point (x, -y - a1 x - a3)."""
    if P.infinity:
        return P
    return WPoint(P.x, -P.y - C.a1 * P.x - C.a3)


def _tangent(C, P):
    """The slope of the tangent at P, which is not vertical."""
    a1, a2, a3, a4, _ = C.coeffs()
    x, y = P.x, P.y
    return Fraction(3 * x * x + 2 * a2 * x + a4 - a1 * y, 2 * y + a1 * x + a3)


def _add(C, P, Q):
    """P + Q: minus the third point of C on the line through P and Q (the
    tangent when they are equal)."""
    if P.infinity:
        return Q
    if Q.infinity:
        return P
    if P.x != Q.x:
        slope = Fraction(Q.y - P.y, Q.x - P.x)
    elif P.y + Q.y + C.a1 * P.x + C.a3:
        # same x and Q != -P, so Q = P
        slope = _tangent(C, P)
    else:
        return O
    x = slope * slope + C.a1 * slope - C.a2 - P.x - Q.x
    return _neg(C, WPoint(x, P.y + slope * (x - P.x)))


# -- coordinate transformations ----------------------------------------------

class WTransform(record("WTransform", "lam r s t", defaults=(0, 0, 0))):
    __slots__ = ()

    def inverse(self) -> "WTransform":
        l, r, s, t = Fraction(self.lam), self.r, self.s, self.t
        return WTransform(1 / l, -r * l * l, -s * l, l ** 3 * (s * r - t))


def _translated(a1, a2, a3, a4, a6, r, s, t):
    """The coefficients after x = x' + r, y = y' + s x' + t, of weights
    1, 2, 3, 4, 6."""
    return (a1 + 2 * s,
            a2 - s * a1 + 3 * r - s * s,
            a3 + r * a1 + 2 * t,
            a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
            a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1)


def transform(C: WCurve, T: WTransform) -> WCurve:
    """New curve under T; invariants scale by lam^4, lam^6, lam^12."""
    lam = T.lam
    if lam == 0:
        raise CurveError("transform requires lambda != 0")
    values = C.coeffs() + (T.r, T.s, T.t)
    if not _has_fraction(values):
        return WCurve(*(lam ** w * c
                        for w, c in zip(CURVE_WEIGHTS, _translated(*values))))
    u, v = integral_model(values, CURVE_WEIGHTS + CHANGE_WEIGHTS)
    # a weight-w coefficient is lam^w times its integral value over u^w
    p, q = lam.numerator, lam.denominator * u
    return WCurve(*(Fraction(c * p ** w, q ** w)
                    for w, c in zip(CURVE_WEIGHTS, _translated(*v))))


def transform_point(T: WTransform, P: WPoint) -> WPoint:
    if P.infinity:
        return P
    lam, r, s, t = T.lam, T.r, T.s, T.t
    x, y = P.x, P.y
    return WPoint(lam ** 2 * (x - r), lam ** 3 * (y - s * x + s * r - t))


# -- the Gamma_1(3) curves ---------------------------------------------------

def gamma1_curves(a1, a3):
    """(E, E') for the normal form E: y^2 + a1 xy + a3 y = x^3, where (0, 0)
    has order 3, and its quotient E' = E/<(0, 0)> (Velu):
    y^2 + a1 xy + 3 a3 y = x^3 - 6 a1 a3 x - (9 a3^2 + a1^3 a3).
    a1 and a3 may lie in any ring that holds the integers."""
    return (WCurve(a1, 0, a3, 0, 0),
            WCurve(a1, 0, 3 * a3, -6 * a1 * a3, -(9 * a3 * a3 + a1 ** 3 * a3)))


# -- the tangent frame: the flex test and the Gamma_1(3) normal form --------

def _flex_frame(C: WCurve, P: WPoint):
    """(T, transform(C, T)) for the tangent frame T = (1, x0, s, y0) at a
    flex P, whose image is y^2 + a1 xy + a3 y = x^3; None when P is not a
    flex or its tangent is vertical; CurveError when P is off C."""
    D = transform(C, WTransform(Fraction(1), P.x, 0, P.y))
    if D.a6:
        raise CurveError(f"point {P} is not on the curve")
    if not D.a3:
        return None
    T = WTransform(Fraction(1), P.x, D.a4 / D.a3, P.y)
    F = transform(C, T)
    return None if F.a2 or F.a4 or F.a6 else (T, F)


def is_flex(C: WCurve, P: WPoint):
    """True iff the tangent at P meets C with multiplicity 3 at P; False at
    a vertical tangent (a 2-torsion point)."""
    if P.infinity:
        raise CurveError("flex test needs an affine point")
    frame = _flex_frame(C, P)
    if not C.is_smooth():
        raise CurveError("flex test on a singular curve")
    return frame is not None


def gamma1_normalize(C: WCurve, P: WPoint):
    """Move an order-3 point to the origin with tangent the x-axis.

    Returns (A1, A3, T) with transform(C, T) the curve
    y^2 + A1 xy + A3 y = x^3 and transform_point(T, P) = (0, 0).
    The scaling is fixed at lam = 1 (the residual lambda-torsor rescales
    (A1, A3) to (lam A1, lam^3 A3)).
    """
    if P.infinity:
        raise CurveError("normalization needs an affine point of order 3")
    if not C.is_smooth():
        raise CurveError("normalization needs a smooth curve")
    frame = _flex_frame(C, P)
    if frame is None:
        raise CurveError("point is not 3-torsion")
    T, F = frame
    return F.a1, F.a3, T
