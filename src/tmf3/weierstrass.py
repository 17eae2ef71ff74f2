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
value.  The invariants, the equation and ``transform`` are each written once,
evaluated on those integers and divided by u^W once (``integral_model``).
Inputs that are already integral (u = 1) or not all rational, such as the
MultiPoly coefficients of the universal curves, are used as they are.

Group law.  The public group law is ``smul``, n * P for any integer n.
It runs on the integral model in Jacobian coordinates (X : Y : Z),
x = X/Z^2, y = Y/Z^3, where addition needs no division and the point at
infinity is (1 : 1 : 0).  The point enters once, as (u^2 x, u^3 y, 1), and the result leaves once, as
(X / (uZ)^2, Y / (uZ)^3).  The input and every point the group law
produces are checked on the integral Jacobian equation.

Tangent frame (Silverman, AEC III.1).  x = x' + x0, y = y' + y0 moves a
point P = (x0, y0) to the origin: then a6 = 0 iff P is on the curve, and the
tangent at P is a3 y = a4 x, vertical iff a3 = 0.  The shear s = a4/a3 lays
it on y' = 0, which meets the curve in x'^3 + a2 x'^2 + a4 x' + a6.  So P is
a flex iff a2 = a4 = a6 = 0 in this frame, and the frame of an order-3 point
is the Gamma_1(3) normal form y^2 + a1 xy + a3 y = x^3.
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


def integral_model(values, weights):
    """(u, [v * u^w]) for rational values v of weights w, with u > 1 the lcm
    of their denominators, so that every entry is an int; (1, values)
    unchanged when the values are integral already or not all rational."""
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return 1, values
    u = lcm(*(v.denominator for v in values))
    if u == 1:
        return 1, values
    return u, [v.numerator * (u ** w // v.denominator)
               for v, w in zip(values, weights)]


def _integral(weight):
    """Decorate a WCurve method computing a polynomial of weight ``weight``
    in the coefficients and, if it takes one, the point (x, y): it runs on
    the integral model, and its value is divided by u^weight once."""
    def decorate(formula):
        @functools.wraps(formula)
        def method(self, *point):
            u, v = integral_model(self.coeffs() + point,
                                  CURVE_WEIGHTS + POINT_WEIGHTS[:len(point)])
            if u == 1:
                return formula(self, *point)
            return Fraction(formula(WCurve(*v[:5]), *v[5:]), u ** weight)
        return method
    return decorate


class WPoint(record("WPoint", "x y infinity", defaults=(None, None, False))):
    """Affine point (x, y) or the point at infinity O."""
    __slots__ = ()

    @classmethod
    def O(cls):
        return cls(infinity=True)

    def __repr__(self):
        return "O" if self.infinity else f"({self.x}, {self.y})"


O = WPoint.O()


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
        c4 = self.c4()
        return c4 * c4 * c4 / d

    def is_smooth(self):
        return bool(self.disc())

    # -- membership -------------------------------------------------------

    @_integral(6)
    def equation_at(self, x, y):
        """y^2 + a1 xy + a3 y - x^3 - a2 x^2 - a4 x - a6."""
        a1, a2, a3, a4, a6 = self.coeffs()
        return (y * y + a1 * x * y + a3 * y
                - x * x * x - a2 * x * x - a4 * x - a6)

    # -- group law (Jacobian coordinates on the integral model) -----------

    def _enter(self, P: WPoint):
        """(u, integral coefficients, Jacobian point) for a point on the
        curve, checked on it."""
        affine = () if P.infinity else (P.x, P.y)
        u, v = integral_model(self.coeffs() + affine,
                              CURVE_WEIGHTS + POINT_WEIGHTS[:len(affine)])
        a = v[:5]
        J = (*v[5:], 1) if affine else _JO
        if not _on_curve(a, J):
            raise CurveError(f"point {P} is not on the curve")
        return u, a, J

    def smul(self, n: int, P: WPoint) -> WPoint:
        u, a, J = self._enter(P)
        if n < 0:
            n, J = -n, _produced(a, _jneg(a, J))
        R = _JO
        while n:
            if n & 1:
                R = _produced(a, _jadd(a, R, J))
            n >>= 1
            if n:
                J = _produced(a, _jadd(a, J, J))
        return _affine(u, R)


# -- the Jacobian group law on integral coefficients a = (a1, a2, a3, a4, a6)

_JO = (1, 1, 0)


def _on_curve(a, J):
    """J = (X, Y, Z) satisfies the Jacobian equation: the affine equation
    of the curve with coefficients a_i Z^i at (X, Y), which is Z^6 times
    the equation at (X/Z^2, Y/Z^3)."""
    X, Y, Z = J
    Z2 = Z * Z
    Z3 = Z2 * Z
    C = WCurve(a[0] * Z, a[1] * Z2, a[2] * Z3, a[3] * Z2 * Z2, a[4] * Z3 * Z3)
    return not C.equation_at(X, Y)


def _produced(a, J):
    """J, a point the group law produced, after checking it on the curve."""
    if not _on_curve(a, J):
        raise CurveError(f"the group law produced {J}, which is not on the curve")
    return J


def _jneg(a, J):
    """-J, the point (x, -y - a1 x - a3)."""
    X, Y, Z = J
    return X, -Y - a[0] * X * Z - a[2] * Z * Z * Z, Z


def _jadd(a, J, K):
    """J + K: minus the third point of the curve on the line through J and
    K (the tangent when they are equal)."""
    if not J[2]:
        return K
    if not K[2]:
        return J
    a1, a2, a3, a4, a6 = a
    X1, Y1, Z1 = J
    X2, Y2, Z2 = K
    # both points over the common Z0: x_i = U_i / Z0^2, y_i = S_i / Z0^3
    Z0, Z1s, Z2s = Z1 * Z2, Z1 * Z1, Z2 * Z2
    U1, U2 = X1 * Z2s, X2 * Z1s
    S1, S2 = Y1 * Z2s * Z2, Y2 * Z1s * Z1
    if U1 != U2:
        H, L = U2 - U1, S2 - S1
    else:
        # K = -J when y1 + y2 + a1 x + a3 = 0; otherwise K = J and H is the
        # tangent's denominator 2 y1 + a1 x1 + a3, times Z0^3
        H = S1 + S2 + a1 * U1 * Z0 + a3 * Z0 * Z0 * Z0
        if not H:
            return _JO
        Z02 = Z0 * Z0
        L = 3 * U1 * U1 + 2 * a2 * U1 * Z02 + a4 * Z02 * Z02 - a1 * S1 * Z0
    # the slope is L / Z3; x1 = U1 H^2 / Z3^2 and y1 = S1 H^3 / Z3^3
    Z3 = Z0 * H
    H2 = H * H
    X3 = L * L + a1 * L * Z3 - a2 * Z3 * Z3 - (U1 + U2) * H2
    return _jneg(a, (X3, L * (X3 - U1 * H2) + S1 * H2 * H, Z3))


def _affine(u, J):
    """The affine point of J on the curve whose integral model is scaled by u."""
    X, Y, Z = J
    if not Z:
        return O
    uZ = u * Z
    return WPoint(Fraction(X, uZ * uZ), Fraction(Y, uZ * uZ * uZ))


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
    u, v = integral_model(C.coeffs() + (T.r, T.s, T.t),
                          CURVE_WEIGHTS + CHANGE_WEIGHTS)
    if u == 1:
        return WCurve(*(lam ** w * c
                        for w, c in zip(CURVE_WEIGHTS, _translated(*v))))
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

def _tangent_frame(C: WCurve, P: WPoint):
    """(T, transform(C, T)) for the tangent frame T = (1, x0, s, y0) at P,
    or None when the tangent is vertical; CurveError when P is off C."""
    D = transform(C, WTransform(Fraction(1), P.x, 0, P.y))
    if D.a6:
        raise CurveError(f"point {P} is not on the curve")
    if not D.a3:
        return None
    T = WTransform(Fraction(1), P.x, D.a4 / D.a3, P.y)
    return T, transform(C, T)


def is_flex(C: WCurve, P: WPoint):
    """True iff the tangent at P meets C with multiplicity 3 at P; False at
    a vertical tangent (a 2-torsion point)."""
    if P.infinity:
        raise CurveError("flex test needs an affine point")
    frame = _tangent_frame(C, P)
    if not C.is_smooth():
        raise CurveError("flex test on a singular curve")
    if frame is None:
        return False
    F = frame[1]
    return not (F.a2 or F.a4 or F.a6)


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
    if not C.smul(3, P).infinity:
        raise CurveError("point is not 3-torsion")
    frame = _tangent_frame(C, P)
    if frame is None:
        # tangent vertical: P would be 2-torsion, contradicting order 3
        raise CurveError("vertical tangent at an order-3 point")
    T, F = frame
    if F.a2 or F.a4 or F.a6:
        raise CurveError("point is not a flex: normal form not reached")
    return F.a1, F.a3, T
