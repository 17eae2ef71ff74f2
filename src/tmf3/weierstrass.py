"""Weierstrass curves y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

Coefficients live in any exact commutative ring whose elements support
+, -, * and scalar integers (Fraction for numeric work, MultiPoly for
symbolic work).  Operations needing division (group law, j, normalization)
require Fraction coefficients.

Points (``WPoint``), curves (``WCurve``) and transforms (``WTransform``) are
frozen records (``tmf3.record``): built positionally or by keyword, equal by
type and fields, hashable and immutable.

Transformation convention: ``WTransform(lam, r, s, t)`` substitutes
x = x'/lam^2 + r, y = y'/lam^3 + s x'/lam^2 + t internally, so the new
invariants scale as c4' = lam^4 c4, c6' = lam^6 c6, Delta' = lam^12 Delta,
and a point (x, y) maps to (lam^2 (x - r), lam^3 (y - s x + s r - t)).
"""

from __future__ import annotations

from fractions import Fraction

from .record import Record


class CurveError(ValueError):
    pass


class WPoint(Record):
    """Affine point (x, y) or the point at infinity O."""
    __slots__ = ("x", "y", "infinity")
    _defaults = {"x": None, "y": None, "infinity": False}

    @classmethod
    def O(cls):
        return cls(infinity=True)

    def __repr__(self):
        return "O" if self.infinity else f"({self.x}, {self.y})"


O = WPoint.O()


class WCurve(Record):
    __slots__ = ("a1", "a2", "a3", "a4", "a6")

    def coeffs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    # -- invariants (Deligne / Silverman p. 46) ---------------------------

    def b2(self):
        return self.a1 * self.a1 + 4 * self.a2

    def b4(self):
        return 2 * self.a4 + self.a1 * self.a3

    def b6(self):
        return self.a3 * self.a3 + 4 * self.a6

    def b8(self):
        a1, a2, a3, a4, a6 = self.coeffs()
        return (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4
                + a2 * a3 * a3 - a4 * a4)

    def c4(self):
        b2, b4 = self.b2(), self.b4()
        return b2 * b2 - 24 * b4

    def c6(self):
        b2, b4, b6 = self.b2(), self.b4(), self.b6()
        return -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6

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

    def equation_at(self, x, y):
        """y^2 + a1 xy + a3 y - x^3 - a2 x^2 - a4 x - a6."""
        a1, a2, a3, a4, a6 = self.coeffs()
        return (y * y + a1 * x * y + a3 * y
                - x * x * x - a2 * x * x - a4 * x - a6)

    def contains(self, P: WPoint):
        if P.infinity:
            return True
        return not self.equation_at(P.x, P.y)

    def check_point(self, P: WPoint):
        if not self.contains(P):
            raise CurveError(f"point {P} is not on the curve")

    # -- group law (chord and tangent) ------------------------------------

    def neg(self, P: WPoint) -> WPoint:
        self.check_point(P)
        if P.infinity:
            return P
        return WPoint(P.x, -P.y - self.a1 * P.x - self.a3)

    def add(self, P: WPoint, Q: WPoint) -> WPoint:
        self.check_point(P)
        self.check_point(Q)
        if P.infinity:
            return Q
        if Q.infinity:
            return P
        a1, a2, a3, a4, a6 = self.coeffs()
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        if x1 == x2:
            if y1 + y2 + a1 * x2 + a3 == 0:
                return O
            den = 2 * y1 + a1 * x1 + a3
            lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
            nu = (-(x1 * x1 * x1) + a4 * x1 + 2 * a6 - a3 * y1) / den
        else:
            lam = (y2 - y1) / (x2 - x1)
            nu = (y1 * x2 - y2 * x1) / (x2 - x1)
        x3 = lam * lam + a1 * lam - a2 - x1 - x2
        y3 = -(lam + a1) * x3 - nu - a3
        return WPoint(x3, y3)

    def smul(self, n: int, P: WPoint) -> WPoint:
        self.check_point(P)
        if n < 0:
            return self.smul(-n, self.neg(P))
        R = O
        Q = P
        while n:
            if n & 1:
                R = self.add(R, Q)
            Q = self.add(Q, Q)
            n >>= 1
        return R

    def tangent_slope(self, P: WPoint):
        """Slope of the tangent at an affine point; None when vertical."""
        self.check_point(P)
        if P.infinity:
            raise CurveError("tangent at the point at infinity")
        a1, a2, a3, a4, a6 = self.coeffs()
        den = 2 * P.y + a1 * P.x + a3
        if den == 0:
            return None
        return (3 * P.x * P.x + 2 * a2 * P.x + a4 - a1 * P.y) / den


# -- flex test ---------------------------------------------------------------

def is_flex(C: WCurve, P: WPoint):
    """True iff the tangent at P meets C with multiplicity 3 at P.

    Computed by restricting the curve to the tangent line and checking that
    the resulting cubic in x is exactly (x - x0)^3.  Vertical tangents
    (2-torsion points) are reported as not-flex.
    """
    if P.infinity:
        raise CurveError("flex test needs an affine point")
    C.check_point(P)
    if not C.is_smooth():
        raise CurveError("flex test on a singular curve")
    m = C.tangent_slope(P)
    if m is None:
        return False
    a1, a2, a3, a4, a6 = C.coeffs()
    x0, y0 = P.x, P.y
    # line y = y0 + m (x - x0); cubic G(x) = x^3 + ... - (line substituted)
    # G has roots at the three intersection x's; triple root <=> (x - x0)^3.
    b = y0 - m * x0
    # G(x) = x^3 + (a2 - m^2 - a1 m) x^2 + (a4 - 2mb - a1 b - a3 m) x
    #        + (a6 - b^2 - a3 b)   [sign: curve minus line-substitution]
    c2 = a2 - m * m - a1 * m
    c1 = a4 - 2 * m * b - a1 * b - a3 * m
    c0 = a6 - b * b - a3 * b
    # want x^3 + c2 x^2 + c1 x + c0 == (x - x0)^3
    ok = (c2 == -3 * x0) and (c1 == 3 * x0 * x0) and (c0 == -(x0 * x0 * x0))
    return ok


# -- coordinate transformations ----------------------------------------------

class WTransform(Record):
    __slots__ = ("lam", "r", "s", "t")
    _defaults = {"r": 0, "s": 0, "t": 0}

    def compose(self, other: "WTransform") -> "WTransform":
        """Transform equal to applying self first, then other."""
        l1, r1, s1, t1 = self.lam, self.r, self.s, self.t
        l2, r2, s2, t2 = other.lam, other.r, other.s, other.t
        inv1 = Fraction(1) / Fraction(l1) if not hasattr(l1, "terms") else None
        if inv1 is None:
            raise CurveError("composition needs invertible scalar lambda")
        return WTransform(
            l1 * l2,
            r1 + r2 * inv1 ** 2,
            s1 + s2 * inv1,
            t1 + t2 * inv1 ** 3 + s1 * r2 * inv1 ** 2,
        )

    def inverse(self) -> "WTransform":
        l, r, s, t = Fraction(self.lam), self.r, self.s, self.t
        return WTransform(1 / l, -r * l * l, -s * l, l ** 3 * (s * r - t))


def transform(C: WCurve, T: WTransform) -> WCurve:
    """New curve under T; invariants scale by lam^4, lam^6, lam^12."""
    lam, r, s, t = T.lam, T.r, T.s, T.t
    if lam == 0:
        raise CurveError("transform requires lambda != 0")
    a1, a2, a3, a4, a6 = C.coeffs()
    return WCurve(
        lam * (a1 + 2 * s),
        lam ** 2 * (a2 - s * a1 + 3 * r - s * s),
        lam ** 3 * (a3 + r * a1 + 2 * t),
        lam ** 4 * (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1
                    + 3 * r * r - 2 * s * t),
        lam ** 6 * (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3
                    - t * t - r * t * a1),
    )


def transform_point(T: WTransform, P: WPoint) -> WPoint:
    if P.infinity:
        return P
    lam, r, s, t = T.lam, T.r, T.s, T.t
    x, y = P.x, P.y
    return WPoint(lam ** 2 * (x - r), lam ** 3 * (y - s * x + s * r - t))


# -- Gamma_1(3) normalization ------------------------------------------------

def gamma1_normalize(C: WCurve, P: WPoint):
    """Move an order-3 point to the origin with tangent the x-axis.

    Returns (A1, A3, T) with transform(C, T) the curve
    y^2 + A1 xy + A3 y = x^3 and transform_point(T, P) = (0, 0).
    The scaling is fixed at lam = 1 (the residual lambda-torsor rescales
    (A1, A3) to (lam A1, lam^3 A3)).
    """
    if P.infinity:
        raise CurveError("normalization needs an affine point of order 3")
    C.check_point(P)
    if not C.is_smooth():
        raise CurveError("normalization needs a smooth curve")
    if not C.smul(3, P).infinity:
        raise CurveError("point is not 3-torsion")
    # step 1: translate P to the origin
    T1 = WTransform(Fraction(1), P.x, Fraction(0), P.y)
    C1 = transform(C, T1)
    if C1.a6 != 0:
        raise CurveError("translation failed to put P on the curve origin")
    # step 2: shear the tangent line a3 y = a4 x onto the x-axis
    if C1.a3 == 0:
        # tangent vertical: P would be 2-torsion, contradicting order 3
        raise CurveError("vertical tangent at an order-3 point")
    T2 = WTransform(Fraction(1), Fraction(0), C1.a4 / C1.a3, Fraction(0))
    C2 = transform(C1, T2)
    if C2.a2 != 0 or C2.a4 != 0 or C2.a6 != 0:
        raise CurveError("point is not a flex: normal form not reached")
    T = T1.compose(T2)
    return C2.a1, C2.a3, T
