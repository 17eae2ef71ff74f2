import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tmf3 import weierstrass
from tmf3.multipoly import MultiPoly, a1, a3, disc_factor
from tmf3.weierstrass import (WCurve, WPoint, O, WTransform, CurveError,
                              transform, transform_point, gamma1_normalize,
                              is_flex, integral_model)


def frac(n, d=1):
    return Fraction(n, d)


def test_invariants_of_a_concrete_curve():
    C = WCurve(0, 0, 1, -1, 0)
    assert C.b2() == 0
    assert C.c4() == 48
    assert C.c6() == -216
    assert C.disc() == 37
    assert C.c4() ** 3 - C.c6() ** 2 == 1728 * C.disc()


def test_invariant_identity_on_random_curves():
    rng = random.Random(7)
    for _ in range(30):
        C = WCurve(*[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                     for _ in range(5)])
        assert C.c4() ** 3 - C.c6() ** 2 == 1728 * C.disc()


def test_symbolic_normal_form_discriminant():
    zero = MultiPoly.zero()
    C = WCurve(a1(), zero, a3(), zero, zero)
    assert (C.disc() - a3() ** 3 * disc_factor()).is_zero()
    assert (C.c4() - (a1() ** 4 - 24 * a1() * a3())).is_zero()


def test_symbolic_quotient_discriminant():
    zero = MultiPoly.zero()
    C = WCurve(a1(), zero, 3 * a3(), -6 * a1() * a3(),
               -(9 * a3() ** 2 + a1() ** 3 * a3()))
    assert (C.disc() - a3() * disc_factor() ** 3).is_zero()


def test_group_law_basics():
    C = WCurve(0, 0, 1, -1, 0)  # rank-1 curve, P = (0,0) of infinite order
    P = WPoint(frac(0), frac(0))
    assert not C.equation_at(P.x, P.y)
    assert C.smul(0, P) == O and C.smul(1, P) == P
    negP = C.smul(-1, P)
    assert C.smul(-1, negP) == P
    twoP = C.smul(2, P)
    assert C.smul(-1, twoP) == C.smul(2, negP) == C.smul(-2, P)
    # m (n P) = (m n) P regroups the ladder's sums
    assert C.smul(3, twoP) == C.smul(2, C.smul(3, P)) == C.smul(6, P)
    assert not C.smul(3, P).infinity


def test_point_of_order_three_on_normal_form():
    C = WCurve(frac(1), 0, frac(2), 0, 0)
    P = WPoint(frac(0), frac(0))
    assert C.smul(3, P).infinity
    assert not C.smul(2, P).infinity
    assert is_flex(C, P)


def test_two_torsion_is_not_flex():
    C = WCurve(0, 0, 0, -1, 0)  # y^2 = x^3 - x
    P = WPoint(frac(1), frac(0))
    assert C.smul(2, P).infinity
    assert not is_flex(C, P)


def test_flex_rejects_points_off_curve():
    C = WCurve(0, 0, 1, -1, 0)
    with pytest.raises(CurveError):
        is_flex(C, WPoint(frac(5), frac(5)))


def test_transform_scales_invariants():
    C = WCurve(frac(1), frac(2), frac(3), frac(4), frac(5))
    T = WTransform(frac(2, 3), frac(1), frac(-1), frac(1, 2))
    C2 = transform(C, T)
    lam = T.lam
    assert C2.c4() == lam ** 4 * C.c4()
    assert C2.c6() == lam ** 6 * C.c6()
    assert C2.disc() == lam ** 12 * C.disc()


def test_transform_compose_and_inverse():
    # transform by T, then by its inverse, is the identity
    rng = random.Random(11)
    for _ in range(20):
        T = WTransform(Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                       frac(rng.randint(-4, 4)), frac(rng.randint(-4, 4)),
                       frac(rng.randint(-4, 4)))
        C = WCurve(frac(1), 0, frac(2), 0, 0)
        assert transform(transform(C, T), T.inverse()).coeffs() == C.coeffs()


def test_transform_point_follows_curve():
    C = WCurve(frac(1), 0, frac(2), 0, 0)
    P = WPoint(frac(0), frac(0))
    T = WTransform(frac(3, 2), frac(1), frac(2), frac(-1))
    C2, P2 = transform(C, T), transform_point(T, P)
    assert not C2.equation_at(P2.x, P2.y)
    assert C2.smul(3, P2).infinity


def test_gamma1_normalize_round_trip():
    C0 = WCurve(frac(2), 0, frac(5), 0, 0)
    T = WTransform(frac(1), frac(3), frac(-2), frac(1, 2))
    C = transform(C0, T)
    P = transform_point(T, WPoint(frac(0), frac(0)))
    A1, A3, Tn = gamma1_normalize(C, P)
    assert (A1, A3) == (C0.a1, C0.a3)
    Ti = T.inverse()
    assert (Tn.lam, Tn.r, Tn.s, Tn.t) == (Ti.lam, Ti.r, Ti.s, Ti.t)


def test_gamma1_normalize_rejects_non_torsion():
    C = WCurve(0, 0, 1, -1, 0)
    with pytest.raises(CurveError):
        gamma1_normalize(C, WPoint(frac(0), frac(0)))


# -- the integral model and the Jacobian group law against Fraction references

def _ref_b(a1, a2, a3, a4, a6):
    return (a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6,
            a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4)


def _ref_c4(a):
    b2, b4, _, _ = _ref_b(*a)
    return b2 * b2 - 24 * b4


def _ref_c6(a):
    b2, b4, b6, _ = _ref_b(*a)
    return -b2 ** 3 + 36 * b2 * b4 - 216 * b6


def _ref_disc(a):
    b2, b4, b6, b8 = _ref_b(*a)
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _ref_equation(a, x, y):
    a1, a2, a3, a4, a6 = a
    return y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6


def _ref_transform(a, lam, r, s, t):
    a1, a2, a3, a4, a6 = a
    return (lam * (a1 + 2 * s),
            lam ** 2 * (a2 - s * a1 + 3 * r - s * s),
            lam ** 3 * (a3 + r * a1 + 2 * t),
            lam ** 4 * (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1
                        + 3 * r * r - 2 * s * t),
            lam ** 6 * (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3
                        - t * t - r * t * a1))


def _ref_neg(C, P):
    if P.infinity:
        return P
    return WPoint(P.x, -P.y - C.a1 * P.x - C.a3)


def _ref_add(C, P, Q):
    """The affine chord-and-tangent law in Fractions."""
    if P.infinity:
        return Q
    if Q.infinity:
        return P
    a1, a2, a3, a4, a6 = (Fraction(c) for c in C.coeffs())
    x1, y1, x2, y2 = (Fraction(c) for c in (P.x, P.y, Q.x, Q.y))
    if x1 == x2:
        if y1 + y2 + a1 * x2 + a3 == 0:
            return O
        den = 2 * y1 + a1 * x1 + a3
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
        nu = (-x1 ** 3 + a4 * x1 + 2 * a6 - a3 * y1) / den
    else:
        lam = (y2 - y1) / (x2 - x1)
        nu = (y1 * x2 - y2 * x1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    return WPoint(x3, -(lam + a1) * x3 - nu - a3)


def _ref_smul(C, n, P):
    R = O
    for _ in range(abs(n)):
        R = _ref_add(C, R, P if n > 0 else _ref_neg(C, P))
    return R


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
integers = st.integers(-20, 20)
curve_coeffs = st.tuples(*[rationals] * 5)


def _through(a1, a2, a3, a4, x, y):
    """The curve with a1 .. a4 through (x, y)."""
    return WCurve(a1, a2, a3, a4,
                  y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x)


@st.composite
def curves_with_points(draw):
    """A smooth curve through two points P, Q with distinct x."""
    a1, a2, a3, x1, y1, x2, y2 = (draw(rationals) for _ in range(7))
    assume(x1 != x2)
    # a4 x + a6 = y^2 + a1 x y + a3 y - x^3 - a2 x^2 at both points
    g1, g2 = (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x
              for x, y in ((x1, y1), (x2, y2)))
    C = _through(a1, a2, a3, (g1 - g2) / (x1 - x2), x1, y1)
    assume(C.is_smooth())
    return C, WPoint(x1, y1), WPoint(x2, y2)


@settings(max_examples=60, deadline=None)
@given(curves_with_points(), st.integers(-6, 6))
def test_group_law_agrees_with_the_affine_reference(CPQ, n):
    C, P, Q = CPQ
    for R in (P, Q):
        assert not C.equation_at(R.x, R.y)
        assert C.smul(n, R) == _ref_smul(C, n, R)
        assert C.smul(2, R) == _ref_add(C, R, R)
        assert C.smul(-1, R) == _ref_neg(C, R)
        assert C.smul(n, C.smul(-1, R)) == C.smul(-n, R)
    assert C.smul(3, C.smul(n, P)) == C.smul(3 * n, P)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[integers] * 6), st.integers(-6, 6))
def test_group_law_on_int_curves(v, n):
    a1, a2, a3, a4, x, y = v
    C = _through(a1, a2, a3, a4, x, y)
    assume(C.is_smooth())
    P = WPoint(x, y)
    assert C.smul(n, P) == _ref_smul(C, n, P)
    # 3P = P + 2P, the chord through P and 2P
    assert C.smul(3, P) == _ref_add(C, P, _ref_add(C, P, P))


@settings(max_examples=40, deadline=None)
@given(rationals, rationals, rationals, rationals, rationals)
def test_doubling_a_two_torsion_point_gives_O(a1, a2, a3, a4, x):
    # 2y + a1 x + a3 = 0: the tangent at (x, y) is vertical
    y = -(a1 * x + a3) / 2
    C = _through(a1, a2, a3, a4, x, y)
    assume(C.is_smooth())
    P = WPoint(x, y)
    assert C.smul(-1, P) == P
    assert C.smul(2, P) == O == _ref_add(C, P, P)
    assert C.smul(-6, P) == O and C.smul(3, P) == P


@settings(max_examples=80, deadline=None)
@given(st.one_of(curve_coeffs, st.tuples(*[integers] * 5)),
       rationals, rationals)
def test_invariants_and_equation_against_fraction_evaluation(a, x, y):
    C = WCurve(*a)
    exact = tuple(Fraction(c) for c in a)
    assert (C.b2(), C.b4(), C.b6(), C.b8()) == _ref_b(*exact)
    assert C.c4() == _ref_c4(exact)
    assert C.c6() == _ref_c6(exact)
    assert C.disc() == _ref_disc(exact)
    assert C.equation_at(x, y) == _ref_equation(exact, x, y)
    assert C.c4() ** 3 - C.c6() ** 2 == 1728 * C.disc()


@settings(max_examples=80, deadline=None)
@given(st.one_of(curve_coeffs, st.tuples(*[integers] * 5)),
       rationals.filter(bool), rationals, rationals, rationals)
def test_transform_against_fraction_evaluation(a, lam, r, s, t):
    T = WTransform(lam, r, s, t)
    exact = tuple(Fraction(c) for c in a)
    assert transform(WCurve(*a), T).coeffs() == _ref_transform(exact, lam, r, s, t)


def test_integral_model_clears_denominators_by_weight():
    u, v = integral_model((frac(1, 2), frac(1, 3), 5), (1, 2, 3))
    assert u == 6 and v == [3, 12, 5 * 216]
    assert all(type(c) is int for c in v)
    same = (frac(2), 3)
    assert integral_model(same, (1, 2)) == (1, same)
    symbolic = (a1(), frac(1, 2))
    assert integral_model(symbolic, (1, 2)) == (1, symbolic)


def test_multipoly_curves_keep_their_results_and_types():
    zero = MultiPoly.zero()
    coeffs = (a1(), zero, 3 * a3(), -6 * a1() * a3(),
              -(9 * a3() ** 2 + a1() ** 3 * a3()))
    C = WCurve(*coeffs)
    got = (C.b2(), C.b4(), C.b6(), C.b8(), C.c4(), C.c6(), C.disc(),
           C.equation_at(a1(), a3()))
    want = (*_ref_b(*coeffs), _ref_c4(coeffs), _ref_c6(coeffs),
            _ref_disc(coeffs), _ref_equation(coeffs, a1(), a3()))
    for g, w in zip(got, want):
        assert type(g) is MultiPoly and (g - w).is_zero()
    T = WTransform(frac(2, 3), frac(1, 2), frac(-1), frac(3, 4))
    for g, w in zip(transform(C, T).coeffs(),
                    _ref_transform(coeffs, T.lam, T.r, T.s, T.t)):
        assert type(g) is MultiPoly and (g - w).is_zero()


def test_every_point_the_group_law_produces_is_checked(monkeypatch):
    C = WCurve(0, 0, 1, -1, 0)
    P = WPoint(frac(2), frac(2))
    # a negation that forgets a3 Z^3 leaves the curve
    monkeypatch.setattr(weierstrass, "_jneg",
                        lambda a, J: (J[0], -J[1] - a[0] * J[0] * J[2], J[2]))
    for run in (lambda: C.smul(-1, P), lambda: C.smul(2, P)):
        with pytest.raises(CurveError, match="not on the curve"):
            run()


def test_group_law_rejects_points_off_the_curve():
    C = WCurve(0, 0, 1, -1, 0)
    off = WPoint(frac(5), frac(5))
    for run in (lambda: C.smul(-1, off), lambda: C.smul(1, off),
                lambda: C.smul(0, off)):
        with pytest.raises(CurveError, match=r"point \(5, 5\) is not on the curve"):
            run()


def test_smul_does_not_double_after_the_last_bit(monkeypatch):
    calls = []
    real = weierstrass._jadd

    def counted(a, J, K):
        calls.append(J == K)
        return real(a, J, K)

    monkeypatch.setattr(weierstrass, "_jadd", counted)
    C = WCurve(0, 0, 1, -1, 0)
    P = WPoint(frac(0), frac(0))
    assert C.smul(6, P) == _ref_smul(C, 6, P)
    # 6 = 0b110: two doublings, and the additions O + 2P and 2P + 4P
    assert calls.count(True) == 2 and len(calls) == 4


# -- the tangent frame against the Fraction construction it replaced: the
# tangent's slope, the restriction of the curve to the tangent line as a
# cubic in x, and a translation and a shear composed into one transform

def _ref_check_point(C, P):
    if not P.infinity and C.equation_at(P.x, P.y):
        raise CurveError(f"point {P} is not on the curve")


def _ref_tangent_slope(C, P):
    _ref_check_point(C, P)
    if P.infinity:
        raise CurveError("tangent at the point at infinity")
    a1, a2, a3, a4, a6 = (Fraction(c) for c in C.coeffs())
    den = 2 * P.y + a1 * P.x + a3
    if den == 0:
        return None
    return (3 * P.x * P.x + 2 * a2 * P.x + a4 - a1 * P.y) / den


def _ref_is_flex(C, P):
    if P.infinity:
        raise CurveError("flex test needs an affine point")
    _ref_check_point(C, P)
    if not C.is_smooth():
        raise CurveError("flex test on a singular curve")
    m = _ref_tangent_slope(C, P)
    if m is None:
        return False
    a1, a2, a3, a4, a6 = (Fraction(c) for c in C.coeffs())
    x0, y0 = P.x, P.y
    # the curve minus the line y = y0 + m (x - x0) is a cubic in x with a
    # triple root at x0 exactly when P is a flex
    b = y0 - m * x0
    c2 = a2 - m * m - a1 * m
    c1 = a4 - 2 * m * b - a1 * b - a3 * m
    c0 = a6 - b * b - a3 * b
    return (c2 == -3 * x0) and (c1 == 3 * x0 * x0) and (c0 == -(x0 * x0 * x0))


def _ref_compose(first, then):
    """The transform equal to applying ``first``, then ``then``."""
    l1, r1, s1, t1 = first.lam, first.r, first.s, first.t
    l2, r2, s2, t2 = then.lam, then.r, then.s, then.t
    inv1 = 1 / Fraction(l1)
    return WTransform(l1 * l2, r1 + r2 * inv1 ** 2, s1 + s2 * inv1,
                      t1 + t2 * inv1 ** 3 + s1 * r2 * inv1 ** 2)


def _ref_gamma1_normalize(C, P):
    if P.infinity:
        raise CurveError("normalization needs an affine point of order 3")
    _ref_check_point(C, P)
    if not C.is_smooth():
        raise CurveError("normalization needs a smooth curve")
    if not C.smul(3, P).infinity:
        raise CurveError("point is not 3-torsion")
    T1 = WTransform(Fraction(1), P.x, Fraction(0), P.y)
    C1 = transform(C, T1)
    if C1.a6 != 0:
        raise CurveError("translation failed to put P on the curve origin")
    if C1.a3 == 0:
        raise CurveError("vertical tangent at an order-3 point")
    T2 = WTransform(Fraction(1), Fraction(0), C1.a4 / C1.a3, Fraction(0))
    C2 = transform(C1, T2)
    if C2.a2 != 0 or C2.a4 != 0 or C2.a6 != 0:
        raise CurveError("point is not a flex: normal form not reached")
    return C2.a1, C2.a3, _ref_compose(T1, T2)


def _outcome(fn, C, P):
    """fn(C, P), or the type and message of the exception it raises."""
    try:
        return fn(C, P)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def flex_cases(draw):
    """A curve and a point: an order-3 point of a normal form (smooth or
    not) moved by a random transform, a 2-torsion point, a point on a
    curve, a point most likely off it, O, or a point on a singular curve;
    with rational or with int coefficients and coordinates."""
    numbers = draw(st.sampled_from([rationals, integers]))
    a1, a2, a3, a4, a6, x, y = (draw(numbers) for _ in range(7))
    T = WTransform(draw(numbers.filter(bool)), *(draw(numbers) for _ in range(3)))
    kind = draw(st.sampled_from(
        ["order3", "two_torsion", "on_curve", "off_curve", "O", "singular"]))
    if kind == "order3":
        return (transform(WCurve(a1, 0, a3 or 1, 0, 0), T),
                transform_point(T, WPoint(0, 0)))
    if kind == "two_torsion":
        y = -(a1 * x + a3) / Fraction(2)
    if kind in ("two_torsion", "on_curve"):
        return _through(a1, a2, a3, a4, x, y), WPoint(x, y)
    if kind in ("off_curve", "O"):
        return WCurve(a1, a2, a3, a4, a6), O if kind == "O" else WPoint(x, y)
    # y^2 = x^3 + a2 x^2, singular at (0, 0), through (x^2 - a2, x (x^2 - a2))
    # or not, moved by a random transform
    P = draw(st.sampled_from([WPoint(0, 0), WPoint(x * x - a2, x * (x * x - a2)),
                              WPoint(x, y)]))
    return transform(WCurve(0, a2, 0, 0, 0), T), transform_point(T, P)


@settings(max_examples=300, deadline=None)
@given(flex_cases())
def test_flex_and_normal_form_agree_with_the_fraction_reference(case):
    C, P = case
    assert _outcome(is_flex, C, P) == _outcome(_ref_is_flex, C, P)
    want = _outcome(_ref_gamma1_normalize, C, P)
    if not (P.infinity or C.is_smooth() or not C.equation_at(P.x, P.y)):
        # a singular curve and a point off it: smoothness is checked first
        want = (CurveError, "normalization needs a smooth curve")
    assert _outcome(gamma1_normalize, C, P) == want


def test_flex_and_normal_form_check_in_order():
    smooth, singular = WCurve(0, 0, 1, -1, 0), WCurve(0, 1, 0, 0, 0)
    off = WPoint(frac(5), frac(5))
    cases = [
        (is_flex, smooth, O, "flex test needs an affine point"),
        (is_flex, smooth, off, r"point \(5, 5\) is not on the curve"),
        (is_flex, singular, off, r"point \(5, 5\) is not on the curve"),
        (is_flex, singular, WPoint(frac(0), frac(0)),
         "flex test on a singular curve"),
        (gamma1_normalize, smooth, O,
         "normalization needs an affine point of order 3"),
        (gamma1_normalize, smooth, off, r"point \(5, 5\) is not on the curve"),
        (gamma1_normalize, singular, off, "normalization needs a smooth curve"),
        (gamma1_normalize, smooth, WPoint(frac(0), frac(0)),
         "point is not 3-torsion"),
    ]
    for fn, C, P, message in cases:
        with pytest.raises(CurveError, match=f"^{message}$"):
            fn(C, P)
