import random
from fractions import Fraction

import pytest

from tmf3.multipoly import MultiPoly, a1, a3, disc_factor
from tmf3.weierstrass import (WCurve, WPoint, O, WTransform, CurveError,
                              transform, transform_point, gamma1_normalize,
                              is_flex)


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
    assert C.contains(P)
    assert C.add(P, C.neg(P)).infinity
    assert C.add(P, O) == P
    twoP = C.smul(2, P)
    assert C.add(P, P) == twoP
    assert C.add(twoP, C.neg(P)) == P
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
    rng = random.Random(11)
    for _ in range(20):
        T = WTransform(Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                       frac(rng.randint(-4, 4)), frac(rng.randint(-4, 4)),
                       frac(rng.randint(-4, 4)))
        U = T.compose(T.inverse())
        assert (U.lam, U.r, U.s, U.t) == (1, 0, 0, 0)
        C = WCurve(frac(1), 0, frac(2), 0, 0)
        assert transform(transform(C, T), T.inverse()).coeffs() == C.coeffs()


def test_transform_point_follows_curve():
    C = WCurve(frac(1), 0, frac(2), 0, 0)
    P = WPoint(frac(0), frac(0))
    T = WTransform(frac(3, 2), frac(1), frac(2), frac(-1))
    C2, P2 = transform(C, T), transform_point(T, P)
    assert C2.contains(P2)
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
