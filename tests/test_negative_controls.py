"""Negative controls for the verify items: each test breaks one fact the
item relies on and asserts that the item reports a failure. Items 4 and 9
have theirs beside their modules' tests (`test_funfield.py`,
`test_sseq.py`)."""

import math
from fractions import Fraction

from tmf3 import levelmaps, qexp, verify, weierstrass
from tmf3.multipoly import a1, a3


def test_item1_fails_with_a_wrong_b6(monkeypatch):
    # b6 = a3^2 + 4 a6; with 3 a6 the identity c4^3 - c6^2 = 1728 Delta breaks
    monkeypatch.setattr(weierstrass.WCurve, "b6",
                        lambda self: self.a3 * self.a3 + 3 * self.a6)
    r = verify.item_invariants()
    assert r["pass"] is False and "identity fails" in r["detail"]


def test_item2_fails_with_a_wrong_qstar_c4(monkeypatch):
    # q*(c4) = a1^4 + 216 a1 a3, here with 215
    monkeypatch.setattr(levelmaps, "Q4", a1() ** 4 + 215 * a1() * a3())
    r = verify.item_map_formulas()
    assert r["pass"] is False and r["detail"].startswith("qstar(c4) = ")


def _wrong_disc_powers(j):
    """The coefficients of (a1^3 + 27 a3)^j: the substitution for t* with
    the wrong sign in a1^3 - 27 a3."""
    return tuple(math.comb(j, k) * 27 ** k for k in range(j + 1))


def test_item2_fails_when_tstar_disagrees_with_the_table(monkeypatch):
    # T_A, T_B, T_C stay right; only tstar, which no longer reads them, breaks
    monkeypatch.setattr(levelmaps, "_tpow_cached", _wrong_disc_powers)
    r = verify.item_map_formulas()
    assert r["pass"] is False and r["detail"].startswith("tstar(a1*a3) = ")


def test_item3_fails_with_a_wrong_tstar(monkeypatch):
    monkeypatch.setattr(levelmaps, "_tpow_cached", _wrong_disc_powers)
    r = verify.item_cosimplicial()
    assert r["pass"] is False and "tstar.fstar != qstar" in r["detail"]


def test_item3_fails_with_a_wrong_hstar(monkeypatch):
    # h* = 3^weight; with 3^(weight + 1), t* q* = f* h* fails on c4
    real = levelmaps.hstar
    monkeypatch.setattr(levelmaps, "hstar", lambda m: 3 * real(m))
    r = verify.item_cosimplicial()
    assert r["pass"] is False and "tstar.qstar != fstar.hstar" in r["detail"]


def test_item3_fails_when_D1_D0_does_not_vanish(monkeypatch):
    # D1(u, v) = t* u + u - f* v; with - u the generator identities, which
    # do not read D1, still hold, and D1 . D0 = -2 delta is nonzero
    monkeypatch.setattr(levelmaps, "cochain_D1",
                        lambda u, v: levelmaps.tstar(u) - u - levelmaps.fstar(v))
    r = verify.item_cosimplicial()
    assert r["pass"] is False and r["detail"].startswith("D1.D0 != 0 on ")


def test_item5_fails_when_the_flex_test_accepts_every_point(monkeypatch):
    monkeypatch.setattr(verify, "is_flex", lambda C, P: not P.infinity)
    r = verify.item_flex()
    assert r["pass"] is False and "negative disagreement" in r["detail"]


def test_item5_fails_when_the_jacobian_sum_leaves_the_curve(monkeypatch):
    # the sum's Y3 = -Y' - a1 X3 Z3 - a3 Z3^3 is the negation of the chord's
    # third point; without a1 X3 Z3 the sums leave the curve, and the check
    # of every produced point turns that into a failed item
    monkeypatch.setattr(weierstrass, "_jneg",
                        lambda a, J: (J[0], -J[1] - a[2] * J[2] ** 3, J[2]))
    r = verify.item_flex()
    assert r["pass"] is False
    assert r["detail"].startswith("CurveError: the group law produced ")


def _frame_without_shear(C, P):
    """The tangent frame with s = 0: P moves to the origin, but its tangent
    a3 y = a4 x stays where it is."""
    T = weierstrass.WTransform(Fraction(1), P.x, 0, P.y)
    return T, weierstrass.transform(C, T)


def test_item5_fails_when_the_tangent_frame_is_not_sheared(monkeypatch):
    monkeypatch.setattr(weierstrass, "_tangent_frame", _frame_without_shear)
    r = verify.item_flex()
    assert r["pass"] is False
    assert r["detail"].startswith("flex test misses an order-3 point")


def test_item6_fails_when_the_tangent_frame_is_not_sheared(monkeypatch):
    monkeypatch.setattr(weierstrass, "_tangent_frame", _frame_without_shear)
    r = verify.item_normalize()
    assert r["pass"] is False
    assert r["detail"] == ("CurveError: point is not a flex: "
                           "normal form not reached")


def test_item6_fails_with_a_wrong_weight_of_t(monkeypatch):
    # t has weight 3; scaled by u^2 instead of u^3, transform gives wrong
    # curves, and the normalization built on it raises a CurveError
    monkeypatch.setattr(weierstrass, "CHANGE_WEIGHTS", (2, 1, 2))
    r = verify.item_normalize()
    assert r["pass"] is False and r["detail"].startswith("CurveError: ")


def test_item6_fails_with_a_wrong_normal_form(monkeypatch):
    real = verify.gamma1_normalize

    def scaled(C, P):
        A1, A3, T = real(C, P)
        return A1, 2 * A3, T

    monkeypatch.setattr(verify, "gamma1_normalize", scaled)
    r = verify.item_normalize()
    assert r["pass"] is False and r["detail"].startswith("recovered ")


def test_item7_fails_with_a_wrong_fstar_c4(monkeypatch):
    # f*(c4) = a1^4 - 24 a1 a3; with -23, delta(c4) = 239 a1 a3 is odd
    monkeypatch.setattr(levelmaps, "F4", a1() ** 4 - 23 * a1() * a3())
    r = verify.item_valuations()
    assert r["pass"] is False and "val2(delta(c4^1))" in r["detail"]


def test_item8_fails_with_a_wrong_bernoulli_number(monkeypatch):
    real = qexp.bernoulli
    monkeypatch.setattr(qexp, "bernoulli",
                        lambda m: real(m) + (Fraction(1, 7) if m == 12 else 0))
    r = verify.item_eisenstein()
    assert r["pass"] is False and r["detail"].startswith("G_12 ")
