"""Negative controls for the verify items: each test breaks one fact the
item relies on and asserts that the item reports a failure. Items 4 and 9
have theirs beside their modules' tests (`test_funfield.py`,
`test_sseq.py`)."""

import math
from fractions import Fraction

from tmf3 import funfield, levelmaps, qexp, verify, weierstrass
from tmf3.multipoly import MultiPoly, a1, a3


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


def test_item2_fails_with_a_wrong_qstar_Delta(monkeypatch):
    # q*(Delta) = a3 (a1^3 - 27 a3)^3, here with + 27 a3
    monkeypatch.setattr(levelmaps, "QDELTA", a3() * (a1() ** 3 + 27 * a3()) ** 3)
    r = verify.item_map_formulas()
    assert r["pass"] is False and r["detail"].startswith("qstar(Delta) = ")


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


def test_item3_fails_with_a_wrong_qstar_c4(monkeypatch):
    # q*(c4) = a1^4 + 216 a1 a3, here with 215. The powers of Q4 are cached
    # by value, so a passing run first leaves the cache full of the right
    # powers, and the rebound Q4 is still read without emptying it
    assert verify.item_cosimplicial()["pass"] is True
    monkeypatch.setattr(levelmaps, "Q4", a1() ** 4 + 215 * a1() * a3())
    r = verify.item_cosimplicial()
    assert r["pass"] is False
    assert r["detail"] == "tstar.fstar != qstar on 1*c4"


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


def test_item5_fails_when_the_sum_leaves_the_curve(monkeypatch):
    # the sum is the negation (x, -y - a1 x - a3) of the chord's third
    # point; without a1 x the sums leave the curve, and the check of every
    # produced point turns that into a failed item
    monkeypatch.setattr(weierstrass, "_neg",
                        lambda C, P: P if P.infinity else
                        weierstrass.WPoint(P.x, -P.y - C.a3))
    r = verify.item_flex()
    assert r["pass"] is False
    assert r["detail"].startswith("CurveError: the group law produced ")


def test_item5_fails_when_the_tangent_slope_drops_its_a1_y_term(monkeypatch):
    # the tangent's slope is (3x^2 + 2 a2 x + a4 - a1 y) / (2y + a1 x + a3);
    # without -a1 y every doubling on a curve with a1 y != 0 leaves it
    def tangent(C, P):
        x, y = P.x, P.y
        return Fraction(3 * x * x + 2 * C.a2 * x + C.a4, 2 * y + C.a1 * x + C.a3)

    monkeypatch.setattr(weierstrass, "_tangent", tangent)
    r = verify.item_flex()
    assert r["pass"] is False
    assert r["detail"].startswith("CurveError: the group law produced ")


def _frame_without_shear(C, P):
    """The flex frame with s = 0: P moves to the origin, but its tangent
    a3 y = a4 x stays where it is, so an order-3 point is no flex in it."""
    T = weierstrass.WTransform(Fraction(1), P.x, 0, P.y)
    F = weierstrass.transform(C, T)
    return None if F.a2 or F.a4 or F.a6 else (T, F)


def test_item5_fails_when_the_tangent_frame_is_not_sheared(monkeypatch):
    monkeypatch.setattr(weierstrass, "_flex_frame", _frame_without_shear)
    r = verify.item_flex()
    assert r["pass"] is False
    assert r["detail"].startswith("flex test misses an order-3 point")


def test_item6_fails_when_the_tangent_frame_is_not_sheared(monkeypatch):
    monkeypatch.setattr(weierstrass, "_flex_frame", _frame_without_shear)
    r = verify.item_normalize()
    assert r["pass"] is False
    assert r["detail"] == "CurveError: point is not 3-torsion"


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


def test_item7_fails_with_a_wrong_qstar_c6(monkeypatch):
    # q*(c6) - f*(c6) = 2^3 (63 a1^3 a3 + 756 a3^2); with 541 a1^3 a3 in
    # q*(c6) instead of 540, delta(c6) = 505 a1^3 a3 + ... has odd content
    monkeypatch.setattr(levelmaps, "Q6", levelmaps.Q6 + a1() ** 3 * a3())
    r = verify.item_valuations()
    assert r["pass"] is False
    assert r["detail"].startswith("delta(c4^0 c6) content check failed")


def test_item7_fails_with_a_wrong_qstar_Delta_mod_2(monkeypatch):
    # an extra a1^6 a3^2 in q*(Delta) cancels the least a1-term of delta(Delta)
    # mod 2
    monkeypatch.setattr(levelmaps, "QDELTA",
                        levelmaps.QDELTA + a1() ** 6 * a3() ** 2)
    r = verify.item_valuations()
    assert r["pass"] is False
    assert r["detail"].startswith("mod-2 minimal term of delta(Delta^1) failed")


def test_item7_fails_when_the_lemma_is_evaluated_at_a_wrong_v(monkeypatch):
    # the three statements read the import-time F4 ... QDELTA; only the
    # lemma, evaluated at v = 2 a3, sees the patched generator
    monkeypatch.setattr(levelmaps, "a3", lambda: 2 * a3())
    r = verify.item_valuations()
    assert r["pass"] is False
    assert r["detail"].startswith("binomial lemma failed at d=2, k=1")


def test_item8_fails_with_a_wrong_bernoulli_number(monkeypatch):
    real = qexp.bernoulli
    monkeypatch.setattr(qexp, "bernoulli",
                        lambda m: real(m) + (Fraction(1, 7) if m == 12 else 0))
    r = verify.item_eisenstein()
    assert r["pass"] is False and r["detail"].startswith("G_12 ")


def test_item8_fails_with_a_wrong_hstar(monkeypatch):
    # e_alpha is D0(u G_k), whose second component is u (h* - 1) G_k; with
    # h* = 3^(weight - 1) it is 13/120 c4 at k = 4, not 1/3 c4
    real = levelmaps.hstar
    monkeypatch.setattr(levelmaps, "hstar", lambda m: real(m) / 3)
    r = verify.item_eisenstein()
    assert r["pass"] is False
    assert r["detail"].startswith("e_alpha(4) second component")


def test_no_table_of_powers_outlives_its_call(monkeypatch):
    # items 4, 7 and 8 take their powers from ladders; one kept from a first
    # run would let each pass again with a wrong generator patched in
    items = (verify.item_isogeny, verify.item_valuations, verify.item_eisenstein)
    assert all(item()["pass"] for item in items)
    monkeypatch.setattr(funfield, "_SIGMA_X", -funfield._SIGMA_X)
    monkeypatch.setattr(levelmaps, "Q4", a1() ** 4 + 215 * a1() * a3())
    real = qexp.bernoulli
    monkeypatch.setattr(qexp, "bernoulli",
                        lambda m: real(m) + (Fraction(1, 7) if m == 12 else 0))
    # each fails at the first statement that reads its patched value
    details = [item()["detail"] for item in items]
    assert "'sigma_order_3'" in details[0]
    assert details[1].startswith("val2(delta(c4^1)) check failed")
    assert details[2].startswith("G_12 has no expression in c4, c6, Delta: ")


def test_item7_takes_each_sweep_from_ladders(monkeypatch):
    # the powers of Q4, F4 and u + 2^d v are products along a ladder; only
    # u = a1^3, once per d of the lemma, is a power
    calls = []
    real = MultiPoly.__pow__

    def counted(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(MultiPoly, "__pow__", counted)
    assert verify.item_valuations()["pass"]
    assert calls == [3] * 5
