import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tmf3 import qexp
from tmf3.qexp import (QSeries, eisenstein_G, eisenstein_in_c4c6, series_c4,
                       series_c6, series_delta, e_alpha)
from tmf3.levelmaps import LevelOneForm, cochain_D1, monomial_images
from tmf3.multipoly import LocElem, MultiPoly
from tmf3.rationals import bernoulli, val_p_int


def test_series_arithmetic():
    q = QSeries.q(10)
    s = (1 + q) * (1 - q)
    assert s == 1 - q ** 2
    assert (s - s).is_zero()
    inv = (1 - q).inverse()
    assert inv.coeffs[:4] == [1, 1, 1, 1]


def test_inverse_requires_unit():
    with pytest.raises(ZeroDivisionError):
        QSeries.q(5).inverse()


def test_known_coefficients():
    c4 = series_c4(6)
    assert c4.coeffs[:3] == [1, 240, 2160]
    c6 = series_c6(6)
    assert c6.coeffs[:3] == [1, -504, -16632]
    d = series_delta(8)
    assert d.coeffs[:5] == [0, 1, -24, 252, -1472]


def test_c4_cubed_identity_as_series():
    prec = 50
    lhs = series_c4(prec) ** 3 - series_c6(prec) ** 2
    assert lhs == 1728 * series_delta(prec)


def test_eisenstein_constant_terms():
    assert eisenstein_G(4, 5).coeffs[0] == Fraction(1, 240)
    assert eisenstein_G(6, 5).coeffs[0] == Fraction(-1, 504)
    assert eisenstein_G(4, 5).coeffs[1] == 1


def test_g4_is_c4_over_240():
    assert eisenstein_in_c4c6([4])[4] == LevelOneForm.c4() / 240


def test_g6_is_minus_c6_over_504():
    assert eisenstein_in_c4c6([6])[6] == LevelOneForm.c6() / -504


def _by_hand(expr, prec):
    """sum c c4^a c6^eps Delta^d as a q-series, written out term by term."""
    c4, c6, d = series_c4(prec), series_c6(prec), series_delta(prec)
    total = QSeries([], prec)
    for (ca, eps, dd), c in expr.terms.items():
        s = c4 ** ca
        if eps:
            s = s * c6
        total = total + c * (s * d ** dd)
    return total


def test_higher_weight_expression_matches_expansion():
    for k, expr in eisenstein_in_c4c6(range(4, 61, 2)).items():
        assert isinstance(expr, LevelOneForm)
        # the weight-k monomials, with c6 exactly when k = 2 mod 4, by ascending a
        assert all(4 * a + 6 * eps + 12 * d == k and eps == (k % 4 == 2)
                   for a, eps, d in expr.terms)
        assert list(expr.terms) == sorted(expr.terms)
        prec = len(expr.terms) + 25
        total = _by_hand(expr, prec)
        assert total == eisenstein_G(k, prec)
        # evaluate is the same ring map
        series = series_c4(prec), series_c6(prec), series_delta(prec)
        assert expr.evaluate(*series) == total


def test_a_sweep_of_weights_agrees_with_each_weight_alone():
    # unsorted, repeated weights, solved from one table at the largest
    # precision
    ks = [40, 12, 4, 12, 26, 6]
    exprs = eisenstein_in_c4c6(ks)
    assert list(exprs) == [40, 12, 4, 26, 6]
    for k in ks:
        assert exprs[k] == eisenstein_in_c4c6([k])[k], k


def test_forms_share_one_table_of_images():
    prec = 20
    series = series_c4(prec), series_c6(prec), series_delta(prec)
    forms = list(eisenstein_in_c4c6([12, 24, 30]).values())
    images = monomial_images({key for f in forms for key in f.terms}, *series)
    for f in forms:
        assert f.evaluate(*series, images) == f.evaluate(*series)


def test_evaluate_is_a_ring_map_into_q_series():
    # on forms with several terms, scalars and c6^2 reduced by the relation
    prec = 20
    series = series_c4(prec), series_c6(prec), series_delta(prec)
    c4, c6, delta = LevelOneForm.c4(), LevelOneForm.c6(), LevelOneForm.delta()
    forms = [LevelOneForm.const(Fraction(-2, 7)), LevelOneForm(),
             3 * c4 ** 3 - c6 ** 2 + delta, c4 * c6 * delta ** 2 - 5,
             (c4 + c6) ** 2]
    for f in forms:
        assert f.evaluate(*series) == _by_hand(f, prec)
    for f in forms:
        for g in forms:
            assert (f * g).evaluate(*series) == f.evaluate(*series) * g.evaluate(*series)
            assert (f + g).evaluate(*series) == f.evaluate(*series) + g.evaluate(*series)
    # Delta^-1 needs the target's inverse, and q-series Delta has none
    with pytest.raises(ZeroDivisionError):
        LevelOneForm.delta(-1).evaluate(*series)


def test_eisenstein_expression_errors():
    for k in (2, 3, -4):
        with pytest.raises(ValueError, match=f"^no holomorphic forms of weight {k}$"):
            eisenstein_in_c4c6([k])
    with pytest.raises(ValueError, match="^eisenstein_G needs even weight >= 4$"):
        eisenstein_in_c4c6([0])


def test_e_alpha_weight_four():
    u, v = e_alpha(eisenstein_in_c4c6([4])[4])
    assert u == LocElem(MultiPoly({(1, 1): Fraction(1)}))
    assert v == Fraction(1, 3) * LevelOneForm.c4()


def test_e_alpha_cocycles():
    for G in eisenstein_in_c4c6([4, 6, 8, 10, 12]).values():
        assert cochain_D1(*e_alpha(G)).is_zero()


def _v2(c):
    return val_p_int(c.numerator, 2) - val_p_int(c.denominator, 2)


def _cocycle_orders(u_of):
    """{k: r} for even k from 4 to 80: the class of e_alpha(k) = D0(u G_k)
    has order 2^r, r = -min v2 over the coefficients of u G_k in the basis
    c4^a c6^eps Delta^d, since D0 is injective in weight k != 0."""
    exprs = eisenstein_in_c4c6(range(4, 81, 2))
    return {k: -min(_v2(u_of(k) * c) for c in G.terms.values()) for k, G in exprs.items()}


def _unit(k):
    # the u of e_alpha
    return 1 if k % 4 == 0 else 2


def test_the_building_cocycles_have_the_2_order_of_the_image_of_j():
    # for 4 | k the order is v2 of the denominator of B_k/2k, which is
    # v2(k) + 2 (Adams, J(X) IV): the 2-order of the image of J in stem
    # 2k - 1; for k = 2 mod 4, where u = 2, it is 2, one less than that 3
    orders = _cocycle_orders(_unit)
    assert sorted(orders) == list(range(4, 81, 2))
    for k, r in orders.items():
        den = val_p_int((bernoulli(k) / (2 * k)).denominator, 2)
        assert den == val_p_int(k, 2) + 2, k
        assert r == (den if k % 4 == 0 else 2), k


def test_without_the_unit_every_order_is_the_denominators():
    # u = 1 gives r = 3 at every k = 2 mod 4, so without u the order is v2
    # of the denominator of B_k/2k at every k
    for k, r in _cocycle_orders(lambda k: 1).items():
        assert r == val_p_int((bernoulli(k) / (2 * k)).denominator, 2), k
        assert k % 4 == 0 or r == 3, k


def test_the_cocycle_orders_fail_with_a_wrong_bernoulli_number(monkeypatch):
    # G_12's constant term is -B_12/24, read where qexp reads it
    real = qexp.bernoulli
    monkeypatch.setattr(qexp, "bernoulli",
                        lambda m: real(m) * (2 if m == 12 else 1))
    with pytest.raises(ValueError, match="^G_12 has no expression"):
        _cocycle_orders(_unit)


def _delta_by_product(prec):
    """q prod_{n >= 1} (1 - q^n)^24 to precision prec, on plain ints."""
    coeffs = [0] * prec
    if prec > 1:
        coeffs[1] = 1
    for n in range(1, prec):
        for _ in range(24):
            for i in range(prec - 1, n - 1, -1):
                coeffs[i] -= coeffs[i - n]
    return coeffs


def test_series_delta_matches_product_formula():
    for prec in range(1, 31):
        d = series_delta(prec)
        assert d.prec == prec
        assert d.coeffs == _delta_by_product(prec), prec


_FRACTIONS = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 9]))


@settings(max_examples=60, deadline=None)
@given(st.lists(_FRACTIONS, min_size=1, max_size=8),
       st.lists(_FRACTIONS, min_size=1, max_size=8), _FRACTIONS)
def test_series_arithmetic_matches_fraction_lists(a, b, c):
    n = min(len(a), len(b))
    prod = [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(n)]
    x, y = QSeries(a), QSeries(b)
    assert (x * y).coeffs == prod
    assert (x + y).coeffs == [a[i] + b[i] for i in range(n)]
    assert (x * c).coeffs == [v * c for v in a]
    assert x * y == QSeries(prod)
    assert (x - x).is_zero() and (x - x).den == 1
    s = x * y
    assert s.den > 0 and math.gcd(s.den, *s.nums) == 1
