import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tmf3 import levelmaps
from tmf3.multipoly import LocElem, MultiPoly, a1, a3, disc_factor
from tmf3.levelmaps import (LevelOneForm, F4, F6, FDELTA, Q4, Q6, QDELTA,
                            T_A, T_B, T_C, fstar, qstar, hstar, tstar,
                            delta_map, is_gamma03, cochain_D0, cochain_D1,
                            basis_monomials, val2_delta_c4pow, val_delta_c4c6,
                            delta_mod2_Delta_pow, lemma_binomial_check)
from tmf3.rationals import val_p_int
from tmf3.ring import terms_text
from tmf3.weierstrass import gamma1_curves


C4 = LevelOneForm.c4()
C6 = LevelOneForm.c6()
DELTA = LevelOneForm.delta()


def test_level_one_relation():
    assert C6 * C6 == C4 ** 3 - 1728 * DELTA
    assert (C4 ** 3 - C6 ** 2 - 1728 * DELTA).is_zero()


def test_level_one_weights_and_text():
    assert (C4 * C6 * DELTA).weight_of() == 22
    assert (2 * C4 - C4 - C4).is_zero()
    assert (Fraction(1, 3) * C4).to_text() == "1/3*c4"


def test_fstar_formulas():
    assert (F4 - (a1() ** 4 - 24 * a1() * a3())).is_zero()
    assert (F6 - (-a1() ** 6 + 36 * a1() ** 3 * a3()
                  - 216 * a3() ** 2)).is_zero()
    assert (FDELTA - a3() ** 3 * disc_factor()).is_zero()


def test_qstar_formulas():
    assert (Q4 - (a1() ** 4 + 216 * a1() * a3())).is_zero()
    assert (Q6 - (-a1() ** 6 + 540 * a1() ** 3 * a3()
                  + 5832 * a3() ** 2)).is_zero()
    assert (QDELTA - a3() * disc_factor() ** 3).is_zero()


def test_the_map_curves_are_the_gamma1_curves():
    assert (levelmaps._CURVE_F, levelmaps._CURVE_Q) == gamma1_curves(a1(), a3())


def test_tstar_generator_formulas():
    assert (T_A - (-3 * a1() ** 2)).is_zero()
    assert (T_B - (Fraction(1, 3) * a1() ** 4 - 9 * a1() * a3())).is_zero()
    assert (T_C - (Fraction(-1, 27) * a1() ** 6 + 2 * a1() ** 3 * a3()
                   - 27 * a3() ** 2)).is_zero()


def test_hstar_is_three_to_the_weight():
    for g, w in ((C4, 4), (C6, 6), (DELTA, 12), (C4 * DELTA, 16)):
        assert hstar(g) == 3 ** w * g
    assert hstar(LevelOneForm.delta(-1)) == Fraction(1, 3 ** 12) * LevelOneForm.delta(-1)


def test_maps_respect_weights():
    for g in (C4, C6, DELTA, C4 * C6, LevelOneForm.delta(-1)):
        w = g.weight_of()
        assert fstar(g).weight_of() == w
        assert qstar(g).weight_of() == w
        assert tstar(fstar(g)).weight_of() == w


def test_cosimplicial_identities_on_generators():
    for g in (C4, C6, DELTA, LevelOneForm.delta(-1)):
        assert tstar(fstar(g)) == qstar(g)
        assert tstar(qstar(g)) == fstar(hstar(g))


def test_tstar_squared_is_three_to_the_weight():
    for g in (fstar(C4), qstar(C6), fstar(DELTA), fstar(LevelOneForm.delta(-1))):
        w = g.weight_of()
        expected = (Fraction(3) ** w) * g
        assert tstar(tstar(g)) == expected


def test_is_gamma03():
    assert is_gamma03(fstar(C4))
    assert is_gamma03(tstar(LocElem(a1() * a3())))
    assert not is_gamma03(LocElem(a1()))


def test_delta_map_on_c4():
    g = delta_map(C4)
    assert g == LocElem(240 * a1() * a3())


def test_cochain_composition_vanishes():
    for m in (C4, C6, DELTA, C4 * C6, LevelOneForm.delta(-1), C4 ** 2 * DELTA):
        u, v = cochain_D0(m)
        assert cochain_D1(u, v).is_zero()


def test_basis_monomials_bounds():
    mons = basis_monomials(24)
    assert mons
    for m in mons:
        assert 0 <= m.weight_of() <= 24


def _basis_by_brute_force(max_weight):
    """Every c4^a c6^eps Delta^d, -4 <= d <= 4, of weight 0..max_weight, in
    (d, eps, a) order; a runs far past any bound the weight allows."""
    return [LevelOneForm.monomial(a, eps, d)
            for d in range(-4, 5) for eps in (0, 1) for a in range(100)
            if 0 <= 4 * a + 6 * eps + 12 * d <= max_weight]


def test_basis_monomials_match_a_brute_force_enumeration():
    mons = basis_monomials(48)
    assert len(mons) == 161
    assert mons == _basis_by_brute_force(48)
    for w in (0, 4, 6, 10, 23, 24):
        assert basis_monomials(w) == _basis_by_brute_force(w)
    assert basis_monomials(-1) == []


def test_evaluate_on_the_level_three_images_is_fstar_and_qstar():
    # evaluate multiplies out the LocElem images term by term, with no
    # common denominator and no cached powers
    images = {fstar: (F4, F6, FDELTA), qstar: (Q4, Q6, QDELTA)}
    for m in basis_monomials(48):
        for fn, gens in images.items():
            assert m.evaluate(*map(LocElem, gens)) == fn(m), (fn.__name__, m)
    sums = (C4 ** 2 - 3 * C6 * DELTA ** -1 + Fraction(2, 5),
            LevelOneForm.delta(-3) * C4 ** 9 - C6 * C4 ** 6 / DELTA ** 2)
    for f in sums:
        for fn, gens in images.items():
            assert f.evaluate(*map(LocElem, gens)) == fn(f)


# -- LevelOneForm against a dict-of-Fractions reference -----------------------
#
# A reference form is a dict {(a, eps, d): nonzero Fraction}, in insertion
# order, as LevelOneForm kept its coefficients before it kept numerators.

def _ref_clean(t):
    return {k: c for k, c in t.items() if c}


def _ref_add(f, g):
    t = dict(f)
    for k, c in g.items():
        t[k] = t.get(k, 0) + c
    return _ref_clean(t)


def _ref_mul(f, g):
    t = {}
    for (a1_, e1, d1), c1 in f.items():
        for (a2_, e2, d2), c2 in g.items():
            ca, eps, d, c = a1_ + a2_, e1 + e2, d1 + d2, c1 * c2
            if eps == 2:
                # c6^2 = c4^3 - 1728 Delta
                t[(ca + 3, 0, d)] = t.get((ca + 3, 0, d), 0) + c
                eps, d, c = 0, d + 1, -1728 * c
            t[(ca, eps, d)] = t.get((ca, eps, d), 0) + c
    return _ref_clean(t)


def _ref_evaluate(f, c4, c6, delta):
    total = 0 * c4
    for (ca, eps, d), c in f.items():
        total = total + c * c4 ** ca * c6 ** eps * delta ** d
    return total


def _form_agrees(form, ref):
    """form is canonical and has the reference's coefficients, in its order."""
    assert form.den > 0 and math.gcd(form.den, *form.nums.values()) == 1
    assert all(isinstance(n, int) and n for n in form.nums.values())
    assert form.den == 1 or form.nums
    assert form.terms == ref and list(form.terms) == list(ref)
    assert form.to_text() == terms_text(("c4", "c6", "Delta"), ref)
    return True


_FORM_COEFFS = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 9, 10]))
_REF_FORMS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 1), st.integers(-2, 2)),
    _FORM_COEFFS, max_size=5).map(_ref_clean)


@settings(max_examples=80, deadline=None)
@given(_REF_FORMS, _REF_FORMS, _FORM_COEFFS, st.integers(-3, 3), _FORM_COEFFS)
def test_level_one_form_matches_fraction_reference(f, g, c, d, u):
    F, G = LevelOneForm(f), LevelOneForm(g)
    assert _form_agrees(F, f)
    assert _form_agrees(F + G, _ref_add(f, g))
    assert _form_agrees(F - G, _ref_add(f, {k: -x for k, x in g.items()}))
    assert _form_agrees(F * G, _ref_mul(f, g))
    assert _form_agrees(F * c, _ref_clean({k: x * c for k, x in f.items()}))
    assert _form_agrees(hstar(F), {k: x * Fraction(3) ** levelmaps.weight(*k)
                                   for k, x in f.items()})
    # equal values built along different paths are equal and hash alike
    assert (F == G) == (f == g)
    assert F * G == G * F and hash(F * G) == hash(G * F)
    assert (F + G) - G == F and hash((F + G) - G) == hash(F)
    # the units c Delta^d and their inverses
    if u:
        unit = LevelOneForm.monomial(0, 0, d, u)
        assert _form_agrees(unit.inverse(), {(0, 0, -d): 1 / u})
        assert unit * unit.inverse() == 1


@settings(max_examples=25, deadline=None)
@given(_REF_FORMS)
def test_level_one_evaluate_matches_fraction_reference(f):
    # on the level-3 images, where Delta is invertible
    gens = tuple(map(LocElem, (F4, F6, FDELTA)))
    assert LevelOneForm(f).evaluate(*gens) == _ref_evaluate(f, *gens)


def test_val2_examples():
    r1, r2, r8 = val2_delta_c4pow([1, 2, 8])
    assert r1["pass"] and r1["valuation"] == 4
    assert r2["pass"] and r2["valuation"] == 5
    assert r8["pass"] and r8["valuation"] == 7


def test_val_c4c6_examples():
    for r in val_delta_c4c6([0, 1, 5]):
        assert r["pass"] and r["valuation"] == 3


def test_mod2_delta_power_examples():
    r = delta_mod2_Delta_pow(1)
    assert r["pass"] and r["leading_term"] == "a1^6*a3^2"
    r = delta_mod2_Delta_pow(2)
    assert r["pass"] and r["leading_term"] == "a1^12*a3^4"


def test_binomial_lemma_examples():
    for d in (2, 4):
        for r in lemma_binomial_check(d, [1, 2, 6]):
            assert r["pass"]
    with pytest.raises(ValueError):
        lemma_binomial_check(1, [3])


def test_each_sweep_agrees_with_powers_from_scratch():
    # unsorted, repeated exponents; each entry against its own power
    ks = [7, 1, 64, 7, 2, 33]
    assert val2_delta_c4pow(ks) == [
        levelmaps._content_check(f"delta(c4^{k})", Q4 ** k - F4 ** k,
                                 4 + val_p_int(k, 2)) for k in ks]
    ks = [5, 0, 32, 0, 1]
    assert val_delta_c4c6(ks) == [
        levelmaps._content_check(f"delta(c4^{k}*c6)", Q4 ** k * Q6 - F4 ** k * F6, 3)
        for k in ks]
    ks = [9, 1, 64, 9, 3]
    for d in (2, 5):
        assert lemma_binomial_check(d, ks) == [
            levelmaps._content_check(f"(a1^3 + 2^{d}*a3)^{k} - a1^{3 * k}",
                                     (a1() ** 3 + 2 ** d * a3()) ** k - a1() ** (3 * k),
                                     d + val_p_int(k, 2)) for k in ks]
    assert val2_delta_c4pow([]) == val_delta_c4c6([]) == lemma_binomial_check(3, []) == []


def test_sweeps_reject_exponents_out_of_range():
    with pytest.raises(ValueError, match="k >= 1 required"):
        val2_delta_c4pow([3, 0])
    with pytest.raises(ValueError, match="k >= 0 required"):
        val_delta_c4c6([3, -1])
    with pytest.raises(ValueError, match="k >= 1 required"):
        lemma_binomial_check(2, [2, 0])


# -- tstar against the generator expansion ------------------------------------

def _ref_tstar(g):
    """t* as the earlier code computed it: clear the denominator to a power
    Delta^m, expand each monomial a1^i a3^j of the numerator in
    T_A = t*(a1^2), T_B = t*(a1 a3), T_C = t*(a3^2), and divide by
    t*(Delta^m) = q*(Delta)^m = a3^m (a1^3 - 27 a3)^(3m)."""
    m = max(math.ceil(g.e3 / 3), g.e9)
    num = g.num * a3() ** (3 * m - g.e3) * disc_factor() ** (m - g.e9)
    out = MultiPoly({})
    for (i, j), c in num.terms.items():
        k = min(i, j)
        term = Fraction(c, num.den) * T_B ** k
        if i > j:
            term = term * T_A ** ((i - j) // 2)
        elif j > i:
            term = term * T_C ** ((j - i) // 2)
        out = out + term
    return LocElem(out, m, 3 * m)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 4)),
                       st.builds(Fraction, st.integers(-30, 30),
                                 st.sampled_from([1, 2, 3, 9])), max_size=5),
       st.integers(0, 4), st.integers(0, 3))
def test_tstar_matches_the_generator_expansion(terms, e3, e9):
    # a sigma-invariant element: every a1^i a3^j has i + j = e3 + e9 mod 2
    terms = {(i, j): c for (i, j), c in terms.items() if (i + j - e3 - e9) % 2 == 0}
    g = LocElem(MultiPoly(terms), e3, e9)
    t = tstar(g)
    assert t == _ref_tstar(g)
    # t* returns its numerator unreduced, so it must already be canonical
    # (LocElem equality compares numerator and exponents as stored)
    assert t == LocElem(t.num, t.e3, t.e9)
    if not g.is_zero() and len(g.num.groups) == 1:
        assert tstar(tstar(g)) == Fraction(3) ** g.weight_of() * g


def test_tstar_matches_the_generator_expansion_on_what_verify_builds():
    # the hypothesis test stops at exponent 7; the elements of items 3 and 8,
    # delta(m) on the basis and the cocycles e_alpha, have groups of up to
    # 33 entries, where every entry of the Taylor shift is a long sum
    from tmf3.qexp import e_alpha, eisenstein_in_c4c6
    elements = [delta_map(m) for m in basis_monomials(48)]
    elements += [e_alpha(G)[0] for G in eisenstein_in_c4c6(range(4, 41, 2)).values()]
    assert len(elements) == 161 + 19
    assert max(len(cs) for g in elements for cs in g.num.groups.values()) > 30
    for g in elements:
        assert tstar(g) == _ref_tstar(g), g


def test_tstar_rejects_an_element_that_is_not_sigma_invariant():
    with pytest.raises(ValueError, match="sigma-invariant"):
        tstar(LocElem(a1() ** 2 + a3()))
    with pytest.raises(ValueError, match="sigma-invariant"):
        tstar(LocElem(a1() ** 2, 1, 0))


# -- delta and D1 reduced once against the sums of reduced parts --------------

def _fields(g):
    return g.num, g.e3, g.e9


def test_delta_and_D1_equal_the_sums_of_their_reduced_parts():
    from tmf3.qexp import eisenstein_in_c4c6
    forms = basis_monomials(48) + list(eisenstein_in_c4c6(range(4, 41, 2)).values())
    assert len(forms) == 161 + 19
    nonzero = 0
    for m in forms:
        d = delta_map(m)
        assert _fields(d) == _fields(qstar(m) - fstar(m)), m
        # D1 on a cocycle, and on pairs where it does not vanish
        for u, v in (cochain_D0(m), (d, m), (d, hstar(m))):
            got = cochain_D1(u, v)
            assert _fields(got) == _fields(tstar(u) + u - fstar(v)), m
            nonzero += not got.is_zero()
    # the last two pairs never give zero
    assert nonzero == 2 * len(forms)


def test_item_cosimplicial_divides_once_per_monomial_at_most(monkeypatch):
    from tmf3 import multipoly, verify
    calls = []
    real = multipoly.divide_exact

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(multipoly, "divide_exact", counted)
    assert verify.item_cosimplicial()["pass"]
    # delta(m) is reduced once; D1(D0(m)) is zero and needs no division
    assert len(calls) <= len(basis_monomials(48)) == 161
