import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tmf3 import multipoly, sseq
from tmf3.funfield import FieldPoly
from tmf3.multipoly import (MultiPoly, GF2Poly, LocElem, a1, a3, disc_factor,
                            divide_exact, loc_sum, mod2)
from tmf3.rationals import val_p_int


def test_basic_arithmetic_and_text():
    p = a1() ** 2 - 3 * a1() * a3()
    assert p.to_text() == "1*a1^2 + -3*a1*a3"
    assert (p - p).is_zero()
    assert ((a1() + a3()) * (a1() - a3()) - (a1() ** 2 - a3() ** 2)).is_zero()


def test_weights():
    assert a1().weight_of() == 1
    assert a3().weight_of() == 3
    assert (a3() ** 3 * disc_factor()).weight_of() == 12
    with pytest.raises(ValueError):
        (a1() + a3()).weight_of()


def test_divide_exact_by_disc_factor():
    p = disc_factor() ** 3 * (a1() + 2 * a3())
    q = divide_exact(p)
    assert q is not None
    assert (q - disc_factor() ** 2 * (a1() + 2 * a3())).is_zero()
    assert divide_exact(a1() ** 3 - 26 * a3()) is None


def test_divide_exact_edge_cases():
    assert divide_exact(MultiPoly({})) == 0
    for p in (MultiPoly.const(Fraction(-2, 3)), a1(), a1() ** 2, a3()):
        assert divide_exact(p) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 3),
       st.integers(0, 2))
def test_divide_exact_inverts_multiplication(c1, c2, e1, e2):
    p = c1 * a1() ** e1 + c2 * a3() ** e2
    prod = p * disc_factor()
    q = divide_exact(prod)
    if p.is_zero():
        assert q is None or q.is_zero()
    else:
        assert q is not None and (q - p).is_zero()


def test_loc_elem_canonical_form():
    # Delta / Delta cancels completely
    g = LocElem(a3() ** 3 * disc_factor(), 3, 1)
    assert g == LocElem(MultiPoly.const(1))
    assert g.e3 == 0 and g.e9 == 0


def test_loc_elem_weight():
    g = LocElem(a1() ** 4, 1, 0)     # a1^4 / a3
    assert g.weight_of() == 1
    h = LocElem(MultiPoly.const(1), 3, 1)   # 1 / Delta
    assert h.weight_of() == -12


def test_loc_elem_arithmetic():
    x = LocElem(a1(), 1, 0)
    y = LocElem(a3(), 1, 0)
    s = x + y
    assert s == LocElem(a1() + a3(), 1, 0)
    assert (x * y) == LocElem(a1() * a3(), 2, 0)
    assert (s - s).is_zero()


def test_gf2_reduction_and_frobenius():
    p = 2 * a1() ** 2 + 3 * a1() * a3() + 4 * a3() ** 2
    g = mod2(p)
    assert g.monos == frozenset({(1, 1)})
    sq = GF2Poly([(1, 0), (0, 1)]) ** 2
    assert sq.monos == frozenset({(2, 0), (0, 2)})


def test_gf2_power_is_the_repeated_product():
    x = GF2Poly([(1, 0), (0, 1), (3, 2)])
    power = x.one()
    for n in range(21):
        assert x ** n == power, n
        power = power * x


def test_gf2_negative_power_raises_without_looping():
    # a loop on the bits of n never ends at n = -1, since -1 >> 1 == -1;
    # a fresh process bounds the wait
    code = ("import pytest\nfrom tmf3.multipoly import GF2Poly\n"
            "with pytest.raises(ValueError, match='not invertible'):\n"
            "    GF2Poly([(1, 0), (0, 1)]) ** -1\n")
    env = {**os.environ, "PYTHONPATH": str(Path(multipoly.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_min_a1_term():
    # a1 is the first variable, so the least exponent tuple of a mod-2
    # polynomial is its term of least a1-power, as delta_mod2_Delta_pow reads it
    assert GF2Poly.vars == ("a1", "a3")
    g = mod2(a1() ** 6 * a3() ** 2 + a1() ** 8 * a3() + a1() ** 7 * a3() ** 5)
    assert min(g.monos) == (6, 2)
    with pytest.raises(ValueError):
        min(mod2(2 * a1()).monos)


# -- differential tests against a Fraction-dict reference ---------------------
#
# A reference polynomial is a dict {exponent tuple: nonzero Fraction}, in
# (a1, a3) unless a test says otherwise.

def _ref_clean(t):
    return {e: c for e, c in t.items() if c}


def _ref_add(p, q):
    t = dict(p)
    for e, c in q.items():
        t[e] = t.get(e, 0) + c
    return _ref_clean(t)


def _ref_mul(p, q):
    t = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            t[e] = t.get(e, 0) + c1 * c2
    return _ref_clean(t)


def _ref_pow(p, n, nvars=2):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, p)
    return out


_REF_A3 = {(0, 1): Fraction(1)}
_REF_DISC = {(3, 0): Fraction(1), (0, 1): Fraction(-27)}


def _ref_divide(p, d):
    """Division by the lex-leading term of d, leading terms of p first; with
    one divisor, a leading term it does not divide stays in the remainder."""
    le = max(d)
    q, r = {}, dict(p)
    while r:
        e = max(r)
        qe = tuple(x - y for x, y in zip(e, le))
        if min(qe) < 0:
            return None
        qc = r[e] / d[le]
        q[qe] = qc
        r = _ref_add(r, _ref_mul({qe: -qc}, d))
    return q


def _ref_loc_reduce(num, e3, e9):
    if not num:
        return num, 0, 0
    while e3 > 0 and (q := _ref_divide(num, _REF_A3)) is not None:
        num, e3 = q, e3 - 1
    while e9 > 0 and (q := _ref_divide(num, _REF_DISC)) is not None:
        num, e9 = q, e9 - 1
    return num, e3, e9


def _ref_text(p, names=("a1", "a3")):
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        factors = [str(p[e])]
        for name, x in zip(names, e):
            if x == 1:
                factors.append(name)
            elif x > 1:
                factors.append(f"{name}^{x}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def _agrees(poly, ref):
    """poly is in canonical form and has the reference's coefficients."""
    assert poly.den > 0 and math.gcd(poly.den, *poly.terms.values()) == 1
    assert all(isinstance(c, int) and c for c in poly.terms.values())
    assert poly.den == 1 or poly.terms
    assert all(cs and cs[-1] for cs in poly.groups.values())
    assert {e: Fraction(poly.terms[e], poly.den) for e in poly.terms} == ref
    assert poly.to_text() == _ref_text(ref, poly.vars)
    return True


# coefficients in Z[1/3], negative ones included
_COEFFS = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 3, 9, 27]))
_REF_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 3)), _COEFFS, max_size=6).map(_ref_clean)


@settings(max_examples=80, deadline=None)
@given(_REF_POLYS, _REF_POLYS, st.integers(0, 4))
def test_arithmetic_matches_fraction_reference(p, q, n):
    P, Q = MultiPoly(p), MultiPoly(q)
    assert _agrees(P, p)
    assert _agrees(P + Q, _ref_add(p, q))
    assert _agrees(P - Q, _ref_add(p, {e: -c for e, c in q.items()}))
    assert _agrees(P * Q, _ref_mul(p, q))
    assert _agrees(P ** n, _ref_pow(p, n))
    assert _agrees(P * Fraction(-5, 9), _ref_mul(p, {(0, 0): Fraction(-5, 9)}))
    assert (P * Q == MultiPoly(_ref_mul(p, q)))
    assert hash(P * Q) == hash(MultiPoly(_ref_mul(p, q)))
    # denominators are odd: content and mod-2 reduction read the numerators
    assert mod2(P).monos == {e for e, c in p.items() if c.numerator % 2}
    if p:
        assert P.content_val2() == min(val_p_int(c.numerator, 2) for c in p.values())


@settings(max_examples=80, deadline=None)
@given(_REF_POLYS, _REF_POLYS)
def test_divide_exact_matches_fraction_reference(p, r):
    # an exact multiple, and the same plus a remainder that may break it
    for num in (_ref_mul(p, _REF_DISC), _ref_add(_ref_mul(p, _REF_DISC), r)):
        got = divide_exact(MultiPoly(num))
        want = _ref_divide(num, _REF_DISC)
        if want is None:
            assert got is None
        else:
            assert got is not None and _agrees(got, want)


@settings(max_examples=60, deadline=None)
@given(_REF_POLYS, st.integers(0, 2), st.integers(0, 2), st.integers(0, 3),
       st.integers(0, 3))
def test_loc_elem_canonical_form_matches_fraction_reference(p, k3, k9, e3, e9):
    num = _ref_mul(_ref_mul(p, _ref_pow(_REF_A3, k3)), _ref_pow(_REF_DISC, k9))
    g = LocElem(MultiPoly(num), e3, e9)
    want, w3, w9 = _ref_loc_reduce(num, e3, e9)
    assert (g.e3, g.e9) == (w3, w9)
    assert _agrees(g.num, want)


@settings(max_examples=60, deadline=None)
@given(_REF_POLYS, st.integers(0, 3), st.integers(0, 3), _COEFFS, st.integers(0, 3),
       _REF_POLYS, st.integers(0, 2), st.integers(0, 1))
def test_loc_elem_results_equal_the_reduced_form(p, e3, e9, c, n, q, k3, k9):
    # negation, a scalar and a power keep the numerator unreduced; a product
    # with h, whose numerator has the factors a3^k3 (a1^3 - 27 a3)^k9, must not
    g = LocElem(MultiPoly(p), e3, e9)
    h = LocElem(MultiPoly(q) * a3() ** k3 * disc_factor() ** k9)
    cases = [(LocElem._from_canonical(g.num, g.e3, g.e9), g.num, g.e3, g.e9),
             (-g, -g.num, g.e3, g.e9),
             (g * c, g.num * c, g.e3, g.e9),
             (g * 0, g.num * 0, g.e3, g.e9),
             (g ** n, g.num ** n, g.e3 * n, g.e9 * n),
             (g * h, g.num * h.num, g.e3, g.e9)]
    # LocElem equality compares numerator and exponents as stored
    for got, num, f3, f9 in cases:
        assert got == LocElem(num, f3, f9)
    assert ((g * 0).e3, (g * 0).e9) == (0, 0)


@settings(max_examples=30, deadline=None)
@given(_REF_POLYS, _REF_POLYS)
def test_loc_sum_lifts_by_the_factor_it_reads(p, q):
    # loc_sum takes its powers of a1^3 - 27 a3 from a table kept by value;
    # after a sum with the true factor has filled it, a sum with another
    # factor bound to _DISC must lift by that factor's own powers
    P, Q = MultiPoly(p), MultiPoly(q)
    assert loc_sum((P, 0, 0), (Q, 0, 2)) == LocElem(P * disc_factor() ** 2 + Q, 0, 2)
    wrong = {(3, 0): Fraction(1), (0, 1): Fraction(27)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multipoly, "_DISC", MultiPoly(wrong))
        got = loc_sum((P, 0, 0), (Q, 0, 2))
    want, w3, w9 = _ref_loc_reduce(_ref_add(_ref_mul(p, _ref_pow(wrong, 2)), q), 0, 2)
    assert (got.e3, got.e9) == (w3, w9)
    assert _agrees(got.num, want)


class _A1X(MultiPoly):
    """A second variable of weight other than 3."""

    __slots__ = ()
    vars = ("a1", "x")
    weights = (1, 2)


# the level-3 ring, (a1, x) and the function field's (a1, a3, x), each with
# the exponent bounds its random polynomials use
VAR_SETS = [(MultiPoly, (6, 3)), (_A1X, (6, 6)), (FieldPoly, (4, 2, 3))]


def test_equal_names_mean_equal_gradings():
    # a generator built alone and one the function field shares are one
    # polynomial: they add, multiply and compare as such
    from tmf3 import funfield
    x = FieldPoly.gen("x")
    assert x == funfield._X and hash(x) == hash(funfield._X)
    assert (x + funfield._X).to_text() == "2*x"
    assert x * funfield._A1 == funfield._A1 * funfield._X
    assert (x * funfield._A3).weight_of() == 5


def _polys(bounds):
    return st.dictionaries(st.tuples(*(st.integers(0, b) for b in bounds)),
                           _COEFFS, max_size=6).map(_ref_clean)


@pytest.mark.parametrize("cls, bounds", VAR_SETS, ids=["a1a3", "a1x", "a1a3x"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_graded_layout_matches_fraction_reference(cls, bounds, data):
    p, q = (data.draw(_polys(bounds)) for _ in range(2))
    n = data.draw(st.integers(0, 4))
    P, Q = cls(p), cls(q)
    assert type(P + Q) is type(P * Q) is type(P ** n) is type(-P) is cls
    one = (0,) * len(cls.vars)
    assert _agrees(P, p)
    assert _agrees(P + Q, _ref_add(p, q))
    assert _agrees(P - Q, _ref_add(p, {e: -c for e, c in q.items()}))
    assert _agrees(P * Q, _ref_mul(p, q))
    assert _agrees(P ** n, _ref_pow(p, n, len(cls.vars)))
    assert _agrees(P * Fraction(-5, 9), _ref_mul(p, {one: Fraction(-5, 9)}))
    # equal values built along different paths are equal and hash alike
    assert (P == Q) == (p == q)
    assert P * Q == Q * P and hash(P * Q) == hash(Q * P)
    assert (P + Q) - Q == P and hash((P + Q) - Q) == hash(P)
    # mod2 reduces exactly a polynomial in (a1, a3)
    if cls is MultiPoly:
        assert mod2(P).monos == {e for e, c in p.items() if c.numerator % 2}
    else:
        with pytest.raises(TypeError, match=r"not a polynomial in \(a1, a3\)"):
            mod2(P)
    if p:
        assert P.content_val2() == min(val_p_int(c.numerator, 2) for c in p.values())


# -- GF2Poly against a set-of-monomials reference -----------------------------
#
# A reference F2 polynomial is the set of its exponent tuples: a sum is the
# symmetric difference, and the products of one monomial by the terms of
# another are distinct, so a product is the symmetric difference of those.

def _ref_gf2_mul(p, q):
    out = set()
    for e1 in p:
        out ^= {tuple(x + y for x, y in zip(e1, e2)) for e2 in q}
    return out


def _ref_gf2_pow(p, n, nvars):
    out = {(0,) * nvars}
    for _ in range(n):
        out = _ref_gf2_mul(out, p)
    return out


def _ref_gf2_text(p, names):
    return " + ".join("*".join(name if x == 1 else f"{name}^{x}"
                               for name, x in zip(names, e) if x) or "1"
                      for e in sorted(p, reverse=True)) or "0"


# (a1, a3) and the chart's (zeta, a1, a3), each with its exponent bounds
GF2_VAR_SETS = [(GF2Poly, (9, 5)), (sseq.RawPoly, (5, 6, 4))]


@pytest.mark.parametrize("cls, bounds", GF2_VAR_SETS, ids=["a1a3", "zeta_a1a3"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gf2_layout_matches_a_set_reference(cls, bounds, data):
    monos = st.sets(st.tuples(*(st.integers(0, b) for b in bounds)), max_size=6)
    p, q = data.draw(monos), data.draw(monos)
    n = data.draw(st.integers(0, 9))
    P, Q = cls(p), cls(q)
    assert type(P + Q) is type(P * Q) is type(P ** n) is cls
    # canonical: no zero mask, so equal values have equal fields
    assert all(P.groups.values()) and all((P * Q).groups.values())
    assert P.monos == p and (P + Q).monos == p ^ q
    assert (P * Q).monos == _ref_gf2_mul(p, q)
    assert (P ** n).monos == _ref_gf2_pow(p, n, len(bounds))
    assert P.to_text() == _ref_gf2_text(p, cls.vars)
    # a repeated monomial cancels in pairs
    assert cls([*p, *q, *q]) == P and cls([*p, *p]).is_zero()
    assert (P == Q) == (p == q)
    assert P * Q == Q * P and hash(P * Q) == hash(Q * P)
    assert (P + Q) + Q == P and hash((P + Q) + Q) == hash(P)


@settings(max_examples=80, deadline=None)
@given(_REF_POLYS, st.sampled_from([1, 2, 4, 6]))
def test_mod2_is_the_parity_of_the_numerators(p, scale):
    # over an odd den a coefficient is odd exactly when its numerator is;
    # an even den names the first coefficient, in the order of terms, that
    # keeps an even denominator
    P = MultiPoly(p) * Fraction(1, scale)
    if P.den % 2:
        assert mod2(P).monos == {e for e, c in P.terms.items() if c % 2}
    else:
        bad = next(c for c in (Fraction(n, P.den) for n in P.terms.values())
                   if c.denominator % 2 == 0)
        with pytest.raises(ValueError, match=f"^coefficient {bad} has even denominator$"):
            mod2(P)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(VAR_SETS[:2]), st.integers(0, 2),
       st.lists(_COEFFS, min_size=1, max_size=7).filter(lambda cs: cs[-1]),
       st.integers(0, 6))
def test_power_of_a_homogeneous_polynomial(var_set, zeros, cs, n):
    # one weight group, leading zeros included: the power takes Miller's
    # recurrence, checked against repeated products
    cls, _ = var_set
    wl, top = cls.weights[1], zeros + len(cs) - 1
    p = _ref_clean({(wl * (top - j), j): c for j, c in enumerate([0] * zeros + cs)})
    P = cls(p)
    assert len(P.groups) == 1
    assert _agrees(P ** n, _ref_pow(p, n))


def test_inhomogeneous_sums():
    s = a1() + a3()
    assert sorted(s.groups) == [(1,), (3,)]
    assert (s - a3()).to_text() == "1*a1"
    assert (s ** 2).to_text() == "1*a1^2 + 2*a1*a3 + 1*a3^2"
    with pytest.raises(ValueError):
        s.weight_of()


def test_loc_elem_zero_is_not_invertible():
    with pytest.raises(ValueError, match="not invertible"):
        LocElem(MultiPoly({}), 1, 1).inverse()



def test_loc_elem_inverse_of_seeded_units():
    # units c a3^i D^j / (a3^e3 D^e9), D = a1^3 - 27 a3, against the inverse
    # written down directly; a factor a1 or a1 + a3 makes them non-units
    rng = random.Random(17)
    one = LocElem(MultiPoly.const(1))
    for _ in range(60):
        i, j, e3, e9 = (rng.randint(0, 4) for _ in range(4))
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 12))
        x = LocElem(c * a3() ** i * disc_factor() ** j, e3, e9)
        assert x.inverse() == LocElem(a3() ** e3 * disc_factor() ** e9 / c, i, j)
        assert x * x.inverse() == one
        for factor in (a1(), a1() + a3()):
            with pytest.raises(ValueError, match="not invertible"):
                (x * LocElem(factor)).inverse()


def _fields(p):
    return p.vars, p.weights, p.groups, p.den


def test_the_shared_generators_survive_use():
    from tmf3 import verify
    # a1() and a3() return one shared MultiPoly each
    assert a1() is a1() and a3() is a3() and disc_factor() is disc_factor()
    assert all(r["pass"] for r in verify.run_all())
    for shared, name in ((a1(), "a1"), (a3(), "a3")):
        fresh = MultiPoly.gen(name)
        assert shared == fresh and _fields(shared) == _fields(fresh)
    assert _fields(disc_factor()) == _fields(MultiPoly.gen("a1") ** 3
                                             - 27 * MultiPoly.gen("a3"))
