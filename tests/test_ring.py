import ast
import importlib
from fractions import Fraction
from functools import reduce
from operator import add, mul, sub, truediv
from pathlib import Path

import pytest

from tmf3 import funfield, sseq
from tmf3.funfield import FFElem
from tmf3.levelmaps import LevelOneForm
from tmf3.multipoly import GF2Poly, LocElem, MultiPoly, a1, a3, divide_exact
from tmf3.qexp import QSeries, series_c4
from tmf3.ring import Ring, ladder, monomial_text, power, terms_text


# one element of each class with its one
SAMPLES = {
    "GF2Poly": (GF2Poly([(1, 0), (0, 1), (2, 1)]), GF2Poly([(0, 0)])),
    "MultiPoly": (a1() + a3() - 3, MultiPoly.const(1)),
    "MultiPoly homogeneous": (a1() ** 3 - 27 * a3(), MultiPoly.const(1)),
    "LevelOneForm": (LevelOneForm.c4() + 2 * LevelOneForm.c6()
                     - LevelOneForm.delta(-1), LevelOneForm.const(1)),
    "QSeries": (series_c4(8) + QSeries.q(8), QSeries([1], 8)),
    "LocElem": (LocElem(a1() + a3(), 1, 1), LocElem(MultiPoly.const(1))),
    "FFElem": (FFElem.x() + FFElem(Fraction(1, 2)) * FFElem.y(), FFElem(1)),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_power_is_the_repeated_product(name):
    x, one = SAMPLES[name]
    for n in range(7):
        assert x ** n == reduce(mul, [x] * n, one), n


@pytest.mark.parametrize("x", [GF2Poly([(1, 0)]), a1() + a3(), a1(),
                               LevelOneForm.c4(), LevelOneForm.c6(),
                               LevelOneForm.delta() + 1, LevelOneForm()])
def test_negative_powers_raise(x):
    with pytest.raises(ValueError):
        x ** -1


HASHABLE = [name for name in SAMPLES if name != "QSeries"]


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_values_have_equal_hashes(name):
    x, one = SAMPLES[name]
    # a new object, built by a product, that agrees with x only by value
    y = x * one
    assert y == x and y is not x
    assert hash(y) == hash(x)
    assert len({x, y, x * x}) == 2


@pytest.mark.parametrize("name", [name for name in SAMPLES if name != "GF2Poly"])
def test_a_scalar_compares_as_its_multiple_of_one(name):
    x, one = SAMPLES[name]
    for c in (0, 1, -3, Fraction(1, 2)):
        assert (x == c) == (x == x.one() * c), c
        assert one * c == c and c == one * c and one * c != c + 1, c
    assert x.one() == one


@pytest.mark.parametrize("name", SAMPLES)
def test_a_foreign_value_is_never_equal(name):
    # None, a str and a float are no ring elements: == is False, not an error
    x, one = SAMPLES[name]
    for other in (None, "x", 1.0):
        assert (x == other) is False and (one == other) is False, other
        assert (x != other) is True and (other != x) is True, other
    assert x not in [None]


# an element in another variable set is as foreign as None: a polynomial
# in (a1, a3) and one of the function field's, or a mod-2 polynomial in
# (a1, a3) and one in the chart's (zeta, a1, a3)
OTHER_VARIABLES = {
    MultiPoly: [funfield._X + 1, funfield.FieldPoly.const(1)],
    LocElem: [funfield._X + 1, funfield.FieldPoly.const(1)],
    FFElem: [a1() + a3(), MultiPoly.const(1)],
    GF2Poly: [sseq.RawPoly([(1, 0, 3)]), sseq.RawPoly([(0, 0, 0)])],
}


@pytest.mark.parametrize("name", SAMPLES)
def test_arithmetic_with_a_foreign_value_is_a_type_error(name):
    # each operator declines the operand, and so does the other one's
    # reflected operator: Python raises its TypeError, not an AttributeError
    x, one = SAMPLES[name]
    for other in (None, "x", 1.5, *OTHER_VARIABLES.get(type(x), ())):
        for y in (x, one):
            assert (y == other) is False and (other == y) is False, other
            for op in (add, sub, mul, truediv):
                with pytest.raises(TypeError):
                    op(y, other)
                with pytest.raises(TypeError):
                    op(other, y)


@pytest.mark.parametrize("p", [funfield._X, funfield._A1 ** 3 - 27 * funfield._A3,
                               funfield.FieldPoly()])
def test_the_level3_ring_refuses_a_function_field_polynomial(p):
    # neither divides by a1^3 - 27*a3 nor stores a numerator in (a1, a3, x)
    with pytest.raises(TypeError, match=r"not a polynomial in \(a1, a3\)"):
        divide_exact(p)
    for e3, e9 in ((0, 0), (1, 1)):
        with pytest.raises(TypeError, match=r"not a polynomial in \(a1, a3\)"):
            LocElem(p, e3, e9)


@pytest.mark.parametrize("p, g", [(a1() + a3(), LocElem(a1() ** 2, 1, 0)),
                                  (funfield._X + 1, FFElem.y())])
def test_a_polynomial_mixes_with_its_localization_in_either_order(p, g):
    # MultiPoly's operators decline g, so g's reflected operators lift p
    assert p * g == g * p and p + g == g + p
    assert p - g == -(g - p)
    assert type(p * g) is type(g) and type(p + g) is type(g)


@pytest.mark.parametrize("name", SAMPLES)
def test_a_zero_is_falsy(name):
    # Ring derives truth from is_zero, so a zero coefficient of any ring
    # reads as 0 in a test such as WCurve.is_smooth's
    x, one = SAMPLES[name]
    zero = x + x if name == "GF2Poly" else x - x
    assert zero.is_zero() and bool(zero) is False and not zero
    assert bool(x) is True and bool(one) is True
    assert "__bool__" in vars(Ring) and "__bool__" not in vars(type(x))


def test_a_gf2poly_never_equals_a_scalar():
    # no scalar mixes with a GF2Poly, not even the ones that would read as 0 or 1
    assert (GF2Poly([(1, 0)]) == 0) is False
    assert (GF2Poly() == 0) is False and (GF2Poly([(0, 0)]) == 1) is False
    assert GF2Poly([(1, 0)]) != 0


def test_a_level3_element_equals_its_numerator_over_one():
    p = a1() ** 3 - 27 * a3()
    assert LocElem(p) == p and p == LocElem(p)
    assert LocElem(p, 1, 0) != p and p != LocElem(p, 1, 0)
    assert hash(LocElem(p)) == hash(LocElem(p * a3(), 1, 0))


def test_only_qseries_defines_its_own_equality():
    # QSeries compares up to the common precision, which no key can do
    classes = {type(x) for x, _ in SAMPLES.values()}
    assert {cls for cls in classes if "__eq__" in vars(cls)} == {QSeries}
    assert {cls for cls in classes if vars(cls).get("__hash__")} == set()
    with pytest.raises(TypeError, match="unhashable"):
        hash(QSeries.q(4))
    assert QSeries([1, 2], 2) == QSeries([1, 2, 3], 3) and QSeries([1], 1) == 1
    # the q-expansion of c4 and c4 itself live in different rings
    assert series_c4(5) != LevelOneForm.c4() and LevelOneForm.c4() != series_c4(5)


def test_only_ring_derives_negation_and_printing():
    # a subclass prints through its to_text, and negates by its product by -1
    classes = {type(x) for x, _ in SAMPLES.values()}
    for name in ("__neg__", "__str__", "__repr__"):
        assert name in vars(Ring)
        assert {cls for cls in classes if name in vars(cls)} == set(), name
    assert all("to_text" in vars(cls) for cls in classes)


@pytest.mark.parametrize("name", SAMPLES)
def test_negation_is_the_product_by_minus_one(name):
    for x in SAMPLES[name]:
        assert str(x) == x.to_text()
        assert repr(x) == f"{type(x).__name__}({x.to_text()})"
        if name == "GF2Poly":
            # no scalar mixes with a GF2Poly, so it has no -x
            for op in (lambda: -x, lambda: x * -1, lambda: 0 - x):
                with pytest.raises(TypeError):
                    op()
        else:
            assert -x == x * -1 == 0 - x and -x + x == 0


# a level-3 element's text over each denominator a3^e3 (a1^3 - 27*a3)^e9
LOC_TEXTS = {
    (0, 0): "2*a1^2 + -1/3*a1*a3",
    (0, 1): "(2*a1^2 + -1/3*a1*a3) / ((a1^3 - 27*a3))",
    (0, 2): "(2*a1^2 + -1/3*a1*a3) / ((a1^3 - 27*a3)^2)",
    (1, 0): "(2*a1^2 + -1/3*a1*a3) / (a3)",
    (1, 1): "(2*a1^2 + -1/3*a1*a3) / (a3 * (a1^3 - 27*a3))",
    (1, 2): "(2*a1^2 + -1/3*a1*a3) / (a3 * (a1^3 - 27*a3)^2)",
    (2, 0): "(2*a1^2 + -1/3*a1*a3) / (a3^2)",
    (2, 1): "(2*a1^2 + -1/3*a1*a3) / (a3^2 * (a1^3 - 27*a3))",
    (2, 2): "(2*a1^2 + -1/3*a1*a3) / (a3^2 * (a1^3 - 27*a3)^2)",
}


@pytest.mark.parametrize("e3, e9", LOC_TEXTS)
def test_a_level3_element_prints_its_denominator(e3, e9):
    g = LocElem(2 * a1() ** 2 - Fraction(1, 3) * a1() * a3(), e3, e9)
    assert (g.e3, g.e9) == (e3, e9)
    assert g.to_text() == LOC_TEXTS[e3, e9]


def test_a_q_series_prints_its_known_terms():
    s = QSeries([0, -1, 0, Fraction(2, 3), 0, 5], 6)
    assert [s.to_text(terms=n) for n in (0, 1, 2, 4, 6, 9)] == [
        "0 + O(q^0)", "0 + O(q^1)", "-1*q + O(q^2)", "-1*q + 2/3*q^3 + O(q^4)",
        "-1*q + 2/3*q^3 + 5*q^5 + O(q^6)", "-1*q + 2/3*q^3 + 5*q^5 + O(q^6)"]
    assert QSeries([Fraction(-1, 2), 0, 0], 3).to_text() == "-1/2 + O(q^3)"
    assert QSeries([0, 0, 0], 3).to_text() == "0 + O(q^3)"
    assert QSeries([7], 1).to_text(terms=5) == "7 + O(q^1)"


def test_power_helper_raises_for_negative_exponents():
    with pytest.raises(ValueError, match="negative exponent -2"):
        power(3, -2, 1)


UNITS = [
    (series_c4(8) + QSeries.q(8), QSeries([1], 8)),
    (LocElem(a3() ** 2 * (a1() ** 3 - 27 * a3()), 1, 0), LocElem(MultiPoly.const(1))),
    (FFElem.x() * FFElem.y(), FFElem(1)),
    (3 * LevelOneForm.delta(-2), LevelOneForm.const(1))]


@pytest.mark.parametrize("x, one", UNITS)
def test_negative_powers_invert(x, one):
    assert x ** -2 * x ** 2 == one
    assert x ** -1 * x == one


@pytest.mark.parametrize("x, one", UNITS)
def test_scalar_over_a_unit(x, one):
    assert 2 / x * x == 2 * one
    assert Fraction(1, 3) / x == x ** -1 * Fraction(1, 3)
    assert x / 2 * 2 == x


def test_power_skips_the_last_squaring():
    calls = []

    class Counted(int):
        def __mul__(self, other):
            calls.append(other)
            return Counted(int(self) * int(other))

    assert power(Counted(3), 5, Counted(1)) == 243
    # 5 = 101b: two products into the result and two squarings
    assert len(calls) == 4


def test_ladder_takes_each_power_from_the_one_below():
    calls = []

    class Counted(int):
        def __mul__(self, other):
            calls.append(other)
            return Counted(int(self) * int(other))

        def __pow__(self, n):
            return power(self, n, Counted(1))

    # the c4-exponents of a weight-40 form; 0 is left out
    assert ladder(Counted(2), [10, 7, 4, 1, 0, 4]) == {n: 2 ** n for n in (1, 3, 4, 7, 10)}
    # x^3 by power takes three products, and x^4, x^7, x^10 one each
    assert len(calls) == 6
    assert ladder(Counted(2), []) == {1: 2}


def test_ladder_takes_negative_powers_from_the_inverse():
    x = FFElem.x() * FFElem.y()
    table = ladder(x, [-3, 2, -1, 0, -3])
    # x^-3 is x^-1 times the step x^-2, which the table keeps
    assert sorted(table) == [-3, -2, -1, 1, 2]
    assert all(p == x ** n for n, p in table.items())
    # the inverse is made only for a negative exponent: a1 + a3 has none
    assert ladder(a1() + a3(), [3, 2]) == {n: (a1() + a3()) ** n for n in (1, 2, 3)}


def test_monomial_text():
    assert monomial_text(("a1", "a3"), (0, 0)) == ""
    assert monomial_text(("a1", "a3"), (1, 0)) == "a1"
    assert monomial_text(("a1", "zeta", "a3"), (2, 1, 3)) == "a1^2*zeta*a3^3"
    assert monomial_text(("c4", "c6", "Delta"), (0, 1, -2)) == "c6*Delta^-2"


def test_terms_text():
    names = ("c4", "c6", "Delta")
    assert terms_text(names, {}) == "0"
    assert terms_text(names, {(0, 0, 0): Fraction(-1, 3), (3, 0, -1): 2}) == \
        "2*c4^3*Delta^-1 + -1/3"


def _traced_methods():
    """The "Class.method" paths of perfbench/tracer.py's SPANS, read from
    its source without importing it."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text())
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "SPANS")
    return [(module, path) for module, path, _, _ in spans if "." in path]


@pytest.mark.parametrize("module, path", _traced_methods())
def test_traced_methods_are_defined_on_their_own_class(module, path):
    # a method inherited from Ring would be wrapped on Ring, and every
    # subclass's calls would be counted under this one span
    cls_name, method = path.split(".")
    assert method in vars(getattr(importlib.import_module(module), cls_name))
