from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from tmf3.funfield import FFElem
from tmf3.levelmaps import LevelOneForm
from tmf3.multipoly import GF2Poly, LocElem, MultiPoly, a1, a3
from tmf3.qexp import QSeries, series_c4
from tmf3.ring import monomial_text, power, terms_text


# one element of each class with its one
SAMPLES = {
    "GF2Poly": (GF2Poly([(1, 0), (0, 1), (2, 1)]), GF2Poly([(0, 0)])),
    "MultiPoly": (a1() + a3() - 3, MultiPoly.const(1)),
    "MultiPoly homogeneous": (a1() ** 3 - 27 * a3(), MultiPoly.const(1)),
    "LevelOneForm": (LevelOneForm.c4() + 2 * LevelOneForm.c6()
                     - LevelOneForm.delta(-1), LevelOneForm.const(1)),
    "QSeries": (series_c4(8) + QSeries.q(8), QSeries.one(8)),
    "LocElem": (LocElem(a1() + a3(), 1, 1), LocElem(MultiPoly.const(1))),
    "FFElem": (FFElem.x() + FFElem(Fraction(1, 2)) * FFElem.y(), FFElem(1)),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_power_is_the_repeated_product(name):
    x, one = SAMPLES[name]
    for n in range(7):
        assert x ** n == reduce(mul, [x] * n, one), n


@pytest.mark.parametrize("x", [GF2Poly([(1, 0)]), a1() + a3(), a1(),
                               LevelOneForm.c4()])
def test_negative_powers_raise(x):
    with pytest.raises(ValueError):
        x ** -1


def test_power_helper_raises_for_negative_exponents():
    with pytest.raises(ValueError, match="negative exponent -2"):
        power(3, -2, 1)


@pytest.mark.parametrize("x, one", [
    (series_c4(8) + QSeries.q(8), QSeries.one(8)),
    (LocElem(a3() ** 2 * (a1() ** 3 - 27 * a3()), 1, 0), LocElem(MultiPoly.const(1))),
    (FFElem.x() * FFElem.y(), FFElem(1))])
def test_negative_powers_invert(x, one):
    assert x ** -2 * x ** 2 == one
    assert x ** -1 * x == one


def test_power_skips_the_last_squaring():
    calls = []

    class Counted(int):
        def __mul__(self, other):
            calls.append(other)
            return Counted(int(self) * int(other))

    assert power(Counted(3), 5, Counted(1)) == 243
    # 5 = 101b: two products into the result and two squarings
    assert len(calls) == 4


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
