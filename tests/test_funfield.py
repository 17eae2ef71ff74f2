import os
import subprocess
import sys
from pathlib import Path

import pytest

from tmf3 import funfield, weierstrass
from tmf3.funfield import (FFElem, sigma_pullback, velu3, velu3_closed_form,
                           verify_isogeny)
from tmf3.multipoly import MultiPoly, a1
from tmf3.weierstrass import WCurve


def gen(name):
    return funfield.FieldPoly.gen(name)


def test_field_relation():
    x, y = FFElem.x(), FFElem.y()
    lhs = y * y + FFElem(gen("a1") * gen("x") + gen("a3")) * y
    assert lhs == x ** 3


def test_inverse_and_norm():
    x, y = FFElem.x(), FFElem.y()
    for e in (x, y, sigma_pullback(x), x * x * y):
        assert (e * e.inv()) == 1
    assert (y * y.conj()).v == 0
    with pytest.raises(ValueError):
        (x + y).inv()


@pytest.mark.parametrize("args", [(a1(),), (1, a1()), (0, MultiPoly.const(1))],
                         ids=["u", "v", "v constant"])
def test_a_part_in_another_variable_set_is_a_type_error(args):
    # u and v are polynomials in (a1, a3, x): one in (a1, a3) is foreign
    with pytest.raises(TypeError, match=r"polynomials in \(a1, a3, x\)"):
        FFElem(*args)


def test_sigma_has_order_three():
    x, y = FFElem.x(), FFElem.y()
    sx = sigma_pullback(x)
    assert sigma_pullback(sigma_pullback(sx)) == x
    sy = sigma_pullback(y)
    assert sigma_pullback(sigma_pullback(sy)) == y


def test_velu3_closed_form_matches_trace():
    Cprime, X, Y = velu3()
    Xc, Yc = velu3_closed_form()
    assert X == Xc and Y == Yc


def test_quotient_curve_coefficients():
    a1, a3 = gen("a1"), gen("a3")
    Cprime, _, _ = velu3()
    assert Cprime.coeffs() == (a1, 0, 3 * a3, -6 * a1 * a3,
                               -(9 * a3 ** 2 + a1 ** 3 * a3))


def test_full_isogeny_verification():
    report = verify_isogeny(*velu3())
    assert all(report.values()), report


# -- negative controls: each check of verify_isogeny can fail ----------------

def test_wrong_a6_fails_equation():
    Cprime, X, Y = velu3()
    a1, a2, a3, a4, a6 = Cprime.coeffs()
    report = verify_isogeny(WCurve(a1, a2, a3, a4, a6 + gen("a3") ** 2), X, Y)
    assert report["equation"] is False


def test_wrong_a4_from_gamma1_curves_fails_equation(monkeypatch):
    # velu3 takes its E' from gamma1_curves, the curve q* is built from; a
    # wrong a4 there moves E' off the image (X, Y) and fails that check alone.
    # funfield imported the name, so it is patched there too
    real = weierstrass.gamma1_curves

    def wrong(a1, a3):
        E, Ep = real(a1, a3)
        return E, WCurve(Ep.a1, Ep.a2, Ep.a3, Ep.a4 + a1 * a3, Ep.a6)

    monkeypatch.setattr(weierstrass, "gamma1_curves", wrong)
    monkeypatch.setattr(funfield, "gamma1_curves", wrong)
    report = verify_isogeny(*velu3())
    assert [k for k, v in report.items() if not v] == ["equation"]


def test_shifted_X_fails_differential():
    Cprime, X, Y = velu3()
    report = verify_isogeny(Cprime, X + FFElem(gen("a3")), Y)
    assert report["differential"] is False


def test_wrong_sign_sigma_fails_order_and_invariance(monkeypatch):
    Cprime, X, Y = velu3()
    monkeypatch.setattr(funfield, "_SIGMA_X", -funfield._SIGMA_X)
    report = verify_isogeny(Cprime, X, Y)
    assert report["sigma_order_3"] is False
    assert report["sigma_invariant"] is False


def test_perturbed_closed_form_fails(monkeypatch):
    Cprime, X, Y = velu3()
    Xc, Yc = velu3_closed_form()
    monkeypatch.setattr(funfield, "velu3_closed_form",
                        lambda: (Xc + FFElem(gen("a1") * gen("a3")), Yc))
    report = verify_isogeny(Cprime, X, Y)
    assert report["closed_form"] is False
    assert all(v for k, v in report.items() if k != "closed_form")


def test_package_imports_only_the_standard_library():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import tmf3.cli, tmf3.verify, tmf3.funfield, tmf3.levelmaps, "
            "tmf3.qexp, tmf3.sseq\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "assert new <= set(sys.stdlib_module_names) | {'tmf3'}, new\n")
    env = {**os.environ, "PYTHONPATH": str(Path(funfield.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
