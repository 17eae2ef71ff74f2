import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tmf3 import record
from tmf3.cli import BinOp, Call, Ident, Num, Token, Unary
from tmf3.sseq import DEFAULT_WINDOW, ChartPage
from tmf3.weierstrass import WCurve, WPoint, WTransform

# one instance of every record class, built positionally, with its fields
RECORDS = [
    (Token, ("int", "12", 2)),
    (Num, (Fraction(2),)),
    (Ident, ("a1",)),
    (Unary, ("-", Ident("a3"))),
    (BinOp, ("^", Ident("a1"), Num(Fraction(4)))),
    (Call, ("tstar", Ident("c4"))),
    (WPoint, (Fraction(1), Fraction(-2), False)),
    (WCurve, (1, 0, 1, 0, 0)),
    (WTransform, (Fraction(2), 1, 0, 3)),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_equality_hash_and_frozenness(cls, values):
    a = cls(*values)
    b = cls(**dict(zip(cls._fields, values)))
    assert a == b and not a != b and hash(a) == hash(b) == hash(values)
    assert tuple(getattr(a, f) for f in cls._fields) == values
    assert len({a, b}) == 1
    other = cls(*values[:-1], "other")
    assert a != other
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, **{cls._fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values[:-1], unknown=1)


def test_records_equal_only_records_of_their_own_type():
    assert Num(2) != Ident(2)
    assert not Num(2) == Ident(2)
    assert Unary("-", Num(2)) != Call("-", Num(2))
    assert WCurve(1, 0, 1, 0, 0) != (1, 0, 1, 0, 0)
    assert (1, 0, 1, 0, 0) != WCurve(1, 0, 1, 0, 0)
    assert WPoint(1, 2) != WCurve(1, 2, False, 0, 0)
    assert Num(2) == Num(Fraction(2)) and hash(Num(2)) == hash(Num(Fraction(2)))
    assert Token("op", "+", 0) != BinOp("op", "+", 0)
    assert BinOp("op", "+", 0) != Token("op", "+", 0)
    # a set or dict compares the stored key with the one looked up
    assert (2,) not in {Num(2)} and Num(2) not in {(2,)}
    assert {Num(2): 1}.get((2,)) is None


def test_a_curve_unpacks_to_its_coefficients():
    C = WCurve(1, 0, Fraction(1, 3), 0, -2)
    a1, a2, a3, a4, a6 = C
    assert (a1, a2, a3, a4, a6) == C.coeffs() == (1, 0, Fraction(1, 3), 0, -2)


def test_record_defaults():
    assert WPoint(infinity=True) == WPoint(None, None, True)
    assert WPoint() == WPoint(None, None, False)
    assert WPoint(1, 2) == WPoint(x=1, y=2, infinity=False)
    T = WTransform(Fraction(3))
    assert (T.lam, T.r, T.s, T.t) == (3, 0, 0, 0)
    assert WTransform(2, s=5) == WTransform(2, 0, 5, 0)
    for cls, values in ((WCurve, (1, 2, 3, 4)), (Token, ("int",)), (Num, ())):
        with pytest.raises(TypeError, match="missing"):
            cls(*values)
    with pytest.raises(TypeError):
        WTransform(r=1)


def test_record_repr():
    assert repr(WCurve(1, 0, Fraction(1, 3), 0, -2)) == \
        "WCurve(a1=1, a2=0, a3=Fraction(1, 3), a4=0, a6=-2)"
    assert repr(WTransform(2)) == "WTransform(lam=2, r=0, s=0, t=0)"
    assert repr(Token("op", "+", 3)) == "Token(kind='op', text='+', offset=3)"
    assert repr(BinOp("^", Ident("a1"), Num(4))) == \
        "BinOp(op='^', left=Ident(name='a1'), right=Num(value=4))"
    # WPoint keeps its own repr
    assert repr(WPoint(infinity=True)) == "O"
    assert repr(WPoint(Fraction(1, 2), 3)) == "(1/2, 3)"


def test_chart_pages_get_their_own_dicts():
    p, q = ChartPage(2, DEFAULT_WINDOW, {}), ChartPage(r=2, window=DEFAULT_WINDOW, cells={})
    for name in ("loc", "checks"):
        assert getattr(p, name) == {}
        assert getattr(p, name) is not getattr(q, name)
    p.checks["x"] = True
    assert q.checks == {}
    loc = {"k": 1}
    assert ChartPage(7, DEFAULT_WINDOW, {}, loc=loc).loc is loc


# the module sets each subcommand family imports
SUBCOMMAND_MODULES = {
    "verify": ["tmf3.cli", "tmf3.verify", "tmf3.levelmaps", "tmf3.qexp",
               "tmf3.funfield", "tmf3.sseq"],
    "cli": ["tmf3.cli", "tmf3.weierstrass", "tmf3.levelmaps", "tmf3.qexp",
            "tmf3.sseq"],
    "chart": ["tmf3.cli", "tmf3.sseq"],
}


@pytest.mark.parametrize("family", sorted(SUBCOMMAND_MODULES))
def test_start_up_imports_neither_dataclasses_nor_inspect(family):
    # importing these two cost a cold tmf3 process more than most commands
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"import {', '.join(SUBCOMMAND_MODULES[family])}\n"
            "slow = {'dataclasses', 'inspect'} & (set(sys.modules) - before)\n"
            "assert not slow, slow\n")
    env = {**os.environ, "PYTHONPATH": str(Path(record.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
