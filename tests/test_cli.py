import ast
import atexit
import gc
import json
import os
import random
import re
import shlex
import subprocess
import sys
import types
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from tmf3 import cli, funfield, levelmaps, qexp, sseq, verify, weierstrass
from tmf3.cli import (parse, CliSyntaxError, main, Num, Ident,
                      BinOp, Call, Unary)
from tmf3.multipoly import LocElem, MultiPoly, a1, a3
from tmf3.ring import DomainError
from tmf3.weierstrass import (CurveError, WCurve, WPoint, WTransform, transform,
                              transform_point)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- parser -------------------------------------------------------------------

def test_parse_simple():
    ast = parse("a1^4 - 24*a1*a3")
    assert isinstance(ast, BinOp) and ast.op == "-"
    assert ast.left == BinOp("^", Ident("a1"), Num(4))


def test_parse_function_call():
    ast = parse("qstar(c4) - fstar(c4)")
    assert ast == BinOp("-", Call("qstar", Ident("c4")),
                        Call("fstar", Ident("c4")))


def test_power_is_right_associative():
    ast = parse("2^3^2")
    assert ast == BinOp("^", Num(2), BinOp("^", Num(3), Num(2)))


def test_unary_minus_binds_looser_than_power():
    ast = parse("-2^2")
    assert ast == Unary("-", BinOp("^", Num(2), Num(2)))


def test_syntax_error_position():
    with pytest.raises(CliSyntaxError) as err:
        parse("c4^^2")
    assert err.value.col == 4


def test_unknown_identifier():
    with pytest.raises(CliSyntaxError):
        parse("b2 + 1")


def test_unbalanced_parens():
    with pytest.raises(CliSyntaxError):
        parse("(c4 + 1")


def test_a_long_sum_evaluates_in_a_loop():
    # a left-deep chain of 3,000 terms, as long outputs of maps print
    env = cli.level3_env()
    value = cli.evaluate(parse("+".join(["a1"] * 3000)), env)
    assert value == 3000 * env["a1"]


def test_nesting_deeper_than_the_limit_is_a_syntax_error(capsys):
    assert run(capsys, "maps", "--expr=" + "(" * 200 + "a1" + ")" * 200)[0] == 0
    for expr in ("(" * 1000 + "a1" + ")" * 1000, "(" * 201 + "a1" + ")" * 201,
                 "-" * 1000 + "a1", "^".join(["2"] * 1000),
                 "fstar(" * 1000 + "c4" + ")" * 1000):
        code, out, err = run(capsys, "maps", "--expr=" + expr)
        assert code == 2 and out == "", expr[:10]
        assert "nested deeper than 200 levels" in err and "Traceback" not in err


def test_parse_fixed_cases():
    a1, a3, c4, c6 = Ident("a1"), Ident("a3"), Ident("c4"), Ident("c6")
    cases = {
        "a1^4 - 24*a1*a3": BinOp("-", BinOp("^", a1, Num(4)),
                                 BinOp("*", BinOp("*", Num(24), a1), a3)),
        "qstar(c4) - fstar(c4)": BinOp("-", Call("qstar", c4), Call("fstar", c4)),
        "-(c4 + c6)^2": Unary("-", BinOp("^", BinOp("+", c4, c6), Num(2))),
        "1/3*a1^4 + -9*a1*a3": BinOp(
            "+", BinOp("*", BinOp("/", Num(1), Num(3)), BinOp("^", a1, Num(4))),
            BinOp("*", BinOp("*", Unary("-", Num(9)), a1), a3)),
        "Delta^-1 * c4^3": BinOp("*", BinOp("^", Ident("Delta"), Unary("-", Num(1))),
                                 BinOp("^", c4, Num(3))),
        "2^3^2 - -4": BinOp("-", BinOp("^", Num(2), BinOp("^", Num(3), Num(2))),
                            Unary("-", Num(4))),
        "c4^+2": BinOp("^", c4, Num(2)),
        "a1^-a3^2": BinOp("^", a1, Unary("-", BinOp("^", a3, Num(2)))),
    }
    for text, tree in cases.items():
        assert parse(text) == tree, text


_PY_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def _from_python(node):
    """Python's expression tree as the CLI's AST; None for any other node."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return Num(node.value)
    if isinstance(node, ast.Name) and node.id in cli.KNOWN_IDENTS:
        return Ident(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _from_python(node.operand)
        if operand is None or isinstance(node.op, ast.UAdd):
            return operand
        return Unary("-", operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _PY_BINOPS:
        left, right = _from_python(node.left), _from_python(node.right)
        if left is not None and right is not None:
            return BinOp(_PY_BINOPS[type(node.op)], left, right)
    return None


def _python_parse(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # e.g. "2 (3)": int is not callable
        try:
            tree = ast.parse(text.replace("^", "**"), mode="eval")
        except SyntaxError:
            return None
    return _from_python(tree.body)


def test_parse_agrees_with_python_expressions():
    # Python's grammar with ** for ^ has the same precedences, associativity
    # and prefix signs; a text is accepted by both or rejected by both
    rng = random.Random(2009)
    words = "a1 a3 c4 Delta q 0 2 17 b2 + - * / ^ ( )".split()
    accepted = 0
    for _ in range(20000):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 9)))
        try:
            mine = parse(text)
        except CliSyntaxError:
            mine = None
        assert mine == _python_parse(text), text
        accepted += mine is not None
    assert accepted > 1000


# -- subcommands --------------------------------------------------------------

def test_maps_tstar_example(capsys):
    code, out, err = run(capsys, "maps", "--apply", "tstar",
                         "--expr", "a1*a3")
    assert code == 0
    assert out.strip() == "1/3*a1^4 + -9*a1*a3"


def test_maps_delta_of_c4(capsys):
    code, out, err = run(capsys, "maps", "--expr", "qstar(c4) - fstar(c4)")
    assert code == 0
    assert out.strip() == "240*a1*a3"


@pytest.mark.parametrize("expr", ["tstar(fstar(c4^2*Delta^-1))", "c4^2*Delta^-1",
                                  "a1/a3 - 1/3", "-5/7"])
def test_maps_round_trip_evaluates_the_output(capsys, expr):
    # the printed value, denominators included, evaluates back to the value
    code, out, err = run(capsys, "maps", "--expr=" + expr, "--json")
    assert code == 0
    assert json.loads(out)["checks"][0]["pass"] is True


@pytest.mark.parametrize("broken", [lambda text: text + " + a1",
                                    lambda text: text + ")"])
def test_maps_round_trip_fails_on_a_wrong_output(capsys, monkeypatch, broken):
    from tmf3.multipoly import LocElem
    real = LocElem.to_text
    monkeypatch.setattr(LocElem, "to_text", lambda g: broken(real(g)))
    code, out, err = run(capsys, "maps", "--apply", "tstar", "--expr", "a1*a3",
                         "--json")
    assert code == 3
    assert json.loads(out)["checks"][0]["pass"] is False


@pytest.mark.parametrize("expr, text", [("(2*Delta)^-1", "1/2*Delta^-1"),
                                        ("(c4^3 - c6^2)^-1", "1/1728*Delta^-1"),
                                        ("c4/Delta", "1*c4*Delta^-1"),
                                        ("1/Delta", "1*Delta^-1")])
def test_maps_inverts_the_units_of_level_one_forms(capsys, expr, text):
    # the units of MF*[Delta^-1] are c*Delta^d
    code, out, err = run(capsys, "maps", "--expr=" + expr, "--json")
    payload = json.loads(out)
    assert code == 0 and payload["result"] == text
    assert payload["checks"][0]["pass"] is True


def test_maps_division_by_a_non_unit_is_a_domain_error(capsys):
    code, out, err = run(capsys, "maps", "--expr", "a3/a1")
    assert code == 1 and "not invertible" in err
    code, out, err = run(capsys, "maps", "--expr", "a1/(a3 - a3)")
    assert code == 1 and "not invertible" in err


@pytest.mark.parametrize("expr", ["c4^-1", "c4/c6"])
def test_maps_inverse_of_a_level_one_non_unit_is_a_domain_error(capsys, expr):
    code, out, err = run(capsys, "maps", "--expr", expr)
    assert code == 1 and err.startswith("error:") and "not a unit" in err
    assert err.count("\n") == 1


def test_maps_domain_error(capsys):
    code, out, err = run(capsys, "maps", "--expr", "a1 + c4")
    assert code == 1


def test_maps_syntax_error(capsys):
    code, out, err = run(capsys, "maps", "--expr", "c4^^2")
    assert code == 2
    assert "column 4" in err


@pytest.mark.parametrize("expr", ["2²", "²", "٣"])
def test_non_ascii_digits_are_syntax_errors(expr):
    # literals are ASCII digits; int() would read "٣" as 3 and fail on "²"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "tmf3.cli", "maps", "--expr", expr],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "syntax error" in proc.stderr and "Traceback" not in proc.stderr


def test_delta_val2_example(capsys):
    code, out, err = run(capsys, "delta", "--c4-pow", "2", "--val2")
    assert code == 0
    assert out.strip() == "5"


def test_delta_of_a_c4_power_prints_its_formula(capsys):
    from tmf3.levelmaps import LevelOneForm, delta_map
    texts = {0: "0", 1: "240*a1*a3"}
    for k in range(7):
        code, out, err = run(capsys, "delta", "--c4-pow", str(k))
        assert (code, err) == (0, "")
        if k in texts:
            assert out == texts[k] + "\n"
        # the printed formula, read back at level 3, is delta(c4^K)
        value = cli.evaluate(parse(out), cli.level3_env())
        assert value == delta_map(LevelOneForm.c4() ** k), k


def test_delta_range(capsys):
    code, out, err = run(capsys, "delta", "--c4-pow", "1", "--val2",
                         "--range", "1..4")
    assert code == 0
    assert "k=4: val2 = 6" in out


@pytest.mark.parametrize("rng", ["1..4", "nonsense"])
def test_delta_range_of_c4_powers_needs_val2(capsys, rng):
    # only --val2 reads a range of c4-powers; without it the range is a
    # usage error, not a value echoed and never parsed
    with pytest.raises(SystemExit) as exc:
        main(["delta", "--c4-pow", "2", "--range", rng, "--json"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: tmf3 delta") and "needs --val2" in err


def test_invariants_identity(capsys):
    code, out, err = run(capsys, "invariants", "--curve", "0,0,1,-1,0",
                         "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["Delta"] == "37"
    assert all(c["pass"] for c in payload["checks"])


def test_normalize_round_trip(capsys):
    # the normal-form curve itself with its marked point
    code, out, err = run(capsys, "normalize", "--curve", "1,0,2,0,0",
                         "--point", "0,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["A1"] == "1"
    assert payload["result"]["A3"] == "2"


def test_normalize_rejects_bad_point(capsys):
    code, out, err = run(capsys, "normalize", "--curve", "1,0,2,0,0",
                         "--point", "1,1")
    assert code == 1


def test_qexp_delta(capsys):
    code, out, err = run(capsys, "qexp", "--expr", "Delta",
                         "--precision", "5")
    assert code == 0
    assert out.strip().startswith("1*q + -24*q^2 + 252*q^3")


def test_qexp_identity(capsys):
    code, out, err = run(capsys, "qexp",
                         "--expr", "c4^3 - c6^2 - 1728*Delta",
                         "--precision", "20")
    assert code == 0
    assert out.strip() == "0 + O(q^20)"


@pytest.mark.parametrize("expr, got", [("fstar(0)", "LocElem"), ("hstar(2)", "LevelOneForm"),
                                       ("tstar(1) + 1", "LocElem")])
def test_qexp_of_a_level_map_is_a_domain_error(capsys, expr, got):
    # a level map of a scalar evaluates, but it has no q-expansion to print
    assert run(capsys, "qexp", "--expr", expr) == (
        1, "", f"error: qexp needs a q-series, got {got}\n")


def test_chart_json(capsys):
    code, out, err = run(capsys, "chart", "--page", "E2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["page"] == 2


def test_isogeny_json(capsys):
    code, out, err = run(capsys, "isogeny", "--json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert sorted(c["name"] for c in checks) == [
        "closed_form", "differential", "equation", "sigma_invariant",
        "sigma_order_3"]
    assert all(c["pass"] for c in checks)
    assert json.loads(out)["result"]["quotient_curve"] == {
        "a1": "1*a1", "a2": "0", "a3": "3*a3", "a4": "-6*a1*a3",
        "a6": "-1*a1^3*a3 + -9*a3^2"}


def test_isogeny_json_prints_the_quotient_coordinates(capsys):
    # X and Y print as FFElem reprs, so this pins their canonical form
    code, out, err = run(capsys, "isogeny", "--json")
    result = json.loads(out)["result"]
    assert code == 0
    assert result["X"] == "((1*a1*a3*x + 1*a3^2 + 1*x^3) + (0)*y) / (x^2)"
    assert result["Y"] == (
        "((-1*a1^2*a3*x^2 + -2*a1*a3^2*x + -1*a3^3 + -1*a3*x^3)"
        " + (-1*a1*a3*x + -2*a3^2 + 1*x^3)*y) / (x^3)")


def test_isogeny_prints_the_curve_it_checks(monkeypatch, capsys):
    # E' with its a4 doubled: the printed curve is the one that fails
    real = funfield.gamma1_curves

    def doubled_a4(a1, a3):
        E, Ep = real(a1, a3)
        return E, Ep._replace(a4=2 * Ep.a4)

    monkeypatch.setattr(funfield, "gamma1_curves", doubled_a4)
    code, out, err = run(capsys, "isogeny", "--json")
    payload = json.loads(out)
    assert code == 3 and payload["result"]["quotient_curve"]["a4"] == "-12*a1*a3"
    assert [c["name"] for c in payload["checks"] if not c["pass"]] == ["equation"]


def test_verify_single_item(capsys):
    code, out, err = run(capsys, "verify", "--item", "1")
    assert code == 0
    assert "0 failures" in out


def test_verify_times_each_item_to_the_millisecond(capsys):
    # most items take 5-30 ms, so two decimals would hide a change to one
    code, out, err = run(capsys, "verify", "--all")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 10
    for line in lines[:-1]:
        assert re.match(r"\[ok\] item \d \(\d+\.\d{3}s\) ", line), line


def test_verify_bad_item(capsys):
    code, out, err = run(capsys, "verify", "--item", "99")
    assert code == 1


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc
    return broken


@pytest.mark.parametrize("argv, module, name, exc", [
    (("maps", "--expr", "fstar(c4)"), "tmf3.levelmaps", "_cached_pow",
     ValueError("internal fault")),
    (("delta", "--c4-pow", "2"), "tmf3.levelmaps", "delta_map",
     ValueError("internal fault")),
    # only the lookup of the item is user input, not its run
    (("verify", "--item", "3"), "tmf3.levelmaps", "cochain_D1",
     ValueError("internal fault")),
    (("normalize", "--curve", "1,0,2,0,0", "--point", "0,0"), "tmf3.weierstrass",
     "transform", ZeroDivisionError("internal fault")),
    (("invariants", "--curve", "0,0,1,-1,0"), "tmf3.weierstrass.WCurve", "j",
     ValueError("internal fault")),
    # the sweeps' input rule is checked before them, so a fault inside one is
    # no domain error
    (("delta", "--c4-pow", "2", "--val2"), "tmf3.levelmaps", "_content_check",
     ValueError("internal fault")),
    (("delta", "--delta-pow", "3"), "tmf3.levelmaps", "mod2",
     ValueError("internal fault")),
    # the window and weight rules are checked before the computation
    (("chart",), "tmf3.sseq", "apply_d3", ValueError("internal fault")),
    (("qexp", "--eisenstein", "12"), "tmf3.qexp", "monomial_images",
     ValueError("internal fault")),
    # a ValueError of the library under a command on user input is no domain
    # error either: only the rule that rejects the input raises one
    (("normalize", "--curve", "0,0,1,-1,0", "--point", "0,0"), "tmf3.weierstrass",
     "transform", ValueError("internal fault")),
    (("maps", "--apply", "tstar", "--expr", "a1*a3"), "tmf3.levelmaps",
     "_tpow_cached", ValueError("internal fault")),
    (("maps", "--expr", "a1/a3"), "tmf3.multipoly", "divide_exact",
     ValueError("internal fault")),
])
def test_an_internal_error_surfaces_as_a_traceback(monkeypatch, argv, module, name, exc):
    # only errors in evaluating user input are domain errors (exit 1)
    monkeypatch.setattr(f"{module}.{name}", _raise(exc))
    with pytest.raises(type(exc), match="internal fault"):
        main(list(argv))


def test_user_input_errors_are_domain_errors(capsys):
    for argv in (("maps", "--expr", "tstar(a1)"), ("delta", "--c4-pow", "0", "--val2"),
                 ("delta", "--c4-pow=-1"), ("delta", "--delta-pow", "1", "--range", "0..3"),
                 ("qexp", "--eisenstein", "2"), ("verify", "--item", "0"),
                 ("normalize", "--curve", "0,0,1,-1,0", "--point", "0,0")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error: "), argv


def test_domain_error_is_a_value_error_and_curve_error_is_one():
    assert issubclass(DomainError, ValueError)
    assert issubclass(CurveError, DomainError)
    assert cli.DomainError is DomainError


@pytest.mark.parametrize("call, message", [
    (lambda: sseq.check_window(sseq.Window(0, 100, 8)), "window bounds must be positive"),
    (lambda: sseq.check_window(sseq.Window(6, 100, 8)),
     "window (6, 100, 8) is too small for the page checks: they need S >= 7 and W >= 24"),
    (lambda: qexp.check_weight(2), "no holomorphic forms of weight 2"),
    (lambda: qexp.check_weight(0), "eisenstein_G needs even weight >= 4"),
    (lambda: levelmaps.tstar(LocElem(a1())), "tstar requires a sigma-invariant element"),
    (lambda: a1().inverse(), "MultiPoly(1*a1) is not invertible"),
    (lambda: LocElem(MultiPoly.const(0)).inverse(),
     "element is not invertible in the localization"),
    (lambda: LocElem(a1() + a3()).inverse(), "element is not invertible in the localization"),
    (lambda: levelmaps.LevelOneForm.c4().inverse(),
     "1*c4 is not a unit c*Delta^d of MF*[Delta^-1]"),
    (lambda: (funfield.FFElem.x() + funfield.FFElem.y()).inv(),
     "is not a unit: its norm is not a constant times a monomial in x and a3"),
    (lambda: levelmaps.val2_delta_c4pow([0]), "k >= 1 required"),
    (lambda: levelmaps.val_delta_c4c6([-1]), "k >= 0 required"),
    (lambda: levelmaps.delta_mod2_Delta_pow(0), "N >= 1 required"),
    (lambda: levelmaps.lemma_binomial_check(1, [1]), "d > 1 required"),
    (lambda: levelmaps.lemma_binomial_check(2, [0]), "k >= 1 required"),
    (lambda: verify.get_item(10), "no verification item 10; valid range 1..9"),
])
def test_each_input_rule_raises_a_domain_error(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert message in str(exc.value)


@pytest.mark.parametrize("argv, out", [
    (("maps", "--expr", "-c4"), "-1*c4\n"),
    (("invariants", "--curve", "-1,0,2,0,0", "--json"), '"j": "-117649/440"'),
])
def test_a_separate_value_may_start_with_a_minus(capsys, argv, out):
    code, stdout, err = run(capsys, *argv)
    assert code == 0 and out in stdout


def test_a_value_flag_followed_by_a_flag_is_still_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maps", "--expr", "--json"])
    assert exc.value.code == 2
    assert "argument --expr: expected one argument" in capsys.readouterr().err


def test_an_abbreviated_flag_is_no_value(capsys):
    # --js abbreviates --json, so --expr has no value, as argparse reads it
    with pytest.raises(SystemExit) as exc:
        main(["maps", "--expr", "--js"])
    assert exc.value.code == 2
    assert "argument --expr: expected one argument" in capsys.readouterr().err


_CURVE = "five comma-separated rationals a1,a2,a3,a4,a6"
_POINT = "two comma-separated rationals x,y"
_RANGE = "A..B with integers A <= B"


_MALFORMED_LISTS = [
    (("invariants", "--curve=1,2,3,4"), "--curve", _CURVE),
    (("invariants", "--curve=1,2,x,4,5"), "--curve", _CURVE),
    (("invariants", "--curve=1/0,0,0,0,0"), "--curve", _CURVE),
    (("normalize", "--curve=1,0,2,0,0", "--point=0,0,0"), "--point", _POINT),
    (("normalize", "--curve=1,0,2,0,0", "--point=0,y"), "--point", _POINT),
    (("chart", "--window=12,100"), "--window", "S,W,D integers"),
    (("chart", "--window=12,100,1/2"), "--window", "S,W,D integers"),
    (("delta", "--delta-pow=1", "--range=1..2..3"), "--range", _RANGE),
    (("delta", "--delta-pow=1", "--range=1..x"), "--range", _RANGE),
    (("delta", "--delta-pow=1", "--range", "3..1"), "--range", _RANGE),
]


@pytest.mark.parametrize("argv, flag, usage", _MALFORMED_LISTS,
                         ids=[" ".join(argv) for argv, _, _ in _MALFORMED_LISTS])
def test_a_malformed_list_value_names_its_usage(capsys, argv, flag, usage):
    assert run(capsys, *argv) == (1, "", f"error: {flag} wants {usage}\n")


def test_invariants_j_placeholder(capsys):
    code, out, err = run(capsys, "invariants", "--curve", "0,0,0,0,0", "--json")
    assert code == 0 and json.loads(out)["result"]["j"] == "undefined (Delta = 0)"
    code, out, err = run(capsys, "invariants", "--curve", "0,0,1,-1,0", "--json")
    assert json.loads(out)["result"]["j"] == "110592/37"


def test_invariants_scan_the_curve_once_per_value(capsys, monkeypatch):
    # one integral_model scan for each of the seven values and two for j,
    # which reads c4 and Delta; the identity check reads the values computed
    calls = []
    real = weierstrass.integral_model

    def counted(values, weights):
        calls.append(values)
        return real(values, weights)

    monkeypatch.setattr(weierstrass, "integral_model", counted)
    code, out, err = run(capsys, "invariants", "--curve", "1/2,-1/3,2,5/4,-7/6",
                         "--json")
    assert (code, len(calls)) == (0, 9)
    payload = json.loads(out)
    assert payload["result"] == {
        "b2": "-13/12", "b4": "7/2", "b6": "-2/3", "b8": "-415/144",
        "c4": "-11927/144", "c6": "15157/1728", "Delta": "-6819401/20736",
        "j": "1696655454983/981993744"}
    assert payload["checks"] == [{"name": "c4^3 - c6^2 = 1728*Delta",
                                  "pass": True, "detail": "exact identity"}]


# -- chart: a too-small window is a domain error, a failed page check exit 3

def test_chart_exits_3_when_a_page_check_fails(monkeypatch, capsys):
    real = sseq.d3_coeff
    # d3 flipped at one monomial, zeta a1 a3^0: d3 o d3 no longer vanishes
    monkeypatch.setattr(sseq, "d3_coeff",
                        lambda s, i, j: real(s, i, j) ^ ((s, i, j) == (1, 1, 0)))
    code, out, err = run(capsys, "chart", "--page", "E4")
    assert (code, out) == (3, "")
    assert err == "[FAIL] page checks: d3^2 != 0 on zeta^1 a1^1 a3^0\n"


def _zero_first_delta_row(monkeypatch):
    real = sseq._delta_mult_matrix
    monkeypatch.setattr(sseq, "_delta_mult_matrix",
                        lambda page, s, t, shifts: [0] + real(page, s, t, shifts)[1:])


@pytest.mark.parametrize("argv", [("--item", "9"), ("--all",)])
def test_verify_exits_3_when_a_page_check_fails(monkeypatch, capsys, argv):
    # the same failing page check that chart reports as exit 3 fails item 9,
    # with the check's message as its detail and no traceback
    _zero_first_delta_row(monkeypatch)
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (3, "")
    assert ("[FAIL] item 9 " in out and "fixed-point spectral sequence and "
            "homotopy table: AssertionError: Delta-multiplication not "
            "injective at (1,2)\n" in out)
    assert out.endswith(f"{9 if argv == ('--all',) else 1} items, 1 failures\n")


def test_chart_pages_are_the_pages_compute_all_returns():
    assert cli.CHART_PAGES == tuple(sseq.compute_all(sseq.DEFAULT_WINDOW))


def test_chart_rejects_an_unknown_page_before_any_work(monkeypatch, capsys):
    def no_work(window):
        raise RuntimeError("compute_all called")
    monkeypatch.setattr(sseq, "compute_all", no_work)
    with pytest.raises(SystemExit) as exc:
        main(["chart", "--window", "12,300,8", "--page", "E9"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: tmf3 chart") and "invalid choice: 'E9'" in err


def test_chart_window_errors_are_domain_errors(capsys):
    for window, message in (
            ("6,100,8", "error: window (6, 100, 8) is too small for the page "
                        "checks: they need S >= 7 and W >= 24\n"),
            ("12,23,8", "error: window (12, 23, 8) is too small for the page "
                        "checks: they need S >= 7 and W >= 24\n"),
            ("0,100,8", "error: window bounds must be positive\n"),
            ("12,100", "error: --window wants S,W,D integers\n")):
        assert run(capsys, "chart", "--window", window) == (1, "", message)


# -- a seeded fuzz of normalize and invariants ---------------------------------

def _fuzz_argv(rng):
    """One argv for normalize or invariants: an order-3 point of a normal
    form moved by a random transform, a 2-torsion point, a singular curve,
    a point off its curve, or one of these with a malformed field."""
    def q(span=9):
        return Fraction(rng.randint(-span, span), rng.randint(1, 4))

    kind = rng.choice(["order3", "two_torsion", "singular", "off_curve"])
    T = WTransform(q() or Fraction(1), q(), q(), q())
    if kind == "order3":
        C = transform(WCurve(q(), 0, q(), 0, 0), T)
        P = transform_point(T, WPoint(Fraction(0), Fraction(0)))
    elif kind == "singular":
        C = transform(WCurve(0, q(), 0, 0, 0), T)
        P = transform_point(T, rng.choice([WPoint(Fraction(0), Fraction(0)),
                                           WPoint(q(), q())]))
    else:
        a1, a2, a3, a4, x = q(), q(), q(), q(), q()
        y = -(a1 * x + a3) / 2 if kind == "two_torsion" else q()
        a6 = y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x
        C = WCurve(a1, a2, a3, a4, a6 + (q() if kind == "off_curve" else 0))
        P = WPoint(x, y)
    curve = [str(c) for c in C.coeffs()]
    point = [str(P.x), str(P.y)]
    if rng.random() < 0.3:
        fields = rng.choice([curve, point])
        bad = rng.choice(["4 or 6 fields", "1/0", "", "1e3"])
        if bad == "4 or 6 fields":
            fields.pop() if rng.random() < 0.5 else fields.append("1")
        else:
            fields[rng.randrange(len(fields))] = bad
    if rng.random() < 0.5:
        argv = ["normalize", "--curve=" + ",".join(curve),
                "--point=" + ",".join(point)]
    else:
        argv = ["invariants", "--curve=" + ",".join(curve)]
    return argv + ["--json"] * rng.randint(0, 1)


def test_fuzz_normalize_and_invariants(capsys):
    rng = random.Random(12)
    codes = []
    for _ in range(600):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, err)
        codes.append((argv[0], code))
        if code in (0, 3):
            payload = json.loads(out)
            result = payload["result"] if "--json" in argv else payload
        else:
            assert out == "", argv
        if argv[0] == "normalize" and code == 0:
            C = WCurve(*(Fraction(c) for c in argv[1][len("--curve="):].split(",")))
            T = WTransform(*(Fraction(result["transform"][k])
                             for k in ("lam", "r", "s", "t")))
            A1, A3 = Fraction(result["A1"]), Fraction(result["A3"])
            assert transform(C, T).coeffs() == (A1, 0, A3, 0, 0), argv
    # every command reaches both its result and its domain errors
    for outcome in (("normalize", 0), ("normalize", 1), ("invariants", 0),
                    ("invariants", 1)):
        assert outcome in codes


# -- the exit path --------------------------------------------------------------

# A fresh process whose probe is registered with atexit before main runs; the
# handlers run last in, first out, so the probe runs after main's freeze and
# writes how many objects are frozen as the last line of stderr.
_EXIT_PROBE = """\
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))
from tmf3.cli import main
sys.exit(main({argv}))
"""

_EXIT_CASES = [(["invariants", "--json"], 0),
               (["maps", "--expr", "a1 + c4"], 1),
               (["verify"], 2)]


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv,code", _EXIT_CASES, ids=["exit0", "exit1", "exit2"])
@pytest.mark.parametrize("call", ["", "sys.argv[1:]"], ids=["sys.argv", "explicit"])
def test_a_command_freezes_what_it_leaves_at_exit(capsys, argv, code, call):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _EXIT_PROBE.format(argv=call), *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    assert int(proc.stderr.splitlines()[-1]) > 0, proc.stderr
    assert (proc.returncode, proc.stdout) == _in_process(capsys, argv)


class _AtexitRecorder:
    """Stands in for the atexit module: register and unregister (which
    drops every registration of an equal function) on a plain list."""

    def __init__(self):
        self.funcs = []

    def register(self, func):
        self.funcs.append(func)

    def unregister(self, func):
        self.funcs = [f for f in self.funcs if f != func]


def test_main_in_process_keeps_the_collector(capsys, monkeypatch):
    # the handler runs with the collector paused, and on every exit path
    # main puts back the state it found: on for a caller that had it on,
    # off for one that had turned it off
    recorder = _AtexitRecorder()
    monkeypatch.setattr(cli, "atexit", recorder)
    seen = []
    for command in {argv[0] for argv, _ in _EXIT_CASES}:
        handler, flags = cli.COMMANDS[command]

        def probe(args, handler=handler):
            seen.append(gc.isenabled())
            return handler(args)

        monkeypatch.setitem(cli.COMMANDS, command, (probe, flags))
    frozen = gc.get_freeze_count()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, code in _EXIT_CASES:
                assert _in_process(capsys, argv)[0] == code, argv
                assert gc.isenabled() is enabled, (argv, enabled)
    finally:
        gc.enable()
    assert seen == [False] * 2 * len(_EXIT_CASES)
    assert gc.get_freeze_count() == frozen
    assert recorder.funcs == [gc.freeze]


# one line per subcommand from the benchmark's golden lines (isogeny has
# none), the maps and qexp ones with level maps to evaluate, with chart's
# largest window and the text verify; run with the collector off, each
# leaves at most the 33 objects of the pure-Python json encoder that
# json.dumps(indent=2) uses
_GARBAGE_CASES = [
    "invariants --curve=-4/3,-5/2,-1/3,-5/3,11/4 --json",
    "normalize --curve=-1,213/16,-9/8,1863/32,1701/16 --point=-9/2,-27/4 --json",
    "isogeny --json",
    "maps --expr 'tstar(fstar(c6^3))' --json",
    "delta --c4-pow 1 --val2 --range 1..6 --json",
    "qexp '--expr=8*c6 + 3*c4^5 - q^1/(1 - q)' --precision 30 --json",
    "chart --window 12,300,8",
    "verify --all",
]


@pytest.mark.parametrize("line", _GARBAGE_CASES, ids=[c.split()[0] for c in _GARBAGE_CASES])
def test_a_command_leaves_almost_no_cyclic_garbage(capsys, line):
    # the reason main pauses the collector: run with it off, a command
    # leaves at most 33 objects for a collection to find
    gc.collect()
    gc.disable()
    try:
        assert _in_process(capsys, shlex.split(line))[0] == 0, line
        found = gc.collect()
    finally:
        gc.enable()
    assert found < 200, line


def _tmf3_made(garbage):
    """The objects of garbage that tmf3 made: its functions, their closure
    cells and the instances of its classes."""
    package = str(Path(cli.__file__).parent)
    functions = [o for o in garbage if isinstance(o, types.FunctionType)
                 and o.__code__.co_filename.startswith(package)]
    cells = {id(c) for f in functions for c in f.__closure__ or ()}
    return functions + [o for o in garbage if id(o) in cells
                        or type(o).__module__.partition(".")[0] == "tmf3"]


_TEXT_EXPRESSION_CASES = [
    "maps --expr 'tstar(fstar(c6^3))'",
    "qexp --expr 'c4^3 - c6^2 - 1728*Delta' --precision 20",
]


@pytest.mark.parametrize("line", _GARBAGE_CASES + _TEXT_EXPRESSION_CASES)
def test_no_command_leaves_cyclic_garbage_of_its_own(capsys, line):
    # what a command leaves for a collection to find is the json encoder's,
    # never tmf3's: evaluate keeps no closure that refers to itself
    gc.collect()
    gc.disable()
    try:
        assert _in_process(capsys, shlex.split(line))[0] == 0, line
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
    finally:
        gc.set_debug(0)
        gc.enable()
    try:
        own = _tmf3_made(gc.garbage)
        assert not own, [type(o).__name__ for o in own]
    finally:
        gc.garbage.clear()


@pytest.mark.parametrize("argv,calls", [
    (["maps", "--expr", "tstar(fstar(c6^3))"], 2),
    (["qexp", "--expr", "c4^3 - c6^2 - 1728*Delta", "--precision", "20"], 1),
    (["maps", "--expr", "(" * 200 + "a1" + ")" * 200], 2),
], ids=["maps", "qexp", "maps-nested"])
def test_one_evaluate_call_per_evaluated_expression(capsys, monkeypatch, argv, calls):
    # the benchmark's tracer rebinds cli.evaluate to a counting wrapper, so
    # evaluate must recurse through another name: maps evaluates its value
    # and the round trip, qexp its value
    evaluate, seen = cli.evaluate, []

    def counting(node, env):
        seen.append(node)
        return evaluate(node, env)

    monkeypatch.setattr(cli, "evaluate", counting)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert len(seen) == calls


def test_text_output_does_not_import_json():
    # one child runs the commands in order; invariants prints its dict
    # result with json.dumps, so it loads json last
    argvs = [["chart"], ["maps", "--expr", "a1*a3"],
             ["delta", "--c4-pow", "2", "--val2"], ["invariants"]]
    code = ("import contextlib, io, sys\n"
            "from tmf3.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "         contextlib.redirect_stderr(io.StringIO()):\n"
            "        rc = main(argv)\n"
            "    print(argv[0], rc, 'json' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["chart 0 False", "maps 0 False",
                                        "delta 0 False", "invariants 0 True"]


@pytest.mark.parametrize("argv", [["invariants", "--json"],
                                  ["chart", "--window", "12,300,8", "--json"]],
                         ids=["buffered", "streamed"])
def test_a_stdout_closed_by_its_reader_ends_quietly_with_141(argv):
    # the reader is gone before the first byte: the short output fails at
    # main's flush, the long one while it is printed; under -X dev a warning
    # or an "Exception ignored" at shutdown would reach stderr
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-X", "dev", "-c",
                               "import sys; from tmf3.cli import main; sys.exit(main())",
                               *argv], stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_repeated_main_calls_do_not_grow_the_atexit_array(capsys):
    assert main(["invariants", "--json"]) == 0
    slots = atexit._ncallbacks()
    for _ in range(3):
        assert main(["invariants", "--json"]) == 0
    capsys.readouterr()
    assert atexit._ncallbacks() == slots
