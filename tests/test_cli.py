import json

import pytest

from tmf3.cli import (parse, CliSyntaxError, main, Num, Ident,
                      BinOp, Call, Unary)


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
    }
    for text, ast in cases.items():
        assert parse(text) == ast, text


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
    from tmf3 import cli
    real = cli.value_text
    monkeypatch.setattr(cli, "value_text", lambda v: broken(real(v)))
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


def test_delta_val2_example(capsys):
    code, out, err = run(capsys, "delta", "--c4-pow", "2", "--val2")
    assert code == 0
    assert out.strip() == "5"


def test_delta_range(capsys):
    code, out, err = run(capsys, "delta", "--c4-pow", "1", "--val2",
                         "--range", "1..4")
    assert code == 0
    assert "k=4: val2 = 6" in out


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


def test_verify_single_item(capsys):
    code, out, err = run(capsys, "verify", "--item", "1")
    assert code == 0
    assert "0 failures" in out


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


def test_invariants_j_placeholder(capsys):
    code, out, err = run(capsys, "invariants", "--curve", "0,0,0,0,0", "--json")
    assert code == 0 and json.loads(out)["result"]["j"] == "undefined (Delta = 0)"
    code, out, err = run(capsys, "invariants", "--curve", "0,0,1,-1,0", "--json")
    assert json.loads(out)["result"]["j"] == "110592/37"
