"""Command-line front end: expression parser, one subcommand per concern,
text/JSON emitters, and the verification suite runner.

The tokens and AST nodes (``Token``, ``Num``, ``Ident``, ``Unary``,
``BinOp``, ``Call``) are frozen records (``tmf3.record``), so two parses of
the same text compare equal.

Exit codes: 0 success, 1 domain error, 2 usage/syntax error,
3 verification failure. A domain error (``DomainError``) is raised where
user input is evaluated and cannot be; other exceptions propagate.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .record import Record


class CliSyntaxError(Exception):
    """Malformed expression text; carries line/column."""

    def __init__(self, message, line, col):
        super().__init__(f"syntax error at line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class DomainError(Exception):
    """Well-formed input that asks for an undefined operation."""


# -- tokens and AST ----------------------------------------------------------

KNOWN_IDENTS = ("a1", "a3", "c4", "c6", "Delta", "q")
KNOWN_FUNCS = ("fstar", "qstar", "hstar", "tstar", "delta")


class Token(Record):
    # kind: "int", "ident", "op", "lparen", "rparen", "comma" or "end"
    __slots__ = ("kind", "text", "line", "col")


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and (text[j].isalpha() or text[j] == "."):
                raise CliSyntaxError(f"malformed literal {text[i:j + 1]!r}",
                                     line, col)
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(Token("op", ch, line, col))
        elif ch == "(":
            tokens.append(Token("lparen", ch, line, col))
        elif ch == ")":
            tokens.append(Token("rparen", ch, line, col))
        elif ch == ",":
            tokens.append(Token("comma", ch, line, col))
        else:
            raise CliSyntaxError(f"unexpected character {ch!r}", line, col)
        col += 1
        i += 1
    tokens.append(Token("end", "", line, col))
    return tokens


class Num(Record):
    __slots__ = ("value",)


class Ident(Record):
    __slots__ = ("name",)


class Unary(Record):
    __slots__ = ("op", "operand")


class BinOp(Record):
    __slots__ = ("op", "left", "right")


class Call(Record):
    __slots__ = ("func", "arg")


# precedence: ^ (4, right) > unary - (3) > * / (2) > + - (1)
_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_RIGHT_ASSOC = {"^"}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            raise CliSyntaxError(f"expected {what}, found {tok.text or 'end of input'!r}",
                                 tok.line, tok.col)
        return self.advance()

    def parse(self):
        node = self.expression(0)
        tok = self.peek()
        if tok.kind != "end":
            raise CliSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return node

    def expression(self, min_prec):
        node = self.unary()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _BINARY_PREC:
                break
            prec = _BINARY_PREC[tok.text]
            if prec < min_prec:
                break
            self.advance()
            nxt = prec if tok.text in _RIGHT_ASSOC else prec + 1
            right = self.expression(nxt)
            node = BinOp(tok.text, node, right)
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary("-", self.unary())
        if tok.kind == "op" and tok.text == "+":
            self.advance()
            return self.unary()
        return self.power_operand()

    def power_operand(self):
        # ^ binds tighter than unary minus, so the base cannot itself be
        # a bare unary expression; atoms handle it.
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp = self.power_exponent()
            return BinOp("^", node, exp)
        return node

    def power_exponent(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary("-", self.power_exponent())
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return BinOp("^", node, self.power_exponent())
        return node

    def atom(self):
        tok = self.advance()
        if tok.kind == "int":
            return Num(Fraction(int(tok.text)))
        if tok.kind == "ident":
            if self.peek().kind == "lparen":
                if tok.text not in KNOWN_FUNCS:
                    raise CliSyntaxError(f"unknown function {tok.text!r}",
                                         tok.line, tok.col)
                self.advance()
                arg = self.expression(0)
                self.expect("rparen", "')'")
                return Call(tok.text, arg)
            if tok.text not in KNOWN_IDENTS:
                raise CliSyntaxError(f"unknown identifier {tok.text!r}",
                                     tok.line, tok.col)
            return Ident(tok.text)
        if tok.kind == "lparen":
            node = self.expression(0)
            self.expect("rparen", "')'")
            return node
        raise CliSyntaxError(f"unexpected {tok.text or 'end of input'!r}",
                             tok.line, tok.col)


def parse(text: str):
    return _Parser(_tokenize(text)).parse()


# -- evaluation --------------------------------------------------------------

def _level1_const(c):
    from .levelmaps import LevelOneForm
    return LevelOneForm.const(c)


def _as_int(value, what):
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    raise DomainError(f"{what} must be an integer, got {value!r}")


def evaluate(node, env):
    """Evaluate an AST in an identifier environment; values are Fractions,
    LevelOneForms, LocElems, or QSeries, with scalar mixing only."""
    from .levelmaps import (LevelOneForm, fstar, qstar, hstar, tstar,
                            delta_map)
    from .multipoly import LocElem
    from .qexp import QSeries

    def same_kind(a, b):
        for cls in (LevelOneForm, LocElem, QSeries):
            if isinstance(a, cls) and isinstance(b, cls):
                return True
        return False

    def combine(op, a, b):
        scalar_a = isinstance(a, Fraction)
        scalar_b = isinstance(b, Fraction)
        if not (scalar_a or scalar_b or same_kind(a, b)):
            raise DomainError(
                f"cannot apply {op!r} across domains "
                f"({type(a).__name__} vs {type(b).__name__})")
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if scalar_b:
                if b == 0:
                    raise DomainError("division by zero")
                return a * (Fraction(1) / b)
            if isinstance(b, QSeries):
                if b.coeffs[0] == 0:
                    raise DomainError("division by a q-series with no constant term")
                return a / b if isinstance(a, QSeries) else a * b.inverse()
            if isinstance(b, LocElem):
                try:
                    return a * b.inverse()
                except ValueError as exc:
                    raise DomainError(str(exc)) from exc
            raise DomainError(f"cannot divide by a {type(b).__name__}")
        raise DomainError(f"unknown operator {op!r}")

    def power(base, exp):
        n = _as_int(exp, "exponent")
        if isinstance(base, Fraction):
            if n < 0 and base == 0:
                raise DomainError("zero to a negative power")
            return base ** n
        if isinstance(base, LevelOneForm) and n < 0:
            # only pure Delta-powers are invertible in MF*[Delta^-1]
            if list(base.terms) == [(0, 0, 1)] and base.terms[(0, 0, 1)] == 1:
                return LevelOneForm.delta(n)
            raise DomainError("negative power of a non-Delta level-1 form")
        try:
            return base ** n
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(str(exc)) from exc

    def walk(n):
        if isinstance(n, Num):
            return n.value
        if isinstance(n, Ident):
            if n.name not in env:
                raise DomainError(f"identifier {n.name!r} has no value in this command")
            return env[n.name]
        if isinstance(n, Unary):
            return -walk(n.operand)
        if isinstance(n, BinOp):
            if n.op == "^":
                return power(walk(n.left), walk(n.right))
            return combine(n.op, walk(n.left), walk(n.right))
        if isinstance(n, Call):
            arg = walk(n.arg)
            table = {"fstar": fstar, "qstar": qstar, "hstar": hstar,
                     "delta": delta_map}
            if n.func in table:
                if isinstance(arg, Fraction):
                    arg = _level1_const(arg)
                if not isinstance(arg, LevelOneForm):
                    raise DomainError(
                        f"{n.func} expects a level-1 form, got {type(arg).__name__}")
                return table[n.func](arg)
            if n.func == "tstar":
                if isinstance(arg, Fraction):
                    from .multipoly import MultiPoly
                    arg = LocElem(MultiPoly.const(arg))
                if not isinstance(arg, LocElem):
                    raise DomainError(
                        f"tstar expects a level-3 element, got {type(arg).__name__}")
                return _domain(tstar, arg)
            raise DomainError(f"unknown function {n.func!r}")
        raise DomainError(f"cannot evaluate node {n!r}")

    return walk(node)


def level3_env():
    from .multipoly import LocElem, a1, a3
    return {"a1": LocElem(a1()), "a3": LocElem(a3())}


def level1_env():
    from .levelmaps import LevelOneForm
    return {"c4": LevelOneForm.c4(), "c6": LevelOneForm.c6(),
            "Delta": LevelOneForm.delta()}


def qexp_env(prec):
    from .qexp import QSeries, series_c4, series_c6, series_delta
    return {"c4": series_c4(prec), "c6": series_c6(prec),
            "Delta": series_delta(prec), "q": QSeries.q(prec)}


def value_text(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return v.to_text()


# -- output helpers ----------------------------------------------------------

def _emit(args, command, inputs, result, checks):
    if getattr(args, "json", False):
        print(json.dumps({"command": command, "inputs": inputs,
                          "result": result, "checks": checks}, indent=2))
    else:
        if isinstance(result, str):
            print(result)
        else:
            print(json.dumps(result, indent=2))
        for c in checks:
            status = "ok" if c["pass"] else "FAIL"
            print(f"[{status}] {c['name']}: {c['detail']}", file=sys.stderr)
    return 0 if all(c["pass"] for c in checks) else 3


def _parse_curve(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise DomainError("--curve wants five comma-separated rationals a1,a2,a3,a4,a6")
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad curve coefficient: {exc}") from exc


def _parse_point(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise DomainError("--point wants two comma-separated rationals x,y")
    try:
        return Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad point coordinate: {exc}") from exc


def _parse_range(text):
    try:
        a, b = text.split("..")
        a, b = int(a), int(b)
    except ValueError as exc:
        raise DomainError("--range wants A..B with integers A <= B") from exc
    if a > b:
        raise DomainError("--range wants A..B with integers A <= B")
    return a, b


def _domain(fn, *args):
    """fn(*args) on user input, its ValueError turned into a domain error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc


# -- subcommands -------------------------------------------------------------

def cmd_invariants(args):
    from .weierstrass import WCurve
    from .multipoly import a1, a3, MultiPoly
    if args.curve:
        C = WCurve(*_parse_curve(args.curve))
    else:
        zero = MultiPoly.zero()
        C = WCurve(a1(), zero, a3(), zero, zero)
    vals = {"b2": C.b2(), "b4": C.b4(), "b6": C.b6(), "b8": C.b8(),
            "c4": C.c4(), "c6": C.c6(), "Delta": C.disc()}
    result = {k: value_text(v) for k, v in vals.items()}
    if args.curve and C.disc() != 0:
        result["j"] = value_text(C.j())
    else:
        # a singular curve has no j; the universal curve's j = c4^3 / Delta
        # is not a polynomial, and it prints the same placeholder
        result["j"] = "undefined (Delta = 0)"
    identity = C.c4() ** 3 - C.c6() ** 2 - 1728 * C.disc()
    holds = identity.is_zero() if hasattr(identity, "is_zero") else identity == 0
    checks = [{"name": "c4^3 - c6^2 = 1728*Delta", "pass": bool(holds),
               "detail": "exact identity" if holds else "identity FAILS"}]
    return _emit(args, "invariants", {"curve": args.curve or "a1,0,a3,0,0"},
                 result, checks)


def cmd_normalize(args):
    from .weierstrass import (CurveError, WCurve, WPoint, gamma1_normalize,
                              transform)
    if not args.curve or not args.point:
        raise DomainError("normalize needs --curve and --point")
    C = WCurve(*_parse_curve(args.curve))
    P = WPoint(*_parse_point(args.point))
    try:
        A1, A3, T = gamma1_normalize(C, P)
    except CurveError as exc:
        raise DomainError(str(exc)) from exc
    Cn = transform(C, T)
    result = {"A1": str(A1), "A3": str(A3),
              "transform": {"lam": str(T.lam), "r": str(T.r),
                            "s": str(T.s), "t": str(T.t)},
              "normal_form": f"y^2 + {A1}*x*y + {A3}*y = x^3"}
    ok = Cn.coeffs() == (A1, 0, A3, 0, 0)
    checks = [{"name": "normal form reached", "pass": bool(ok),
               "detail": "transform lands on y^2 + A1 xy + A3 y = x^3"}]
    return _emit(args, "normalize",
                 {"curve": args.curve, "point": args.point}, result, checks)


def cmd_isogeny(args):
    from .funfield import velu3, verify_isogeny
    Cprime, X, Y = velu3()
    report = verify_isogeny(Cprime, X, Y)
    result = {"quotient_curve": "y^2 + a1*x*y + 3*a3*y = "
                                "x^3 - 6*a1*a3*x - (9*a3^2 + a1^3*a3)",
              "X": repr(X), "Y": repr(Y)}
    checks = [{"name": k, "pass": bool(v),
               "detail": "verified" if v else "FAILED"}
              for k, v in sorted(report.items())]
    return _emit(args, "isogeny", {}, result, checks)


def cmd_maps(args):
    if not args.expr:
        raise DomainError("maps needs --expr")
    ast = parse(args.expr)
    env = {}
    env.update(level1_env())
    env.update(level3_env())
    # --apply F evaluates F(expr)
    applied = args.apply
    value = evaluate(Call(applied, ast) if applied else ast, env)
    result = value_text(value)
    # the printed value, parsed and evaluated again, must give the value back
    try:
        same = evaluate(parse(result), env) == value
    except (CliSyntaxError, DomainError):
        same = False
    checks = [{"name": "round-trip", "pass": same,
               "detail": "output reparses to an equal AST"}]
    return _emit(args, "maps", {"expr": args.expr, "apply": applied},
                 result, checks)


def cmd_delta(args):
    from .levelmaps import (val2_delta_c4pow, val_delta_c4c6,
                            delta_mod2_Delta_pow, delta_map, LevelOneForm)
    checks = []
    inputs = {}
    if args.c4_pow is not None and args.val2:
        inputs["c4_pow"] = args.c4_pow
        if args.range:
            a, b = _parse_range(args.range)
            rows = []
            for k in range(a, b + 1):
                r = _domain(val2_delta_c4pow, k)
                rows.append(f"k={k}: val2 = {r['valuation']}")
                checks.append({"name": f"val2(content(delta(c4^{k})))",
                               "pass": r["pass"],
                               "detail": f"computed {r['valuation']}, expected {r['expected']}"})
            result = "\n".join(rows)
        else:
            r = _domain(val2_delta_c4pow, args.c4_pow)
            result = str(r["valuation"])
            checks.append({"name": f"val2(content(delta(c4^{args.c4_pow})))",
                           "pass": r["pass"],
                           "detail": f"computed {r['valuation']}, expected {r['expected']}"})
    elif args.c4_pow is not None:
        inputs["c4_pow"] = args.c4_pow
        if args.c4_pow < 0:
            raise DomainError("--c4-pow must be >= 0: c4 is not invertible")
        g = delta_map(LevelOneForm.monomial(args.c4_pow, 0, 0))
        result = g.to_text()
    elif args.delta_pow is not None:
        inputs["delta_pow"] = args.delta_pow
        if args.range:
            a, b = _parse_range(args.range)
            rng = range(a, b + 1)
        else:
            rng = [args.delta_pow]
        rows = []
        for N in rng:
            r = _domain(delta_mod2_Delta_pow, N)
            rows.append(f"N={N}: min term {r['leading_term']}")
            checks.append({"name": f"min_a1_term(mod2(delta(Delta^{N})))",
                           "pass": r["pass"],
                           "detail": f"computed {r['leading_term']}, expected {r['expected']}"})
        result = "\n".join(rows)
    else:
        raise DomainError("delta needs --c4-pow K [--val2] or --delta-pow N")
    if args.range:
        inputs["range"] = args.range
    return _emit(args, "delta", inputs, result, checks)


def cmd_qexp(args):
    from .qexp import eisenstein_in_c4c6
    from .ring import terms_text
    prec = args.precision
    if prec < 1:
        raise DomainError("--precision must be >= 1")
    if args.eisenstein is not None:
        k = args.eisenstein
        result = terms_text(("c4", "c6", "Delta"), _domain(eisenstein_in_c4c6, k))
        return _emit(args, "qexp", {"eisenstein": k}, result, [])
    if not args.expr:
        raise DomainError("qexp needs --expr or --eisenstein K")
    ast = parse(args.expr)
    value = evaluate(ast, qexp_env(prec))
    if isinstance(value, Fraction):
        result = str(value)
    else:
        result = value.to_text(terms=prec)
    return _emit(args, "qexp", {"expr": args.expr, "precision": prec},
                 result, [])


def cmd_chart(args):
    from .sseq import Window, DEFAULT_WINDOW, compute_all, chart_json, chart_ascii
    if args.window:
        try:
            S, W, D = (int(x) for x in args.window.split(","))
        except ValueError as exc:
            raise DomainError("--window wants S,W,D integers") from exc
        if S <= 0 or W <= 0 or D <= 0:
            raise DomainError("--window bounds must be positive")
        win = Window(S, W, D)
    else:
        win = Window(*DEFAULT_WINDOW)
    try:
        pages = compute_all(win)
    except AssertionError as exc:
        raise DomainError(f"window {tuple(win)} is too small for the "
                          f"page checks: {exc}") from exc
    if args.page not in pages:
        raise DomainError(f"unknown page {args.page!r}; choose from {sorted(pages)}")
    page = pages[args.page]
    checks = [{"name": k, "pass": bool(v is True),
               "detail": "verified" if v is True else str(v)}
              for k, v in sorted(page.checks.items())]
    if args.json:
        payload = json.loads(chart_json(page))
        print(json.dumps({"command": "chart",
                          "inputs": {"page": args.page,
                                     "window": list(win)},
                          "result": payload, "checks": checks}, indent=2))
        return 0 if all(c["pass"] for c in checks) else 3
    print(chart_ascii(page, max_stem=min(win.W, 48)))
    for c in checks:
        if not c["pass"]:
            print(f"[FAIL] {c['name']}: {c['detail']}", file=sys.stderr)
    return 0 if all(c["pass"] for c in checks) else 3


def cmd_verify(args):
    from .verify import get_item, run_all
    if args.all:
        results = run_all()
    elif args.item is not None:
        results = [_domain(get_item, args.item)()]
    else:
        raise DomainError("verify needs --all or --item N")
    checks = [{"name": f"item {r['index']}: {r['name']}", "pass": r["pass"],
               "detail": r["detail"]} for r in results]
    failures = sum(1 for r in results if not r["pass"])
    lines = []
    for r in results:
        status = "ok" if r["pass"] else "FAIL"
        lines.append(f"[{status}] item {r['index']} ({r['seconds']}s) "
                     f"{r['name']}: {r['detail']}")
    lines.append(f"{len(results)} items, {failures} failures")
    result = "\n".join(lines)
    if args.json:
        return _emit(args, "verify",
                     {"all": args.all, "item": args.item}, result, checks)
    print(result)
    return 0 if failures == 0 else 3


# -- entry point -------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="tmf3",
        description="Exact-arithmetic toolkit for level-3 modular forms, "
                    "degree-3 isogenies, and the Z/2 fixed-point chart.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        sp = sub.add_parser(name)
        for flag, kw in flags.items():
            sp.add_argument(flag, **kw)
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(fn=fn)
        return sp

    add("invariants", cmd_invariants,
        **{"--curve": {"help": "a1,a2,a3,a4,a6 (default: universal normal form)"}})
    add("normalize", cmd_normalize,
        **{"--curve": {}, "--point": {}})
    add("isogeny", cmd_isogeny)
    add("maps", cmd_maps,
        **{"--expr": {}, "--apply": {"choices": KNOWN_FUNCS}})
    add("delta", cmd_delta,
        **{"--c4-pow": {"type": int, "dest": "c4_pow"},
           "--val2": {"action": "store_true"},
           "--delta-pow": {"type": int, "dest": "delta_pow"},
           "--range": {}})
    add("qexp", cmd_qexp,
        **{"--expr": {}, "--precision": {"type": int, "default": 10},
           "--eisenstein": {"type": int}})
    add("chart", cmd_chart,
        **{"--window": {}, "--page": {"default": "Einf"}})
    add("verify", cmd_verify,
        **{"--all": {"action": "store_true"},
           "--item": {"type": int}})
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
