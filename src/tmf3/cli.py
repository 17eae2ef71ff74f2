"""Command-line front end: expression parser, one subcommand per concern,
one text/JSON emitter, and the verification suite runner.

The tokens and AST nodes (``Token``, ``Num``, ``Ident``, ``Unary``,
``BinOp``, ``Call``) are records (``tmf3.record``): namedtuples that equal
only their own type, so two parses of the same text compare equal and a
node never equals a plain tuple or a node of another type.

The subcommands and their flags are one table, ``COMMANDS``. ``main`` joins
each value given after its flag as ``--flag=value`` (``_join_values``); a
well-formed joined line is read from the table by ``quick_parse``, and any
other (help, an abbreviation, a usage error) goes to the argparse parser
that ``build_parser`` makes from the same table, so argparse is imported
only then.

Exit codes: 0 success, 1 domain error, 2 usage/syntax error,
3 verification failure, and 141 (128 + SIGPIPE) when the reader of stdout
closed it early, as ``tmf3 chart --json | head -1`` does, which ends
quietly, with nothing on stderr. A domain error (``tmf3.ring.DomainError``)
is raised by the rule that rejects the input, in the library or here;
others propagate.
"""

from __future__ import annotations

import atexit
import gc
import operator
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .record import record
from .ring import DomainError


class CliSyntaxError(Exception):
    """Malformed expression text; carries line/column."""

    def __init__(self, message, line, col):
        super().__init__(f"syntax error at line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# -- tokens and AST ----------------------------------------------------------

KNOWN_IDENTS = ("a1", "a3", "c4", "c6", "Delta", "q")
KNOWN_FUNCS = ("fstar", "qstar", "hstar", "tstar", "delta")
# the pages sseq.compute_all returns, checked before any work by quick_parse
# or, on a command line it does not read, by argparse
CHART_PAGES = ("E2", "E4", "E7", "Einf")


# kind: "int", "ident", "op", "lparen", "rparen", "comma" or "end";
# offset: the index of its first character in the text
Token = record("Token", "kind text offset")


# one group per token kind; a word is an identifier when it starts with a
# letter or "_", and white space between tokens is skipped
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<ident>\w+)|(?P<op>[-+*/^])"
                    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)|(?P<bad>\S)")


def _syntax_error(message, text, offset):
    """A CliSyntaxError at the line and column of text[offset]."""
    line = text.count("\n", 0, offset) + 1
    return CliSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, at, end = m.lastgroup, m.start(), m.end()
        if kind == "int" and (text[end:end + 1] == "." or text[end:end + 1].isalpha()):
            raise _syntax_error(f"malformed literal {text[at:end + 1]!r}", text, at)
        if kind == "bad" or (kind == "ident" and not (text[at].isalpha() or text[at] == "_")):
            raise _syntax_error(f"unexpected character {text[at]!r}", text, at)
        tokens.append(Token(kind, m[0], at))
    tokens.append(Token("end", "", len(text)))
    return tokens


Num = record("Num", "value")
Ident = record("Ident", "name")
Unary = record("Unary", "op operand")
BinOp = record("BinOp", "op left right")
Call = record("Call", "func arg")


# binary precedences; ^ is right-associative, and a prefix - or + takes
# its operand at 3: -a^b = -(a^b), -a*b = (-a)*b, a^-b^c = a^(-(b^c))
_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_PREFIX_PREC = 3

# the deepest nesting of subexpressions parse accepts: each group, call
# argument and operand opens a level inside the one that holds it, so that
# as in Python's parser 200 nested parentheses parse and 201 do not; the
# limit bounds the recursion of parse and of evaluate
MAX_NESTING = 200


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok):
        return _syntax_error(message, self.text, tok.offset)

    def parse(self):
        node = self.expression(1)
        tok = self.advance()
        if tok.kind != "end":
            raise self.error(f"unexpected {tok.text!r}", tok)
        return node

    def expression(self, min_prec):
        """Precedence climbing over the operators binding at min_prec or tighter."""
        tok = self.advance()
        if self.depth > MAX_NESTING:
            raise self.error(f"expression nested deeper than {MAX_NESTING} levels", tok)
        self.depth += 1
        if tok.text in ("-", "+"):
            node = self.expression(_PREFIX_PREC)
            if tok.text == "-":
                node = Unary("-", node)
        else:
            node = self.atom(tok)
        while (prec := _BINARY_PREC.get(self.tokens[self.pos].text, 0)) >= min_prec:
            op = self.advance().text
            node = BinOp(op, node, self.expression(prec if op == "^" else prec + 1))
        self.depth -= 1
        return node

    def atom(self, tok):
        if tok.kind == "int":
            return Num(Fraction(int(tok.text)))
        if tok.kind == "ident" and self.tokens[self.pos].kind == "lparen":
            if tok.text not in KNOWN_FUNCS:
                raise self.error(f"unknown function {tok.text!r}", tok)
            self.pos += 1
            return Call(tok.text, self.closed())
        if tok.kind == "ident":
            if tok.text not in KNOWN_IDENTS:
                raise self.error(f"unknown identifier {tok.text!r}", tok)
            return Ident(tok.text)
        if tok.kind == "lparen":
            return self.closed()
        raise self.error(f"unexpected {tok.text or 'end of input'!r}", tok)

    def closed(self):
        """An expression and the ')' that ends it."""
        node = self.expression(1)
        tok = self.advance()
        if tok.kind != "rparen":
            raise self.error(f"expected ')', found {tok.text or 'end of input'!r}", tok)
        return node


def parse(text: str):
    return _Parser(text).parse()


# -- evaluation --------------------------------------------------------------

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": operator.pow}


def _calls():
    """Each function of an expression: (map, domain, its name, coercion of
    a scalar into the domain)."""
    from .levelmaps import (LevelOneForm, fstar, qstar, hstar, tstar,
                            delta_map)
    from .multipoly import LocElem, MultiPoly
    level1 = (LevelOneForm, "a level-1 form", LevelOneForm.const)
    return {"tstar": (tstar, LocElem, "a level-3 element",
                      lambda c: LocElem(MultiPoly.const(c))),
            "fstar": (fstar, *level1), "qstar": (qstar, *level1),
            "hstar": (hstar, *level1), "delta": (delta_map, *level1)}


def _combine(op, a, b):
    if op == "^":
        if not (isinstance(b, Fraction) and b.denominator == 1):
            raise DomainError(f"exponent must be an integer, got {b!r}")
        b = int(b)
    elif not (isinstance(a, Fraction) or isinstance(b, Fraction)
              or type(a) is type(b)):
        raise DomainError(
            f"cannot apply {op!r} across domains "
            f"({type(a).__name__} vs {type(b).__name__})")
    # a divisor or a base with a negative exponent must be a unit
    try:
        return _OPERATORS[op](a, b)
    except ZeroDivisionError as exc:
        raise DomainError(f"division by zero: {exc}") from exc


def _walk(node, env):
    chain = []      # a left-deep chain a + b - c ..., folded in a loop
    while isinstance(node, BinOp):
        chain.append(node)
        node = node.left
    if isinstance(node, Num):
        value = node.value
    elif isinstance(node, Ident):
        if node.name not in env:
            raise DomainError(f"identifier {node.name!r} has no value in this command")
        value = env[node.name]
    elif isinstance(node, Unary):
        value = -_walk(node.operand, env)
    else:                   # a Call
        fn, domain, what, coerce = _calls()[node.func]
        value = _walk(node.arg, env)
        if isinstance(value, Fraction):
            value = coerce(value)
        if not isinstance(value, domain):
            raise DomainError(
                f"{node.func} expects {what}, got {type(value).__name__}")
        value = fn(value)
    for b in reversed(chain):
        value = _combine(b.op, value, _walk(b.right, env))
    return value


def evaluate(node, env):
    """Evaluate an AST in an identifier environment; values are Fractions,
    LevelOneForms, LocElems, or QSeries, with scalar mixing only.

    It recurses through _walk, never through its own name, so that a
    wrapper bound to this name sees one call per expression."""
    return _walk(node, env)


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


# -- output helpers ----------------------------------------------------------

def _emit(args, inputs, result, checks):
    # json is imported only by the branches that print JSON: text output,
    # the common case, does not load it
    if args.json:
        import json
        print(json.dumps({"command": args.command, "inputs": inputs,
                          "result": result, "checks": checks}, indent=2))
    else:
        if isinstance(result, str):
            print(result)
        else:
            import json
            print(json.dumps(result, indent=2))
        for c in checks:
            status = "ok" if c["pass"] else "FAIL"
            print(f"[{status}] {c['name']}: {c['detail']}", file=sys.stderr)
    return 0 if all(c["pass"] for c in checks) else 3


# the list-valued options: flag -> (separator, entries, entry type, usage)
_LISTS = {"--curve": (",", 5, Fraction,
                      "five comma-separated rationals a1,a2,a3,a4,a6"),
          "--point": (",", 2, Fraction, "two comma-separated rationals x,y"),
          "--window": (",", 3, int, "S,W,D integers"),
          "--range": ("..", 2, int, "A..B with integers A <= B")}


def _parse_list(flag, text):
    separator, count, kind, usage = _LISTS[flag]
    try:
        values = [kind(part) for part in text.split(separator)]
    except (ValueError, ZeroDivisionError):
        values = []
    if len(values) != count:
        raise DomainError(f"{flag} wants {usage}")
    return values


# -- subcommands -------------------------------------------------------------

def cmd_invariants(args):
    from .weierstrass import WCurve, gamma1_curves
    from .multipoly import a1, a3
    if args.curve:
        C = WCurve(*_parse_list("--curve", args.curve))
    else:
        C = gamma1_curves(a1(), a3())[0]
    vals = {"b2": C.b2(), "b4": C.b4(), "b6": C.b6(), "b8": C.b8(),
            "c4": C.c4(), "c6": C.c6(), "Delta": C.disc()}
    result = {k: str(v) for k, v in vals.items()}
    if args.curve and vals["Delta"] != 0:
        result["j"] = str(C.j())
    else:
        # a singular curve has no j; the universal curve's j = c4^3 / Delta
        # is not a polynomial, and it prints the same placeholder
        result["j"] = "undefined (Delta = 0)"
    holds = vals["c4"] ** 3 - vals["c6"] ** 2 - 1728 * vals["Delta"] == 0
    checks = [{"name": "c4^3 - c6^2 = 1728*Delta", "pass": bool(holds),
               "detail": "exact identity" if holds else "identity FAILS"}]
    return _emit(args, {"curve": args.curve or "a1,0,a3,0,0"}, result, checks)


def cmd_normalize(args):
    from .weierstrass import WCurve, WPoint, gamma1_normalize, transform
    if not args.curve or not args.point:
        usage_error(args.command, "normalize needs --curve and --point")
    C = WCurve(*_parse_list("--curve", args.curve))
    P = WPoint(*_parse_list("--point", args.point))
    A1, A3, T = gamma1_normalize(C, P)
    Cn = transform(C, T)
    result = {"A1": str(A1), "A3": str(A3),
              "transform": {"lam": str(T.lam), "r": str(T.r),
                            "s": str(T.s), "t": str(T.t)},
              "normal_form": f"y^2 + {A1}*x*y + {A3}*y = x^3"}
    ok = Cn.coeffs() == (A1, 0, A3, 0, 0)
    checks = [{"name": "normal form reached", "pass": bool(ok),
               "detail": "transform lands on y^2 + A1 xy + A3 y = x^3"}]
    return _emit(args, {"curve": args.curve, "point": args.point}, result, checks)


def cmd_isogeny(args):
    from .funfield import velu3, verify_isogeny
    Cprime, X, Y = velu3()
    report = verify_isogeny(Cprime, X, Y)
    result = {"quotient_curve": {k: str(c) for k, c in Cprime._asdict().items()},
              "X": str(X), "Y": str(Y)}
    checks = [{"name": k, "pass": bool(v),
               "detail": "verified" if v else "FAILED"}
              for k, v in sorted(report.items())]
    return _emit(args, {}, result, checks)


def cmd_maps(args):
    if not args.expr:
        usage_error(args.command, "maps needs --expr")
    ast = parse(args.expr)
    env = {**level1_env(), **level3_env()}
    # --apply F evaluates F(expr)
    applied = args.apply
    value = evaluate(Call(applied, ast) if applied else ast, env)
    result = str(value)
    # the printed value, parsed and evaluated again, must give the value back
    try:
        same = evaluate(parse(result), env) == value
    except (CliSyntaxError, DomainError):
        same = False
    checks = [{"name": "round-trip", "pass": same,
               "detail": "output reparses to an equal AST"}]
    return _emit(args, {"expr": args.expr, "apply": applied}, result, checks)


def cmd_delta(args):
    from .levelmaps import (val2_delta_c4pow, delta_mod2_Delta_pow, delta_map,
                            LevelOneForm)
    if args.c4_pow is not None:
        inputs = {"c4_pow": args.c4_pow}
    elif args.delta_pow is not None:
        inputs = {"delta_pow": args.delta_pow}
    else:
        usage_error(args.command, "delta needs --c4-pow K [--val2] or --delta-pow N")
    if args.range:
        inputs["range"] = args.range
    if args.c4_pow is not None and not args.val2:
        if args.range:
            usage_error(args.command, "--range with --c4-pow needs --val2")
        if args.c4_pow < 0:
            raise DomainError("--c4-pow must be >= 0: c4 is not invertible")
        g = delta_map(LevelOneForm.monomial(args.c4_pow, 0, 0))
        return _emit(args, inputs, g.to_text(), [])
    values = [args.c4_pow if args.c4_pow is not None else args.delta_pow]
    if args.range:
        a, b = _parse_list("--range", args.range)
        if a > b:
            raise DomainError(f"--range wants {_LISTS['--range'][3]}")
        values = range(a, b + 1)
    rows, checks = [], []
    if args.c4_pow is not None:
        for k, r in zip(values, val2_delta_c4pow(values)):
            rows.append(f"k={k}: val2 = {r['valuation']}" if args.range
                        else str(r["valuation"]))
            checks.append({"name": f"val2(content(delta(c4^{k})))",
                           "pass": r["pass"],
                           "detail": f"computed {r['valuation']}, expected {r['expected']}"})
    else:
        for N in values:
            r = delta_mod2_Delta_pow(N)
            rows.append(f"N={N}: min term {r['leading_term']}")
            checks.append({"name": f"min_a1_term(mod2(delta(Delta^{N})))",
                           "pass": r["pass"],
                           "detail": f"computed {r['leading_term']}, expected {r['expected']}"})
    return _emit(args, inputs, "\n".join(rows), checks)


def cmd_qexp(args):
    from .qexp import QSeries, eisenstein_in_c4c6
    prec = args.precision
    if prec < 1:
        raise DomainError("--precision must be >= 1")
    if args.eisenstein is not None:
        k = args.eisenstein
        result = eisenstein_in_c4c6([k])[k].to_text()
        return _emit(args, {"eisenstein": k}, result, [])
    if not args.expr:
        usage_error(args.command, "qexp needs --expr or --eisenstein K")
    ast = parse(args.expr)
    value = evaluate(ast, qexp_env(prec))
    if not isinstance(value, (Fraction, QSeries)):
        # a level map of a scalar, such as fstar(1), has no q-expansion
        raise DomainError(f"qexp needs a q-series, got {type(value).__name__}")
    result = str(value) if isinstance(value, Fraction) else value.to_text(terms=prec)
    return _emit(args, {"expr": args.expr, "precision": prec}, result, [])


def cmd_chart(args):
    from .sseq import (Window, DEFAULT_WINDOW, compute_all, chart_json,
                       chart_ascii)
    win = (Window(*_parse_list("--window", args.window)) if args.window
           else DEFAULT_WINDOW)
    try:
        pages = compute_all(win)
    except AssertionError as exc:
        # a page check failed on a window that holds what it reads
        print(f"[FAIL] page checks: {exc}", file=sys.stderr)
        return 3
    page = pages[args.page]
    # every page check is a bool, and a false one has raised above
    checks = [{"name": k, "pass": v, "detail": "verified"}
              for k, v in sorted(page.checks.items())]
    result = (chart_json(page) if args.json
              else chart_ascii(page, max_stem=min(win.W, 48)))
    return _emit(args, {"page": args.page, "window": list(win)}, result, checks)


def cmd_verify(args):
    from .verify import get_item, run_all
    if args.all:
        results = run_all()
    elif args.item is not None:
        results = [get_item(args.item)()]
    else:
        usage_error(args.command, "verify needs --all or --item N")
    checks = [{"name": f"item {r['index']}: {r['name']}", "pass": r["pass"],
               "detail": r["detail"]} for r in results]
    failures = sum(1 for r in results if not r["pass"])
    lines = []
    for r in results:
        status = "ok" if r["pass"] else "FAIL"
        lines.append(f"[{status}] item {r['index']} ({r['seconds']:.3f}s) "
                     f"{r['name']}: {r['detail']}")
    lines.append(f"{len(results)} items, {failures} failures")
    result = "\n".join(lines)
    if args.json:
        return _emit(args, {"all": args.all, "item": args.item}, result, checks)
    print(result)
    return 0 if failures == 0 else 3


# -- the command table and its two parsers -----------------------------------

# subcommand -> (handler, {flag: argparse keywords}); every subcommand also
# takes --json. build_parser makes the argparse parser of this table, and
# quick_parse reads the same table without argparse.
COMMANDS = {
    "invariants": (cmd_invariants, {
        "--curve": {"help": "a1,a2,a3,a4,a6 (default: universal normal form)"}}),
    "normalize": (cmd_normalize, {"--curve": {}, "--point": {}}),
    "isogeny": (cmd_isogeny, {}),
    "maps": (cmd_maps, {"--expr": {}, "--apply": {"choices": KNOWN_FUNCS}}),
    "delta": (cmd_delta, {"--c4-pow": {"type": int},
                          "--val2": {"action": "store_true"},
                          "--delta-pow": {"type": int},
                          "--range": {}}),
    "qexp": (cmd_qexp, {"--expr": {}, "--precision": {"type": int, "default": 10},
                        "--eisenstein": {"type": int}}),
    "chart": (cmd_chart, {"--window": {},
                          "--page": {"default": "Einf", "choices": CHART_PAGES}}),
    "verify": (cmd_verify, {"--all": {"action": "store_true"},
                            "--item": {"type": int}}),
}


def _flags(command):
    """A subcommand's flags and their argparse keywords, --json last."""
    return {**COMMANDS[command][1], "--json": {"action": "store_true"}}


def _add_flags(parser, command):
    for flag, kw in _flags(command).items():
        parser.add_argument(flag, **kw)
    return parser


def build_parser():
    """The argparse parser of COMMANDS, for help, abbreviations and usage
    errors."""
    import argparse
    p = argparse.ArgumentParser(
        prog="tmf3",
        description="Exact-arithmetic toolkit for level-3 modular forms, "
                    "degree-3 isogenies, and the Z/2 fixed-point chart.")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_flags(sub.add_parser(name), name)
    return p


def usage_error(command, message):
    """Exit 2 with the subcommand's usage and message, as argparse does for
    a malformed command line."""
    import argparse
    _add_flags(argparse.ArgumentParser(prog=f"tmf3 {command}"), command).error(message)


def quick_parse(argv):
    """The namespace build_parser().parse_args(argv) returns, read from
    COMMANDS without argparse; None for a command line it does not read.

    It reads the line as _join_values leaves it: a known subcommand
    followed by its exact long flags, each at most once, as --flag=value or
    a store-true flag alone. Anything else (help, an abbreviation, "--", a
    value flag with no value, a repeated flag, a bad int or choice) is None,
    so that argparse parses it and gives its own messages and exit codes."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = _flags(argv[0])
    given = {}
    for token in argv[1:]:
        flag, eq, value = token.partition("=")
        kw = flags.get(flag)
        if kw is None or flag in given:
            return None
        if kw.get("action") == "store_true":
            if eq:
                return None
            value = True
        elif not eq:
            return None
        if "type" in kw:
            try:
                value = int(value)
            except ValueError:
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0])
    for flag, kw in flags.items():
        unset = False if kw.get("action") == "store_true" else None
        setattr(args, flag[2:].replace("-", "_"),
                given.get(flag, kw.get("default", unset)))
    return args


def _join_values(argv):
    """argv with each exact value flag of its subcommand joined to the next
    token as --flag=value, unless that token, up to any "=", is -h or, by
    argparse's rule for abbreviations, "--" or a prefix of one of the
    subcommand's flags or --help."""
    flags = _flags(argv[0]) if argv and argv[0] in COMMANDS else {}
    values = {flag for flag, kw in flags.items() if kw.get("action") != "store_true"}
    stops = {"-h"} | {f[:n] for f in (*flags, "--help") for n in range(2, len(f) + 1)}
    joined = argv[:1]
    for token in argv[1:]:
        if joined[-1] in values and token.partition("=")[0] not in stops:
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    return joined


# the atexit registries that gc.freeze is registered with
_FREEZE_REGISTERED = set()


def main(argv=None):
    # tmf3 builds no cyclic garbage: each of the benchmark's golden command
    # lines, run in process with the collector off, leaves for gc.collect()
    # only the 33 objects of the pure-Python json encoder that
    # json.dumps(indent=2) uses, or none when it prints no json, while the
    # four processes of one pass of the benchmark's chart workload run 152
    # collections that find next to nothing. So the handler runs
    # with the collector paused, and the finally puts back the state main
    # found, so that a library caller keeps its collector; reference
    # counting frees a command's objects either way.
    # After the atexit handlers CPython's finalization runs full cyclic
    # collections over every object still alive. Nothing a command leaves
    # is cyclic garbage (ints, tuples, dicts, Fractions, records, lru_cache
    # tables, modules), so an atexit handler freezes it all out of their
    # reach first. Registered here, not at import, so a library caller keeps
    # a working collector until its own exit; once per registry however
    # often main runs, since every atexit.register takes a new slot, even
    # after atexit.unregister.
    if atexit not in _FREEZE_REGISTERED:
        _FREEZE_REGISTERED.add(atexit)
        atexit.register(gc.freeze)
    argv = _join_values(sys.argv[1:] if argv is None else list(argv))
    args = quick_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = COMMANDS[args.command][0](args)
        # what is still buffered goes out here, where a closed pipe is caught
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; pointed at devnull,
        # that flush neither fails nor prints "Exception ignored"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CliSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
