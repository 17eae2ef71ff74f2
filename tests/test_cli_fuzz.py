"""A grammar-driven fuzz of every subcommand, run in process through
``cli.main``: each command line is drawn from ``cli.COMMANDS``, with values at
and just past each bound, and each expression from the grammar of
``cli.parse``. A well-formed line goes through the quick parse; an
abbreviated flag, a negative or malformed value and --help go through
argparse."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings, strategies as st

from tmf3 import cli

# -- expressions ----------------------------------------------------------------


def _binary(inner):
    return st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner)


def _expressions(idents):
    """The grammar over ``idents``, small ints, + - * /, parentheses, unary
    minus and the functions. A power's base holds no power, and its exponent
    is a literal in -3..6, so that no draw is expensive."""
    atoms = st.one_of(st.sampled_from(idents), st.integers(0, 30).map(str))
    bases = st.one_of(atoms, st.recursive(atoms, _binary, max_leaves=2).map("({})".format))
    powers = st.builds("{}^{}".format, bases, st.integers(-3, 6))
    return st.recursive(
        st.one_of(atoms, powers),
        lambda inner: st.one_of(_binary(inner), inner.map("({})".format),
                                inner.map("-{}".format),
                                st.builds("{}({})".format,
                                          st.sampled_from(cli.KNOWN_FUNCS), inner)),
        max_leaves=4)


# over all the identifiers, and over those of one domain, where fewer draws
# are domain errors
EXPRESSIONS = st.one_of([_expressions(idents) for idents in
                         (cli.KNOWN_IDENTS, ("a1", "a3"), ("c4", "c6", "Delta"),
                          ("c4", "c6", "Delta", "q"))])

# -- flag values ----------------------------------------------------------------


def _ints(*bounds, low=-2, high=8):
    """The values at and just past each bound, or any int in low..high."""
    return st.one_of(st.sampled_from(bounds), st.integers(low, high)).map(str)


RATIONALS = st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 4))


def _fields(n):
    return st.lists(RATIONALS, min_size=n - 1, max_size=n + 1).map(",".join)


# a window S,W,D with S of 6 or 7, W of 23 or 24 and D of 0 or 1, each next to
# its least value, or inside the bound W <= 60
WINDOWS = st.builds("{},{},{}".format,
                    st.one_of(st.sampled_from([6, 7]), st.integers(1, 10)),
                    st.one_of(st.sampled_from([23, 24]), st.integers(1, 60)),
                    st.one_of(st.sampled_from([0, 1]), st.integers(0, 10)))

VALUES = {
    "--curve": _fields(5),
    "--point": _fields(2),
    "--expr": EXPRESSIONS,
    "--apply": st.sampled_from([*cli.KNOWN_FUNCS, "gstar"]),
    "--c4-pow": _ints(-1, 0, 1),
    "--delta-pow": _ints(-1, 0, 1),
    # A > B, as well as A <= B
    "--range": st.builds("{}..{}".format, st.integers(-1, 6), st.integers(-1, 6)),
    "--precision": _ints(0, 1, high=20),
    "--eisenstein": _ints(2, 4, 5, high=30),
    "--window": st.one_of(WINDOWS, st.just("7,24")),
    "--page": st.sampled_from([*cli.CHART_PAGES, "E3"]),
    "--item": _ints(0, 1, 9, 10, low=-1, high=11),
}


def _spellings(flag, flags):
    """The flag, or a prefix of it that no other flag, nor --help, shares."""
    others = [f for f in [*flags, "--help"] if f != flag]
    shortest = next(n for n in range(3, len(flag) + 1)
                    if not any(f.startswith(flag[:n]) for f in others))
    return st.one_of(st.just(flag), st.integers(shortest, len(flag)).map(lambda n: flag[:n]))


@st.composite
def command_lines(draw):
    """An argv: a subcommand and some of its flags in random order, each
    as --flag value or --flag=value, and now and then --help."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = cli._flags(command)
    # verify --all runs the nine items, 0.1 s a time, so only an @example has it
    drawn = [flag for flag in flags if (command, flag) != ("verify", "--all")]
    given = draw(st.lists(st.sampled_from(drawn), unique=True))
    argv = [command]
    for flag in given:
        spelled = draw(_spellings(flag, flags))
        if flags[flag].get("action") == "store_true":
            argv.append(spelled)
        elif draw(st.booleans()):
            argv.append(f"{spelled}={draw(VALUES[flag])}")
        else:
            argv += [spelled, draw(VALUES[flag])]
    if draw(st.integers(0, 19)) == 13:
        argv.insert(draw(st.integers(1, len(argv))), "--help")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            # argparse: --help, or a malformed command line
            assert exc.code in (0, 2), (argv, exc.code)
            return None, out.getvalue(), err.getvalue()
    return code, out.getvalue(), err.getvalue()


# hypothesis rejects function-scoped fixtures such as capsys, so _run
# redirects the output itself
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command_lines())
@example(["maps", "--expr", "qstar(c4*Delta^-1) - fstar(c4*Delta^-1)", "--json"])
@example(["qexp", "--expr", "c4^3 - c6^2 - 1728*Delta", "--precision", "20", "--json"])
@example(["normalize", "--curve", "1,0,2,0,0", "--point", "0,0", "--json"])
@example(["chart", "--window", "7,24,1", "--page", "E7", "--json"])
@example(["isogeny", "--json"])
@example(["verify", "--all", "--json"])
# a level map of a scalar in qexp once printed a TypeError traceback
@example(["qexp", "--expr", "fstar(0)"])
def test_every_command_line_exits_with_a_code(argv):
    code, out, err = _run(argv)
    if code is None:
        return
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, argv
    # --json, however abbreviated: no other flag and no value starts with --j
    if any(token.startswith("--j") for token in argv) and code in (0, 3):
        payload = json.loads(out)
        assert payload.keys() == {"command", "inputs", "result", "checks"}, argv
    if argv[0] == "maps" and code == 0:
        # the printed value evaluates back to the value
        assert "[ok] round-trip" in err or json.loads(out)["checks"] == [
            {"name": "round-trip", "pass": True,
             "detail": "output reparses to an equal AST"}], argv
