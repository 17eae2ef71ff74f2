"""The two parsers of the command table: ``quick_parse`` reads a well-formed
command line exactly as argparse would, or declines it, and a declined one
keeps argparse's help, abbreviations, usage messages and exit codes."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tmf3 import cli
from tmf3.cli import COMMANDS, build_parser, main, quick_parse

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"


def argparse_parse(argv):
    """vars() of argparse's namespace, or its exit code."""
    try:
        return vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code


def test_every_golden_command_line_parses_as_with_argparse(capsys):
    for key in json.loads(GOLDENS.read_text()):
        argv = cli._join_values(shlex.split(key))
        quick = quick_parse(argv)
        assert quick is not None, key
        assert vars(quick) == argparse_parse(argv), key


# (argv, whether quick_parse reads it once main has joined its values); a
# declined one goes to argparse
EDGE_CASES = [
    (["delta", "--c4-pow=3", "--val2"], True),
    (["delta", "--c4-pow", "3", "--val2"], True),
    (["delta", "--c4-pow=-3"], True),
    (["delta", "--c4-pow", "-3"], True),
    (["maps", "--expr=-c4"], True),
    (["maps", "--expr", "-c4"], True),
    (["maps", "--expr", ""], True),
    (["maps", "--expr="], True),
    (["maps", "--expr", "c4", "--expr", "c6"], False),
    (["maps", "--json", "--json", "--expr", "c4"], False),
    (["maps", "--apply", "tstar", "--expr", "a1*a3"], True),
    (["maps", "--apply", "bogus", "--expr", "c4"], False),
    (["maps", "--expr", "c4", "--", "x"], False),
    (["maps", "--expr"], False),
    # an abbreviated flag is no value, as argparse reads it
    (["maps", "--expr", "--js"], False),
    (["maps", "c4"], False),
    (["qexp", "--prec", "5", "--expr", "q"], False),
    (["qexp", "--eisen", "12", "--json"], False),
    (["qexp", "--precision", "x", "--expr", "q"], False),
    (["qexp", "--precision", " 7 ", "--expr", "q"], True),
    (["qexp", "--eisenstein=12", "--json"], True),
    (["chart", "--page", "E9"], False),
    (["chart", "--page=E4", "--window", "12,200,8"], True),
    (["chart", "-h"], False),
    (["chart", "--help"], False),
    (["delta", "--val2=1", "--c4-pow", "2"], False),
    (["delta", "--c4-pow", "2", "--bogus"], False),
    (["verify", "--all", "--item", "3"], True),
    (["verify", "--item", "3.0"], False),
    (["verify"], True),
    (["isogeny", "--json"], True),
    (["--json"], False),
    (["bogus"], False),
    ([], False),
]


@pytest.mark.parametrize("argv, reads", EDGE_CASES,
                         ids=[shlex.join(argv) or "(none)" for argv, _ in EDGE_CASES])
def test_quick_parse_reads_as_argparse_or_declines(capsys, argv, reads):
    argv = cli._join_values(argv)
    quick = quick_parse(argv)
    assert (quick is not None) == reads
    if quick is not None:
        assert vars(quick) == argparse_parse(argv)


def test_the_table_uses_only_the_modelled_keywords():
    for name, (fn, flags) in COMMANDS.items():
        assert callable(fn), name
        for flag, kw in flags.items():
            assert flag.startswith("--"), (name, flag)
            assert kw.keys() <= {"type", "choices", "default", "action",
                                 "help"}, (name, flag)
            assert kw.get("type", int) is int, (name, flag)
            assert kw.get("action", "store_true") == "store_true", (name, flag)


def test_an_abbreviation_runs_as_the_full_flag(capsys):
    assert main(["qexp", "--eisen", "12", "--json"]) == 0
    abbreviated = capsys.readouterr()
    assert main(["qexp", "--eisenstein", "12", "--json"]) == 0
    assert capsys.readouterr() == abbreviated


def test_help_comes_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chart", "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith("usage: tmf3 chart") and "--page {E2,E4,E7,Einf}" in out


def test_well_formed_commands_never_import_argparse():
    # one child runs all eight subcommands; the parent test process has
    # argparse loaded already
    argvs = [["invariants", "--json"],
             ["normalize", "--curve=1,0,2,0,0", "--point", "0,0"],
             ["isogeny"], ["maps", "--expr", "fstar(c4)"],
             ["delta", "--c4-pow", "2", "--val2"], ["qexp", "--eisenstein=12"],
             ["chart", "--page", "E4", "--json"], ["verify", "--item", "1"]]
    code = ("import contextlib, io, json, sys\n"
            "from tmf3.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "         contextlib.redirect_stderr(io.StringIO()):\n"
            "        rc = main(argv)\n"
            "    print(argv[0], rc, 'argparse' in sys.modules, 'gettext' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{argv[0]} 0 False False" for argv in argvs]


@pytest.mark.parametrize("argv", [
    ["maps"], ["normalize", "--curve", "1,0,2,0,0"], ["delta", "--json"],
    ["qexp", "--precision", "5"], ["verify"]], ids=shlex.join)
def test_a_missing_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith(f"usage: tmf3 {argv[0]} ")
    assert f"\ntmf3 {argv[0]}: error: " in err


@pytest.mark.parametrize("command", COMMANDS)
def test_a_usage_error_prints_the_subcommand_usage_of_argparse(capsys, command):
    # the same usage lines as argparse's own error on the subcommand
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--json=1"])
    expected = capsys.readouterr().err.partition(f"tmf3 {command}: error:")[0]
    with pytest.raises(SystemExit) as exc:
        cli.usage_error(command, "message")
    assert exc.value.code == 2
    assert capsys.readouterr().err == expected + f"tmf3 {command}: error: message\n"
