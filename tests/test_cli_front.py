"""The command line's own report writer and its parser dispatch.

``cli._json_text`` must write the bytes of ``json.dumps(report,
sort_keys=True, indent=2)``.  ``cli._read`` must build the namespace
argparse builds from a well-formed line, and refuse every other line;
``cli.main`` hands a refused line after a command name to that
command's parser, and everything else to the top-level parser.
"""

import contextlib
import io
import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantadist import cli
from test_published_output import DATA, FIXTURES

PUBLISHED = json.loads(DATA.read_text("utf-8"))


def _oracle(value):
    return json.dumps(value, sort_keys=True, indent=2)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- the report writer --------------------------------------------------------

def test_writer_matches_json_dumps_on_every_published_report():
    reports = [json.loads("\n".join(case["stdout"]))
               for case in PUBLISHED if "--json" in case["argv"]]
    assert len(reports) >= 20
    for report in reports:
        assert cli._json_text(report) == _oracle(report)


#: Text that exercises the escapes: quotes, backslashes, control
#: characters, non-ASCII (two- and four-byte), a lone surrogate.
AWKWARD = ['', '"', '\\', '\\"', '\x00\x07\b\t\n\x0b\f\r\x1b\x1f\x7f', 'caf\xe9',
           '  ', '\U0001f600', '\ud800', 'x: "1/2", y\\z']
SCALARS = (st.none() | st.booleans()
           | st.integers() | st.integers(-10**40, 10**40)
           | st.sampled_from([0, -1, 2**63, -2**63 - 1, 10**100])
           | st.text() | st.sampled_from(AWKWARD))
KEYS = st.text(max_size=6) | st.sampled_from(AWKWARD)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=30)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(VALUES)
def test_writer_matches_json_dumps_on_generated_values(value):
    assert cli._json_text(value) == _oracle(value)


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"": {}}, {"a": [[], {}, [[{}]]]}, {"b": 1, "a": {"d": [], "c": None}},
    True, False, None, -0, 12345678901234567890123, "é\"\\",
], ids=repr)
def test_writer_matches_json_dumps_on_edge_values(value):
    assert cli._json_text(value) == _oracle(value)


@pytest.mark.parametrize("value", [
    1.5, {"value": 0.25}, [1, [2.0]], F(1, 2), (1, 2), {1: "int key"}, {None: 1},
], ids=repr)
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


# -- dispatch -----------------------------------------------------------------

def test_own_parser_reads_each_published_argv_as_the_top_level_parser_did():
    top, commands, _tables = cli._parser()
    for case in PUBLISHED:
        argv = case["argv"]
        whole = vars(top.parse_args(argv))
        assert whole.pop("command") == argv[0]
        assert vars(commands[argv[0]].parse_args(argv[1:])) == whole, argv


@pytest.fixture
def parses(monkeypatch):
    """The parsers ``main`` calls during a test, by their prog."""
    top, commands, _tables = cli._parser()
    called = []
    for parser in (top, *commands.values()):
        def recording(args, parser=parser, parse=parser.parse_args):
            called.append(parser.prog)
            return parse(args)
        monkeypatch.setattr(parser, "parse_args", recording)
    return called


@pytest.mark.parametrize("argv,code", [
    ([], cli.EXIT_USAGE),
    (["-h"], cli.EXIT_OK),
    (["nosuch"], cli.EXIT_USAGE),
    (["--", "distance", "--model", "exceptions.json", "--pair", "{x0,y0}|{z0}",
      "--method", "kleene"], cli.EXIT_USAGE),
], ids=["empty", "-h", "unknown", "-- distance"])
def test_an_argv_naming_no_command_goes_to_the_top_level_parser(argv, code, parses,
                                                                monkeypatch):
    monkeypatch.chdir(FIXTURES)
    assert _main(argv)[0] == code
    assert parses == ["quantadist"]


def test_an_argv_naming_a_command_goes_to_its_own_parser(parses, monkeypatch):
    """Only if the reader refuses it: a well-formed line reaches no
    argparse parser, and a refused one only its command's parser."""
    monkeypatch.chdir(FIXTURES)
    assert _main(["repro", "exceptions", "--json"])[0] == cli.EXIT_OK
    assert parses == []
    assert _main(["repro", "exceptions", "--json", "--json"])[0] == cli.EXIT_OK
    assert _main(["repro", "nosuch"])[0] == cli.EXIT_USAGE
    assert parses == ["quantadist repro"] * 2


def test_an_error_after_a_command_name_prints_that_commands_usage(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    code, out, err = _main(["distance", "--model", "exceptions.json", "--pair",
                            "{x0,y0}|{z0}", "--method", "kleene", "--bogus"])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("usage: quantadist distance [-h] --model MODEL")
    assert err.endswith("quantadist distance: error: unrecognized arguments: --bogus\n")


# -- the one-pass reader ----------------------------------------------------------

def _argparse(argv):
    """What the command's own parser makes of ``argv``: its namespace, or
    None where it exits (its output swallowed)."""
    _top, commands, _tables = cli._parser()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return commands[argv[0]].parse_args(argv[1:])
        except SystemExit:
            return None


def _read(argv):
    return cli._read(cli._parser()[2][argv[0]], argv[1:])


def _units(args):
    """A command's arguments as the units a reordering may move: an option
    with its value, a flag, a positional."""
    units, i = [], 0
    while i < len(args):
        width = 2 if args[i].startswith("-") and args[i] not in ("--json", "--mutant-g") else 1
        units.append(args[i:i + width])
        i += width
    return units


def _reorderings(argv):
    """``argv`` as given, then nine orders of its units."""
    units = _units(argv[1:])
    rng = random.Random(" ".join(argv))
    orders = [units, units[::-1], units[1:] + units[:1], units[-1:] + units[:-1]]
    for _ in range(6):
        orders.append(rng.sample(units, len(units)))
    return [[argv[0], *[token for unit in order for token in unit]] for order in orders]


def test_reader_builds_argparses_namespace_on_published_argvs_and_reorderings():
    checked = 0
    for case in PUBLISHED:
        for argv in _reorderings(case["argv"]):
            read = _read(argv)
            assert read is not None and read == _argparse(argv), argv
            checked += 1
    assert checked == 10 * len(PUBLISHED)


def test_reader_fills_defaults_and_store_true_consts():
    read = _read(["laws", "--scope", "quantale"])
    assert vars(read) == {"scope": "quantale", "grid": None, "seed": None,
                          "mutant_g": None, "json": False, "func": cli._cmd_laws}
    read = _read(["laws", "--mutant-g", "--scope", "distlaw", "--seed", "7", "--json"])
    assert (read.mutant_g, read.seed, read.json) == (True, 7, True)
    read = _read(["distance", "--pair", "a|b", "--method", "lp", "--model", ""])
    assert (read.model, read.max_words, read.max_iters, read.max_states) == ("", 10, 1000,
                                                                            10_000)


KLEENE = ["distance", "--model", "exceptions.json", "--pair", "{x0,y0}|{z0}",
          "--method", "kleene"]

#: Lines the reader refuses, by the rule that refuses them; argparse
#: answers some (an abbreviation, ``--opt=value``, a repeat) and refuses
#: the rest, with its own usage and error.
REFUSED = {
    "help": ["distance", "-h"],
    "long help": ["repro", "exceptions", "--help"],
    "abbreviation": ["distance", "--mod", "exceptions.json", "--pair", "{x0,y0}|{z0}",
                     "--method", "kleene"],
    "flag abbreviation": ["repro", "exceptions", "--js"],
    "opt=value": ["distance", "--model=exceptions.json", "--pair", "{x0,y0}|{z0}",
                  "--method", "kleene"],
    "repeated option": KLEENE + ["--method", "kleene"],
    "repeated flag": ["repro", "exceptions", "--json", "--json"],
    "--": ["repro", "--", "exceptions"],
    "-- before options": ["distance", "--", *KLEENE[1:]],
    "negative count": KLEENE + ["--max-iters", "-1"],
    "negative seed": ["laws", "--scope", "quantale", "--seed", "-5"],
    "dash value": ["distance", "--model", "-", "--pair", "{x0,y0}|{z0}", "--method", "kleene"],
    "option as value": ["distance", "--model", "--json", "--pair", "{x0,y0}|{z0}",
                        "--method", "kleene"],
    "bad count": KLEENE + ["--max-words", "ten"],
    "bad int": ["laws", "--scope", "quantale", "--grid", "1.5"],
    "bad choice": ["distance", "--model", "exceptions.json", "--pair", "{x0,y0}|{z0}",
                   "--method", "nope"],
    "bad positional choice": ["repro", "nosuch"],
    "missing value": KLEENE[:-1],
    "missing required": KLEENE[:-2],
    "missing positional": ["repro", "--json"],
    "no arguments": ["certify"],
    "stray argument": KLEENE + ["extra"],
    "second positional": ["repro", "exceptions", "exceptions"],
    "unknown option": KLEENE + ["--bogus"],
    "single dash": ["repro", "-", "exceptions"],
}


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED.keys())
def test_reader_refuses_and_argparse_answers_as_before(argv, monkeypatch):
    """A refused line reaches argparse, and ``main`` answers it as it did
    when argparse read every line: ``main`` with the reader refusing
    everything is the oracle."""
    monkeypatch.chdir(FIXTURES)
    monkeypatch.setenv("COLUMNS", "80")
    assert _read(argv) is None
    got = _main(argv)
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_read", lambda table, args: None)
        want = _main(argv)
    elapsed = re.compile(r"elapsed: \d+\.\d\ds\n$")
    assert (got[0], got[1], elapsed.sub("", got[2])) == (want[0], want[1],
                                                          elapsed.sub("", want[2]))


TOKENS = ["--model", "--pair", "--method", "--max-words", "--max-iters", "--max-states",
          "--json", "--cert", "--scope", "--grid", "--seed", "--mutant-g", "-h", "--mod",
          "--json=1", "--", "-", "-1", "m.json", "a|b", "kleene", "lp", "trace", "nope",
          "3", "0", "x", "", "quantale", "distlaw", "exceptions", "machine"]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([case["argv"] for case in PUBLISHED]), st.data())
def test_reader_agrees_with_argparse_on_mutated_lines(argv, data):
    """A published line with its units shuffled, then a few tokens
    inserted, deleted or replaced: where the reader reads the line,
    argparse builds the same namespace, and an unmutated line is read."""
    units = data.draw(st.permutations(_units(argv[1:])))
    args = [token for unit in units for token in unit]
    edits = data.draw(st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                                         st.integers(0, 20), st.sampled_from(TOKENS)),
                               max_size=3))
    for kind, at, token in edits:
        at %= len(args) + 1
        args[at:at + (kind != "insert")] = [] if kind == "delete" else [token]
    line = [argv[0], *args]
    read = _read(line)
    if read is not None:
        assert read == _argparse(line), line
    else:
        assert edits, line
