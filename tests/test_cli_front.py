"""The command line's own report writer and its parser dispatch.

``cli._json_text`` must write the bytes of ``json.dumps(report,
sort_keys=True, indent=2)``; ``cli.main`` hands the arguments after a
command name to that command's parser, and everything else to the
top-level parser.
"""

import contextlib
import io
import json
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
    top, commands = cli._parser()
    for case in PUBLISHED:
        argv = case["argv"]
        whole = vars(top.parse_args(argv))
        assert whole.pop("command") == argv[0]
        assert vars(commands[argv[0]].parse_args(argv[1:])) == whole, argv


@pytest.fixture
def parses(monkeypatch):
    """The parsers ``main`` calls during a test, by their prog."""
    top, commands = cli._parser()
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
    monkeypatch.chdir(FIXTURES)
    assert _main(["repro", "exceptions", "--json"])[0] == cli.EXIT_OK
    assert parses == ["quantadist repro"]


def test_an_error_after_a_command_name_prints_that_commands_usage(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    code, out, err = _main(["distance", "--model", "exceptions.json", "--pair",
                            "{x0,y0}|{z0}", "--method", "kleene", "--bogus"])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("usage: quantadist distance [-h] --model MODEL")
    assert err.endswith("quantadist distance: error: unrecognized arguments: --bogus\n")
