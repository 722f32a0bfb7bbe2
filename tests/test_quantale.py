import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantadist
from quantadist.behaviour import certify, pair_gfp
from quantadist.cli import main
from quantadist.distlaw import case_study_laws, law_suite
from quantadist.galois import Grid, grid_values
from quantadist.models import fixture_certificate, fixture_model, load_fixture
from quantadist.monadlift import finsubset, weight_from_json
from quantadist.quantale import (BOOLEAN, EXT_PLUS, INF, UNIT_OPLUS, QuantaleError,
                                 get_quantale, parse_rational)
from quantadist.repro import REPRODUCTIONS
from quantadist.suites import polyfunctor_suite, residuation_lemma_suite
from quantadist.vgraph import carrier, graph_from_entries

OPS = ("leq", "tensor", "residuate", "join2", "meet2")
VALUE_OPS = ("tensor", "residuate", "join2", "meet2")
GRIDS = {
    BOOLEAN: grid_values(BOOLEAN, Grid(1)),
    UNIT_OPLUS: grid_values(UNIT_OPLUS, Grid(8)),
    EXT_PLUS: grid_values(EXT_PLUS, Grid(2, cap=3)),
}


def test_tensor_examples():
    assert UNIT_OPLUS.tensor(F(7, 10), F(3, 5)) == F(1)
    assert EXT_PLUS.tensor(F(2), INF) is INF
    assert BOOLEAN.tensor(True, False) is False


def test_residuation_examples():
    assert BOOLEAN.residuate(True, False) is False
    assert UNIT_OPLUS.residuate(F(3, 10), F(4, 5)) == F(1, 2)
    # d_V(k, w) = w across a 1/8 grid
    for w in grid_values(UNIT_OPLUS, Grid(8)):
        assert UNIT_OPLUS.residuate(UNIT_OPLUS.unit, w) == w


def test_lattice_examples():
    assert UNIT_OPLUS.meet([F(1, 5), F(7, 10)]) == F(7, 10)
    assert UNIT_OPLUS.join([]) == F(1)  # bottom is numeric 1
    assert BOOLEAN.join([False, True]) is True
    assert BOOLEAN.meet([]) is True
    assert EXT_PLUS.join([]) is INF


def test_mixed_operands_rejected():
    # The operations trust their operands; mixed values are stopped where
    # they enter (see test_boundaries_reject_bad_values).
    with pytest.raises(QuantaleError):
        BOOLEAN.value_from_json("1/2")
    with pytest.raises(QuantaleError):
        UNIT_OPLUS.validate(F(3, 2))
    with pytest.raises(QuantaleError):
        UNIT_OPLUS.validate(INF)
    with pytest.raises(QuantaleError):
        EXT_PLUS.validate(F(-1))


def test_order_is_reversed_on_reals():
    assert UNIT_OPLUS.leq(F(1), F(0))
    assert not UNIT_OPLUS.leq(F(0), F(1))
    assert EXT_PLUS.leq(INF, F(5))
    assert EXT_PLUS.top == F(0) and EXT_PLUS.bottom is INF


def test_value_json_roundtrip():
    assert UNIT_OPLUS.value_from_json(UNIT_OPLUS.value_to_json(F(1, 3))) == F(1, 3)
    assert EXT_PLUS.value_to_json(INF) == "inf"
    assert EXT_PLUS.value_from_json("inf") is INF
    assert BOOLEAN.value_from_json(True) is True
    assert UNIT_OPLUS.value_to_json(F(2, 4)) == "1/2"


def test_get_quantale():
    assert get_quantale("boolean") is BOOLEAN
    assert get_quantale("unit-oplus") is UNIT_OPLUS
    assert get_quantale("ext-plus") is EXT_PLUS
    with pytest.raises(QuantaleError):
        get_quantale("lukasiewicz")


@pytest.mark.parametrize("q", [UNIT_OPLUS, EXT_PLUS], ids=lambda q: q.ident)
def test_largest_u_check_rejects_a_smaller_residuation(q):
    # Numerically 1/8 above the true residual, where that stays in range:
    # still a solution of u (x) b <= c, but not the largest one.
    def smaller(a, b):
        r = q.residuate(a, b)
        return r if r is INF or (q is UNIT_OPLUS and r > F(7, 8)) else r + F(1, 8)

    vals = GRIDS[q]
    weak = copy.copy(q)
    weak.residuate = smaller
    assert residuation_lemma_suite(q, vals)[0].passed
    item1 = residuation_lemma_suite(weak, vals)[0]
    assert "item 1" in item1.name and not item1.passed


# -- the trusted-value contract --------------------------------------------------
#
# The lattice operations assume canonical operands.  The oracle below
# validates every operand first and handles infinity explicitly in the
# real-valued order.

def _numeric_le(a, b):
    if a is INF:
        return b is INF
    if b is INF:
        return True
    return a <= b


def _oracle(q, op, a, b):
    a, b = q.validate(a), q.validate(b)
    if q is BOOLEAN:
        return {"leq": (not a) or b, "tensor": a and b, "residuate": (not a) or b,
                "join2": a or b, "meet2": a and b}[op]
    if op == "leq":
        return _numeric_le(b, a)
    if op == "join2":
        return a if _numeric_le(a, b) else b
    if op == "meet2":
        return b if _numeric_le(a, b) else a
    if op == "tensor":
        if a is INF or b is INF:
            return INF
        s = a + b
        return F(1) if q is UNIT_OPLUS and s > 1 else s
    if a is INF:
        return F(0)
    if b is INF:
        return INF
    return max(b - a, F(0))


def _same(x, y):
    return x is y or (type(x) is type(y) and x == y)


@pytest.mark.parametrize("q", list(GRIDS), ids=lambda q: q.ident)
def test_trusted_operations_match_validating_oracle(q):
    vals = GRIDS[q]
    for a, b in product(vals, repeat=2):
        for op in OPS:
            got = getattr(q, op)(a, b)
            assert _same(got, _oracle(q, op, a, b)), (op, a, b)
            if op != "leq":
                assert _same(q.validate(got), got), (op, a, b)
    for a, b, c in product(vals, repeat=3):
        for inner in VALUE_OPS:
            ab = getattr(q, inner)(a, b)
            for outer in OPS:
                assert _same(getattr(q, outer)(ab, c), _oracle(q, outer, ab, c)), \
                    (outer, inner, a, b, c)


def test_constants_are_canonical_and_shared():
    for q in GRIDS:
        for const in (q.top, q.bottom, q.unit):
            assert _same(q.validate(const), const)
        assert q.top is q.top and q.bottom is q.bottom
    assert UNIT_OPLUS.top == F(0) and UNIT_OPLUS.bottom == F(1)
    assert EXT_PLUS.bottom is INF and EXT_PLUS.unit == F(0)


@pytest.fixture
def strict_operations(monkeypatch):
    """Give the three instances operations that record every operand that
    is not canonical (``validate`` would raise, or return another value)."""
    bad = []

    def strict(q, op):
        def checked(a, b):
            for v in (a, b):
                try:
                    ok = q.validate(v) is v
                except QuantaleError:
                    ok = False
                if not ok:
                    bad.append((q.ident, op, v))
            return trusted(a, b)
        trusted = getattr(q, op)
        return checked

    for q in GRIDS:
        for op in OPS:
            monkeypatch.setattr(q, op, strict(q, op))
    return bad


def test_operations_only_see_canonical_values(strict_operations):
    for name, run in sorted(REPRODUCTIONS.items()):
        assert run().matches, name
    for model_name in ("exceptions", "probchain"):
        model = fixture_model(f"{model_name}.json")
        cert = fixture_certificate(f"{model_name}_cert.json", model)
        assert certify(cert).accepted, model_name
    model = fixture_model("exceptions.json")
    det = model.det()
    result = pair_gfp(det, det.state(finsubset(["x0", "y0"])), det.state(finsubset(["z0"])))
    assert result.value == F(1, 4)
    assert all(r.passed for r in polyfunctor_suite())
    for name, law in sorted(case_study_laws().items()):
        assert all(r.passed for r in law_suite(law, seed=0)), name
    assert strict_operations == []


def test_strict_operations_catch_a_bad_operand(strict_operations):
    UNIT_OPLUS.tensor(F(1, 2), 1)
    EXT_PLUS.leq(F(1), True)
    assert strict_operations == [("unit-oplus", "tensor", 1), ("ext-plus", "leq", True)]


# Bad values on unit-oplus: in Python form and in JSON form.
BAD_VALUES = [True, -1, F(3, 2), INF, 0.5]
BAD_JSON = [True, -1, "3/2", "inf", 0.5]


@pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
def test_boundaries_reject_bad_values(bad):
    c = carrier(["a", "b"])
    with pytest.raises(QuantaleError):
        graph_from_entries(UNIT_OPLUS, c, {("a", "b"): bad})


@pytest.mark.parametrize("bad", BAD_JSON, ids=repr)
def test_value_from_json_rejects_bad_values(bad):
    with pytest.raises(QuantaleError):
        UNIT_OPLUS.value_from_json(bad)


def _fraction_or_error(parse, literal):
    """``parse(literal)`` as a ``Fraction``, or the class of what it raised."""
    try:
        result = parse(literal)
    except Exception as exc:  # the differential test compares classes
        return type(exc)
    return F(*result) if isinstance(result, tuple) else result


LITERALS = ["0/5", "007/010", "1/0", "+1/2", " 1/2", "1_000/3", "\u0663/\u0664", "\u00b2",
            "0.5", "", "/", "1/", "/2", "1/2/3", "-0", "12", 0, 7, -3, True, [1]]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.text(alphabet="0123456789/._+- \u0660\u0661\u0663\u0669",
                         max_size=10),
                 st.sampled_from(LITERALS), st.integers()))
def test_parse_rational_agrees_with_fraction(literal):
    """The one rational-literal parser reads what ``Fraction`` reads, to
    the same value, and fails where it fails, with the same exception
    class: on digits of any script, signs, decimals, underscores, spaces,
    ints and the JSON forms."""
    assert _fraction_or_error(parse_rational, literal) == \
        _fraction_or_error(F, literal)


@pytest.mark.parametrize("literal", ["1e3", "1E-3", "2.5e-1", " 1e9 ", "1_0e1_0"])
def test_parse_rational_refuses_exponent_notation(literal):
    assert isinstance(F(literal), F)
    with pytest.raises(ValueError, match="exponent notation in the rational literal "
                       + re.escape(repr(literal))):
        parse_rational(literal)


@pytest.mark.parametrize("literal,value_error,weight_error", [
    ("1/0", "zero denominator in value '1/0'", "zero denominator in weight '1/0'"),
    (" 1/00 ", "zero denominator in value ' 1/00 '", "zero denominator in weight ' 1/00 '"),
    ("abc", "Invalid literal for Fraction: 'abc'", "Invalid literal for Fraction: 'abc'"),
    ("/2", "Invalid literal for Fraction: '/2'", "Invalid literal for Fraction: '/2'"),
    ("\u00b2", "Invalid literal for Fraction: '\u00b2'", "Invalid literal for Fraction: '\u00b2'"),
    ("1e3", "exponent notation in the rational literal '1e3': write p/q, an integer "
     "or a decimal", "exponent notation in the rational literal '1e3': write p/q, an "
     "integer or a decimal"),
    (True, "expected rational string, got boolean True",
     "a weight must be a rational string, got True"),
    ([1], "expected rational string, got [1]", "a weight must be a rational string, got [1]"),
], ids=["zero-denominator", "spaced-zero-denominator", "letters", "no-numerator",
        "superscript", "exponent", "boolean", "list"])
def test_literal_messages(literal, value_error, weight_error):
    for read, message in ((EXT_PLUS.value_from_json, value_error),
                          (weight_from_json, weight_error)):
        with pytest.raises((ValueError, QuantaleError)) as caught:
            read(literal)
        assert str(caught.value) == message
    assert EXT_PLUS.value_from_json("\u0663/\u0664") == weight_from_json("3/4") == F(3, 4)


def _fixture_path(name):
    return str(Path(quantadist.__file__).parent / "fixtures" / name)


def _run_cli(tmp_path, argv, **docs):
    """Run the command line in process with each keyword written to a
    JSON file and its ``{name}`` placeholder in ``argv`` replaced by the path."""
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    argv = [str(paths[a[1:-1]]) if a[1:-1] in paths else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@pytest.mark.parametrize("bad", BAD_JSON, ids=repr)
def test_cli_rejects_bad_values(tmp_path, bad):
    model = load_fixture("exceptions.json")
    model["transitions"]["x3"] = {"inl": {"const": bad}}
    code, err = _run_cli(tmp_path, ["distance", "--model", "{model}", "--pair",
                                    "{x0}|{z0}", "--method", "kleene"], model=model)
    assert code == 2 and err.startswith("error:"), err

    cert = load_fixture("exceptions_cert.json")
    cert["entries"][0]["value"] = bad
    code, err = _run_cli(tmp_path, ["certify", "--model", _fixture_path("exceptions.json"),
                                    "--cert", "{cert}"], cert=cert)
    assert code == 2 and err.startswith("error:"), err

    graph = {"kind": "vgraph", "quantale": "unit-oplus", "elements": ["A", "B"],
             "dist": [["0", bad], ["1/2", "0"]]}
    code, err = _run_cli(tmp_path, ["distance", "--model", "{graph}", "--pair",
                                    "A:1|B:1", "--method", "lp"], graph=graph)
    assert code == 2 and err.startswith("error:"), err


def test_python_m_quantadist(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(quantadist.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-m", "quantadist", "repro", "pd"],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "all values reproduced"
