import json
import re
from fractions import Fraction as F

import pytest

from conftest import build_exceptions, functor_to_json, model_to_json, term_to_json
from quantadist.cli import main
from quantadist.models import (DistanceInstance, ModelFormatError,
                               certificate_from_json, certificate_to_json,
                               fixture_certificate, fixture_model,
                               functor_from_json, load_fixture, model_from_json,
                               term_reader)
from quantadist.monadlift import POWERSET, SUBDIST
from quantadist.quantale import UNIT_OPLUS


def test_functor_json_roundtrip(probchain, exceptions3):
    for model in (probchain, exceptions3):
        doc = functor_to_json(model.functor)
        assert functor_from_json(doc) == model.functor


def test_model_json_roundtrip(probchain, exceptions3):
    for model in (probchain, exceptions3):
        doc = model_to_json(model)
        back = model_from_json(json.loads(json.dumps(doc)))
        assert back.transitions == model.transitions
        assert back.states == model.states


def test_term_json_roundtrip(probchain):
    term = probchain.transitions["x"]
    doc = term_to_json(probchain.functor, term, SUBDIST, UNIT_OPLUS, probchain.states)
    assert term_reader(probchain.functor, SUBDIST, UNIT_OPLUS,
                       probchain.states)(doc) == term


def test_certificate_json_roundtrip(exceptions3):
    cert = fixture_certificate("exceptions_cert.json", exceptions3)
    doc = certificate_to_json(cert, exceptions3)
    assert doc == load_fixture("exceptions_cert.json")
    back = certificate_from_json(doc, exceptions3)
    assert back.candidate.entries == cert.candidate.entries
    assert back.witnesses == cert.witnesses


def test_fixture_models_validate():
    prob = fixture_model("probchain.json")
    exc = fixture_model("exceptions.json")
    assert prob.monad is SUBDIST and len(prob.states) == 3
    assert exc.monad is POWERSET and len(exc.states) == 12
    transport = model_from_json(load_fixture("transport.json"))
    assert isinstance(transport, DistanceInstance)
    assert set(transport.distributions) == {"P", "Q"}


def test_model_errors():
    with pytest.raises(ModelFormatError):
        model_from_json({"kind": "mystery"})
    doc = model_to_json(fixture_model("probchain.json"))
    del doc["functor"]
    with pytest.raises(ModelFormatError, match="functor"):
        model_from_json(doc)
    bad = model_to_json(fixture_model("probchain.json"))
    bad["transitions"]["x"] = {"id": {"dist": {"x": "1"}}}
    with pytest.raises(ModelFormatError, match="identity leaf"):
        model_from_json(bad)


@pytest.mark.parametrize("monad", ["foo", ["powerset"], None])
def test_model_rejects_unknown_monad(monad):
    doc = {"quantale": "unit-oplus", "monad": monad, "functor": "id",
           "states": [], "transitions": {}}
    with pytest.raises(ModelFormatError, match="unknown monad"):
        model_from_json(doc)


def fixture_path(name):
    import quantadist
    from pathlib import Path
    return str(Path(quantadist.__file__).parent / "fixtures" / name)


def run_cli(*argv):
    import contextlib
    import io
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_cli_distance_lp():
    code, out, _err = run_cli("distance", "--model", fixture_path("transport.json"),
                              "--pair", "P|Q", "--method", "lp")
    assert code == 0
    assert out.splitlines()[0] == "21/10  [exact]"


def test_cli_distance_lp_inline_literals():
    code, out, _err = run_cli(
        "distance", "--model", fixture_path("transport.json"),
        "--pair", "A:7/10,B:1/10,C:1/5|A:1/5,B:3/10,C:1/2", "--method", "lp")
    assert code == 0 and out.splitlines()[0] == "21/10  [exact]"


def test_cli_distance_kleene_exceptions():
    code, out, _err = run_cli("distance", "--model", fixture_path("exceptions.json"),
                              "--pair", "{x0,y0}|{z0}", "--method", "kleene")
    assert code == 0
    assert out.splitlines()[0] == "1/4  [exact]"


def test_cli_distance_trace_probchain():
    code, out, _err = run_cli("distance", "--model", fixture_path("probchain.json"),
                              "--pair", "y:1|x:1", "--method", "trace",
                              "--max-words", "5")
    assert code == 0
    first = out.splitlines()[0]
    assert first == "15/32  [lower bound (numeric)]"
    assert F(15, 32) < F(1, 2)


def test_cli_certify_accept_and_reject(tmp_path):
    code, out, _err = run_cli("certify", "--model", fixture_path("probchain.json"),
                              "--cert", fixture_path("probchain_cert.json"))
    assert code == 0 and out.startswith("accepted")
    doc = load_fixture("exceptions_cert.json")
    for row in doc["entries"]:
        if row["value"] == "1/4" and row["lhs"]["set"] == ["x0", "y0"]:
            row["value"] = "1/5"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, out, _err = run_cli("certify", "--model", fixture_path("exceptions.json"),
                              "--cert", str(tampered))
    assert code == 1
    assert "rejected at ({x0,y0}, {z0})" in out


def _coprod_model(quantale):
    """s and t step on ``a`` to halves of x, u and y, v; x, u and v loop,
    and y stops in the left summand.  The distance at (s, t) is top."""
    def step(dist):
        return {"inr": {"pow": {"a": {"id": {"dist": dist}}}}}

    return {"kind": "coalgebra", "quantale": quantale, "monad": "subdist",
            "functor": {"coprod": [{"const": "value"},
                                   {"pow": {"labels": ["a"], "body": "id"}}]},
            "labels": ["a"], "states": ["s", "t", "x", "u", "y", "v"],
            "transitions": {"s": step({"x": "1/2", "u": "1/2"}),
                            "t": step({"y": "1/2", "v": "1/2"}),
                            "x": step({"x": "1"}), "u": step({"u": "1"}),
                            "v": step({"v": "1"}), "y": {"inl": {"const": "0"}}}}


def _coprod_certificate(top, witnesses=True):
    """1/2 at (s, t), from a witness that weighs (x, y) at top by 1/2."""
    def point(name):
        return {"dist": {name: "1"}}

    def entry(l, r, value):
        return {"lhs": point(l), "rhs": point(r), "value": value}

    parts = [{"lhs": point("x"), "rhs": point("y"), "weight": "1/2"},
             {"lhs": point("u"), "rhs": point("v"), "weight": "1/2"}]
    return {"entries": [entry("s", "t", "1/2"), entry("x", "y", top), entry("u", "v", "0")],
            "witnesses": [{"lhs": {"dist": {"x": "1/2", "u": "1/2"}},
                           "rhs": {"dist": {"y": "1/2", "v": "1/2"}},
                           "parts": parts}] if witnesses else []}


@pytest.mark.parametrize("quantale,top,witnesses,code,message", [
    # On unit-oplus the witness scales the coproduct's bottom, 1, down
    # to 1/2: the loader refuses it rather than accept a false 1/2.
    ("unit-oplus", "1", True, 2, "witnesses are unsound on subdistributions"),
    # Plain entries are ordinary coinduction: checked, and rejected.
    ("unit-oplus", "1", False, 1, "rejected at (s:1, t:1)"),
    # On ext-plus 1/2 * inf stays inf, and the checker rejects.
    ("ext-plus", "inf", True, 1, "rejected at (s:1, t:1)"),
], ids=["unit-oplus", "unit-oplus-entries-only", "ext-plus"])
def test_cli_certify_coproduct_subdist_witnesses(tmp_path, quantale, top, witnesses,
                                                 code, message):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_coprod_model(quantale)))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(_coprod_certificate(top, witnesses)))
    got, out, err = run_cli("certify", "--model", str(model), "--cert", str(cert))
    assert got == code and message in out + err
    got, out, _err = run_cli("distance", "--model", str(model), "--pair", "s:1|t:1",
                             "--method", "kleene")
    assert got == 0 and out.splitlines()[0] == f"{top}  [exact]"


def test_cli_laws_quantale_and_mutant():
    code, out, _err = run_cli("laws", "--scope", "quantale", "--grid", "4")
    assert code == 0
    assert "FAIL" not in out
    code, out, _err = run_cli("laws", "--scope", "distlaw", "--mutant-g")
    assert code == 1
    assert "prioritizer compatible with the unit" in out and "FAIL" in out


def test_cli_repro_all():
    for example in ("pp", "pd", "dp", "dd", "transport", "probchain", "exceptions"):
        code, out, _err = run_cli("repro", example)
        assert code == 0, out
        assert "all values reproduced" in out


def _unknown_set_successor(doc):
    doc["transitions"]["x0"]["inr"]["pow"]["b"]["id"]["set"].append("nosuch")


def _unknown_dist_successor(doc):
    doc["transitions"]["y"]["tuple"][1]["pow"]["a"]["id"]["dist"] = {
        "y": "1/2", "nosuch": "1/2"}


def _missing_transition(doc):
    del doc["transitions"]["x1"]


def _unknown_transition(doc):
    doc["transitions"]["nosuch"] = doc["transitions"]["x0"]


def _mismatched_labels(doc):
    doc["labels"] = ["a"]


def _atom_constants(doc):
    doc["functor"]["coprod"][0] = {"const": {"atoms": ["lo", "hi"],
                                             "evals": [{"lo": "0", "hi": "1"}]}}
    for term in doc["transitions"].values():
        if "inl" in term:
            term["inl"] = {"const": {"atom": "hi"}}


@pytest.mark.parametrize("fixture,mutate,message", [
    ("exceptions.json", _unknown_set_successor, "'nosuch' is not a state"),
    ("probchain.json", _unknown_dist_successor, "'nosuch' is not a state"),
    ("exceptions.json", _missing_transition, "state 'x1' has no transition"),
    ("exceptions.json", _unknown_transition, "transition for unknown state 'nosuch'"),
    ("exceptions.json", _mismatched_labels,
     "labelled product over ('a', 'b') does not match the model labels ('a',)"),
    ("exceptions.json", _atom_constants,
     "a constant node is {\"const\": \"value\"}, got {'atoms': ['lo', 'hi'], "
     "'evals': [{'lo': '0', 'hi': '1'}]}: an exchange law needs quantale-valued "
     "constants"),
], ids=["set-successor", "dist-successor", "no-transition", "unknown-transition",
        "labels", "atom-constants"])
def test_model_checked_where_it_loads(tmp_path, fixture, mutate, message):
    """Each model check fails the document when it loads, in the library
    and on the command line, whatever the query."""
    doc = load_fixture(fixture)
    mutate(doc)
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        model_from_json(doc)
    pair = "{x0}|{z0}" if fixture == "exceptions.json" else "x:1|y:1"
    code, out, err = run_cli("distance", "--model", _write_model(tmp_path, doc),
                             "--pair", pair, "--method", "kleene")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_cli_json_reports_deterministic():
    first = run_cli("repro", "transport", "--json")
    second = run_cli("repro", "transport", "--json")
    assert first[0] == 0
    assert first[1] == second[1]
    doc = json.loads(first[1])
    assert doc["matches"] is True
    assert "elapsed" not in first[1]


def test_cli_parse_error_exit_code(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _out, err = run_cli("distance", "--model", str(broken),
                              "--pair", "P|Q", "--method", "lp")
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("model, pair, method, reason", [
    ("transport.json", "P|Q", "hausdorff", "method 'hausdorff' compares two sets"),
    ("transport.json", "{A}|{B}", "lp", "method 'lp' compares two distributions"),
    ("probchain.json", "{x}|y:1", "kleene", "a subdist model compares distributions"),
    ("probchain.json", "y:1|{x}", "trace", "a subdist model compares distributions"),
])
def test_cli_literal_of_the_wrong_kind_exit_code(model, pair, method, reason):
    code, out, err = run_cli("distance", "--model", fixture_path(model),
                             "--pair", pair, "--method", method)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and reason in err


def test_cli_budget_exit_code(tmp_path):
    code, _out, err = run_cli("distance", "--model", fixture_path("exceptions.json"),
                              "--pair", "{x0,y0}|{z0}", "--method", "kleene",
                              "--max-states", "3")
    assert code == 3
    assert "refused" in err


def test_cli_usage_error():
    code, _out, _err = run_cli("distance", "--model", "nope.json",
                               "--pair", "P|Q", "--method", "warp")
    assert code == 2


def test_cli_zero_denominator_weight(tmp_path):
    doc = load_fixture("probchain.json")
    doc["transitions"]["y"]["tuple"][1]["pow"]["a"]["id"]["dist"]["y"] = "1/0"
    broken = tmp_path / "zero.json"
    broken.write_text(json.dumps(doc))
    code, _out, err = run_cli("distance", "--model", str(broken),
                              "--pair", "y:1|x:1", "--method", "trace")
    assert code == 2
    assert err == "error: zero denominator in weight '1/0'\n"
    # The same weight on the command line.
    code, out, err = run_cli("distance", "--model", fixture_path("probchain.json"),
                             "--pair", "y:1/0|x:1", "--method", "trace")
    assert (code, out) == (2, "")
    assert err == "error: zero denominator in weight '1/0'\n"


def test_cli_distance_json_deterministic():
    runs = [run_cli("distance", "--model", fixture_path("exceptions.json"),
                    "--pair", "{x0,y0}|{z0}", "--method", "kleene", "--json")
            for _ in range(2)]
    assert runs[0][0] == 0
    assert runs[0][1] == runs[1][1]
    doc = json.loads(runs[0][1])
    assert doc["value"] == "1/4" and doc["soundness"] == "exact"


def test_cli_budget_exit_code_with_depth():
    # --max-iters bounds the depth of the pair exploration; the state
    # budget still binds first.
    code, _out, err = run_cli("distance", "--model", fixture_path("exceptions.json"),
                              "--pair", "{x0,y0}|{z0}", "--method", "kleene",
                              "--max-states", "3", "--max-iters", "10")
    assert code == 3
    assert "refused" in err


def test_cli_trace_refuses_beyond_max_states():
    # probchain determinizes without end; kleene and trace read the same
    # state budget, and both refuse cleanly once it binds.
    argv = ["distance", "--model", fixture_path("probchain.json"),
            "--pair", "y:1|x:1", "--max-states", "5"]
    for method, depth in (("kleene", "--max-iters"), ("trace", "--max-words")):
        code, out, err = run_cli(*argv, "--method", method, depth, "60")
        assert (code, out) == (3, "")
        assert err == "refused: determinization exceeded the budget of 5 states\n"


@pytest.mark.parametrize("left", ["y:1/2,y:1/2", "y:1/4, y:1/2,y:1/4"])
def test_cli_distribution_literal_adds_repeated_members(left):
    argv = ["distance", "--model", fixture_path("probchain.json"), "--method", "trace"]
    code, out, _err = run_cli(*argv, "--pair", f"{left}|x:1")
    assert (code, out) == (0, "511/1024  [lower bound (numeric)]\n")
    assert run_cli(*argv, "--pair", "y:1|x:1")[:2] == (code, out)
    code, out, err = run_cli(*argv, "--pair", "y:1/2,y:2/3|x:1")
    assert (code, out) == (2, "")
    assert "mass 7/6 exceeds 1" in err


def test_cli_depth_flag_is_unknown():
    code, out, err = run_cli("distance", "--model", fixture_path("exceptions.json"),
                             "--pair", "{x0,y0}|{z0}", "--method", "kleene",
                             "--depth", "3")
    assert (code, out) == (2, "")
    assert "usage:" in err and "unrecognized arguments: --depth 3" in err


def test_cli_kleene_report_counts_explored_pairs():
    code, out, _err = run_cli("distance", "--model", fixture_path("exceptions.json"),
                              "--pair", "{x0,y0}|{z0}", "--method", "kleene", "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["carrier_size"], doc["pairs"]) == (19, 15)
    assert doc["iterations"] == 4
    # Two iterations evaluate the query pair and its two successor pairs
    # ({x0,x1,y0}, {z0,z1}) and ({x0,y0,y1}, {z0,z1}): five states.
    code, out, _err = run_cli("distance", "--model", fixture_path("exceptions.json"),
                              "--pair", "{x0,y0}|{z0}", "--method", "kleene",
                              "--max-iters", "2")
    assert code == 0
    assert out.splitlines() == [
        "0  [lower bound (numeric)]",
        "carrier: 5 determinized states, 3 pairs, 2 iterations (not stabilized)"]


def _write_model(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_state_budget_counts_each_determinized_state(tmp_path):
    """Each query reaches its number of determinized states at n = 10: a
    budget of exactly that answers, one less refuses.  The first pair of
    ``{x0}|{z0}`` is two point states, which take the unit law; the rest
    have a multi-member side and run the mask program, and the budget
    counts both."""
    model = _write_model(tmp_path, model_to_json(build_exceptions(10)))
    for pair, value, states in [("{x0,y0}|{z0}", "1/4", 2058), ("{x0}|{z0}", "1", 1035)]:
        argv = ["distance", "--model", model, "--pair", pair, "--method", "kleene"]
        code, out, _err = run_cli(*argv, "--max-states", str(states))
        assert code == 0
        assert out.splitlines() == [
            f"{value}  [exact]",
            f"carrier: {states} determinized states, 2047 pairs, 11 iterations"]
        code, out, err = run_cli(*argv, "--max-states", str(states - 1))
        assert (code, out) == (3, "")
        assert err == f"refused: determinization exceeded the budget of {states - 1} states\n"


def test_cli_non_list_constant_functor_exit_code(tmp_path):
    doc = load_fixture("exceptions.json")
    doc["functor"] = {"const": 5}
    code, _out, err = run_cli("distance", "--model", _write_model(tmp_path, doc),
                              "--pair", "{x0}|{z0}", "--method", "kleene")
    assert code == 2
    assert "a constant node is" in err


def test_cli_set_literal_must_be_a_list(tmp_path):
    # With one-letter state names the string "ab" would read as {a, b}.
    doc = {"quantale": "unit-oplus", "monad": "powerset",
           "functor": {"coprod": [{"const": "value"},
                                  {"pow": {"labels": ["go"], "body": "id"}}]},
           "states": ["a", "b"], "labels": ["go"],
           "transitions": {"a": {"inr": {"pow": {"go": {"id": {"set": ["a", "b"]}}}}},
                           "b": {"inl": {"const": "1/2"}}}}
    argv = ["distance", "--pair", "{a}|{b}", "--method", "kleene"]
    code, out, _err = run_cli(*argv, "--model", _write_model(tmp_path, doc))
    assert code == 0 and out.startswith("1  [exact]")
    doc["transitions"]["a"]["inr"]["pow"]["go"]["id"]["set"] = "ab"
    code, _out, err = run_cli(*argv, "--model", _write_model(tmp_path, doc))
    assert code == 2
    assert "member list" in err


def _set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("path,value,message", [
    (["functor"], {"coprod": [{"const": {"atoms": ["a"], "evals": [5]}},
                              {"pow": {"labels": ["a", "b"], "body": "id"}}]},
     "exchange law needs quantale-valued constants"),
    (["functor"], {"prod": 5}, "list of parts"),
    (["states"], 5, "states must be a list"),
    (["transitions"], [], "transitions must be an object"),
    (["transitions", "x0", "inr", "pow"], 5, "labelled tuple is an object"),
    (["transitions", "x0", "inr", "pow", "a", "id", "set"], [["x1"]], "member list"),
    (["functor", "coprod", 1, "pow", "labels"], [{"dist": {}}], "label list"),
    (["functor", "coprod", 0, "const"], {"atoms": [["a"]]},
     "exchange law needs quantale-valued constants"),
    (["transitions", "x0", "inr", "pow", "zz"], {"id": {"set": ["nope"]}},
     "unknown labels ['zz']"),
    (["transitions", "x0"], {"inl": {"const": "2/0"}}, "zero denominator in value '2/0'"),
])
def test_cli_malformed_model_exit_code(tmp_path, path, value, message):
    doc = load_fixture("exceptions.json")
    _set_path(doc, path, value)
    code, _out, err = run_cli("distance", "--model", _write_model(tmp_path, doc),
                              "--pair", "{x0}|{z0}", "--method", "kleene")
    assert code == 2
    assert message in err


def test_cli_unknown_monad_exit_code(tmp_path):
    # Constant transitions only, so no T-value literal is parsed on load
    # and the exchange law is where the monad is first read.
    doc = load_fixture("exceptions.json")
    doc["monad"] = "list"
    doc["transitions"] = {s: {"inl": {"const": "1/2"}} for s in doc["states"]}
    code, _out, err = run_cli("distance", "--model", _write_model(tmp_path, doc),
                              "--pair", "{x0}|{z0}", "--method", "kleene")
    assert code == 2
    assert "unknown monad" in err


@pytest.mark.parametrize("path,value,message", [
    (["entries"], 5, "certificate entries must be a list of objects"),
    (["entries"], [5], "certificate entries must be a list of objects"),
    (["witnesses"], 5, "certificate witnesses must be a list of objects"),
    (["witnesses"], [5], "certificate witnesses must be a list of objects"),
    (["witnesses", 0, "parts"], 5, "witness parts must be a list of objects"),
    (["witnesses", 0, "parts"], [5], "witness parts must be a list of objects"),
    (["entries", 0, "value"], "1/0", "zero denominator in value '1/0'"),
])
def test_cli_malformed_certificate_exit_code(tmp_path, path, value, message):
    doc = load_fixture("exceptions_cert.json")
    _set_path(doc, path, value)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, _out, err = run_cli("certify", "--model", fixture_path("exceptions.json"),
                              "--cert", str(cert))
    assert code == 2
    assert message in err


def test_cli_certificate_weight_must_be_rational(tmp_path):
    doc = load_fixture("probchain_cert.json")
    part = next(part for row in doc["witnesses"] for part in row["parts"])
    part["weight"] = [1]
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, _out, err = run_cli("certify", "--model", fixture_path("probchain.json"),
                              "--cert", str(cert))
    assert code == 2
    assert "weight must be a rational string" in err


@pytest.mark.parametrize("path,value,message", [
    (["quantale"], None, "missing model field 'quantale'"),
    (["quantale"], ["ext-plus"], "unknown quantale"),
    (["dist"], 5, "dist must be a list of rows"),
    (["dist"], [5, 5, 5], "dist must be a list of rows"),
    (["distributions"], 5, "distributions must be an object"),
    (["distributions", "P"], 5, "weight object"),
    (["distributions", "P", "A"], [1], "weight must be a rational string"),
    (["elements"], "ABC", "elements must be a list of names"),
    (["distributions", "P"], {"A": "1/2", "D": "1/2"}, "'D' is not an element"),
    # A distribution named like a literal would shadow it ('A:1' as the
    # pair's Dirac literal), and '' or 'x|y' can never be named in a pair.
    (["distributions", "A:1"], {"B": "1"}, "reserved name 'A:1' in distributions"),
    (["distributions", ""], {"B": "1"}, "reserved name '' in distributions"),
    (["distributions", "x|y"], {"B": "1"}, "reserved name 'x|y' in distributions"),
])
def test_cli_malformed_vgraph_model_exit_code(tmp_path, path, value, message):
    doc = load_fixture("transport.json")
    if value is None:
        del doc[path[0]]
    else:
        _set_path(doc, path, value)
    code, _out, err = run_cli("distance", "--model", _write_model(tmp_path, doc),
                              "--pair", "P|Q", "--method", "lp")
    assert code == 2
    assert message in err


def test_cli_main_repeated_in_one_process(monkeypatch):
    """``main`` builds its parser once per process; repeated calls answer
    as a fresh process does."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import quantadist
    from quantadist import cli

    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    env = dict(os.environ, PYTHONPATH=str(Path(quantadist.__file__).parent.parent))
    calls = [
        ("laws", "--scope", "polyfunctor", "--json"),
        ("distance", "--model"),
        ("distance", "--model", fixture_path("transport.json"), "--pair", "P|Q",
         "--method", "lp", "--json"),
    ]
    codes = []
    for argv in calls:
        code, out, err = run_cli(*argv)
        fresh = subprocess.run([sys.executable, "-m", "quantadist.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        if code == 2:
            assert err == fresh.stderr
        codes.append(code)
    assert codes == [0, 2, 0]
    assert cli._parser.cache_info().misses == 1


@pytest.mark.parametrize("model,pair,method", [
    ("exceptions.json", "{nosuch}|{z0}", "kleene"),
    ("exceptions.json", "{x0}|{z0,nosuch}", "trace"),
    ("probchain.json", "nosuch:1|y:1", "trace"),
    ("probchain.json", "y:1|nosuch:1/2", "kleene"),
])
def test_cli_pair_with_unknown_state(model, pair, method):
    code, _out, err = run_cli("distance", "--model", fixture_path(model),
                              "--pair", pair, "--method", method)
    assert code == 2
    assert err == "error: 'nosuch' is not a state\n"


@pytest.mark.parametrize("model,pair,method", [
    ("exceptions.json", "{x0}|{z0}|{y0}", "kleene"),
    ("transport.json", "P|Q|R", "lp"),
])
def test_cli_pair_with_a_second_bar(model, pair, method):
    """No name holds a '|', so a second one is a malformed pair, not a
    name or weight to look up."""
    code, out, err = run_cli("distance", "--model", fixture_path(model),
                             "--pair", pair, "--method", method)
    assert (code, out) == (2, "")
    assert err == "error: a pair looks like 'lhs|rhs'\n"


@pytest.mark.parametrize("pair,method", [
    ("D:1|A:1", "lp"),
    ("{D}|{A}", "hausdorff"),
])
def test_cli_vgraph_pair_with_unknown_element(monkeypatch, pair, method):
    from quantadist import cli

    def no_solve(*_args):
        raise AssertionError("solver reached with an unchecked pair")

    monkeypatch.setattr(cli, "kantorovich_lp", no_solve)
    monkeypatch.setattr(cli, "hausdorff_directed", no_solve)
    code, out, err = run_cli("distance", "--model", fixture_path("transport.json"),
                             "--pair", pair, "--method", method)
    assert (code, out) == (2, "")
    assert err == "error: 'D' is not an element\n"


@pytest.mark.parametrize("path", [
    ["entries", 0, "lhs", "set"],
    ["witnesses", 0, "rhs", "set"],
    ["witnesses", 0, "parts", 1, "lhs", "set"],
], ids=["entry", "witness", "witness-part"])
def test_cli_certificate_with_unknown_state(tmp_path, path):
    doc = load_fixture("exceptions_cert.json")
    _set_path(doc, path, ["nosuch"])
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli("certify", "--model", fixture_path("exceptions.json"),
                             "--cert", str(cert))
    assert (code, out) == (2, "")
    assert err == "error: 'nosuch' is not a state\n"
    with pytest.raises(ModelFormatError, match="'nosuch' is not a state"):
        certificate_from_json(doc, fixture_model("exceptions.json"))


HALF_X = {"lhs": {"dist": {"x": "1/4", "x'": "1/4"}}, "rhs": {"dist": {"y": "1/2"}}}


@pytest.mark.parametrize("parts", [
    # A negative weight on a pair of empty parts keeps the marginals and
    # would lower the bound at (x, y) to the false claim 1/4.
    lambda parts: parts + [{"lhs": {"dist": {}}, "rhs": {"dist": {}}, "weight": "-1/8"}],
    # Right marginals, but weights summing to 2.
    lambda parts: [dict(HALF_X, weight="1"), dict(HALF_X, weight="1")],
], ids=["negative", "sum-above-1"])
def test_cli_certificate_witness_weights_form_a_subdistribution(tmp_path, parts):
    doc = load_fixture("probchain_cert.json")
    doc["entries"][0]["value"] = "1/4"
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    argv = ["certify", "--model", fixture_path("probchain.json"), "--cert", str(cert)]
    code, out, _err = run_cli(*argv)
    assert code == 1 and "one-step bound 3/8 exceeds the stated 1/4" in out
    doc["witnesses"][0]["parts"] = parts(doc["witnesses"][0]["parts"])
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert "are not non-negative with sum at most 1" in err


@pytest.mark.parametrize("flag", ["--max-words", "--max-iters", "--max-states"])
def test_cli_rejects_negative_budgets(flag):
    argv = ["distance", "--model", fixture_path("exceptions.json"),
            "--pair", "{x0,y0}|{z0}", "--method", "kleene"]
    code, out, err = run_cli(*argv, flag, "-1")
    assert (code, out) == (2, "")
    assert "expected a non-negative integer, got '-1'" in err
    code, _out, err = run_cli(*argv, flag, "x")
    assert code == 2 and "expected a non-negative integer, got 'x'" in err
    # 0 is a budget like any other: it parses, and the run answers or refuses.
    code, _out, err = run_cli(*argv, flag, "0")
    if flag == "--max-states":
        assert code == 3 and err.startswith("refused:")
    else:
        assert code == 0


def test_cli_budget_zero_is_valid():
    code, out, _err = run_cli("distance", "--model", fixture_path("probchain.json"),
                              "--pair", "y:1|x:1", "--method", "trace",
                              "--max-words", "0")
    assert code == 0 and out.splitlines()[0] == "0  [lower bound (numeric)]"


def test_cli_infinite_determinization_truncates_or_refuses():
    # The determinized part of probchain is infinite.  The default
    # iteration budget answers its 1000th iterate, determinizing only
    # the states within that depth; a state budget that binds first
    # refuses rather than truncating silently.
    argv = ["distance", "--model", fixture_path("probchain.json"),
            "--pair", "x:1|y:1", "--method", "kleene"]
    code, out, _err = run_cli(*argv)
    assert code == 0
    assert out.splitlines() == [
        "0  [lower bound (numeric)]",
        "carrier: 1001 determinized states, 1000 pairs, 1000 iterations (not stabilized)"]
    code, out, err = run_cli(*argv, "--max-states", "500")
    assert (code, out) == (3, "")
    assert err.startswith("refused:") and "500" in err


# -- reserved names ---------------------------------------------------------------

RESERVED = ["T", "F", "inf", "1/2", "3", "-1", "0.5", "", "a b", "x\ty",
            "{x}", "x,y", "x:1", "x|y", "{"]


@pytest.mark.parametrize("name", RESERVED)
def test_model_rejects_reserved_state_names(name):
    doc = load_fixture("exceptions.json")
    doc["states"].append(name)
    with pytest.raises(ModelFormatError, match="reserved name"):
        model_from_json(doc)


@pytest.mark.parametrize("name", RESERVED)
def test_vgraph_model_rejects_reserved_element_names(name):
    doc = load_fixture("transport.json")
    doc["elements"][0] = name
    with pytest.raises(ModelFormatError, match="reserved name"):
        model_from_json(doc)


@pytest.mark.parametrize("fixture,name,pair,method", [
    ("exceptions.json", "T", "{x0}|{z0}", "kleene"),
    ("probchain.json", "1/2", "x:1|y:1", "trace"),
])
def test_cli_reserved_state_name_exit_code(tmp_path, fixture, name, pair, method):
    doc = load_fixture(fixture)
    doc["states"].append(name)
    code, _out, err = run_cli("distance", "--model", _write_model(tmp_path, doc),
                              "--pair", pair, "--method", method)
    assert code == 2
    assert "reserved name" in err


def test_cli_reserved_element_name_exit_code(tmp_path):
    doc = load_fixture("transport.json")
    doc["elements"][2] = "inf"
    code, _out, err = run_cli("distance", "--model", _write_model(tmp_path, doc),
                              "--pair", "P|Q", "--method", "lp")
    assert code == 2
    assert "reserved name" in err


def test_name_families_in_use_still_load(probchain):
    # Bundled fixtures, and the state and element names that the
    # benchmark workloads generate: x0.., y0.., z0.., x', v0...
    for name in ("exceptions.json", "probchain.json"):
        assert fixture_model(name).states
    for model in (build_exceptions(5), probchain):
        assert model_from_json(model_to_json(model)).states == model.states
    assert "x'" in probchain.states
    doc = load_fixture("transport.json")
    doc["elements"] = [f"v{i}" for i in range(3)]
    doc["distributions"] = {"P": {"v0": "1"}, "Q": {"v2": "1"}}
    assert model_from_json(doc).graph.carrier.elements == ("v0", "v1", "v2")


@pytest.mark.parametrize("first", ["0", "1/4"])
def test_cli_conflicting_certificate_entries_are_malformed(tmp_path, first):
    """Two entries for one pair (equal once members are ordered) that
    disagree on the value: refused whichever comes first."""
    doc = load_fixture("exceptions_cert.json")
    row = {"lhs": {"set": ["y0", "x0"]}, "rhs": {"set": ["z0"]}, "value": "0"}
    original = doc["entries"][0]
    assert original["lhs"] == {"set": ["x0", "y0"]} and original["value"] == "1/4"
    doc["entries"].insert(0 if first == "0" else 1, row)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli("certify", "--model", fixture_path("exceptions.json"),
                             "--cert", str(cert))
    assert (code, out) == (2, "")
    assert "conflicting entries for ({x0,y0}, {z0})" in err
    with pytest.raises(ModelFormatError, match="conflicting entries"):
        certificate_from_json(doc, fixture_model("exceptions.json"))


def test_certificate_repeated_entries_and_witnesses_still_load(tmp_path):
    """A repeated entry with the same value is no conflict, and a pair
    may carry several witnesses."""
    doc = load_fixture("exceptions_cert.json")
    doc["entries"].append(dict(doc["entries"][0], lhs={"set": ["y0", "x0"]}))
    doc["witnesses"].append(doc["witnesses"][0])
    model = fixture_model("exceptions.json")
    cert = certificate_from_json(doc, model)
    assert len(cert.candidate.entries) == len(doc["entries"]) - 1
    assert max(len(w) for w in cert.witnesses.values()) == 2
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, _err = run_cli("certify", "--model", fixture_path("exceptions.json"),
                              "--cert", str(path))
    assert (code, out) == (0, "accepted (7 support pairs verified)\n")


def _boolean_subdist_doc():
    return {"quantale": "boolean", "monad": "subdist",
            "functor": {"prod": [{"const": "value"},
                                 {"pow": {"labels": ["a"], "body": "id"}}]},
            "states": ["x"], "labels": ["a"],
            "transitions": {"x": {"tuple": [{"const": True},
                                            {"pow": {"a": {"id": {"dist": {"x": "1"}}}}}]}}}


def test_boolean_subdist_law_with_value_constants_is_refused():
    from quantadist.distlaw import DistLaw
    from quantadist.functor import ID, machine_functor, pow_functor
    from quantadist.quantale import BOOLEAN

    with pytest.raises(ValueError, match="boolean quantale"):
        DistLaw(machine_functor(["a"]), SUBDIST, BOOLEAN)
    with pytest.raises(ModelFormatError, match="boolean quantale"):
        model_from_json(_boolean_subdist_doc())
    # Without value constants there is nothing to take the expectation of.
    DistLaw(pow_functor(["a"], ID), SUBDIST, BOOLEAN)
    DistLaw(machine_functor(["a"]), POWERSET, BOOLEAN)


@pytest.mark.parametrize("argv", [
    ["certify", "--cert", "CERT"],
    ["distance", "--pair", "x:1|x:1", "--method", "kleene"],
    ["distance", "--pair", "x:1|x:1", "--method", "trace"],
])
def test_cli_boolean_subdist_model_exit_code(tmp_path, argv):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"entries": []}))
    argv = [str(cert) if a == "CERT" else a for a in argv]
    model = _write_model(tmp_path, _boolean_subdist_doc())
    code, out, err = run_cli(argv[0], "--model", model, *argv[1:])
    assert (code, out) == (2, "")
    assert "subdistributions over the boolean quantale admit no value constants" in err
