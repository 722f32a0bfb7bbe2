"""Fuzzing ``quantadist certify`` and ``quantadist distance`` with mutated
copies of the bundled models, certificates and pair literals.

A ``certify`` example applies a few mutations to the model or the
certificate document (a dropped key, a value of another JSON type, an
unknown state, a bad or negative value, a duplicated row, reordered set
members) and runs the command line in process.  Whatever the input, the
exit code is 0 (accepted), 1 (rejected) or 2 (malformed), and no
exception escapes ``cli.main``.  A ``distance`` example mutates the set
or distribution literals of a query on a coalgebra fixture (``kleene``
and ``trace`` under small budgets), or the ``transport.json`` document
with a third distribution that no query names (``lp`` and
``hausdorff``); its exit code is 0 (answered), 2
(malformed) or 3 (refused).  The search is derandomized and bounded, so
a run is reproducible and takes a few seconds.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quantadist.cli import main
from quantadist.models import fixture_text

PAIRS = [("exceptions.json", "exceptions_cert.json"),
         ("probchain.json", "probchain_cert.json")]

OTHER_TYPES = [None, True, False, 0, -1, 2, 1.5, "", "x0", "1/2", [], [1], ["x0"],
               {}, {"set": []}, {"dist": {}}, {"x0": "1"}]
BAD_VALUES = ["-1/2", "-1", "2", "3/2", "abc", "1/0", "inf", "-inf", "", " 1/2",
              "1e3", "0", "1", "1/3", 7, -1, 1.5, True, None, [], {}]
UNKNOWN = ["ghost", "x99", "", "{x0}", "x0,y0"]


def paths(doc, prefix=()):
    """Every path into the document, the root excluded."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def drop_key(doc, data):
    keyed = [p for p in paths(doc) if isinstance(at(doc, p[:-1]), dict)]
    if keyed:
        path = data.draw(st.sampled_from(keyed))
        del at(doc, path[:-1])[path[-1]]


def swap_type(doc, data):
    every = list(paths(doc))
    if every:
        path = data.draw(st.sampled_from(every))
        at(doc, path[:-1])[path[-1]] = json.loads(json.dumps(
            data.draw(st.sampled_from(OTHER_TYPES))))


def unknown_state(doc, data):
    """A name that is no state: a set or state-list member, a
    distribution support point, or a transition key."""
    targets = [p for p in paths(doc)
               if p[-1] in ("set", "states", "dist", "transitions")]
    if not targets:
        return
    path = data.draw(st.sampled_from(targets))
    node = at(doc, path)
    name = data.draw(st.sampled_from(UNKNOWN))
    if isinstance(node, list):
        node.insert(data.draw(st.integers(0, len(node))), name)
    elif isinstance(node, dict) and path[-1] == "dist":
        node[name] = "1/4"
    elif isinstance(node, dict) and node:
        node[name] = json.loads(json.dumps(data.draw(st.sampled_from(list(node.values())))))


def bad_value(doc, data):
    """A bad literal where a value or a weight stands."""
    targets = [p for p in paths(doc)
               if p[-1] in ("value", "weight", "const")
               or (len(p) > 1 and p[-2] == "dist")]
    if targets:
        path = data.draw(st.sampled_from(targets))
        at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(BAD_VALUES))


def duplicate_row(doc, data):
    """Repeat a list member, sometimes with another value."""
    lists = [p for p in paths(doc) if isinstance(at(doc, p), list) and at(doc, p)]
    if not lists:
        return
    node = at(doc, data.draw(st.sampled_from(lists)))
    row = json.loads(json.dumps(data.draw(st.sampled_from(node))))
    if isinstance(row, dict) and "value" in row and data.draw(st.booleans()):
        row["value"] = data.draw(st.sampled_from(["0", "1/8", "1/2", "1"]))
    node.insert(data.draw(st.integers(0, len(node))), row)


def reorder(doc, data):
    lists = [p for p in paths(doc) if isinstance(at(doc, p), list) and len(at(doc, p)) > 1]
    if lists:
        node = at(doc, data.draw(st.sampled_from(lists)))
        node[:] = data.draw(st.permutations(node))


MUTATIONS = [drop_key, swap_type, unknown_state, bad_value, duplicate_row, reorder]


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_certify_cli_never_escapes(tmp_path, data):
    model_name, cert_name = data.draw(st.sampled_from(PAIRS))
    docs = {"model": json.loads(fixture_text(model_name)),
            "cert": json.loads(fixture_text(cert_name))}
    for _ in range(data.draw(st.integers(1, 3))):
        target = docs[data.draw(st.sampled_from(["model", "cert"]))]
        data.draw(st.sampled_from(MUTATIONS))(target, data)
    files = {}
    for key, doc in docs.items():
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(doc))
    run(["certify", "--model", str(files["model"]), "--cert", str(files["cert"])],
        (0, 1, 2))


def run(argv, codes):
    """Run the command line in process and check its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes, err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    if code == 3:
        assert out.getvalue() == "" and err.getvalue().startswith("refused: ")


QUERIES = {
    "exceptions.json": ["{x0,y0}|{z0}", "{x0,x1,y0}|{z0,z1}", "{y1}|{z1}", "{}|{x0}",
                        "x0:1|{z0}"],
    "probchain.json": ["y:1|x:1", "x:1/2,x':1/2|y:1", "x':1|y:1/2", "{y}|x:1"],
}
TRANSPORT_QUERIES = ["P|Q", "A:7/10,B:1/10,C:1/5|A:1/5,B:3/10,C:1/2", "Q|P",
                     "{A,B}|{C}", "{A}|{}"]
PIECES = ["", "{", "}", ",", ":", "|", " ", "x0", "z1", "x", "x'", "y", "A", "C", "P",
          "ghost", "1", "0", "1/2", "-1/2", "3/2", "1/0", "inf", "abc", "T"]


def mutate_literal(text, data):
    """Replace up to three short slices of the text with literal pieces
    (an empty piece deletes, an empty slice inserts)."""
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + data.draw(st.sampled_from(PIECES)) + text[j:]
    return text


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_distance_cli_never_escapes_on_literals(tmp_path, data):
    name = data.draw(st.sampled_from(sorted(QUERIES)))
    model = tmp_path / name
    model.write_text(fixture_text(name))
    pair = mutate_literal(data.draw(st.sampled_from(QUERIES[name])), data)
    method = data.draw(st.sampled_from(["kleene", "trace"]))
    budget = "--max-iters" if method == "kleene" else "--max-words"
    run(["distance", "--model", str(model), f"--pair={pair}", "--method", method,
         budget, str(data.draw(st.integers(0, 6)))], (0, 2, 3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_distance_cli_never_escapes_on_transport(tmp_path, data):
    doc = json.loads(fixture_text("transport.json"))
    # No query names R: its mutations reach a distribution that is
    # checked where the document is read but never built.
    doc["distributions"]["R"] = {"A": "1/3", "C": "1/2"}
    for _ in range(data.draw(st.integers(0, 3))):
        data.draw(st.sampled_from(MUTATIONS))(doc, data)
    model = tmp_path / "transport.json"
    model.write_text(json.dumps(doc))
    pair = data.draw(st.sampled_from(TRANSPORT_QUERIES))
    if data.draw(st.booleans()):
        pair = mutate_literal(pair, data)
    run(["distance", "--model", str(model), f"--pair={pair}",
         "--method", data.draw(st.sampled_from(["lp", "hausdorff"]))], (0, 2, 3))
