"""The one-pass model loader against the two-pass check it replaced,
and the compiled term reader against the recursive one it replaced.

``models.model_from_json`` decides in one pass whether a coalgebra
model document is well formed.  The oracle below reads a document the
way the loader used to: the exchange-law evaluability check, terms
built to the functor's shape with no member check, and then the whole
model walked again (``shape_check`` on every term, every successor a
state, every labelled product over the model labels, transitions keyed
by exactly the states).  The loader must accept exactly the documents
the oracle accepts.  Both refuse a document with named-atom constants:
a constant node is ``{"const": "value"}`` only.

``models.term_reader`` compiles a functor into one reader per node,
which looks up only the keys that node accepts and leaves every other
document to one refusal function.  ``oracle_term_from_json`` is the
recursive reader it replaced, which dispatched on the functor syntax at every node and
looked each set member up with ``Carrier.index``; the compiled reader
must return the same terms and refuse the same documents with the same
message.  Both refuse a labelled tuple with a label its product does
not have.
"""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_exceptions, model_to_json, shape_check
from test_cli_fuzz import MUTATIONS
from test_determinize import LAWS, random_model, state_transitions
from quantadist.behaviour import CoalgebraModel, certify
from quantadist.distlaw import PRIORITY_LEFT
from quantadist.functor import (ConstF, ConstLeaf, CoprodF, IdF, IdLeaf, Inl, Inr,
                                ProdF, Tup, iter_payloads)
from quantadist.models import (ModelFormatError, _names, _point_names,
                               certificate_from_json, check_members,
                               functor_from_json, load_fixture, model_from_json,
                               state_reader, term_reader)
from quantadist.monadlift import POWERSET, SUBDIST, get_monad, set_members_from_json
from quantadist.quantale import BOOLEAN, QuantaleError, get_quantale
from quantadist.vgraph import Carrier, carrier

#: What a loader raises on a malformed document.
REFUSED = (ValueError, QuantaleError)


# -- the recursive reader --------------------------------------------------------------

def oracle_state(monad, doc, states):
    """A monad value over ``states`` read as a state, a powerset member
    list into its mask one ``Carrier.index`` call per member."""
    if monad is not POWERSET:
        return check_members(monad, monad.from_json(doc), states)
    names = set_members_from_json(doc)
    missing = [m for m in names if m not in states]
    if missing:
        raise ModelFormatError(f"{min(missing)!r} is not a state")
    mask = 0
    for x in names:
        mask |= 1 << states.index(x)
    return mask


def oracle_term_from_json(functor, doc, monad, q, states):
    """Read a transition term recursively, dispatching on the functor
    syntax at every node."""
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ModelFormatError(f"bad term document: {doc!r}")
    key, body = next(iter(doc.items()))
    if key == "const":
        if not isinstance(functor, ConstF):
            raise ModelFormatError(f"constant leaf where {functor!r} was expected")
        return ConstLeaf(q.value_from_json(body))
    if key == "id":
        if not isinstance(functor, IdF):
            raise ModelFormatError(f"identity leaf where {functor!r} was expected")
        return IdLeaf(oracle_state(monad, body, states))
    if key == "tuple":
        if not isinstance(functor, ProdF) or not isinstance(body, list) \
                or len(body) != len(functor.parts):
            raise ModelFormatError(f"tuple arity mismatch at {doc!r}")
        return Tup(tuple(oracle_term_from_json(part, item, monad, q, states)
                         for part, item in zip(functor.parts, body)))
    if key == "pow":
        if not isinstance(functor, ProdF) or functor.labels is None:
            raise ModelFormatError(f"labelled tuple where {functor!r} was expected")
        if not isinstance(body, dict):
            raise ModelFormatError(f"a labelled tuple is an object, got {body!r}")
        missing = [lab for lab in functor.labels if lab not in body]
        if missing:
            raise ModelFormatError(f"missing labels {missing} in {doc!r}")
        unknown = [lab for lab in body if lab not in functor.labels]
        if unknown:
            raise ModelFormatError(f"unknown labels {unknown} in {doc!r}")
        return Tup(tuple(oracle_term_from_json(part, body[lab], monad, q, states)
                         for lab, part in zip(functor.labels, functor.parts)))
    if key == "inl":
        if not isinstance(functor, CoprodF):
            raise ModelFormatError(f"injection where {functor!r} was expected")
        return Inl(oracle_term_from_json(functor.left, body, monad, q, states))
    if key == "inr":
        if not isinstance(functor, CoprodF):
            raise ModelFormatError(f"injection where {functor!r} was expected")
        return Inr(oracle_term_from_json(functor.right, body, monad, q, states))
    raise ModelFormatError(f"unknown term node {key!r}")


# -- the two-pass loader ---------------------------------------------------------------

class _AnyState:
    """A state set holding every name: terms are read with no member check.
    A name outside the model's states gets a bit past theirs, so a powerset
    leaf that names one reads as a mask the two-pass check refuses."""

    def __init__(self, states):
        self.positions = {x: i for i, x in enumerate(states)}

    def __contains__(self, name):
        return True

    def index(self, name):
        return self.positions.setdefault(name, len(self.positions))


def _constant_nodes(functor):
    if isinstance(functor, ConstF):
        yield functor
    elif isinstance(functor, ProdF):
        for part in functor.parts:
            yield from _constant_nodes(part)
    elif isinstance(functor, CoprodF):
        yield from _constant_nodes(functor.left)
        yield from _constant_nodes(functor.right)


def _labelled_products(functor):
    if isinstance(functor, ProdF):
        if functor.labels is not None:
            yield functor.labels
        else:
            for part in functor.parts:
                yield from _labelled_products(part)
    elif isinstance(functor, CoprodF):
        yield from _labelled_products(functor.left)
        yield from _labelled_products(functor.right)


def two_pass_check(model: CoalgebraModel):
    """The checks a coalgebra model used to run on itself once built."""
    for labels in _labelled_products(model.functor):
        if labels != model.labels.elements:
            raise ValueError(f"labelled product over {labels}")
    for x in model.states:
        if x not in model.transitions:
            raise ValueError(f"state {x!r} has no transition")
    for x, term in model.transitions.items():
        if x not in model.states:
            raise ValueError(f"transition for unknown state {x!r}")
        shape_check(model.functor, term)
        for payload in iter_payloads(term):
            if model.monad is POWERSET:  # a mask over the states
                if payload >> len(model.states):
                    raise ValueError(f"a successor of {x!r} is not a state")
                continue
            for m, _w in model.monad.weighted(payload):
                if m not in model.states:
                    raise ValueError(f"successor {m!r} of {x!r} is not a state")


def oracle_model(doc) -> CoalgebraModel:
    """Read a coalgebra document as the two-pass loader did."""
    if not isinstance(doc, dict) or doc.get("kind", "coalgebra") != "coalgebra":
        raise ValueError("not a coalgebra document")
    q = get_quantale(doc["quantale"])
    monad = get_monad(doc["monad"])
    functor = functor_from_json(doc["functor"])
    if monad is SUBDIST and q is BOOLEAN and any(_constant_nodes(functor)):
        raise ValueError("no expectation over the boolean quantale")
    # The loader's own name checks, which this change leaves alone.
    states = _point_names(doc["states"], "states")
    labels = _names(doc.get("labels", []), "labels")
    if not isinstance(doc["transitions"], dict):
        raise ValueError("transitions must be an object")
    transitions = {x: oracle_term_from_json(functor, t, monad, q, _AnyState(states))
                   for x, t in doc["transitions"].items()}
    model = CoalgebraModel(q, functor, monad, states, labels, transitions)
    two_pass_check(model)
    return model


def assert_loader_agrees(doc) -> str:
    """Load the document with both loaders; return the verdict, 'accept'
    or 'reject'."""
    try:
        expected = oracle_model(doc)
    except REFUSED + (KeyError,):
        expected = None
    try:
        model = model_from_json(doc)
    except REFUSED as exc:
        assert expected is None, exc
        return "reject"
    assert expected is not None, doc
    assert (model.states, model.labels) == (expected.states, expected.labels)
    assert model.transitions == expected.transitions
    return "accept"


# -- generated documents ---------------------------------------------------------------

def with_atom_constants(doc):
    """The exceptions model with its output values written as named atoms,
    a form no loader reads."""
    doc["functor"]["coprod"][0] = {"const": {"atoms": ["lo", "hi"],
                                             "evals": [{"lo": "0", "hi": "1"}]}}
    for term in doc["transitions"].values():
        if "inl" in term:
            term["inl"] = {"const": {"atom": "hi"}}
    return doc


SOURCES = {
    "exceptions": lambda: load_fixture("exceptions.json"),
    "probchain": lambda: load_fixture("probchain.json"),
    "exceptions-atoms": lambda: with_atom_constants(load_fixture("exceptions.json")),
}


def test_loader_matches_two_pass_check_on_mutated_documents():
    verdicts = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        doc = SOURCES[data.draw(st.sampled_from(sorted(SOURCES)))]()
        for _ in range(data.draw(st.integers(0, 3))):
            data.draw(st.sampled_from(MUTATIONS))(doc, data)
        verdicts[assert_loader_agrees(doc)] += 1

    check()
    assert min(verdicts[v] for v in ("accept", "reject")) >= 10, verdicts


def test_loader_matches_two_pass_check_on_random_models():
    rng = random.Random("loader")
    for name, law in LAWS:
        if law.g_variant != PRIORITY_LEFT:
            continue
        labels = next(_labelled_products(law.functor), ())
        for _ in range(10):
            states, transitions = random_model(rng, law)
            transitions = state_transitions(law, carrier(states), transitions)
            model = CoalgebraModel(law.quantale, law.functor, law.monad,
                                   carrier(states), carrier(labels), transitions)
            doc = model_to_json(model)
            assert assert_loader_agrees(doc) == "accept", name
            assert model_from_json(doc).transitions == transitions


# -- the compiled reader against the recursive one -------------------------------------

def outcome(read, *args):
    """What a reader returns, or the type and message of what it raises."""
    try:
        return "read", read(*args)
    except REFUSED as exc:
        return type(exc).__name__, str(exc)


def assert_readers_agree(doc) -> Counter:
    """Read every transition term and certificate state of the document
    with both readers; count the outcomes.  A document whose header (the
    quantale, monad, functor and states) does not parse has nothing to
    compare."""
    seen = Counter()
    try:
        q = get_quantale(doc["quantale"])
        monad = get_monad(doc["monad"])
        functor = functor_from_json(doc["functor"])
        states = _point_names(doc["states"], "states")
        terms = list(doc["transitions"].values())
    except (KeyError, AttributeError, TypeError) + REFUSED:
        return seen
    read_term = term_reader(functor, monad, q, states)
    for term_doc in terms:
        got = outcome(read_term, term_doc)
        assert got == outcome(oracle_term_from_json, functor, term_doc, monad, q,
                              states), term_doc
        seen[got[0]] += 1
    read_state = state_reader(monad, states)
    for state_doc in (doc.get("certificate_states") or []):
        got = outcome(read_state, state_doc)
        assert got == outcome(oracle_state, monad, state_doc, states), state_doc
        seen[got[0]] += 1
    return seen


def with_certificate_states(name):
    """A model fixture carrying the states its certificate names, so that
    the mutations reach them too."""
    doc = load_fixture(f"{name}.json")
    cert = load_fixture(f"{name}_cert.json")
    doc["certificate_states"] = [row[side] for row in cert["entries"] + cert["witnesses"]
                                 for side in ("lhs", "rhs")]
    return doc


def test_reader_matches_recursive_reader_on_mutated_documents():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        doc = with_certificate_states(data.draw(st.sampled_from(["exceptions",
                                                                  "probchain"])))
        for _ in range(data.draw(st.integers(0, 3))):
            data.draw(st.sampled_from(MUTATIONS))(doc, data)
        seen.update(assert_readers_agree(doc))

    check()
    assert seen["read"] >= 100 and seen["ModelFormatError"] >= 10, seen


def test_reader_matches_recursive_reader_on_random_models():
    rng = random.Random("reader")
    for name, law in LAWS:
        labels = next(_labelled_products(law.functor), ())
        for _ in range(10):
            states, transitions = random_model(rng, law)
            transitions = state_transitions(law, carrier(states), transitions)
            model = CoalgebraModel(law.quantale, law.functor, law.monad,
                                   carrier(states), carrier(labels), transitions)
            seen = assert_readers_agree(model_to_json(model))
            assert seen == Counter(read=len(states)), name


@pytest.mark.parametrize("extra", [{"zz": {"id": {"set": ["nope"]}}},
                                   {"zz": {"id": {"set": []}}}])
def test_labelled_tuple_with_an_unknown_label_is_refused(extra):
    doc = load_fixture("exceptions.json")
    doc["transitions"]["x0"]["inr"]["pow"].update(extra)
    message = "unknown labels ['zz']"
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        model_from_json(doc)
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle_model(doc)


def exception_certificate(n):
    """A sparse certificate for ``build_exceptions(n)`` at ({x0,y0}, {z0}):
    2n + 1 support pairs and two union witnesses."""
    s = lambda *members: {"set": list(members)}
    entries = [{"lhs": s("x0", "y0"), "rhs": s("z0"), "value": "1/4"}]
    for i in range(1, n + 1):
        entries.append({"lhs": s(f"x{i}"), "rhs": s(f"z{i}"), "value": "1/4"})
        entries.append({"lhs": s(f"y{i}"), "rhs": s(f"z{i}"), "value": "1/6"})
    witnesses = [{"lhs": s("x0", "x1", "y0"), "rhs": s("z0", "z1"),
                  "parts": [{"lhs": s("x0", "y0"), "rhs": s("z0")},
                            {"lhs": s("x1"), "rhs": s("z1")}]},
                 {"lhs": s("x0", "y0", "y1"), "rhs": s("z0", "z1"),
                  "parts": [{"lhs": s("x0", "y0"), "rhs": s("z0")},
                            {"lhs": s("y1"), "rhs": s("z1")}]}]
    return {"entries": entries, "witnesses": witnesses}


def test_loading_reads_set_members_through_the_bit_table(monkeypatch):
    model = build_exceptions(8)
    doc = model_to_json(model)
    calls = []
    index = Carrier.index

    def counted(self, x):
        calls.append(x)
        return index(self, x)
    monkeypatch.setattr(Carrier, "index", counted)
    loaded = model_from_json(doc)
    cert = certificate_from_json(exception_certificate(8), loaded)
    assert calls == []
    assert loaded.transitions == model.transitions
    verdict = certify(cert)
    assert verdict.accepted and verdict.checked == 17
