"""The one-pass model loader against the two-pass check it replaced.

``models.model_from_json`` decides in one pass whether a coalgebra
model document is well formed.  The oracle below reads a document the
way the loader used to: the exchange-law evaluability check, terms
built to the functor's shape with no member check, and then the whole
model walked again (``shape_check`` on every term, every successor a
state, every labelled product over the model labels, transitions keyed
by exactly the states).  The loader must accept exactly the documents
the oracle accepts.  Both refuse a document with named-atom constants:
a constant node is ``{"const": "value"}`` only.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli_fuzz import MUTATIONS
from test_determinize import LAWS, random_model, state_transitions
from quantadist.behaviour import CoalgebraModel
from quantadist.distlaw import PRIORITY_LEFT
from quantadist.functor import (ConstF, CoprodF, ProdF, iter_payloads,
                                shape_check)
from quantadist.models import (_names, _point_names, functor_from_json,
                               load_fixture, model_from_json, model_to_json,
                               term_from_json)
from quantadist.monadlift import POWERSET, SUBDIST, get_monad
from quantadist.quantale import BOOLEAN, QuantaleError, get_quantale
from quantadist.vgraph import carrier

#: What a loader raises on a malformed document.
REFUSED = (ValueError, ZeroDivisionError, QuantaleError)


# -- the oracle -------------------------------------------------------------------------

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
    transitions = {x: term_from_json(functor, t, monad, q, _AnyState(states))
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
