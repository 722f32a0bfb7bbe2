"""JSON (de)serialization of functors, terms, models, and certificates,
plus the bundled example fixtures.

Rationals travel as lowest-term strings ("7/10"), infinity as "inf",
booleans as JSON booleans.  A powerset model's sets of states, at its
identity leaves and in its certificates, are read straight into states
of the determinization, bitmasks over the point states (see
``DetCoalgebra``).  A model file is either a coalgebra
(functor, monad, states, labels, per-state transition terms) or a bare
distance matrix with optional named distributions (used by the
transportation example).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Dict

from .behaviour import Certificate, CoalgebraModel, SparseDist
from .canon import canon_key
from .distlaw import DistLaw, mask_value, point_mask
from .functor import (ConstF, ConstLeaf, CoprodF, IdF, IdLeaf, Inl, Inr, ProdF,
                      Tup, const_values, pow_functor)
from .monadlift import (POWERSET, SUBDIST, Monad, SubDist, get_monad,
                        set_members_from_json)
from .quantale import Quantale, get_quantale
from .vgraph import Carrier, CarrierMismatchError, VGraph, carrier


class ModelFormatError(ValueError):
    """The document does not describe a valid model or certificate."""


# -- functor expressions ---------------------------------------------------------

def functor_to_json(f) -> object:
    if isinstance(f, ConstF) and f.atoms is None:
        return {"const": "value"}
    if isinstance(f, IdF):
        return "id"
    if isinstance(f, ProdF):
        if f.labels is not None and all(p == f.parts[0] for p in f.parts):
            return {"pow": {"labels": list(f.labels),
                            "body": functor_to_json(f.parts[0])}}
        return {"prod": [functor_to_json(p) for p in f.parts]}
    if isinstance(f, CoprodF):
        return {"coprod": [functor_to_json(f.left), functor_to_json(f.right)]}
    raise ModelFormatError(f"{f!r} has no model form")


def _is_name_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def functor_from_json(doc):
    if doc == "id":
        return IdF()
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ModelFormatError(f"bad functor document: {doc!r}")
    key, body = next(iter(doc.items()))
    if key == "const":
        if body != "value":
            raise ModelFormatError(
                f"a constant node is {{\"const\": \"value\"}}, got {body!r}: an "
                f"exchange law needs quantale-valued constants")
        return const_values()
    if key == "prod":
        if not isinstance(body, list):
            raise ModelFormatError(f"a product has a list of parts, got {body!r}")
        return ProdF(tuple(functor_from_json(p) for p in body))
    if key == "pow":
        if not isinstance(body, dict) or not _is_name_list(body.get("labels")):
            raise ModelFormatError(
                f"a power has a label list and a body, got {body!r}")
        return pow_functor(body["labels"], functor_from_json(body["body"]))
    if key == "coprod":
        if not isinstance(body, list) or len(body) != 2:
            raise ModelFormatError(f"a coproduct has two summands, got {body!r}")
        left, right = body
        return CoprodF(functor_from_json(left), functor_from_json(right))
    raise ModelFormatError(f"unknown functor node {key!r}")


# -- terms -------------------------------------------------------------------------

def term_to_json(functor, term, monad: Monad, q: Quantale, states: Carrier) -> object:
    """The document ``term_from_json`` reads back as ``term``."""
    if isinstance(functor, ConstF):
        return {"const": q.value_to_json(term.atom)}
    if isinstance(functor, IdF):
        payload = term.payload
        return {"id": monad.to_json(mask_value(payload, states) if monad is POWERSET
                                    else payload)}
    if isinstance(functor, ProdF):
        if functor.labels is not None:
            return {"pow": {lab: term_to_json(part, item, monad, q, states)
                            for lab, part, item
                            in zip(functor.labels, functor.parts, term.items)}}
        return {"tuple": [term_to_json(part, item, monad, q, states)
                          for part, item in zip(functor.parts, term.items)]}
    if isinstance(functor, CoprodF):
        if isinstance(term, Inl):
            return {"inl": term_to_json(functor.left, term.item, monad, q, states)}
        return {"inr": term_to_json(functor.right, term.item, monad, q, states)}
    raise ModelFormatError(f"not a functor expression: {functor!r}")


def check_members(monad: Monad, t, points: Carrier, what: str = "a state"):
    """Return the monad value ``t`` if every member is one of ``points``;
    raise ``ModelFormatError`` naming the first member that is not."""
    for m, _w in monad.weighted(t):
        if m not in points:
            raise ModelFormatError(f"{m!r} is not {what}")
    return t


def state_from_json(monad: Monad, doc, states: Carrier):
    """Read a monad value over ``states`` as a state of the determinized
    system (see ``DetCoalgebra``): a powerset member list goes straight
    into its mask.  Raise ``ModelFormatError`` naming the first member,
    in the value's canonical order, that is not a state."""
    if monad is not POWERSET:
        return check_members(monad, monad.from_json(doc), states)
    names = set_members_from_json(doc)
    try:
        return point_mask(names, states)
    except CarrierMismatchError:
        missing = min(m for m in names if m not in states)
        raise ModelFormatError(f"{missing!r} is not a state") from None


def term_from_json(functor, doc, monad: Monad, q: Quantale, states: Carrier):
    """Read a transition term, built to the functor's shape: every member
    of an identity-leaf monad value must be one of ``states``, and the
    value is read as a state (``state_from_json``)."""
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
        return IdLeaf(state_from_json(monad, body, states))
    if key == "tuple":
        if not isinstance(functor, ProdF) or not isinstance(body, list) \
                or len(body) != len(functor.parts):
            raise ModelFormatError(f"tuple arity mismatch at {doc!r}")
        return Tup(tuple(term_from_json(part, item, monad, q, states)
                         for part, item in zip(functor.parts, body)))
    if key == "pow":
        if not isinstance(functor, ProdF) or functor.labels is None:
            raise ModelFormatError(f"labelled tuple where {functor!r} was expected")
        if not isinstance(body, dict):
            raise ModelFormatError(f"a labelled tuple is an object, got {body!r}")
        missing = [lab for lab in functor.labels if lab not in body]
        if missing:
            raise ModelFormatError(f"missing labels {missing} in {doc!r}")
        return Tup(tuple(term_from_json(part, body[lab], monad, q, states)
                         for lab, part in zip(functor.labels, functor.parts)))
    if key == "inl":
        if not isinstance(functor, CoprodF):
            raise ModelFormatError(f"injection where {functor!r} was expected")
        return Inl(term_from_json(functor.left, body, monad, q, states))
    if key == "inr":
        if not isinstance(functor, CoprodF):
            raise ModelFormatError(f"injection where {functor!r} was expected")
        return Inr(term_from_json(functor.right, body, monad, q, states))
    raise ModelFormatError(f"unknown term node {key!r}")


# -- models ---------------------------------------------------------------------------

@dataclass
class DistanceInstance:
    """A bare distance matrix plus optional named distributions."""

    graph: VGraph
    distributions: Dict[str, SubDist]


#: Names that read as another value's canonical key or break a CLI
#: literal: the boolean and infinity keys, the empty name, rational
#: literals, and names holding a character that delimits set,
#: distribution and pair literals.
RESERVED_NAMES = frozenset({"", "T", "F", "inf"})
_RESERVED_CHAR = re.compile(r"[{},:|\s]")


def _reserved(name: str) -> bool:
    if name in RESERVED_NAMES or _RESERVED_CHAR.search(name):
        return True
    if name[0] not in "+-.0123456789":  # how every rational literal starts
        return False
    try:
        Fraction(name)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _names(value, what: str):
    if not _is_name_list(value):
        raise ModelFormatError(f"{what} must be a list of names, got {value!r}")
    return carrier(value)


def _point_names(value, what: str):
    """Names of states or graph elements, which become canonical keys."""
    points = _names(value, what)
    for name in points:
        if _reserved(name):
            raise ModelFormatError(
                f"reserved name {name!r} in {what}: a name may not be T, F, "
                f"inf, a rational or empty, nor contain {{ }} , : | or whitespace")
    return points


def model_from_json(doc: dict):
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    kind = doc.get("kind", "coalgebra")
    if kind == "vgraph":
        try:
            q = get_quantale(doc["quantale"])
            elements = _point_names(doc["elements"], "elements")
            rows = doc["dist"]
        except KeyError as exc:
            raise ModelFormatError(f"missing model field {exc}") from None
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ModelFormatError(f"dist must be a list of rows, got {rows!r}")
        named = doc.get("distributions", {})
        if not isinstance(named, dict):
            raise ModelFormatError(
                f"distributions must be an object keyed by name, got {named!r}")
        dists = {name: check_members(SUBDIST, SUBDIST.from_json({"dist": weights}),
                                     elements, "an element")
                 for name, weights in named.items()}
        dist = [[q.value_from_json(v) for v in row] for row in rows]
        return DistanceInstance(VGraph(q, elements, dist, validated=True), dists)
    if kind != "coalgebra":
        raise ModelFormatError(f"unknown model kind {kind!r}")
    try:
        q = get_quantale(doc["quantale"])
        try:
            monad = get_monad(doc["monad"])
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
        functor = functor_from_json(doc["functor"])
        try:
            DistLaw(functor, monad, q)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
        states = _point_names(doc["states"], "states")
        labels = _names(doc.get("labels", []), "labels")
        if not isinstance(doc["transitions"], dict):
            raise ModelFormatError(
                f"transitions must be an object keyed by state, got {doc['transitions']!r}")
        transitions = {
            state: term_from_json(functor, term_doc, monad, q, states)
            for state, term_doc in doc["transitions"].items()
        }
    except KeyError as exc:
        raise ModelFormatError(f"missing model field {exc}") from None
    for product_labels in _labelled_products(functor):
        if product_labels != labels.elements:
            raise ModelFormatError(
                f"labelled product over {product_labels} does not match the "
                f"model labels {labels.elements}")
    for x in states:
        if x not in transitions:
            raise ModelFormatError(f"state {x!r} has no transition")
    for x in transitions:
        if x not in states:
            raise ModelFormatError(f"transition for unknown state {x!r}")
    return CoalgebraModel(q, functor, monad, states, labels, transitions)


def _labelled_products(functor):
    """Yield the label tuples of every labelled product in the functor."""
    if isinstance(functor, ProdF):
        if functor.labels is not None:
            yield functor.labels
        else:
            for part in functor.parts:
                yield from _labelled_products(part)
    elif isinstance(functor, CoprodF):
        yield from _labelled_products(functor.left)
        yield from _labelled_products(functor.right)


def model_to_json(model: CoalgebraModel) -> dict:
    return {
        "kind": "coalgebra",
        "quantale": model.quantale.ident,
        "monad": model.monad.name,
        "functor": functor_to_json(model.functor),
        "states": list(model.states.elements),
        "labels": list(model.labels.elements),
        "transitions": {
            s: term_to_json(model.functor, t, model.monad, model.quantale, model.states)
            for s, t in model.transitions.items()
        },
    }


# -- certificates -----------------------------------------------------------------------

def _rows(value, what: str):
    if not isinstance(value, list) or not all(isinstance(r, dict) for r in value):
        raise ModelFormatError(f"{what} must be a list of objects, got {value!r}")
    return value


def certificate_from_json(doc: dict, model: CoalgebraModel) -> Certificate:
    """Read a certificate over the model's determinized states, each read
    by ``state_from_json``."""
    if not isinstance(doc, dict):
        raise ModelFormatError("certificate document must be a JSON object")
    q = model.quantale
    monad = model.monad
    states = model.states

    def pair_of(row):
        return (state_from_json(monad, row["lhs"], states),
                state_from_json(monad, row["rhs"], states))

    literals = {}

    def value_of(raw):
        if not isinstance(raw, str):  # True and 1 hash alike; lists do not hash
            return q.value_from_json(raw)
        value = literals.get(raw)
        if value is None:
            value = literals[raw] = q.value_from_json(raw)
        return value

    try:
        entries = {}
        for row in _rows(doc["entries"], "certificate entries"):
            pair = pair_of(row)
            value = value_of(row["value"])
            if entries.get(pair, value) != value:
                left, right = map(model.det().value, pair)
                raise ModelFormatError(
                    f"conflicting entries for ({canon_key(left)}, {canon_key(right)}): "
                    f"{q.value_to_json(entries[pair])} and {q.value_to_json(value)}")
            entries[pair] = value
        witnesses = {}
        for row in _rows(doc.get("witnesses", []), "certificate witnesses"):
            pair = pair_of(row)
            parts = tuple((pair_of(part), monad.part_weight(part))
                          for part in _rows(row["parts"], "witness parts"))
            # A convex witness is a subdistribution of pairs: a negative
            # weight on a pair of empty parts would lower the bound without
            # changing the marginals.
            weights = [w for _p, w in parts if w is not None]
            if any(w < 0 for w in weights) or sum(weights) > 1:
                raise ModelFormatError(
                    f"witness weights {', '.join(map(str, weights))} are not "
                    f"non-negative with sum at most 1")
            witnesses.setdefault(pair, []).append(parts)
    except KeyError as exc:
        raise ModelFormatError(f"missing certificate field {exc}") from None
    candidate = SparseDist(q)
    candidate.entries = entries  # value_from_json has validated every value
    return Certificate(monad, candidate, witnesses)


def certificate_to_json(cert: Certificate, model: CoalgebraModel) -> dict:
    """The document ``certificate_from_json`` reads back as ``cert``."""
    q = model.quantale
    value = model.det().value
    to_json = lambda state: cert.monad.to_json(value(state))
    entries = [{"lhs": to_json(l), "rhs": to_json(r), "value": q.value_to_json(v)}
               for (l, r), v in cert.candidate.entries.items()]
    witnesses = []
    for (l, r), wits in cert.witnesses.items():
        for w in wits:
            parts = []
            for (a, b), weight in w:
                part = {} if weight is None else {"weight": str(weight)}
                parts.append(dict(part, lhs=to_json(a), rhs=to_json(b)))
            witnesses.append({"lhs": to_json(l), "rhs": to_json(r), "parts": parts})
    return {"entries": entries, "witnesses": witnesses}


# -- files and fixtures ---------------------------------------------------------------------

def load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None


def fixture_text(name: str) -> str:
    return resources.files("quantadist.fixtures").joinpath(name).read_text("utf-8")


def load_fixture(name: str) -> dict:
    return json.loads(fixture_text(name))


def fixture_model(name: str):
    return model_from_json(load_fixture(name))


def fixture_certificate(name: str, model: CoalgebraModel) -> Certificate:
    return certificate_from_json(load_fixture(name), model)
