"""JSON reading of functors, terms, models and certificates, the
certificate writer, and the bundled example fixtures.

Rationals travel as lowest-term strings ("7/10"), infinity as "inf",
booleans as JSON booleans.  A powerset model's sets of states, at its
identity leaves and in its certificates, are read straight into states
of the determinization, bitmasks over the point states (see
``DetCoalgebra``), through the state carrier's name-to-bit table
(``Carrier.bits``).  Transition terms are read by a reader compiled
once per model from its functor (``term_reader``): each functor
node looks up the keys it accepts, with no dispatch on the term key or
on the functor syntax.  A model file is either a coalgebra
(functor, monad, states, labels, per-state transition terms) or a bare
distance matrix with optional named distributions (used by the
transportation example).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Dict, Tuple

from .behaviour import Certificate, CoalgebraModel
from .canon import canon_key
from .distlaw import constants_defined
from .functor import (ConstF, ConstLeaf, CoprodF, IdF, IdLeaf, Inl, Inr, ProdF,
                      Tup, pow_functor)
from .monadlift import (POWERSET, Monad, Row, SubDist, dist_rows, get_monad,
                        set_members_from_json, subdist_of_rows)
from .quantale import BOOLEAN, RATIONAL_LITERAL, Quantale, get_quantale
from .vgraph import Carrier, VGraph, carrier


class ModelFormatError(ValueError):
    """The document does not describe a valid model or certificate."""


# -- functor expressions ---------------------------------------------------------

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
        return ConstF()
    if key == "prod":
        if not isinstance(body, list):
            raise ModelFormatError(f"a product has a list of parts, got {body!r}")
        if not body:
            raise ModelFormatError("empty product")
        return ProdF(tuple(functor_from_json(p) for p in body))
    if key == "pow":
        if not isinstance(body, dict) or not _is_name_list(body.get("labels")):
            raise ModelFormatError(
                f"a power has a label list and a body, got {body!r}")
        if not body["labels"]:
            raise ModelFormatError("empty product")
        return pow_functor(body["labels"], functor_from_json(body["body"]))
    if key == "coprod":
        if not isinstance(body, list) or len(body) != 2:
            raise ModelFormatError(f"a coproduct has two summands, got {body!r}")
        left, right = body
        return CoprodF(functor_from_json(left), functor_from_json(right))
    raise ModelFormatError(f"unknown functor node {key!r}")


# -- terms -------------------------------------------------------------------------

def check_members(monad: Monad, t, points: Carrier, what: str = "a state"):
    """Return the monad value ``t`` if every member is one of ``points``;
    raise ``ModelFormatError`` naming the first member that is not."""
    for m, _w in monad.weighted(t):
        if m not in points:
            raise ModelFormatError(f"{m!r} is not {what}")
    return t


def state_reader(monad: Monad, states: Carrier) -> Callable[[object], object]:
    """The reader of monad values over ``states`` as states of the
    determinized system (see ``DetCoalgebra``).  A powerset member list
    goes straight into its mask through the carrier's name-to-bit table
    (``Carrier.bits``).  A value with a member that is not a state raises
    ``ModelFormatError`` naming the first such member in the value's
    canonical order."""
    if monad is not POWERSET:
        return lambda doc: check_members(monad, monad.from_json(doc), states)
    bits = states.bits()

    def read_set(doc):
        members = doc.get("set") if isinstance(doc, dict) else None
        if isinstance(members, list):
            mask = 0
            try:
                for x in members:
                    mask |= bits[x]
                return mask
            except (KeyError, TypeError):  # a name that is no state, or no name
                pass
        names = set_members_from_json(doc)
        missing = min(m for m in names if m not in bits)
        raise ModelFormatError(f"{missing!r} is not a state")
    return read_set


def term_reader(functor, monad: Monad, q: Quantale,
                states: Carrier) -> Callable[[object], object]:
    """Compile the reader of transition terms of ``functor``, built to its
    shape: every member of an identity-leaf monad value must be one of
    ``states``, and the value is read as a state (``state_reader``).  A
    labelled tuple names exactly its product's labels.

    Each functor node gets its own reader, which tests that the document
    is a one-key object and looks up each key the node accepts (``const``;
    ``id``; ``tuple``, and ``pow`` on a labelled product; ``inl`` and
    ``inr``), so a term document is read with no dispatch on the key.
    Every other document is refused by one function, with the message
    naming what is wrong.  The readers of a model's terms share one state
    reader and so one name-to-bit table."""
    return _node_reader(functor, q, state_reader(monad, states))


#: The term node each key names, for the message refusing it where the
#: functor has another node.
_MISPLACED = {"const": "constant leaf", "id": "identity leaf",
              "pow": "labelled tuple", "inl": "injection", "inr": "injection"}

#: Stands for a key the document does not have; a null body is a body.
_ABSENT = object()


def _node_reader(functor, q: Quantale, read_state) -> Callable[[object], object]:
    """The reader of terms of one functor node: one test that the document
    is a one-key object and one lookup per key the node accepts.  Any
    other document is refused with ``_refusal``."""
    if isinstance(functor, ConstF):
        value_from_json = q.value_from_json

        def read(doc):
            if isinstance(doc, dict) and len(doc) == 1:
                body = doc.get("const", _ABSENT)
                if body is not _ABSENT:
                    return ConstLeaf(value_from_json(body))
            raise _refusal(functor, doc)
    elif isinstance(functor, IdF):
        def read(doc):
            if isinstance(doc, dict) and len(doc) == 1:
                body = doc.get("id", _ABSENT)
                if body is not _ABSENT:
                    return IdLeaf(read_state(body))
            raise _refusal(functor, doc)
    elif isinstance(functor, ProdF):
        parts = [_node_reader(part, q, read_state) for part in functor.parts]
        n = len(parts)
        labels = functor.labels
        labelled = None if labels is None else tuple(zip(labels, parts))
        known = frozenset(labels or ())
        k = len(known)

        def read(doc):
            if isinstance(doc, dict) and len(doc) == 1:
                if labelled is not None:
                    body = doc.get("pow")
                    if isinstance(body, dict) and len(body) == k \
                            and known.issuperset(body):
                        return Tup(tuple([read_part(body[lab])
                                          for lab, read_part in labelled]))
                body = doc.get("tuple")
                if isinstance(body, list) and len(body) == n:
                    return Tup(tuple([read_part(item)
                                      for read_part, item in zip(parts, body)]))
            raise _refusal(functor, doc)
    elif isinstance(functor, CoprodF):
        left = _node_reader(functor.left, q, read_state)
        right = _node_reader(functor.right, q, read_state)

        def read(doc):
            if isinstance(doc, dict) and len(doc) == 1:
                body = doc.get("inl", _ABSENT)
                if body is not _ABSENT:
                    return Inl(left(body))
                body = doc.get("inr", _ABSENT)
                if body is not _ABSENT:
                    return Inr(right(body))
            raise _refusal(functor, doc)
    else:
        raise TypeError(f"not a functor expression: {functor!r}")
    return read


def _refusal(functor, doc) -> ModelFormatError:
    """The error refusing a term document that the reader of ``functor``
    does not accept."""
    if not isinstance(doc, dict) or len(doc) != 1:
        return ModelFormatError(f"bad term document: {doc!r}")
    (key, body), = doc.items()
    if key == "tuple":
        return ModelFormatError(f"tuple arity mismatch at {doc!r}")
    if key == "pow" and isinstance(functor, ProdF) and functor.labels is not None:
        if not isinstance(body, dict):
            return ModelFormatError(f"a labelled tuple is an object, got {body!r}")
        labels = functor.labels
        missing = [lab for lab in labels if lab not in body]
        if missing:
            return ModelFormatError(f"missing labels {missing} in {doc!r}")
        unknown = [lab for lab in body if lab not in labels]
        return ModelFormatError(f"unknown labels {unknown} in {doc!r}")
    what = _MISPLACED.get(key)
    if what is None:
        return ModelFormatError(f"unknown term node {key!r}")
    return ModelFormatError(f"{what} where {functor!r} was expected")


# -- models ---------------------------------------------------------------------------

@dataclass
class DistanceInstance:
    """A bare distance matrix plus optional named distributions.  Each
    distribution is checked where the document is read and kept as its
    rows (``monadlift.dist_rows``); ``distribution`` builds the
    ``SubDist`` of one, when a pair names it."""

    graph: VGraph
    named: Dict[str, Tuple[Row, ...]]

    def distribution(self, name: str) -> SubDist:
        return subdist_of_rows(self.named[name])


def literal_reader(q: Quantale) -> Callable[[object], object]:
    """A reader of the quantale literals of one document: each distinct
    string literal goes through ``q.value_from_json`` once, and a repeat
    reads back the value of its first occurrence."""
    literals = {}

    def value_of(raw):
        if not isinstance(raw, str):  # True and 1 hash alike; lists do not hash
            return q.value_from_json(raw)
        value = literals.get(raw)
        if value is None:
            value = literals[raw] = q.value_from_json(raw)
        return value

    return value_of


#: Names that read as another value's canonical key or break a CLI
#: literal: the boolean and infinity keys, the empty name, rational
#: literals, and names holding a character that delimits set,
#: distribution and pair literals.
RESERVED_NAMES = frozenset({"", "T", "F", "inf"})
_RESERVED_CHAR = re.compile(r"[{},:|\s]")


def _reserved(name: str) -> bool:
    return name in RESERVED_NAMES or _RESERVED_CHAR.search(name) is not None \
        or name[0] in "+-.0123456789" and RATIONAL_LITERAL.fullmatch(name) is not None


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
        # A pair on the command line names a distribution where it could
        # write a literal, so the names follow the rule of point names.
        _point_names(list(named), "distributions")
        dists = {}
        for name, weights in named.items():
            dists[name] = dist_rows({"dist": weights})
            for x, _n, _d in dists[name]:
                if x not in elements:
                    raise ModelFormatError(f"{x!r} is not an element")
        value_of = literal_reader(q)
        dist = [[value_of(v) for v in row] for row in rows]
        if len(dist) != len(elements) or any(len(row) != len(elements) for row in dist):
            raise ModelFormatError("distance matrix does not match the carrier size")
        return DistanceInstance(VGraph(q, elements, dist), dists)
    if kind != "coalgebra":
        raise ModelFormatError(f"unknown model kind {kind!r}")
    try:
        q = get_quantale(doc["quantale"])
        try:
            monad = get_monad(doc["monad"])
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
        functor = functor_from_json(doc["functor"])
        if not constants_defined(functor, monad, q):
            raise ModelFormatError("subdistributions over the boolean quantale admit no "
                                   "value constants: expectation is not defined over "
                                   "the boolean quantale")
        states = _point_names(doc["states"], "states")
        labels = _names(doc.get("labels", []), "labels")
        if not isinstance(doc["transitions"], dict):
            raise ModelFormatError(
                f"transitions must be an object keyed by state, got {doc['transitions']!r}")
        read_term = term_reader(functor, monad, q, states)
        transitions = {state: read_term(term_doc)
                       for state, term_doc in doc["transitions"].items()}
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


# -- certificates -----------------------------------------------------------------------

def _rows(value, what: str):
    if not isinstance(value, list) or not all(isinstance(r, dict) for r in value):
        raise ModelFormatError(f"{what} must be a list of objects, got {value!r}")
    return value


def certificate_from_json(doc: dict, model: CoalgebraModel) -> Certificate:
    """Read a certificate against the model: its pairs are states of one
    determinization of the model, built here and held by the certificate,
    each read by the model's ``state_reader``.

    A witness is checked here, where it enters, and nowhere else: the
    model's law must admit witnesses (``DistLaw.witnesses_sound``), its
    weights must be non-negative with sum at most 1, and its parts must
    flatten to its pair on each side, by the determinization's own
    multiplication on states (``DetCoalgebra.mult``).  A witness that
    fails is malformed even where no support pair reads it.

    An entry row costs one dict operation: a pair given twice must
    restate its first value, and ``literal_reader`` reads a repeated
    literal back as the same object, so a repeat compares no values."""
    if not isinstance(doc, dict):
        raise ModelFormatError("certificate document must be a JSON object")
    q = model.quantale
    monad = model.monad
    det = model.det()
    read_state = state_reader(monad, model.states)
    value_of = literal_reader(q)

    def named(pair):
        left, right = map(det.value, pair)
        return f"({canon_key(left)}, {canon_key(right)})"

    def pair_of(row):
        return read_state(row["lhs"]), read_state(row["rhs"])

    try:
        entries = {}
        for row in _rows(doc["entries"], "certificate entries"):
            pair = pair_of(row)
            value = value_of(row["value"])
            old = entries.setdefault(pair, value)
            if old is not value and old != value:
                raise ModelFormatError(
                    f"conflicting entries for {named(pair)}: "
                    f"{q.value_to_json(old)} and {q.value_to_json(value)}")
        witnesses = {}
        witness_rows = _rows(doc.get("witnesses", []), "certificate witnesses")
        if witness_rows and not det.law.witnesses_sound:
            condition = ("the boolean quantale, where the expectation is not defined"
                         if q is BOOLEAN else "unit-oplus with a coproduct in the functor")
            raise ModelFormatError(f"witnesses are unsound on subdistributions over "
                                   f"{condition}; give plain entries only")
        for row in witness_rows:
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
            for i, side in enumerate(("left", "right")):
                flat = det.mult([(part[i], w) for part, w in parts])
                if flat != pair[i]:
                    raise ModelFormatError(
                        f"witness for {named(pair)}: its parts' {side} states flatten "
                        f"to {canon_key(det.value(flat))}, not "
                        f"{canon_key(det.value(pair[i]))}")
            witnesses.setdefault(pair, []).append(parts)
    except KeyError as exc:
        raise ModelFormatError(f"missing certificate field {exc}") from None
    return Certificate(det, entries, witnesses)


def certificate_to_json(cert: Certificate) -> dict:
    """The document ``certificate_from_json`` reads back as ``cert``
    against the model of ``cert.det``."""
    det = cert.det
    q = det.law.quantale
    monad_to_json = det.law.monad.to_json
    to_json = lambda state: monad_to_json(det.value(state))
    entries = [{"lhs": to_json(l), "rhs": to_json(r), "value": q.value_to_json(v)}
               for (l, r), v in cert.entries.items()]
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
    except RecursionError:
        raise ModelFormatError(
            f"{path}: the document nests deeper than the JSON reader allows") from None


def fixture_text(name: str) -> str:
    return resources.files("quantadist.fixtures").joinpath(name).read_text("utf-8")


def load_fixture(name: str) -> dict:
    return json.loads(fixture_text(name))


def fixture_model(name: str):
    return model_from_json(load_fixture(name))


def fixture_certificate(name: str, model: CoalgebraModel) -> Certificate:
    return certificate_from_json(load_fixture(name), model)
