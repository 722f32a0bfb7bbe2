from fractions import Fraction as F

import pytest

from quantadist.behaviour import CoalgebraModel
from quantadist.distlaw import mask_value, point_mask
from quantadist.functor import (ConstF, ConstLeaf, CoprodF, IdF, IdLeaf, Inl, Inr,
                                ProdF, ShapeError, Tup, exception_functor,
                                machine_functor)
from quantadist.monadlift import POWERSET, SUBDIST, dirac, subdist
from quantadist.quantale import EXT_PLUS, UNIT_OPLUS
from quantadist.vgraph import CarrierMismatchError, carrier, graph_from_entries


def machine_term(out, dist):
    return Tup((ConstLeaf(out), Tup((IdLeaf(dist),))))


def geo():
    """The symmetric three-point road map of the transport instance."""
    c = carrier(["A", "B", "C"])
    return graph_from_entries(EXT_PLUS, c, {
        ("A", "B"): F(3), ("B", "A"): F(3),
        ("A", "C"): F(5), ("C", "A"): F(5),
        ("B", "C"): F(4), ("C", "B"): F(4)}, default=F(0))


def build_probchain() -> CoalgebraModel:
    trans = {
        "x": machine_term(F(1, 2), subdist({"x": F(1, 2), "x'": F(1, 2)})),
        "x'": machine_term(F(1), dirac("x'")),
        "y": machine_term(F(1, 2), dirac("y")),
    }
    return CoalgebraModel(UNIT_OPLUS, machine_functor(["a"]), SUBDIST,
                          carrier(["x", "x'", "y"]), carrier(["a"]), trans)


def build_exceptions(n: int = 3, values=(F(1, 4), F(1, 3), F(1, 2))) -> CoalgebraModel:
    """The exception case study with chains of length n; ``values`` are the
    throw values of the x, y and z chains.  Successor sets are states of
    the determinization, masks over the point states."""
    states = carrier([f"{fam}{i}" for fam in "xyz" for i in range(n + 1)])
    trans = {}
    for fam, val in zip("xyz", values):
        for i in range(n):
            if i == 0:
                if fam == "x":
                    succ = {"a": ["x0", "x1"], "b": ["x0"]}
                elif fam == "y":
                    succ = {"a": ["y0"], "b": ["y0", "y1"]}
                else:
                    succ = {"a": ["z0", "z1"], "b": ["z0", "z1"]}
            else:
                succ = {"a": [f"{fam}{i + 1}"], "b": [f"{fam}{i + 1}"]}
            trans[f"{fam}{i}"] = Inr(Tup((IdLeaf(point_mask(succ["a"], states)),
                                          IdLeaf(point_mask(succ["b"], states)))))
        trans[f"{fam}{n}"] = Inl(ConstLeaf(val))
    return CoalgebraModel(UNIT_OPLUS, exception_functor(["a", "b"]), POWERSET,
                          states, carrier(["a", "b"]), trans)


# -- the model writer: the document ``models.model_from_json`` reads back ------------

def functor_to_json(f) -> object:
    if isinstance(f, ConstF):
        return {"const": "value"}
    if isinstance(f, IdF):
        return "id"
    if isinstance(f, ProdF):
        if f.labels is not None and all(p == f.parts[0] for p in f.parts):
            return {"pow": {"labels": list(f.labels),
                            "body": functor_to_json(f.parts[0])}}
        return {"prod": [functor_to_json(p) for p in f.parts]}
    assert isinstance(f, CoprodF), f
    return {"coprod": [functor_to_json(f.left), functor_to_json(f.right)]}


def term_to_json(functor, term, monad, q, states) -> object:
    """The document ``models.term_reader(functor, monad, q, states)``
    reads back as ``term``."""
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
    if isinstance(term, Inl):
        return {"inl": term_to_json(functor.left, term.item, monad, q, states)}
    return {"inr": term_to_json(functor.right, term.item, monad, q, states)}


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


def shape_check(functor, term) -> None:
    """Raise ``ShapeError`` unless ``term`` has the shape of ``functor``:
    the check the model loader makes as it builds each term, and the one
    the grid oracle makes on its terms."""
    if isinstance(functor, ConstF):
        if not isinstance(term, ConstLeaf):
            raise ShapeError(f"expected a constant leaf, got {term!r}")
        return
    if isinstance(functor, IdF):
        if not isinstance(term, IdLeaf):
            raise ShapeError(f"expected an identity leaf, got {term!r}")
        return
    if isinstance(functor, ProdF):
        if not isinstance(term, Tup) or len(term.items) != len(functor.parts):
            raise ShapeError(f"expected a {len(functor.parts)}-tuple, got {term!r}")
        for part, item in zip(functor.parts, term.items):
            shape_check(part, item)
        return
    if isinstance(functor, CoprodF):
        if isinstance(term, Inl):
            shape_check(functor.left, term.item)
        elif isinstance(term, Inr):
            shape_check(functor.right, term.item)
        else:
            raise ShapeError(f"expected an injection, got {term!r}")
        return
    raise ShapeError(f"not a functor expression: {functor!r}")


def origin_feasible(lp) -> bool:
    """The precondition of ``simplex_solve`` on an ``LPProblem``: each
    lower bound is 0 or free and every rhs and upper bound is
    non-negative, so the origin is a feasible start."""
    return (all(c.rhs >= 0 for c in lp.constraints)
            and all(lo in (0, None) and (hi is None or hi >= 0)
                    for lo, hi in lp.bounds.values()))


def graph_equal(d1, d2) -> bool:
    """Equality of two graphs over one quantale and carrier; graphs over
    different ones raise ``CarrierMismatchError``."""
    if d1.quantale is not d2.quantale:
        raise CarrierMismatchError("graphs over different quantales")
    if d1.carrier != d2.carrier:
        raise CarrierMismatchError("graphs over different carriers")
    return d1.dist == d2.dist


def graph_leq(d1, d2) -> bool:
    """The pointwise quantale order of two graphs on one carrier."""
    assert d1.quantale is d2.quantale and d1.carrier == d2.carrier
    leq, n = d1.quantale.leq, len(d1.carrier)
    return all(leq(d1.dist[i][j], d2.dist[i][j]) for i in range(n) for j in range(n))


@pytest.fixture
def probchain():
    return build_probchain()


@pytest.fixture
def exceptions3():
    return build_exceptions(3)
