from fractions import Fraction as F

import pytest

from quantadist.behaviour import CoalgebraModel
from quantadist.distlaw import point_mask
from quantadist.functor import (ConstLeaf, IdLeaf, Inl, Inr, Tup,
                                exception_functor, machine_functor)
from quantadist.monadlift import POWERSET, SUBDIST, dirac, subdist
from quantadist.quantale import UNIT_OPLUS
from quantadist.vgraph import carrier


def machine_term(out, dist):
    return Tup((ConstLeaf(out), Tup((IdLeaf(dist),))))


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


@pytest.fixture
def probchain():
    return build_probchain()


@pytest.fixture
def exceptions3():
    return build_exceptions(3)
