"""Exact computation of the four monad-composition counterexamples.

For each combination of an outer and an inner monad (powerset or
distribution, each carrying its single evaluation map), one routine,
``counterexample``, computes the composed two-step lifting and the
single combined-map lifting exactly on the standard two-point discrete
instance.  The two-step side runs the closed forms (directed Hausdorff,
the transportation LP) twice: the inner lifting on three inner values,
then the outer one on that graph.  The combined side is the outer
lifting of the flattened values when the two monads coincide; for a
mixed pair, attaining-member case enumeration with one LP per case.
The combined-map objectives are piecewise linear, so that enumeration
is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Dict, Sequence

from .canon import canon_key
from .monadlift import (POWERSET, SUBDIST, FinSubset, Monad, SubDist, dirac,
                        finsubset, hausdorff_directed, kantorovich_lp,
                        price_polytope, subdist)
from .quantale import UNIT_OPLUS
from .simplex import LinearConstraint, LPProblem, simplex_solve
from .vgraph import Carrier, VGraph, graph_from_entries

_HALF = Fraction(1, 2)


def discrete_two_points() -> VGraph:
    c = Carrier(("x", "y"))
    return graph_from_entries(UNIT_OPLUS, c,
                              {("x", "y"): Fraction(1), ("y", "x"): Fraction(1)},
                              default=Fraction(0))


def _lift(d: VGraph, left, right):
    """The monad lifting of ``d`` at two values of one monad: directed
    Hausdorff on sets, the transportation LP on subdistributions."""
    if isinstance(left, FinSubset):
        return hausdorff_directed(d, left, right)
    return kantorovich_lp(d, left, right)


def inner_graph(d: VGraph, values: Sequence) -> VGraph:
    """The lifting of ``d`` on monad values, over their canonical keys."""
    keys = Carrier(tuple([canon_key(v) for v in values]))  # a list, as in finsubset
    return VGraph(d.quantale, keys, [[_lift(d, s, t) for t in values] for s in values])


def combined_pow_dist(d: VGraph, left: FinSubset, right: FinSubset):
    """The sup-of-expectations lifting at a pair of sets of distributions.

    For each member of the right-hand set an LP maximizes its expected
    score against the best left-hand member (the inner max turns into
    min-constraints); the overall value is the best case, at least zero.
    """
    variables, bounds, base = price_polytope(d)
    best = Fraction(0)
    for nu in right.members:
        constraints = list(base)
        for mu in left.members:
            coeffs = {"t": Fraction(1)}
            for x in d.carrier:
                delta = mu.weight(x) - nu.weight(x)
                if delta != 0:
                    coeffs[f"f_{x}"] = coeffs.get(f"f_{x}", Fraction(0)) + delta
            constraints.append(LinearConstraint(coeffs, Fraction(0)))
        lp = LPProblem(variables + ["t"], {"t": Fraction(1)}, constraints,
                       {**bounds, "t": (None, None)})
        best = max(best, simplex_solve(lp).optimum)
    return best


def combined_dist_pow(d: VGraph, left: SubDist, right: SubDist):
    """The expectation-of-sups lifting at a pair of distributions over
    sets, by enumerating which member of each subset attains its sup;
    the value is the best case, at least zero."""
    variables, bounds, base = price_polytope(d)
    sets = list(dict.fromkeys(list(left.support()) + list(right.support())))
    best = Fraction(0)
    for selection in product(*[list(s.members) for s in sets]):
        attain = dict(zip(sets, selection))
        constraints = list(base)
        objective: Dict[str, Fraction] = {}
        for s in sets:
            top = attain[s]
            for z in s.members:
                if z != top:
                    constraints.append(LinearConstraint(
                        {f"f_{z}": Fraction(1), f"f_{top}": Fraction(-1)}, Fraction(0)))
            coeff = right.weight(s) - left.weight(s)
            if coeff != 0:
                objective[f"f_{top}"] = objective.get(f"f_{top}", Fraction(0)) + coeff
        lp = LPProblem(variables, objective, constraints, bounds)
        best = max(best, simplex_solve(lp).optimum)
    return best


def _inner_values(inner: Monad):
    """The inner values (x, middle, y) on the two points."""
    if inner is POWERSET:
        return finsubset(["x"]), finsubset(["x", "y"]), finsubset(["y"])
    return dirac("x"), subdist({"x": _HALF, "y": _HALF}), dirac("y")


def _compared(outer: Monad, a, middle, b):
    """The compared outer pair over inner values (a, middle, b): the sets
    {a, b} and {a, middle, b}, or the mixture of a and b against the
    middle."""
    if outer is POWERSET:
        return finsubset([a, b]), finsubset([a, middle, b])
    return subdist({a: _HALF, b: _HALF}), dirac(middle)


@dataclass
class CounterexampleReport:
    name: str
    composed: object
    combined: object


_NOUNS = {POWERSET: "powerset", SUBDIST: "distribution"}


def counterexample(outer: Monad, inner: Monad) -> CounterexampleReport:
    """The two liftings of ``outer`` after ``inner`` at one compared pair.

    The composed side is the outer lifting on the inner graph, at the
    pair built from the inner values' keys; the combined side compares
    the pair built from the inner values themselves."""
    d = discrete_two_points()
    values = _inner_values(inner)
    composed = _lift(inner_graph(d, values),
                     *_compared(outer, *(canon_key(v) for v in values)))
    left, right = _compared(outer, *values)
    if outer is inner:
        combined = _lift(d, outer.mult(left), outer.mult(right))
    elif outer is POWERSET:
        combined = combined_pow_dist(d, left, right)
    else:
        combined = combined_dist_pow(d, left, right)
    return CounterexampleReport(f"{_NOUNS[outer]} after {_NOUNS[inner]}",
                                composed, combined)


CASES = {
    "pp": partial(counterexample, POWERSET, POWERSET),
    "pd": partial(counterexample, POWERSET, SUBDIST),
    "dp": partial(counterexample, SUBDIST, POWERSET),
    "dd": partial(counterexample, SUBDIST, SUBDIST),
}
